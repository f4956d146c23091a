//! Criterion benchmarks of the HTTP serving edge: full loopback
//! round-trips through a real [`HttpServer`](deepseq_serve::HttpServer) —
//! accept, parse, admission, engine, JSON, socket teardown. The
//! `serve_http_*` ids land in `BENCH_serve.json` next to the in-process
//! engine numbers of `perf_serve`, so the trajectory separates protocol
//! overhead (`healthz`, `embed_hit`) from compute (`embed_miss`) and
//! records a small concurrent burst. `serve_http_healthz_rtt_keepalive`
//! repeats the `healthz` round-trip on one open connection, so its gap
//! to `serve_http_healthz_rtt` is the cost of a new connection: connect,
//! accept, the connection's thread, teardown.
//!
//! The engine is pinned to a 1-thread pool (every connection has its own
//! thread at any pool size; the pool only computes) so the numbers
//! isolate the serial edge and stay comparable across measurement hosts,
//! like the rest of the committed trajectory.
//!
//! Run: `cargo bench -p deepseq-bench --bench perf_http`

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};
use deepseq_core::{DeepSeq, DeepSeqConfig};
use deepseq_netlist::write_aiger;
use deepseq_nn::Pool;
use deepseq_serve::{Engine, EngineOptions, HttpServer, InferenceModel, ServerOptions};

/// One `Connection: close` exchange; returns the status code.
fn exchange(addr: SocketAddr, method: &str, path: &str, body: &[u8]) -> u16 {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).expect("send head");
    stream.write_all(body).expect("send body");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read");
    let text = String::from_utf8_lossy(&raw);
    text.lines()
        .next()
        .and_then(|line| line.split(' ').nth(1))
        .and_then(|code| code.parse().ok())
        .expect("status line")
}

/// One `GET /healthz` on an open keep-alive connection; returns the
/// status code and leaves the connection open for the next call.
fn healthz_keepalive(reader: &mut BufReader<TcpStream>) -> u16 {
    reader
        .get_mut()
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: bench\r\n\r\n")
        .expect("send");
    let mut line = String::new();
    reader.read_line(&mut line).expect("status line");
    let status = line
        .split(' ')
        .nth(1)
        .and_then(|code| code.parse().ok())
        .expect("status code");
    let mut length = 0;
    loop {
        line.clear();
        reader.read_line(&mut line).expect("header line");
        if line == "\r\n" {
            break;
        }
        if let Some(value) = line.strip_prefix("content-length: ") {
            length = value.trim().parse().expect("content-length");
        }
    }
    let mut body = vec![0u8; length];
    reader.read_exact(&mut body).expect("body");
    status
}

/// The `rand200`-scale stand-in of this bench: a 24-bit ripple counter
/// (sequential depth plus a few hundred gates), in ASCII AIGER.
fn counter_aiger() -> String {
    let mut aig = deepseq_netlist::SeqAig::new("counter24");
    let enable = aig.add_pi("enable");
    let ffs: Vec<_> = (0..24)
        .map(|b| aig.add_ff(format!("q{b}"), b % 2 == 0))
        .collect();
    let mut carry = enable;
    for (b, &ff) in ffs.iter().enumerate() {
        let nq = aig.add_not(ff);
        let ncarry = aig.add_not(carry);
        let l = aig.add_and(ff, ncarry);
        let r = aig.add_and(nq, carry);
        let nl = aig.add_not(l);
        let nr = aig.add_not(r);
        let nxor = aig.add_and(nl, nr);
        let next = aig.add_not(nxor);
        let new_carry = aig.add_and(ff, carry);
        aig.connect_ff(ff, next).expect("ff wiring");
        aig.set_output(ff, format!("count{b}"));
        carry = new_carry;
    }
    write_aiger(&aig)
}

fn boot() -> HttpServer {
    let model = DeepSeq::new(DeepSeqConfig {
        hidden_dim: 32,
        iterations: 4,
        ..DeepSeqConfig::default()
    });
    let engine = Engine::with_pool(
        InferenceModel::from_model(&model),
        EngineOptions {
            workers: 1,
            ..EngineOptions::default()
        },
        Arc::new(Pool::new(1)),
    );
    HttpServer::bind(engine, ServerOptions::default()).expect("bind loopback")
}

fn bench_http(c: &mut Criterion) {
    let server = boot();
    let addr = server.local_addr();
    let circuit = counter_aiger();

    // Protocol floor: no admission, no engine — parse + route + respond.
    c.bench_function("serve_http_healthz_rtt", |b| {
        b.iter(|| assert_eq!(exchange(addr, "GET", "/healthz", b""), 200))
    });

    // The same round-trip on one persistent connection: no connect,
    // accept or teardown.
    let mut connection = BufReader::new(TcpStream::connect(addr).expect("connect"));
    c.bench_function("serve_http_healthz_rtt_keepalive", |b| {
        b.iter(|| assert_eq!(healthz_keepalive(&mut connection), 200))
    });
    drop(connection);

    // Cache-hit round-trip: admission + cone-memo lookup + JSON over the
    // wire.
    assert_eq!(
        exchange(addr, "POST", "/v1/embed?seed=0", circuit.as_bytes()),
        200,
        "cache warm-up"
    );
    c.bench_function("serve_http_embed_hit_counter24_d32_t4", |b| {
        b.iter(|| {
            assert_eq!(
                exchange(addr, "POST", "/v1/embed?seed=0", circuit.as_bytes()),
                200
            )
        })
    });

    // Cache-miss round-trip: a fresh init seed per request forces the
    // full forward pass on an unchanged circuit.
    let mut seed = 1u64;
    c.bench_function("serve_http_embed_miss_counter24_d32_t4", |b| {
        b.iter(|| {
            let path = format!("/v1/embed?seed={seed}");
            seed += 1;
            assert_eq!(exchange(addr, "POST", &path, circuit.as_bytes()), 200)
        })
    });

    // A 16-wide concurrent burst of cache hits: accept fan-out, admission
    // contention, and 16 full round-trips per iteration.
    c.bench_function("serve_http_burst16_hit_counter24_d32_t4", |b| {
        b.iter(|| {
            let clients: Vec<_> = (0..16)
                .map(|_| {
                    let circuit = circuit.clone();
                    std::thread::spawn(move || {
                        exchange(addr, "POST", "/v1/embed?seed=0", circuit.as_bytes())
                    })
                })
                .collect();
            for client in clients {
                assert_eq!(client.join().expect("client"), 200);
            }
        })
    });

    let report = server.shutdown();
    assert_eq!(report.connections_abandoned, 0);
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_http
}
criterion_main!(benches);
