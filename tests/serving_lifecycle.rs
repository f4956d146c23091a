//! Smoke test of the HTTP serving lifecycle through the facade: a server
//! booted from a binary checkpoint answers a miss, then a cache hit; in
//! degraded mode it serves the hit and sheds the miss; a reload restores
//! it, and a reload of a text checkpoint degrades it; hostile AIGER bodies are 400s, not a dead server; a renumbered
//! circuit gets exactly a fresh engine's answer; and a drain
//! reports every request it served. Idle keep-alive connections never
//! delay a new client.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use deepseq::core::{DeepSeq, DeepSeqConfig};
use deepseq::netlist::{parse_aiger, write_aiger, SeqAig};
use deepseq::nn::Pool;
use deepseq::serve::json::response_to_json;
use deepseq::serve::{
    Engine, EngineOptions, HttpServer, InferenceModel, ServeRequest, ServerOptions,
};
use deepseq::sim::Workload;

/// One `Connection: close` exchange; returns (status, body).
fn exchange(addr: SocketAddr, method: &str, path: &str, body: &[u8]) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("read timeout");
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).expect("send head");
    stream.write_all(body).expect("send body");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let status = raw
        .split(' ')
        .nth(1)
        .and_then(|code| code.parse().ok())
        .unwrap_or_else(|| panic!("malformed response: {raw:.200}"));
    let body = raw
        .split_once("\r\n\r\n")
        .map_or("", |(_, b)| b)
        .to_string();
    (status, body)
}

/// Opens a keep-alive connection and answers one `GET /healthz` on it,
/// leaving the connection open and idle.
fn idle_keepalive_connection(addr: SocketAddr) -> TcpStream {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("read timeout");
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
        .expect("send request");
    let mut raw = Vec::new();
    let mut chunk = [0u8; 512];
    loop {
        let n = stream.read(&mut chunk).expect("read response");
        assert!(n > 0, "server closed a keep-alive connection");
        raw.extend_from_slice(&chunk[..n]);
        let text = String::from_utf8_lossy(&raw);
        let Some((head, body)) = text.split_once("\r\n\r\n") else {
            continue;
        };
        let length: usize = head
            .lines()
            .find_map(|line| line.strip_prefix("content-length: "))
            .and_then(|value| value.parse().ok())
            .expect("content-length header");
        if body.len() >= length {
            assert!(head.starts_with("HTTP/1.1 200 "), "{head}");
            assert!(head.contains("connection: keep-alive"), "{head}");
            return stream;
        }
    }
}

/// A two-flip-flop circuit with one input, in ASCII AIGER.
fn circuit() -> String {
    let mut aig = SeqAig::new("pair");
    let en = aig.add_pi("en");
    let q0 = aig.add_ff("q0", false);
    let q1 = aig.add_ff("q1", false);
    let g0 = aig.add_and(en, q0);
    let d0 = aig.add_not(g0);
    let nq1 = aig.add_not(q1);
    let d1 = aig.add_and(q0, nq1);
    aig.connect_ff(q0, d0).expect("connect q0");
    aig.connect_ff(q1, d1).expect("connect q1");
    aig.set_output(q1, "y");
    write_aiger(&aig)
}

/// One circuit in two numberings: the same two AND gates, `a ∧ b` (the
/// output) and `a ∧ ¬b`, defined in either order, in ASCII AIGER.
fn and_pair(swapped: bool) -> String {
    let (both, a_not_b) = ("6 2 4\n", "8 2 5\n");
    let ands = if swapped {
        [a_not_b, both]
    } else {
        [both, a_not_b]
    };
    format!("aag 4 2 0 1 2\n2\n4\n6\n{}{}", ands[0], ands[1])
}

#[test]
fn embed_degrade_reload_and_drain() {
    let dir = std::env::temp_dir().join(format!("deepseq-lifecycle-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("model.dsqm");
    let model = DeepSeq::new(DeepSeqConfig {
        hidden_dim: 8,
        iterations: 2,
        ..DeepSeqConfig::default()
    });
    let checkpoint = model.save_binary();
    std::fs::write(&path, &checkpoint).expect("write checkpoint");
    let engine = Engine::with_pool(
        InferenceModel::from_binary_checkpoint(&checkpoint).expect("checkpoint decodes"),
        EngineOptions {
            workers: 2,
            ..EngineOptions::default()
        },
        Arc::new(Pool::new(2)),
    );
    let server = HttpServer::bind(
        engine,
        ServerOptions {
            checkpoint_path: Some(path.to_string_lossy().into_owned()),
            ..ServerOptions::default()
        },
    )
    .expect("bind 127.0.0.1:0");
    let addr = server.local_addr();
    let circuit = circuit();
    let embed = |query: &str| {
        exchange(
            addr,
            "POST",
            &format!("/v1/embed?{query}"),
            circuit.as_bytes(),
        )
    };
    let ready = || exchange(addr, "GET", "/healthz?ready=1", b"").0;

    // 1. A miss computes; the same request then hits with equal predictions.
    let (status, miss) = embed("id=1");
    assert_eq!(status, 200, "{miss}");
    assert!(miss.contains("\"cache_hit\":false"), "{miss}");
    let (status, hit) = embed("id=1");
    assert_eq!(status, 200, "{hit}");
    assert_eq!(
        hit,
        miss.replace("\"cache_hit\":false", "\"cache_hit\":true"),
        "a cache hit must repeat the miss's predictions"
    );

    // 2. Degraded: the hit still answers, a miss is shed, not ready.
    assert_eq!(exchange(addr, "POST", "/admin/degrade", b"").0, 200);
    let (status, degraded_hit) = embed("id=1");
    assert_eq!(status, 200, "{degraded_hit}");
    assert_eq!(degraded_hit, hit);
    let (status, shed) = embed("id=2&seed=9");
    assert_eq!(status, 503, "{shed}");
    assert_eq!(ready(), 503);

    // 3. A reload clears degraded mode, and the shed miss computes.
    let (status, body) = exchange(addr, "POST", "/admin/reload", b"");
    assert_eq!(status, 200, "{body}");
    assert_eq!(ready(), 200);
    let (status, computed) = embed("id=2&seed=9");
    assert_eq!(status, 200, "{computed}");
    assert!(computed.contains("\"cache_hit\":false"), "{computed}");

    // 3b. The same model as text is no checkpoint to load: the reload
    // fails and degrades. With `DSQM` written back the server recovers.
    std::fs::write(&path, model.to_text()).expect("write text checkpoint");
    let (status, body) = exchange(addr, "POST", "/admin/reload", b"");
    assert_eq!(status, 500, "{body}");
    assert_eq!(ready(), 503);
    std::fs::write(&path, &checkpoint).expect("write checkpoint back");
    let (status, body) = exchange(addr, "POST", "/admin/reload", b"");
    assert_eq!(status, 200, "{body}");
    assert_eq!(ready(), 200);

    // 4. Hostile bodies are parse errors, not a dead server or a dropped
    // connection: a 32-byte header claiming 2^32 - 1 variables and AND
    // gates (no allocation from the header), a gate defining variable 0
    // followed by a constant operand, and a symbol line that opens with a
    // multi-byte character.
    for hostile in [
        &b"aag 4294967295 0 0 0 4294967295\n"[..],
        b"aag 2 1 0 0 2\n2\n0 2 2\n4 0 2\n",
        "aag 1 1 0 0 0\n2\n\u{e9} x\n".as_bytes(),
    ] {
        let (status, body) = exchange(addr, "POST", "/v1/embed", hostile);
        assert_eq!(
            status,
            400,
            "{:?}: {body}",
            String::from_utf8_lossy(hostile)
        );
        assert!(body.starts_with("{\"error\":"), "{body}");
    }
    // The server lives on; the reload emptied the memo, so the next embed
    // recomputes the first answer.
    let (status, after) = embed("id=1");
    assert_eq!(status, 200, "{after}");
    assert_eq!(after, miss);

    // 5. A renumbering of an earlier circuit is answered for its own
    // numbering: bitwise what a fresh, uncached engine returns.
    let (status, first) = exchange(addr, "POST", "/v1/embed", and_pair(false).as_bytes());
    assert_eq!(status, 200, "{first}");
    let (status, twin) = exchange(addr, "POST", "/v1/embed", and_pair(true).as_bytes());
    assert_eq!(status, 200, "{twin}");
    let fresh = Engine::with_pool(
        InferenceModel::from_binary_checkpoint(&checkpoint).expect("checkpoint decodes"),
        EngineOptions {
            workers: 1,
            cone_capacity: 0,
            ..EngineOptions::default()
        },
        Arc::new(Pool::new(1)),
    );
    let aig = parse_aiger(&and_pair(true)).expect("valid AIGER");
    let expected = fresh
        .serve_batch(vec![ServeRequest {
            id: 0,
            workload: Workload::uniform(aig.num_pis(), 0.5),
            aig,
            init_seed: 0,
        }])
        .pop()
        .expect("one response");
    assert_eq!(twin, response_to_json(&expected, false));

    // 6. Drain: the engine served the miss, the hit, the recomputed miss,
    // the hit after the 400 and both numberings; degraded-mode answers
    // and unparseable bodies never reach it.
    assert_eq!(exchange(addr, "POST", "/admin/drain", b"").0, 200);
    let report = server.shutdown();
    assert_eq!(report.requests_served, 6);
    assert_eq!(report.connections_abandoned, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every connection has a thread of its own, so idle keep-alive
/// connections hold no worker of the compute pool: with as many of them
/// open as a 2-thread pool has threads, a new client is answered at once,
/// not after the 5 s `idle_keepalive` runs out.
#[test]
fn idle_keepalive_connections_do_not_stall_a_new_client() {
    let model = DeepSeq::new(DeepSeqConfig {
        hidden_dim: 8,
        iterations: 2,
        ..DeepSeqConfig::default()
    });
    let engine = Engine::with_pool(
        InferenceModel::from_model(&model),
        EngineOptions::default(),
        Arc::new(Pool::new(2)),
    );
    let server = HttpServer::bind(engine, ServerOptions::default()).expect("bind 127.0.0.1:0");
    let addr = server.local_addr();
    let idle: Vec<TcpStream> = (0..2).map(|_| idle_keepalive_connection(addr)).collect();

    let started = Instant::now();
    let (status, body) = exchange(addr, "GET", "/healthz", b"");
    let waited = started.elapsed();
    assert_eq!(status, 200, "{body}");
    assert!(
        waited < Duration::from_secs(1),
        "a new client waited {waited:?} behind {} idle connections",
        idle.len()
    );

    drop(idle);
    let report = server.shutdown();
    assert_eq!(report.connections_abandoned, 0);
}
