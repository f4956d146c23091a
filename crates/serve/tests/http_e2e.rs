//! End-to-end tests of the HTTP serving edge: a real `HttpServer` on a
//! loopback port, exercised by plain `TcpStream` clients.

mod util;

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use deepseq_netlist::parse_aiger;
use deepseq_serve::json::response_to_json;
use deepseq_serve::{HttpServer, ServeRequest, ServerOptions};
use deepseq_sim::Workload;

use util::{assert_prometheus_contract, counter_aiger, exchange, raw_exchange, test_engine};

fn boot(options: ServerOptions) -> (HttpServer, SocketAddr) {
    let server = HttpServer::bind(test_engine(2), options).expect("bind loopback");
    let addr = server.local_addr();
    (server, addr)
}

/// 64 concurrent requests over 8 distinct circuits: every response is
/// 2xx, and every body is byte-identical to what the in-process engine
/// returns for the same request.
#[test]
fn concurrent_load_is_all_2xx_and_bitwise_identical_to_in_process() {
    let (server, addr) = boot(ServerOptions::default());

    // Pre-warm the server's cache with the 8 distinct circuits, one
    // sequential request each. Without this, which of the concurrent
    // requests below is the cache miss for its circuit would be a race,
    // and the `cache_hit` field in the body would be nondeterministic.
    for circuit in 0..8 {
        let body = counter_aiger(circuit);
        let warm = exchange(
            addr,
            "POST",
            &format!("/v1/embed?id={}", 1000 + circuit),
            body.as_bytes(),
        );
        assert_eq!(warm.status, 200, "warm-up {circuit}: {}", warm.body);
    }

    // Expected bodies from a second engine with identical weights, its
    // cache warmed the same way: every measured response is a hit.
    let reference = test_engine(1);
    let expected: Vec<String> = (0..72)
        .map(|ticket| {
            let aig = parse_aiger(&counter_aiger(ticket % 8)).expect("valid AIGER");
            let workload = Workload::uniform(aig.num_pis(), 0.5);
            let response = reference
                .serve_batch(vec![ServeRequest {
                    id: if ticket < 8 {
                        1000 + ticket as u64
                    } else {
                        ticket as u64 - 8
                    },
                    aig,
                    workload,
                    init_seed: 0,
                }])
                .pop()
                .expect("one response");
            response_to_json(&response, false)
        })
        .skip(8)
        .collect();
    let expected = Arc::new(expected);

    let handles: Vec<_> = (0..64)
        .map(|ticket| {
            let expected = Arc::clone(&expected);
            std::thread::spawn(move || {
                let body = counter_aiger(ticket % 8);
                let response = exchange(
                    addr,
                    "POST",
                    &format!("/v1/embed?id={ticket}"),
                    body.as_bytes(),
                );
                assert_eq!(response.status, 200, "ticket {ticket}: {}", response.body);
                assert_eq!(
                    response.body, expected[ticket],
                    "ticket {ticket} diverges from the in-process engine"
                );
            })
        })
        .collect();
    for handle in handles {
        handle.join().expect("client thread");
    }

    // The metrics endpoint reflects the load and honours its contract:
    // the cache hit rate parses as a float.
    let metrics = exchange(addr, "GET", "/metrics", b"");
    assert_eq!(metrics.status, 200);
    let hit_ratio: f64 = metrics
        .body
        .lines()
        .find_map(|line| line.strip_prefix("deepseq_cache_hit_ratio "))
        .expect("hit ratio present")
        .trim()
        .parse()
        .expect("hit ratio parses as f64");
    // 8 distinct circuits over 8 warm-up + 64 load requests: 64 hits.
    assert!(hit_ratio >= 0.8, "hit ratio {hit_ratio}");
    for required in [
        "deepseq_requests_total{endpoint=\"embed\"} 72",
        "deepseq_responses_total{class=\"2xx\"} 72",
        // 72 embed connections + this metrics scrape's own connection.
        "deepseq_connections_total 73",
        "deepseq_http_request_duration_seconds_bucket{le=\"+Inf\"} 72",
        "deepseq_engine_duration_seconds_count 72",
        "deepseq_in_flight 0",
        "deepseq_config_warnings_total",
    ] {
        assert!(
            metrics.body.lines().any(|line| line.starts_with(required)),
            "`{required}` missing from:\n{}",
            metrics.body
        );
    }
    // Beyond the spot checks: the whole payload must be well-formed
    // Prometheus exposition with internally consistent histograms.
    assert_prometheus_contract(&metrics.body);

    let report = server.shutdown();
    assert_eq!(report.requests_served, 72);
    assert_eq!(report.connections_abandoned, 0);
}

/// Malformed requests get a JSON 400 (or 501 for unimplemented framing),
/// never a silently dropped connection.
#[test]
fn malformed_requests_get_json_errors_not_dropped_connections() {
    let (server, addr) = boot(ServerOptions {
        limits: deepseq_serve::HttpLimits {
            max_head_bytes: 1024,
            max_body_bytes: 2048,
        },
        ..ServerOptions::default()
    });

    // (payload, expected status) — all must produce a parseable HTTP
    // response with a JSON error body.
    let giant_body = format!(
        "POST /v1/embed HTTP/1.1\r\nContent-Length: 4096\r\n\r\n{}",
        "x".repeat(4096)
    );
    let giant_head = format!(
        "GET /healthz HTTP/1.1\r\nX-Pad: {}\r\n\r\n",
        "y".repeat(2000)
    );
    let cases: Vec<(Vec<u8>, u16)> = vec![
        (b"not http at all\r\n\r\n".to_vec(), 400),
        (b"GET /healthz HTTP/0.9\r\n\r\n".to_vec(), 400),
        (
            b"POST /v1/embed HTTP/1.1\r\nContent-Length: ten\r\n\r\n".to_vec(),
            400,
        ),
        (giant_body.into_bytes(), 400),
        (giant_head.into_bytes(), 400),
        (
            b"POST /v1/embed HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n".to_vec(),
            501,
        ),
    ];
    for (payload, want) in cases {
        let raw = raw_exchange(addr, payload.clone());
        assert!(
            !raw.is_empty(),
            "connection dropped without a response for {:?}",
            String::from_utf8_lossy(&payload)
        );
        let response = util::parse_response(&raw);
        assert_eq!(
            response.status,
            want,
            "payload {:?}",
            String::from_utf8_lossy(&payload)
        );
        assert!(
            response.body.starts_with("{\"error\":"),
            "no JSON error body: {}",
            response.body
        );
    }

    // Invalid circuit payloads on a well-formed request: 400 + JSON.
    for body in [
        &b"aag 1 1\n"[..],
        b"this is not a netlist",
        b"\xff\xfe\x00",
        b"",
        // A gate defining variable 0, then a constant operand.
        b"aag 2 1 0 0 2\n2\n0 2 2\n4 0 2\n",
        // A symbol line opening with a multi-byte character.
        b"aag 1 1 0 0 0\n2\n\xc3\xa9 x\n",
    ] {
        let response = exchange(addr, "POST", "/v1/embed", body);
        assert_eq!(response.status, 400, "body {body:?}");
        assert!(
            response.body.starts_with("{\"error\":"),
            "{}",
            response.body
        );
    }
    // The server still serves after every rejection.
    let valid = exchange(addr, "POST", "/v1/embed", counter_aiger(0).as_bytes());
    assert_eq!(valid.status, 200, "{}", valid.body);

    server.shutdown();
}

/// With one compute slot and no queue, a request arriving while another
/// is in flight is answered 429 immediately.
#[test]
fn full_admission_queue_answers_429() {
    // A 1-thread pool gives every connection its own OS thread (the
    // server's no-worker fallback), so the probe below is never stuck
    // behind the slow request's compute.
    let server = HttpServer::bind(
        test_engine(1),
        ServerOptions {
            max_inflight: 1,
            max_queue: 0,
            ..ServerOptions::default()
        },
    )
    .expect("bind loopback");
    let addr = server.local_addr();
    let metrics = server.metrics();

    // A slow request: a big circuit (cache-cold) occupies the slot.
    let slow = std::thread::spawn(move || {
        let body = counter_aiger(600);
        exchange(addr, "POST", "/v1/embed?id=1", body.as_bytes())
    });

    // Wait (in-process) until the slow request holds the compute slot.
    let deadline = Instant::now() + Duration::from_secs(30);
    while metrics.in_flight.load(std::sync::atomic::Ordering::Relaxed) != 1 {
        assert!(Instant::now() < deadline, "slow request never admitted");
        std::thread::yield_now();
    }

    let rejected = exchange(addr, "POST", "/v1/embed?id=2", b"aag 0 0 0 0 0\n");
    assert_eq!(rejected.status, 429, "{}", rejected.body);
    assert!(
        rejected.body.starts_with("{\"error\":"),
        "{}",
        rejected.body
    );
    assert_eq!(
        metrics
            .rejected_queue_full
            .load(std::sync::atomic::Ordering::Relaxed),
        1
    );

    let slow = slow.join().expect("slow client");
    assert_eq!(slow.status, 200, "{}", slow.body);
    server.shutdown();
}

/// A zero deadline expires while queued: 504 over the wire.
#[test]
fn expired_deadline_answers_504() {
    let (server, addr) = boot(ServerOptions::default());
    let body = counter_aiger(0);
    let response = exchange(addr, "POST", "/v1/embed?deadline_ms=0", body.as_bytes());
    assert_eq!(response.status, 504, "{}", response.body);
    assert!(
        response.body.starts_with("{\"error\":"),
        "{}",
        response.body
    );
    server.shutdown();
}

/// A client that dribbles its body slower than the idle keep-alive window
/// must not be cut off: the idle timeout applies *between* requests, and
/// once the head is parsed the socket runs on the remaining per-request
/// deadline budget instead. The old code re-armed `idle_keepalive` for the
/// body read and killed slow uploads mid-request.
#[test]
fn slow_body_upload_survives_the_idle_keepalive_window() {
    let (server, addr) = boot(ServerOptions {
        idle_keepalive: Duration::from_millis(60),
        deadline: Duration::from_secs(10),
        ..ServerOptions::default()
    });
    use std::io::{Read, Write};
    let body = counter_aiger(0);
    let bytes = body.as_bytes();
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    let head = format!(
        "POST /v1/embed HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        bytes.len()
    );
    stream.write_all(head.as_bytes()).expect("send head");
    let (first, rest) = bytes.split_at(bytes.len() / 2);
    stream.write_all(first).expect("send first half");
    stream.flush().expect("flush");
    // Several idle-keepalive windows pass with the body half-sent.
    std::thread::sleep(Duration::from_millis(200));
    stream.write_all(rest).expect("send second half");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    let response = util::parse_response(&raw);
    assert_eq!(response.status, 200, "{}", response.body);
    server.shutdown();
}

/// Keep-alive: two requests over one connection, the second after the
/// first's full response.
#[test]
fn keep_alive_serves_sequential_requests() {
    let (server, addr) = boot(ServerOptions::default());
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    for round in 0..2 {
        stream
            .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
            .expect("send");
        // Read one response's worth: headers + small body. The server
        // answers with Content-Length, so read until the body is in.
        let mut collected = Vec::new();
        let mut buffer = [0u8; 1024];
        loop {
            let text = String::from_utf8_lossy(&collected).to_string();
            if let Some(at) = text.find("\r\n\r\n") {
                let need: usize = text
                    .lines()
                    .find_map(|line| {
                        line.to_ascii_lowercase()
                            .strip_prefix("content-length: ")
                            .and_then(|v| v.trim().parse().ok())
                    })
                    .expect("content-length header");
                if collected.len() >= at + 4 + need {
                    assert!(text.starts_with("HTTP/1.1 200"), "round {round}: {text}");
                    break;
                }
            }
            let n = stream.read(&mut buffer).expect("read");
            assert!(n > 0, "server closed a keep-alive connection early");
            collected.extend_from_slice(&buffer[..n]);
        }
    }
    server.shutdown();
}
