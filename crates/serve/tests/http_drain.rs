//! Graceful-drain property: shutting down with requests in flight
//! completes every admitted request and accepts zero new connections.

mod util;

use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use deepseq_serve::{HttpServer, ServerOptions};

use util::{counter_aiger, exchange, test_engine};

#[test]
fn drain_completes_in_flight_requests_and_accepts_no_new_connections() {
    // One compute slot: of the four clients below, one computes and three
    // wait in the admission queue when the drain hits. Every connection
    // has a thread of its own, so all four reach the gate whatever the
    // pool size.
    let server = HttpServer::bind(
        test_engine(6),
        ServerOptions {
            max_inflight: 1,
            max_queue: 8,
            ..ServerOptions::default()
        },
    )
    .expect("bind loopback");
    let addr = server.local_addr();
    let metrics = server.metrics();

    let clients: Vec<_> = (0..4)
        .map(|i| {
            std::thread::spawn(move || {
                // Distinct circuits: every request is cache-cold compute.
                let body = counter_aiger(100 + i);
                exchange(addr, "POST", &format!("/v1/embed?id={i}"), body.as_bytes())
            })
        })
        .collect();

    // Wait (in-process, no extra connections) until all four requests are
    // past the drain gate: in flight, queued, or already answered — a
    // request can finish before the last client reaches the gate. A
    // request moves from queued to in flight to answered, and the server
    // releases its slot before it counts the status, so reading the later
    // stages first never counts a request twice.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let answered = metrics.responses_2xx.load(Ordering::Relaxed);
        let in_flight = metrics.in_flight.load(Ordering::Relaxed);
        let admitted = answered + in_flight + metrics.queue_depth.load(Ordering::Relaxed);
        if admitted == 4 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "requests never reached the admission gate (admitted {admitted})"
        );
        std::thread::yield_now();
    }

    server.request_drain();
    let report = server.shutdown();

    // Every admitted request completed successfully.
    for (i, client) in clients.into_iter().enumerate() {
        let response = client.join().expect("client thread");
        assert_eq!(response.status, 200, "client {i}: {}", response.body);
    }
    assert_eq!(report.requests_served, 4);
    assert_eq!(report.connections_abandoned, 0);
    // Exactly the four client connections were ever accepted…
    assert_eq!(metrics.connections_total.load(Ordering::Relaxed), 4);
    assert_eq!(metrics.connections_open.load(Ordering::Relaxed), 0);
    // …and the port no longer accepts connections at all.
    let refused = std::net::TcpStream::connect(addr);
    assert!(refused.is_err(), "listener still accepting after drain");
}

/// Shutdown returns promptly once the drained condition flips: every
/// input of the condition (connection close, admission release, deadline
/// expiry) pokes the drain condvar, so the waiter sleeps the full grace in
/// one wait instead of polling on a 100 ms timer. An idle keep-alive
/// connection pins the server un-drained for 300 ms; once the client
/// closes it, shutdown must return within a few milliseconds — far under
/// the old polling cap, which added up to 100 ms of pure latency here.
#[test]
fn shutdown_returns_promptly_after_the_last_connection_closes() {
    let server = HttpServer::bind(test_engine(2), ServerOptions::default()).expect("bind");
    let addr = server.local_addr();
    let metrics = server.metrics();

    let stream = std::net::TcpStream::connect(addr).expect("connect");
    let deadline = Instant::now() + Duration::from_secs(30);
    while metrics.connections_open.load(Ordering::Relaxed) != 1 {
        assert!(Instant::now() < deadline, "connection never registered");
        std::thread::yield_now();
    }

    let closed_at = std::sync::Arc::new(std::sync::Mutex::new(None));
    let closer = {
        let closed_at = std::sync::Arc::clone(&closed_at);
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(300));
            *closed_at.lock().expect("closed_at") = Some(Instant::now());
            drop(stream);
        })
    };
    let report = server.shutdown();
    let returned = Instant::now();
    closer.join().expect("closer thread");

    assert_eq!(report.connections_abandoned, 0);
    let closed_at = closed_at
        .lock()
        .expect("closed_at")
        .expect("close recorded");
    let lag = returned.duration_since(closed_at);
    assert!(
        lag < Duration::from_millis(60),
        "shutdown lagged the connection close by {lag:?}"
    );
}

/// A drain with nothing in flight shuts down promptly and cleanly.
#[test]
fn idle_drain_is_immediate() {
    let server = HttpServer::bind(test_engine(1), ServerOptions::default()).expect("bind");
    let addr = server.local_addr();
    let health = exchange(addr, "GET", "/healthz", b"");
    assert_eq!(health.status, 200);
    let started = Instant::now();
    let report = server.shutdown();
    assert_eq!(report.requests_served, 0);
    assert_eq!(report.connections_abandoned, 0);
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "idle drain took {:?}",
        started.elapsed()
    );
    assert!(std::net::TcpStream::connect(addr).is_err());
}

/// A drain wakes the accept thread, blocked in `accept`, with one
/// connection to the server's own port. Bound to the unspecified address,
/// the server makes that connection over loopback; the wake-up is never
/// counted as a client connection.
#[test]
fn server_on_unspecified_address_shuts_down_promptly() {
    let server = HttpServer::bind(
        test_engine(2),
        ServerOptions {
            addr: "0.0.0.0:0".to_string(),
            ..ServerOptions::default()
        },
    )
    .expect("bind 0.0.0.0:0");
    let port = server.local_addr().port();
    let metrics = server.metrics();
    let started = Instant::now();
    let report = server.shutdown();
    let took = started.elapsed();
    assert!(took < Duration::from_secs(1), "shutdown took {took:?}");
    assert_eq!(report.connections_abandoned, 0);
    assert_eq!(metrics.connections_total.load(Ordering::Relaxed), 0);
    assert!(
        std::net::TcpStream::connect(("127.0.0.1", port)).is_err(),
        "port {port} still accepting after shutdown"
    );
}
