//! Chaos suite: every named fault point armed at rate 1.0 under concurrent
//! load, holding the serving stack to its fault-tolerance contract:
//!
//! * no hung connections — every exchange completes or the socket closes;
//! * no non-JSON error bodies — internal failures answer typed 500/503
//!   JSON (`{"error":…}`), never a panic-torn connection;
//! * injected-fault and caught-panic counters match the failures observed
//!   at the HTTP edge;
//! * recovery — disarming restores full 200 service on the same server;
//! * determinism — with faults disarmed, predictions are bitwise-identical
//!   to a never-faulted engine (injection points cost one relaxed atomic
//!   load when disarmed and never perturb numerics when armed).
//!
//! Fault state is process-global (`deepseq_nn::fault`), so every test
//! serializes on [`CHAOS_LOCK`] and disarms via drop guard even when the
//! assertion itself panics. The arming seed comes from
//! `DEEPSEQ_CHAOS_SEED` (CI runs a small seed matrix); the injection
//! draws are thread-stable, so rate-1.0 behaviour is seed-independent and
//! lower rates stay reproducible per seed.

mod util;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use deepseq_core::{DeepSeq, DeepSeqConfig};
use deepseq_nn::fault::{self, FaultPoint, FaultSpec};
use deepseq_serve::{panics_caught, HttpServer, ServerOptions};
use util::{assert_matrices_match, counter_aiger, exchange, test_engine};

/// Serializes the tests in this binary: faults are process-global.
static CHAOS_LOCK: Mutex<()> = Mutex::new(());

/// Arms `spec` for the guard's lifetime; disarms on drop (panic included).
struct Armed {
    _lock: MutexGuard<'static, ()>,
}

impl Armed {
    fn no_fault() -> Armed {
        let lock = CHAOS_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        fault::set_armed(None);
        Armed { _lock: lock }
    }

    fn new(spec: &str) -> Armed {
        let lock = CHAOS_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let spec = FaultSpec::parse(spec).expect("valid fault spec");
        fault::set_armed(Some(spec));
        Armed { _lock: lock }
    }

    /// Re-arms (or disarms with `None`) without releasing the suite lock.
    fn rearm(&self, spec: Option<&str>) {
        fault::set_armed(spec.map(|s| FaultSpec::parse(s).expect("valid fault spec")));
    }
}

impl Drop for Armed {
    fn drop(&mut self) {
        fault::set_armed(None);
    }
}

/// The CI seed-matrix knob; rate-1.0 tests pass under every seed.
fn chaos_seed() -> u64 {
    std::env::var("DEEPSEQ_CHAOS_SEED")
        .ok()
        .and_then(|raw| raw.parse().ok())
        .unwrap_or(1)
}

fn boot() -> HttpServer {
    HttpServer::bind(
        test_engine(4),
        ServerOptions {
            max_queue: 256,
            ..ServerOptions::default()
        },
    )
    .expect("bind chaos server")
}

/// Fires `total` embed requests from `threads` client threads and returns
/// the observed status counts as (2xx, 5xx, other).
fn fire_load(server: &HttpServer, threads: usize, total: usize) -> (usize, usize, usize) {
    let addr = server.local_addr();
    let ok = Arc::new(AtomicUsize::new(0));
    let internal = Arc::new(AtomicUsize::new(0));
    let other = Arc::new(AtomicUsize::new(0));
    let next = Arc::new(AtomicUsize::new(0));
    let handles: Vec<_> = (0..threads)
        .map(|_| {
            let (ok, internal, other, next) = (
                Arc::clone(&ok),
                Arc::clone(&internal),
                Arc::clone(&other),
                Arc::clone(&next),
            );
            std::thread::spawn(move || loop {
                let ticket = next.fetch_add(1, Ordering::Relaxed);
                if ticket >= total {
                    return;
                }
                let circuit = counter_aiger(ticket % 4);
                let response = exchange(
                    addr,
                    "POST",
                    &format!("/v1/embed?id={ticket}&summary=1"),
                    circuit.as_bytes(),
                );
                // Every response — success or failure — must be JSON.
                assert!(
                    response.body.starts_with('{'),
                    "non-JSON body at status {}: {:.200}",
                    response.status,
                    response.body
                );
                match response.status {
                    200..=299 => ok.fetch_add(1, Ordering::Relaxed),
                    500..=599 => internal.fetch_add(1, Ordering::Relaxed),
                    _ => other.fetch_add(1, Ordering::Relaxed),
                };
            })
        })
        .collect();
    for handle in handles {
        handle.join().expect("load thread");
    }
    (
        ok.load(Ordering::Relaxed),
        internal.load(Ordering::Relaxed),
        other.load(Ordering::Relaxed),
    )
}

#[test]
fn task_panic_under_load_answers_typed_500s_and_recovers() {
    let armed = Armed::new(&format!("task_panic:1.0:{}", chaos_seed()));
    let server = boot();
    let panics_before = panics_caught();
    let injected_before = fault::injected_count(FaultPoint::TaskPanic);

    let (ok, internal, other) = fire_load(&server, 16, 64);
    assert_eq!(ok, 0, "no request should survive rate-1.0 task_panic");
    assert_eq!(internal, 64, "every request answers a typed 500");
    assert_eq!(other, 0);
    // Counters match the failures seen at the edge.
    assert_eq!(panics_caught() - panics_before, 64);
    assert_eq!(
        fault::injected_count(FaultPoint::TaskPanic) - injected_before,
        64
    );
    // The error bodies carry the typed engine error.
    let response = exchange(
        server.local_addr(),
        "POST",
        "/v1/embed?summary=1",
        counter_aiger(0).as_bytes(),
    );
    assert_eq!(response.status, 500);
    assert!(
        response.body.contains("\"error\":") && response.body.contains("panic"),
        "{}",
        response.body
    );

    // Recovery: disarm on the same live server, full service returns.
    armed.rearm(None);
    let (ok, internal, other) = fire_load(&server, 16, 32);
    assert_eq!((ok, internal, other), (32, 0, 0));

    // The /metrics exposition carries both reliability counters.
    let metrics = exchange(server.local_addr(), "GET", "/metrics", b"");
    util::assert_prometheus_contract(&metrics.body);
    let needle_value = |needle: &str| -> f64 {
        metrics
            .body
            .lines()
            .find_map(|line| line.strip_prefix(needle))
            .unwrap_or_else(|| panic!("{needle} missing:\n{}", metrics.body))
            .trim()
            .parse()
            .expect("numeric metric")
    };
    assert!(needle_value("deepseq_panics_caught_total ") >= 65.0);
    assert!(needle_value("deepseq_faults_injected_total{point=\"task_panic\"} ") >= 65.0);

    let report = server.shutdown();
    assert_eq!(report.connections_abandoned, 0, "clean drain after chaos");
}

#[test]
fn engine_reply_drop_answers_typed_500s_and_recovers() {
    let armed = Armed::new(&format!("engine_reply_drop:1.0:{}", chaos_seed()));
    let server = boot();
    let injected_before = fault::injected_count(FaultPoint::EngineReplyDrop);

    let (ok, internal, other) = fire_load(&server, 16, 48);
    assert_eq!((ok, internal, other), (0, 48, 0));
    assert_eq!(
        fault::injected_count(FaultPoint::EngineReplyDrop) - injected_before,
        48
    );
    let response = exchange(
        server.local_addr(),
        "POST",
        "/v1/embed?summary=1",
        counter_aiger(1).as_bytes(),
    );
    assert_eq!(response.status, 500);
    assert!(
        response.body.contains("reply"),
        "typed ReplyDropped error expected: {}",
        response.body
    );

    armed.rearm(None);
    let (ok, internal, other) = fire_load(&server, 16, 32);
    assert_eq!((ok, internal, other), (32, 0, 0));
    let report = server.shutdown();
    assert_eq!(report.connections_abandoned, 0);
}

#[test]
fn slow_stage_faults_delay_but_serve_correctly() {
    let armed = Armed::new(&format!("slow_stage@forward:1.0:{}", chaos_seed()));
    let server = boot();

    let started = Instant::now();
    let (ok, internal, other) = fire_load(&server, 16, 32);
    assert_eq!((ok, internal, other), (32, 0, 0));
    // Each forward pass sleeps ≥ 25ms while armed; with 4 compute slots and
    // 32 cache-missing-or-slow requests the wall clock shows it.
    assert!(
        started.elapsed() >= Duration::from_millis(25),
        "slow_stage produced no visible delay"
    );
    assert!(fault::injected_count(FaultPoint::SlowStage) > 0);

    armed.rearm(None);
    let report = server.shutdown();
    assert_eq!(report.connections_abandoned, 0);
}

#[test]
fn cache_evict_fault_forces_recompute_every_time() {
    let armed = Armed::no_fault();
    let server = boot();
    let addr = server.local_addr();
    let circuit = counter_aiger(2);

    // Warm the cache, prove the hit path works disarmed.
    let warm = exchange(addr, "POST", "/v1/embed?summary=1", circuit.as_bytes());
    assert_eq!(warm.status, 200);
    let hit = exchange(addr, "POST", "/v1/embed?summary=1", circuit.as_bytes());
    assert!(hit.body.contains("\"cache_hit\":true"), "{}", hit.body);

    // Armed: the entry is evicted before every lookup — served, but always
    // recomputed.
    armed.rearm(Some(&format!("cache_evict:1.0:{}", chaos_seed())));
    for _ in 0..3 {
        let response = exchange(addr, "POST", "/v1/embed?summary=1", circuit.as_bytes());
        assert_eq!(response.status, 200);
        assert!(
            response.body.contains("\"cache_hit\":false"),
            "{}",
            response.body
        );
    }
    assert!(fault::injected_count(FaultPoint::CacheEvict) >= 3);

    // Disarmed again: the recomputed entry sticks and hits.
    armed.rearm(None);
    let warm = exchange(addr, "POST", "/v1/embed?summary=1", circuit.as_bytes());
    assert_eq!(warm.status, 200);
    let hit = exchange(addr, "POST", "/v1/embed?summary=1", circuit.as_bytes());
    assert!(hit.body.contains("\"cache_hit\":true"), "{}", hit.body);

    let report = server.shutdown();
    assert_eq!(report.connections_abandoned, 0);
}

#[test]
fn socket_write_fault_drops_connections_without_killing_the_server() {
    let armed = Armed::new(&format!("socket_write:1.0:{}", chaos_seed()));
    let server = boot();
    let addr = server.local_addr();

    // Armed at 1.0, no response bytes ever leave the server: the write is
    // torn down as a peer reset. The contract is at the server side — no
    // wedged handler, no leaked admission slot, a clean drain afterwards.
    let circuit = counter_aiger(3);
    let handles: Vec<_> = (0..8)
        .map(|_| {
            let body = circuit.clone();
            std::thread::spawn(move || {
                let raw = util::raw_exchange(
                    addr,
                    format!(
                        "POST /v1/embed?summary=1 HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\
                         Content-Length: {}\r\n\r\n",
                        body.len()
                    )
                    .into_bytes()
                    .into_iter()
                    .chain(body.bytes())
                    .collect(),
                );
                assert!(
                    raw.is_empty(),
                    "injected socket_write fault leaked {} response bytes",
                    raw.len()
                );
            })
        })
        .collect();
    for handle in handles {
        handle.join().expect("client thread");
    }
    assert!(fault::injected_count(FaultPoint::SocketWrite) >= 8);

    // Recovery on the same server: responses flow again.
    armed.rearm(None);
    let response = exchange(addr, "POST", "/v1/embed?summary=1", circuit.as_bytes());
    assert_eq!(response.status, 200);

    let report = server.shutdown();
    assert_eq!(
        report.connections_abandoned, 0,
        "socket faults leaked connections"
    );
}

#[test]
fn checkpoint_read_fault_degrades_reload_and_recovery_restores_service() {
    let armed = Armed::no_fault();
    let dir = std::env::temp_dir().join(format!("deepseq-chaos-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("chaos-model.dsqm");
    let model = DeepSeq::new(DeepSeqConfig {
        hidden_dim: 8,
        iterations: 2,
        ..DeepSeqConfig::default()
    });
    std::fs::write(&path, model.save_binary()).expect("write checkpoint");

    let server = HttpServer::bind(
        test_engine(2),
        ServerOptions {
            checkpoint_path: Some(path.to_string_lossy().into_owned()),
            ..ServerOptions::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr();
    let circuit = counter_aiger(0);

    // Warm the cache while healthy.
    assert_eq!(
        exchange(addr, "POST", "/v1/embed?summary=1", circuit.as_bytes()).status,
        200
    );

    // Injected checkpoint corruption: the reload fails with a typed error
    // and the server degrades instead of dying.
    armed.rearm(Some(&format!("checkpoint_read:1.0:{}", chaos_seed())));
    let reload = exchange(addr, "POST", "/admin/reload", b"");
    assert_eq!(reload.status, 500);
    assert!(
        reload.body.starts_with("{\"error\":") && reload.body.contains("checkpoint"),
        "{}",
        reload.body
    );
    assert!(fault::injected_count(FaultPoint::CheckpointRead) >= 1);
    assert!(server.degraded());

    // Degraded: the readiness probe flips, cache hits still flow, misses
    // shed with 503 + Retry-After rather than computing.
    assert_eq!(exchange(addr, "GET", "/healthz?ready=1", b"").status, 503);
    assert_eq!(exchange(addr, "GET", "/healthz", b"").status, 200);
    let hit = exchange(addr, "POST", "/v1/embed?summary=1", circuit.as_bytes());
    assert_eq!(hit.status, 200);
    assert!(hit.body.contains("\"cache_hit\":true"), "{}", hit.body);
    let miss = exchange(
        addr,
        "POST",
        "/v1/embed?summary=1&seed=77",
        circuit.as_bytes(),
    );
    assert_eq!(miss.status, 503);
    assert!(miss.body.starts_with("{\"error\":"), "{}", miss.body);

    // Disarm and reload again: the checkpoint reads clean, degraded mode
    // clears, and shed traffic computes again.
    armed.rearm(None);
    assert_eq!(exchange(addr, "POST", "/admin/reload", b"").status, 200);
    assert!(!server.degraded());
    assert_eq!(exchange(addr, "GET", "/healthz?ready=1", b"").status, 200);
    let served = exchange(
        addr,
        "POST",
        "/v1/embed?summary=1&seed=77",
        circuit.as_bytes(),
    );
    assert_eq!(served.status, 200);

    let report = server.shutdown();
    assert_eq!(report.connections_abandoned, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Regression: a request that snapshots the model, is held in its forward
/// pass while `/admin/reload` swaps in other weights, and finishes after
/// the swap must not leave its old-model result in the exact cache — the
/// same request afterwards answers exactly what the new model computes.
#[test]
fn reload_during_a_held_request_leaves_no_stale_cache_entry() {
    use deepseq_netlist::parse_aiger;
    use deepseq_serve::json::response_to_json;
    use deepseq_serve::{Engine, EngineOptions, InferenceModel, ServeRequest};
    use deepseq_sim::Workload;

    let armed = Armed::no_fault();
    let dir = std::env::temp_dir().join(format!("deepseq-reload-race-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("model.dsqm");
    // Other weights than the seed-0 model the server boots with; the file
    // is only read on reload, so it can be written up front.
    let checkpoint = DeepSeq::new(DeepSeqConfig {
        hidden_dim: 8,
        iterations: 2,
        seed: 7,
        ..DeepSeqConfig::default()
    })
    .save_binary();
    std::fs::write(&path, &checkpoint).expect("write checkpoint");
    // Four pool threads: the reload's connection handler must not queue
    // behind the held one.
    let server = HttpServer::bind(
        test_engine(4),
        ServerOptions {
            checkpoint_path: Some(path.to_string_lossy().into_owned()),
            ..ServerOptions::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr();
    let circuit = counter_aiger(0);
    let embed = "/v1/embed?id=5";

    // Hold one request in its forward pass. The injection counter ticks as
    // the 25 ms hold starts, after the request snapshotted the old model.
    armed.rearm(Some(&format!("slow_stage@forward:1.0:{}", chaos_seed())));
    let holds_before = fault::injected_count(FaultPoint::SlowStage);
    let held = {
        let body = circuit.clone();
        std::thread::spawn(move || exchange(addr, "POST", embed, body.as_bytes()))
    };
    let deadline = Instant::now() + Duration::from_secs(30);
    while fault::injected_count(FaultPoint::SlowStage) == holds_before {
        assert!(Instant::now() < deadline, "request never reached forward");
        std::thread::yield_now();
    }
    armed.rearm(None);
    let reload = exchange(addr, "POST", "/admin/reload", b"");
    assert_eq!(reload.status, 200, "{}", reload.body);
    let old = held.join().expect("client thread");
    assert_eq!(old.status, 200, "{}", old.body);

    // The new model, in process, on the same request.
    let aig = parse_aiger(&circuit).expect("valid AIGER");
    let workload = Workload::uniform(aig.num_pis(), 0.5);
    let reference = Engine::with_pool(
        InferenceModel::from_binary_checkpoint(&checkpoint).expect("checkpoint decodes"),
        EngineOptions {
            workers: 1,
            ..EngineOptions::default()
        },
        Arc::new(deepseq_nn::Pool::new(1)),
    );
    let expected = response_to_json(
        &reference
            .serve_batch(vec![ServeRequest {
                id: 5,
                aig,
                workload,
                init_seed: 0,
            }])
            .pop()
            .expect("one response"),
        false,
    );
    assert_ne!(old.body, expected, "the two checkpoints predict alike");
    let again = exchange(addr, "POST", embed, circuit.as_bytes());
    assert_eq!(again.status, 200, "{}", again.body);
    assert_eq!(
        again.body, expected,
        "the reloaded server answered from the old model"
    );

    let report = server.shutdown();
    assert_eq!(report.connections_abandoned, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn disarmed_determinism_is_bitwise_against_a_never_faulted_engine() {
    let armed = Armed::no_fault();
    use deepseq_serve::ServeRequest;
    use deepseq_sim::Workload;

    let request = |id| {
        let aig = util::counter_aig(1);
        let workload = Workload::uniform(aig.num_pis(), 0.5);
        ServeRequest {
            id,
            aig,
            workload,
            init_seed: 0,
        }
    };

    // Reference: an engine that never saw an armed fault.
    let reference = test_engine(2)
        .serve_batch(vec![request(0)])
        .pop()
        .expect("one response");
    let reference = reference.result.expect("reference serves");

    // Same engine shape, but run through an armed episode (slow stages and
    // forced evictions at rate 1.0) before the comparison pass.
    let engine = test_engine(2);
    armed.rearm(Some(&format!("slow_stage@forward:1.0:{}", chaos_seed())));
    let during = engine
        .serve_batch(vec![request(1)])
        .pop()
        .expect("one response")
        .result
        .expect("slow but served");
    armed.rearm(Some(&format!("cache_evict:1.0:{}", chaos_seed())));
    let evicted = engine
        .serve_batch(vec![request(2)])
        .pop()
        .expect("one response")
        .result
        .expect("evicted but served");
    armed.rearm(None);
    let after = engine
        .serve_batch(vec![request(3)])
        .pop()
        .expect("one response")
        .result
        .expect("serves disarmed");

    // Faults never perturb numerics: armed or disarmed, every pass is
    // bitwise-identical to the never-faulted reference.
    for (label, served) in [
        ("armed-slow", &during),
        ("armed-evict", &evicted),
        ("disarmed", &after),
    ] {
        assert_matrices_match(
            &served.data.predictions.lg,
            &reference.data.predictions.lg,
            &format!("{label} lg predictions"),
        );
        assert_matrices_match(
            &served.data.predictions.tr,
            &reference.data.predictions.tr,
            &format!("{label} tr predictions"),
        );
        assert_matrices_match(
            &served.data.embedding,
            &reference.data.embedding,
            &format!("{label} embedding"),
        );
    }
}
