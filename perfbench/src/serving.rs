//! The serving workloads (`fresh`, `repeat`, `eco`): a closed loop over a
//! keep-alive connection against the release `deepseq-serve serve`
//! binary, with every response checked.

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use deepseq_core::encoding::initial_states;
use deepseq_core::CircuitGraph;
use deepseq_netlist::{parse_aiger, write_aiger};
use deepseq_nn::{Kernel, Pool};
use deepseq_serve::json::response_to_json;
use deepseq_serve::{CachedInference, InferenceModel, ServeResponse, ServedInference, Workspace};
use deepseq_sim::Workload;

use crate::inputs::{self, mix};
use crate::layers;
use crate::probe::HostSpeed;
use crate::server::{self, embed_request, Conn, Server};
use crate::stats::{quantile, ratio, trimmed_mean, Report};

/// Length of one slice of a timed window, in seconds; the host is probed
/// between slices.
const SLICE_S: f64 = 2.0;

/// Cold start-ups per run. Start-up time is bimodal (a warm-up request
/// either beats the accept loop's first poll or waits out its 2 ms sleep),
/// so `setup_s` is the mean of the middle `SETUP_REPS - 2 * SETUP_TRIM`
/// start-ups rather than one sample or a median.
pub const SETUP_REPS: usize = 15;
pub const SETUP_TRIM: usize = 3;

/// Responses per run recomputed in-process and compared byte for byte.
const CHECK_SAMPLES: usize = 24;

/// Requests per run whose layers the traced run times in-process.
const LAYER_SAMPLES: usize = 32;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    Fresh,
    Repeat,
    Eco,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Fresh => "fresh",
            Kind::Repeat => "repeat",
            Kind::Eco => "eco",
        }
    }

    /// Latency limit of `slo_met_ratio`: a response counts only if it is
    /// 2xx and arrives within this round trip.
    pub fn latency_limit(self) -> Duration {
        match self {
            Kind::Fresh => Duration::from_millis(25),
            Kind::Repeat => Duration::from_millis(2),
            Kind::Eco => Duration::from_millis(10),
        }
    }

    /// Value of the `cache_hit` field every response must carry.
    fn expects_hit(self) -> bool {
        self == Kind::Repeat
    }

    /// One request in this many is kept for checks and layer spans, so
    /// that a window keeps a few dozen responses spread over its length.
    fn sample_every(self) -> u64 {
        match self {
            Kind::Fresh => 64,
            Kind::Repeat => 1024,
            Kind::Eco => 128,
        }
    }
}

/// Paths and knobs shared by every part of one run.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub server_bin: PathBuf,
    pub checkpoint: PathBuf,
}

/// Which circuit request `i` of a run sends, under which initial-state
/// seed and request id.
#[derive(Clone, Copy, Debug)]
pub struct Pick {
    pub slot: usize,
    pub init_seed: u64,
    pub id: u64,
}

/// What a workload sends: the AIGER bodies of its circuits ("slots") and
/// the order in which request `i` of the run picks one.
pub struct Plan {
    kind: Kind,
    seed: u64,
    bodies: Vec<String>,
    /// `eco` only: the unedited base design, sent once while priming.
    base: Option<String>,
}

/// Distinct circuits of the `fresh` stream. Request `i` sends circuit
/// `i % FRESH_CIRCUITS` with initial-state seed `i / FRESH_CIRCUITS`: no
/// (circuit, seed) pair recurs, so every request misses the exact cache
/// and recomputes every component whose initial state is random, while
/// the inputs stay a few megabytes however long the run.
const FRESH_CIRCUITS: usize = 2048;

impl Plan {
    pub fn build(kind: Kind, seed: u64) -> Plan {
        let texts = |circuits: Vec<deepseq_netlist::SeqAig>| -> Vec<String> {
            circuits.iter().map(write_aiger).collect()
        };
        let (bodies, base) = match kind {
            Kind::Fresh => (texts(inputs::family_circuits(seed, FRESH_CIRCUITS)), None),
            Kind::Repeat => (
                texts(inputs::family_circuits(seed, inputs::REPEAT_SET)),
                None,
            ),
            Kind::Eco => (
                inputs::eco_edits(seed)
                    .into_iter()
                    .map(|edit| write_aiger(&inputs::eco_circuit(seed, Some(edit))))
                    .collect(),
                Some(write_aiger(&inputs::eco_circuit(seed, None))),
            ),
        };
        Plan {
            kind,
            seed,
            bodies,
            base,
        }
    }

    /// What request `i` of the run sends.
    pub fn pick(&self, i: usize) -> Pick {
        match self.kind {
            Kind::Fresh => Pick {
                slot: i % self.bodies.len(),
                init_seed: (i / self.bodies.len()) as u64,
                id: i as u64,
            },
            Kind::Repeat => {
                let slot = inputs::replay_index(self.seed, i);
                Pick::first(slot)
            }
            Kind::Eco => Pick::first(i % self.bodies.len()),
        }
    }

    /// The request bytes of a pick.
    pub fn wire(&self, pick: Pick) -> Vec<u8> {
        embed_request(pick.id, pick.init_seed, self.bodies[pick.slot].as_bytes())
    }

    /// The AIGER body of a slot.
    pub fn text(&self, slot: usize) -> &str {
        &self.bodies[slot]
    }

    pub fn kind(&self) -> Kind {
        self.kind
    }

    /// Number of distinct circuits (slots).
    pub fn circuits(&self) -> usize {
        self.bodies.len()
    }

    pub fn base_text(&self) -> Option<&str> {
        self.base.as_deref()
    }
}

impl Pick {
    /// Slot `slot` with seed 0 and the slot index as request id: how
    /// `repeat` and `eco` send a circuit (so a replay's answer matches its
    /// first answer byte for byte).
    pub fn first(slot: usize) -> Pick {
        Pick {
            slot,
            init_seed: 0,
            id: slot as u64,
        }
    }
}

/// Sends the requests that must precede the timed window: every `repeat`
/// circuit once (their answers become the expected replay bodies), or the
/// `eco` base design. Returns the expected body per slot for `repeat`.
pub fn prime(conn: &mut Conn, plan: &Plan) -> Result<Vec<Vec<u8>>, String> {
    match plan.kind {
        Kind::Repeat => {
            let mut expected = Vec::with_capacity(plan.circuits());
            for slot in 0..plan.circuits() {
                let response = conn.send(&plan.wire(Pick::first(slot)))?;
                if response.status != 200 || cache_hit(&response.body) != Some(false) {
                    return Err(format!("priming answered {}", response.status));
                }
                expected.push(with_hit_flag(&response.body));
            }
            Ok(expected)
        }
        Kind::Eco => {
            let base = plan.base_text().expect("eco has a base");
            let response = conn.send(&embed_request(0, 0, base.as_bytes()))?;
            if response.status != 200 {
                return Err(format!("priming answered {}", response.status));
            }
            Ok(Vec::new())
        }
        Kind::Fresh => Ok(Vec::new()),
    }
}

/// The `cache_hit` field of a response body.
fn cache_hit(body: &[u8]) -> Option<bool> {
    let head = &body[..body.len().min(256)];
    let find = |pat: &[u8]| head.windows(pat.len()).any(|w| w == pat);
    if find(b"\"cache_hit\":true") {
        Some(true)
    } else if find(b"\"cache_hit\":false") {
        Some(false)
    } else {
        None
    }
}

/// A first-serve body as the same request's cache hit must read.
fn with_hit_flag(body: &[u8]) -> Vec<u8> {
    String::from_utf8_lossy(body)
        .replacen("\"cache_hit\":false", "\"cache_hit\":true", 1)
        .into_bytes()
}

/// One response kept for a later in-process check or layer sample.
pub struct Kept {
    pub pick: Pick,
    pub rtt_ns: u64,
    pub body: Vec<u8>,
}

/// Outcome of closed-loop windows on one connection; a run that loads a
/// server in several windows accumulates them into one `Window`.
#[derive(Default)]
pub struct Window {
    pub sent: u64,
    pub ok: u64,
    pub failed: u64,
    pub mismatches: u64,
    pub within_limit: u64,
    /// `(completion time since the first window started, round trip)` of
    /// every 2xx response, in nanoseconds.
    pub done: Vec<(u64, u64)>,
    pub kept: Vec<Kept>,
    pub elapsed: Duration,
}

impl Window {
    /// 2xx responses per second over the whole window.
    pub fn throughput(&self) -> f64 {
        self.ok as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    /// Quantile `q` of every 2xx round trip of the window, in ms.
    pub fn rtt_ms(&self, q: f64) -> f64 {
        let rtts: Vec<f64> = self.done.iter().map(|&(_, rtt)| rtt as f64 / 1e6).collect();
        quantile(&rtts, q)
    }

    /// Prints how the 2xx rate varied from one second to the next: a
    /// diagnostic of the host's speed during the window.
    fn print_per_second(&self) {
        let mut rates = vec![0.0; self.elapsed.as_secs() as usize];
        for &(at, _) in &self.done {
            if let Some(rate) = rates.get_mut((at / 1_000_000_000) as usize) {
                *rate += 1.0;
            }
        }
        println!(
            "per-second 2xx rates: min {:.0} q1 {:.0} median {:.0} q3 {:.0} max {:.0}",
            quantile(&rates, 0.0),
            quantile(&rates, 0.25),
            quantile(&rates, 0.5),
            quantile(&rates, 0.75),
            quantile(&rates, 1.0),
        );
    }
}

/// Runs the closed loop on one connection: the next request goes out as
/// soon as the previous answer is in, until `duration` has passed. The
/// outcome is added to `w`. Requests are numbered from `next` on (which is
/// advanced), so a run can continue one request stream over several
/// windows; request `i` is kept when `keep(i)` holds.
pub fn closed_loop(
    conn: &mut Conn,
    plan: &Plan,
    expected: &[Vec<u8>],
    duration: Duration,
    next: &mut usize,
    keep: impl Fn(usize) -> bool,
    w: &mut Window,
) {
    let limit = plan.kind.latency_limit().as_nanos() as u64;
    let expect_hit = plan.kind.expects_hit();
    let offset = w.elapsed;
    let start = Instant::now();
    let deadline = start + duration;
    let mut last = start;
    while Instant::now() < deadline {
        let i = *next;
        *next += 1;
        let pick = plan.pick(i);
        let wire = plan.wire(pick);
        w.sent += 1;
        let t = Instant::now();
        let response = conn.send(&wire);
        last = Instant::now();
        let rtt = (last - t).as_nanos() as u64;
        let Ok(response) = response else {
            w.failed += 1;
            break; // the connection is unusable
        };
        if response.status != 200 {
            w.failed += 1;
            continue;
        }
        w.ok += 1;
        w.done
            .push(((offset + (last - start)).as_nanos() as u64, rtt));
        if rtt <= limit {
            w.within_limit += 1;
        }
        let body_ok = if expect_hit {
            response.body == expected[pick.slot]
        } else {
            cache_hit(&response.body) == Some(false)
        };
        if !body_ok {
            w.mismatches += 1;
        }
        if keep(i) {
            w.kept.push(Kept {
                pick,
                rtt_ns: rtt,
                body: response.body,
            });
        }
    }
    w.elapsed = offset + (last - start);
}

/// Whether request `i` of a run belongs to its seeded sample.
pub fn sampled(kind: Kind, seed: u64, i: usize) -> bool {
    mix(seed ^ 0xC4EC ^ mix(i as u64)).is_multiple_of(kind.sample_every())
}

/// At most `n` of `kept`, evenly spaced over the window.
pub fn spread<'a>(kept: &[&'a Kept], n: usize) -> Vec<&'a Kept> {
    let step = kept.len().div_ceil(n.max(1)).max(1);
    kept.iter().step_by(step).copied().collect()
}

/// The first of each distinct request among `kept`. A request stream
/// recurs after as many requests as it has slots (`eco`: 2048 edits), so a
/// long window can keep the same request twice; its second serve would be
/// an exact-cache hit in a layer sample that replays only the kept
/// requests.
pub fn distinct(kept: &[Kept]) -> Vec<&Kept> {
    let mut seen = HashSet::new();
    kept.iter()
        .filter(|k| seen.insert((k.pick.slot, k.pick.init_seed)))
        .collect()
}

/// The response the server must send for `text` with request id `id`,
/// computed in-process with the plain tape-free forward pass (no caches,
/// no cone memo).
pub fn reference_body(model: &InferenceModel, text: &str, pick: Pick) -> Result<String, String> {
    let aig = parse_aiger(text).map_err(|e| format!("parsing request: {e}"))?;
    let graph = CircuitGraph::build(&aig);
    let workload = Workload::uniform(aig.num_pis(), 0.5);
    let h0 = initial_states(&aig, &workload, model.config().hidden_dim, pick.init_seed);
    let mut ws = Workspace::with_pool(Kernel::for_serve(), Arc::new(Pool::new(1)));
    let out = model.run(&graph, &h0, &mut ws);
    let response = ServeResponse {
        id: pick.id,
        design: aig.name().to_string(),
        result: Ok(ServedInference {
            num_nodes: graph.num_nodes,
            cache_hit: false,
            cones_reused: 0,
            data: Arc::new(CachedInference {
                predictions: out.predictions,
                embedding: out.embedding,
                num_nodes: graph.num_nodes,
            }),
        }),
    };
    Ok(response_to_json(&response, false))
}

/// Compares kept first-serve responses with their in-process reference;
/// returns the number that differ.
pub fn check_kept(model: &InferenceModel, plan: &Plan, kept: &[&Kept]) -> Result<u64, String> {
    let mut mismatches = 0;
    for k in kept {
        let reference = reference_body(model, plan.text(k.pick.slot), k.pick)?;
        if reference.as_bytes() != k.body.as_slice() {
            mismatches += 1;
        }
    }
    Ok(mismatches)
}

pub fn load_model(checkpoint: &Path) -> Result<InferenceModel, String> {
    let bytes = std::fs::read(checkpoint).map_err(|e| format!("reading checkpoint: {e}"))?;
    InferenceModel::from_binary_checkpoint(&bytes).map_err(|e| format!("loading checkpoint: {e}"))
}

fn print_hygiene(server_metrics: &str) {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "hygiene: nproc {nproc}; client threads 1, connections 1 (one process, closed loop); \
         server pool threads {} (DEEPSEQ_THREADS={})",
        server::prom_value(server_metrics, "deepseq_pool_threads"),
        server::SERVER_THREADS,
    );
    println!(
        "hygiene: kernel {} (serve default), simd_accelerated {}; env cleared: {}; env set: DEEPSEQ_THREADS={}",
        Kernel::for_serve().name(),
        deepseq_nn::simd_accelerated(),
        server::CLEARED_ENV.join(", "),
        server::SERVER_THREADS
    );
}

/// Starts `count` servers one after another and measures each start-up;
/// keeps the last one running when `keep` is set (all are drained
/// otherwise).
fn start_servers(
    ctx: &Ctx,
    count: usize,
    keep: bool,
    times: &mut Vec<f64>,
) -> Result<Option<(Server, Conn)>, String> {
    for rep in 0..count {
        let (server, conn, took) = Server::start_warm(&ctx.server_bin, &ctx.checkpoint, false)?;
        times.push(took.as_secs_f64());
        if keep && rep + 1 == count {
            return Ok(Some((server, conn)));
        }
        server.shutdown(conn)?;
    }
    Ok(None)
}

fn rejected(metrics: &str) -> f64 {
    [
        "deepseq_rejected_queue_full_total",
        "deepseq_rejected_draining_total",
        "deepseq_rejected_degraded_total",
        "deepseq_deadline_expired_total",
    ]
    .iter()
    .map(|name| server::prom_value(metrics, name))
    .sum()
}

/// One timed (untraced) run of a serving workload.
pub fn run_timed(ctx: &Ctx, kind: Kind, report: &mut Report) -> Result<(), String> {
    let plan = Plan::build(kind, ctx.seed);
    // Start-ups before and after the timed window, so that `setup_s`
    // does not hinge on the host's speed in one instant.
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let (server, mut conn) = start_servers(ctx, SETUP_REPS / 2 + 1, true, &mut setups)?
        .expect("the last server is kept");
    let expected = prime(&mut conn, &plan)?;
    print_hygiene(&conn.get_text("/metrics")?);

    // Every slice of the timed window is scaled to the reference host
    // speed by the probes right before and after it (see `probe`).
    // Start-ups are not: most of one is process creation and the accept
    // loop's fixed 2 ms sleep, which do not slow down with the core, and
    // scaling them split `setup_s` into two modes across runs.
    let mut speed = HostSpeed::start();
    let seed = ctx.seed;
    let mut window = Window::default();
    let (mut next, mut rtts_ms, mut scaled_secs) = (0, Vec::new(), 0.0);
    let start = Instant::now();
    while window.failed == 0 && start.elapsed().as_secs_f64() < ctx.seconds {
        let left = ctx.seconds - start.elapsed().as_secs_f64();
        let (done, elapsed) = (window.done.len(), window.elapsed);
        closed_loop(
            &mut conn,
            &plan,
            &expected,
            Duration::from_secs_f64(left.min(SLICE_S)),
            &mut next,
            |i| sampled(kind, seed, i),
            &mut window,
        );
        let k = speed.scale();
        rtts_ms.extend(
            window.done[done..]
                .iter()
                .map(|&(_, rtt)| rtt as f64 / 1e6 * k),
        );
        scaled_secs += (window.elapsed - elapsed).as_secs_f64() * k;
    }
    let peak_rss = server.peak_rss_mb();
    let after = conn.get_text("/metrics")?;
    server.shutdown(conn)?;
    start_servers(ctx, SETUP_REPS - setups.len(), false, &mut setups)?;

    let model = load_model(&ctx.checkpoint)?;
    let mut mismatches = window.mismatches;
    let checked = if kind == Kind::Repeat {
        // Replays were compared with their first answers in the loop; check
        // a seeded sample of those first answers against the reference.
        let mut n = 0;
        for slot in (0..plan.circuits()).filter(|&s| s % 4 == (seed % 4) as usize) {
            let reference = reference_body(&model, plan.text(slot), Pick::first(slot))?;
            if with_hit_flag(reference.as_bytes()) != expected[slot] {
                mismatches += 1;
            }
            n += 1;
        }
        n
    } else {
        let sample = spread(&window.kept.iter().collect::<Vec<_>>(), CHECK_SAMPLES);
        mismatches += check_kept(&model, &plan, &sample)?;
        sample.len()
    };

    println!(
        "requests ({}): sent {}, succeeded {}, failed {}, server rejections {}; \
         {} responses checked against the in-process reference, {} mismatched",
        kind.name(),
        window.sent,
        window.ok,
        window.failed,
        rejected(&after),
        checked,
        mismatches
    );
    println!(
        "latency samples: {} round trips over {:.3} s; latency limit {} ms",
        window.done.len(),
        window.elapsed.as_secs_f64(),
        kind.latency_limit().as_secs_f64() * 1e3
    );
    window.print_per_second();
    println!(
        "as measured: {:.2} 2xx/s, round trip p50 {:.4} ms, p95 {:.4} ms",
        window.throughput(),
        window.rtt_ms(0.5),
        window.rtt_ms(0.95)
    );
    speed.print();
    println!(
        "setup_s samples (s): {}",
        setups
            .iter()
            .map(|s| format!("{s:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    report.attempted += window.sent;
    report.failed += window.failed;
    report.mismatches += mismatches;

    let throughput = ratio(window.ok as f64, scaled_secs);
    report.metric("setup_s", trimmed_mean(&setups, SETUP_TRIM), "s");
    report.metric("throughput_rps", throughput, "1/s");
    report.metric("latency_p50_ms", quantile(&rtts_ms, 0.5), "ms");
    report.metric("latency_p95_ms", quantile(&rtts_ms, 0.95), "ms");
    report.metric(
        "slo_met_ratio",
        ratio(window.within_limit as f64, window.sent as f64),
        "ratio",
    );
    report.metric("peak_rss_mb", peak_rss, "MB");
    // On a serving workload one "sample" is one circuit embedded.
    report.metric("train_samples_per_s", throughput, "1/s");
    Ok(())
}

/// Server-side counters and stage totals sampled around a traced window.
struct Scrape {
    metrics: String,
    stages: String,
}

impl Scrape {
    fn take(conn: &mut Conn) -> Result<Scrape, String> {
        Ok(Scrape {
            metrics: conn.get_text("/metrics")?,
            stages: conn.get_text("/debug/trace")?,
        })
    }

    fn counter(&self, name: &str) -> f64 {
        server::prom_value(&self.metrics, name)
    }

    fn stage(&self, stage: &str, field: &str) -> f64 {
        server::stage_field(&self.stages, stage, field)
    }
}

/// Longest window of a traced run, in seconds. The run alternates short
/// untraced and traced windows, which cancels slow drifts of the host
/// between the two sides of the overhead; each connection idles while the
/// other side's window runs, and the server closes a keep-alive connection
/// idle for 5 s.
const TRACE_SLICE_S: f64 = 4.0;

/// The traced run of a serving workload: an untraced and a traced server
/// side by side, loaded in alternating short windows; then in-process
/// layer spans over a seeded sample of the untraced side's requests.
/// Returns the untraced and traced throughput.
pub fn run_traced(ctx: &Ctx, kind: Kind, report: &mut Report) -> Result<(f64, f64), String> {
    let plan = Plan::build(kind, ctx.seed);
    let rounds = (ctx.seconds / (2.0 * TRACE_SLICE_S)).ceil().max(1.0);
    let slice = Duration::from_secs_f64(ctx.seconds / (2.0 * rounds));
    let seed = ctx.seed;
    let model = load_model(&ctx.checkpoint)?;

    let (plain_server, mut plain_conn, _) =
        Server::start_warm(&ctx.server_bin, &ctx.checkpoint, false)?;
    let plain_expected = prime(&mut plain_conn, &plan)?;
    print_hygiene(&plain_conn.get_text("/metrics")?);
    let (traced_server, mut traced_conn, _) =
        Server::start_warm(&ctx.server_bin, &ctx.checkpoint, true)?;
    let traced_expected = prime(&mut traced_conn, &plan)?;
    let opened = Scrape::take(&mut traced_conn)?.counter("deepseq_connections_total");
    let s0 = Scrape::take(&mut traced_conn)?;

    let (mut plain_next, mut traced_next) = (0, 0);
    let (mut plain, mut traced) = (Window::default(), Window::default());
    for _ in 0..rounds as usize {
        closed_loop(
            &mut plain_conn,
            &plan,
            &plain_expected,
            slice,
            &mut plain_next,
            |i| sampled(kind, seed, i),
            &mut plain,
        );
        closed_loop(
            &mut traced_conn,
            &plan,
            &traced_expected,
            slice,
            &mut traced_next,
            |_| false,
            &mut traced,
        );
    }
    let s1 = Scrape::take(&mut traced_conn)?;
    plain_server.shutdown(plain_conn)?;
    traced_server.shutdown(traced_conn)?;

    let mut mismatches = plain.mismatches + traced.mismatches;
    let sample = spread(&distinct(&plain.kept), LAYER_SAMPLES);
    if kind != Kind::Repeat {
        mismatches += check_kept(&model, &plan, &sample)?;
    }
    report.attempted += plain.sent + traced.sent;
    report.failed += plain.failed + traced.failed;
    report.mismatches += mismatches;
    println!(
        "requests ({}): untraced sent {} / succeeded {} / failed {}; traced sent {} / succeeded {} / failed {}; {} mismatched",
        kind.name(),
        plain.sent,
        plain.ok,
        plain.failed,
        traced.sent,
        traced.ok,
        traced.failed,
        mismatches
    );

    let requests = traced.ok.max(1) as f64;
    let diff = |name: &str| s1.counter(name) - s0.counter(name);
    let stage_diff = |stage: &str, field: &str| s1.stage(stage, field) - s0.stage(stage, field);

    report.metric(
        "server.queue_wait_ms",
        s1.stage("queue_wait", "p95_s") * 1e3,
        "ms",
    );
    report.metric("server.connections_opened", opened, "count");
    report.metric("server.rejected", rejected(&s1.metrics), "count");

    let lookups = s1.counter("deepseq_cache_hits_total") + s1.counter("deepseq_cache_misses_total");
    println!(
        "cache: {} hits of {} lookups, {} evictions (whole traced server lifetime)",
        s1.counter("deepseq_cache_hits_total"),
        lookups,
        s1.counter("deepseq_cache_evictions_total")
    );
    report.metric(
        "cache.hit_ratio",
        ratio(s1.counter("deepseq_cache_hits_total"), lookups),
        "ratio",
    );
    report.metric("cache.lookups", lookups, "count");
    report.metric(
        "cache.evictions",
        s1.counter("deepseq_cache_evictions_total"),
        "count",
    );
    let cone_hits = diff("deepseq_cone_hits_total");
    let cone_lookups = cone_hits + diff("deepseq_cone_misses_total");
    println!("cone memo: {cone_hits} reused of {cone_lookups} components in the traced window");
    report.metric("cone.reuse_ratio", ratio(cone_hits, cone_lookups), "ratio");
    report.metric("cone.components", cone_lookups, "count");

    let forward_s = stage_diff("forward", "total_s");
    let gemm_s = stage_diff("gemm", "total_s");
    println!(
        "forward passes: {} taking {:.4} s; gemm calls {} taking {:.4} s",
        stage_diff("forward", "count"),
        forward_s,
        stage_diff("gemm", "count"),
        gemm_s
    );
    report.metric("infer.gemm_share", ratio(gemm_s, forward_s), "ratio");
    report.metric(
        "kernels.gemm_calls",
        stage_diff("gemm", "count") / requests,
        "count",
    );
    report.metric(
        "pool.steals",
        diff("deepseq_pool_steals_total") / requests,
        "count",
    );
    report.metric(
        "pool.parks",
        diff("deepseq_pool_parks_total") / requests,
        "count",
    );

    layers::serving_layers(ctx, &plan, &sample, report)?;
    Ok((plain.throughput(), traced.throughput()))
}
