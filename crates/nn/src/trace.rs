//! Lock-cheap span tracing for whole-stack profiles.
//!
//! Every hot stage of the system — queue wait at the HTTP edge, cache
//! lookups, per-level chunks inside the recurrence, GEMM dispatch,
//! response serialization, socket writes, training steps — can record a
//! [`SpanRecord`] into a thread-local ring buffer. Recording is **off by
//! default** and costs one relaxed atomic load per would-be span when
//! disabled: no clock reads, no allocation, no locks. When enabled (via
//! the `DEEPSEQ_TRACE` environment variable or [`set_enabled`]) the spans
//! are bitwise-neutral to every computation — they only observe the
//! monotonic clock around existing work.
//!
//! Spans carry a *trace id* (a per-request id minted at the HTTP edge, or
//! zero for work outside any request). The current trace id lives in
//! thread-local storage and is forwarded across [`crate::pool::Pool`]
//! task boundaries, so a request's spans are collectible even when its
//! levels fan out across workers.
//!
//! Export surfaces:
//! - [`collect`] returns raw records for one trace (the serve crate's
//!   `GET /debug/trace` renders them as a span tree),
//! - [`chrome_trace_json`] renders everything recorded so far in
//!   chrome://tracing "trace event" format,
//! - [`stage_stats`] aggregates per-stage latency histograms that feed
//!   the `deepseq_stage_seconds` Prometheus family — the stats are
//!   *always* queryable (all zeros when tracing is off), so the metrics
//!   contract does not depend on the tracing switch.

use std::cell::{Cell, OnceCell};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// The stage of the pipeline a span measures.
///
/// The discriminants are stable indices into [`SpanKind::ALL`]; new kinds
/// append at the end.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum SpanKind {
    /// Whole `/v1/embed` request, parse to socket flush.
    Request = 0,
    /// Request body parse + validation (AIGER → graph inputs).
    Parse = 1,
    /// Time blocked in the admission gate before a compute slot freed.
    QueueWait = 2,
    /// Cone-memo probe of a request's components (hits or misses) under
    /// the memo lock.
    CacheLookup = 3,
    /// One full forward pass of the inference model.
    Forward = 4,
    /// One node-range chunk of one level batch (the pool fan-out unit).
    LevelChunk = 5,
    /// One GEMM dispatch; detail packs the `m×k×n` shape.
    Gemm = 6,
    /// Regressor-head evaluation after the recurrence.
    Head = 7,
    /// Response-body JSON serialization.
    Serialize = 8,
    /// Writing the response bytes to the client socket.
    SocketWrite = 9,
    /// One training epoch inside `train_on`.
    TrainEpoch = 10,
    /// One optimizer step (a group of sample passes + Adam update).
    TrainStep = 11,
}

impl SpanKind {
    /// Every kind, in discriminant order.
    pub const ALL: [SpanKind; 12] = [
        SpanKind::Request,
        SpanKind::Parse,
        SpanKind::QueueWait,
        SpanKind::CacheLookup,
        SpanKind::Forward,
        SpanKind::LevelChunk,
        SpanKind::Gemm,
        SpanKind::Head,
        SpanKind::Serialize,
        SpanKind::SocketWrite,
        SpanKind::TrainEpoch,
        SpanKind::TrainStep,
    ];

    /// Stable lowercase name used in JSON exports and metric labels.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Request => "request",
            SpanKind::Parse => "parse",
            SpanKind::QueueWait => "queue_wait",
            SpanKind::CacheLookup => "cache_lookup",
            SpanKind::Forward => "forward",
            SpanKind::LevelChunk => "level_chunk",
            SpanKind::Gemm => "gemm",
            SpanKind::Head => "head",
            SpanKind::Serialize => "serialize",
            SpanKind::SocketWrite => "socket_write",
            SpanKind::TrainEpoch => "train_epoch",
            SpanKind::TrainStep => "train_step",
        }
    }

    /// Index into [`SpanKind::ALL`].
    pub fn index(self) -> usize {
        self as usize
    }
}

/// One completed span. `Copy` and fixed-size so ring buffers never chase
/// pointers.
#[derive(Clone, Copy, Debug)]
pub struct SpanRecord {
    /// Trace (request) id the span belongs to; 0 = outside any request.
    pub trace: u64,
    /// Pipeline stage.
    pub kind: SpanKind,
    /// Kind-specific payload (GEMM shape, chunk width, epoch index, …).
    pub detail: u64,
    /// Start, nanoseconds since the process trace epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Recording thread's registration number (stable per thread).
    pub thread: u64,
}

// ---------------------------------------------------------------------------
// Enable state
// ---------------------------------------------------------------------------

const STATE_UNINIT: u8 = 0;
const STATE_OFF: u8 = 1;
const STATE_ON: u8 = 2;

static STATE: AtomicU8 = AtomicU8::new(STATE_UNINIT);
static ENV_OUTPUT: OnceLock<Option<String>> = OnceLock::new();

#[cold]
fn init_slow() -> bool {
    // First caller resolves DEEPSEQ_TRACE; racing callers may both run
    // this, but they compute the same answer from the same environment.
    let value = std::env::var("DEEPSEQ_TRACE").unwrap_or_default();
    let (on, path) = match value.trim() {
        "" | "0" | "false" | "off" => (false, None),
        "1" | "true" | "on" => (true, None),
        path => (true, Some(path.to_string())),
    };
    let _ = ENV_OUTPUT.set(path);
    STATE.store(if on { STATE_ON } else { STATE_OFF }, Ordering::Relaxed);
    on
}

/// Is span recording on? One relaxed load on the fast path.
#[inline]
pub fn enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        STATE_ON => true,
        STATE_OFF => false,
        _ => init_slow(),
    }
}

/// Force recording on or off, overriding `DEEPSEQ_TRACE` (used by the
/// serve CLI's `--trace-out` and by tests).
pub fn set_enabled(on: bool) {
    let _ = ENV_OUTPUT.set(None); // keep env parsing from racing later
    STATE.store(if on { STATE_ON } else { STATE_OFF }, Ordering::Relaxed);
}

/// Output path carried by `DEEPSEQ_TRACE` when its value is a file path
/// (any value other than a plain on/off token).
pub fn env_output_path() -> Option<String> {
    enabled(); // ensure the env var has been parsed
    ENV_OUTPUT.get().cloned().flatten()
}

// ---------------------------------------------------------------------------
// Clock
// ---------------------------------------------------------------------------

static EPOCH: OnceLock<Instant> = OnceLock::new();

#[inline]
fn now_ns() -> u64 {
    let epoch = *EPOCH.get_or_init(Instant::now);
    Instant::now().duration_since(epoch).as_nanos() as u64
}

// ---------------------------------------------------------------------------
// Thread-local ring buffers + global registry
// ---------------------------------------------------------------------------

/// Span capacity of each live thread's ring, and of the one shared ring
/// that keeps the spans of exited threads. Oldest records are overwritten
/// when full; [`dropped_spans`] counts the overwrites.
const RING_CAPACITY: usize = 32_768;

struct Ring {
    records: Vec<SpanRecord>,
    /// Overwrite cursor once `records` is full (points at the oldest).
    head: usize,
    dropped: u64,
}

impl Ring {
    const fn new() -> Ring {
        Ring {
            records: Vec::new(),
            head: 0,
            dropped: 0,
        }
    }

    fn push(&mut self, record: SpanRecord) {
        if self.records.len() < RING_CAPACITY {
            self.records.push(record);
        } else {
            let at = self.head;
            self.records[at] = record;
            self.head = (at + 1) % RING_CAPACITY;
            self.dropped += 1;
        }
    }

    /// The records in the order they were pushed, oldest first.
    fn oldest_first(&self) -> impl Iterator<Item = &SpanRecord> {
        let (newer, older) = self.records.split_at(self.head);
        older.iter().chain(newer)
    }
}

struct ThreadBuf {
    thread: u64,
    ring: Mutex<Ring>,
}

/// Locks a trace mutex, recovering it if a panicking holder poisoned it
/// (a ring of plain `Copy` records stays consistent).
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|e| e.into_inner())
}

/// Buffers of the live threads that have recorded a span. Lock order:
/// `REGISTRY`, then a thread's ring, then `RETIRED`.
static REGISTRY: Mutex<Vec<Arc<ThreadBuf>>> = Mutex::new(Vec::new());
/// Spans of exited threads, folded in as each thread exits.
static RETIRED: Mutex<Ring> = Mutex::new(Ring::new());
static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);

/// A thread's registered buffer. Dropped as the thread exits, it moves
/// the thread's spans into [`RETIRED`] and unregisters the buffer, so
/// trace memory stays bounded however many threads come and go (the
/// HTTP server runs one per connection).
struct LocalBuf(Arc<ThreadBuf>);

impl Drop for LocalBuf {
    fn drop(&mut self) {
        let mut registry = lock(&REGISTRY);
        registry.retain(|buf| !Arc::ptr_eq(buf, &self.0));
        let ring = lock(&self.0.ring);
        let mut retired = lock(&RETIRED);
        for record in ring.oldest_first() {
            retired.push(*record);
        }
        retired.dropped += ring.dropped;
    }
}

thread_local! {
    static LOCAL_BUF: OnceCell<LocalBuf> = const { OnceCell::new() };
    static CURRENT_TRACE: Cell<u64> = const { Cell::new(0) };
}

fn push_with_thread(mut record: SpanRecord) {
    LOCAL_BUF.with(|cell| {
        let LocalBuf(buf) = cell.get_or_init(|| {
            let buf = Arc::new(ThreadBuf {
                thread: NEXT_THREAD.fetch_add(1, Ordering::Relaxed),
                ring: Mutex::new(Ring {
                    records: Vec::with_capacity(RING_CAPACITY.min(1024)),
                    ..Ring::new()
                }),
            });
            lock(&REGISTRY).push(Arc::clone(&buf));
            LocalBuf(buf)
        });
        record.thread = buf.thread;
        lock(&buf.ring).push(record);
    });
}

// ---------------------------------------------------------------------------
// Trace context
// ---------------------------------------------------------------------------

static NEXT_TRACE: AtomicU64 = AtomicU64::new(1);

/// Mint a fresh process-unique trace id (never 0).
pub fn next_trace_id() -> u64 {
    NEXT_TRACE.fetch_add(1, Ordering::Relaxed)
}

/// The calling thread's current trace id (0 outside any traced request).
#[inline]
pub fn current_trace() -> u64 {
    CURRENT_TRACE.with(Cell::get)
}

/// RAII guard restoring the previous trace id on drop; see [`scope`].
pub struct TraceScope {
    prev: u64,
}

impl Drop for TraceScope {
    fn drop(&mut self) {
        CURRENT_TRACE.with(|cell| cell.set(self.prev));
    }
}

/// Make `trace` the calling thread's current trace id until the returned
/// guard drops. Nested scopes restore in LIFO order.
pub fn scope(trace: u64) -> TraceScope {
    let prev = CURRENT_TRACE.with(|cell| cell.replace(trace));
    TraceScope { prev }
}

// ---------------------------------------------------------------------------
// Span guards
// ---------------------------------------------------------------------------

/// In-flight span; records itself (ring buffer + stage histogram) on drop.
/// Inert — a single bool check on drop — when tracing was disabled at
/// construction.
pub struct Span {
    kind: SpanKind,
    detail: u64,
    start_ns: u64,
    armed: bool,
}

impl Span {
    /// Attach or replace the kind-specific detail payload.
    pub fn set_detail(&mut self, detail: u64) {
        self.detail = detail;
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        let end = now_ns();
        let record = SpanRecord {
            trace: current_trace(),
            kind: self.kind,
            detail: self.detail,
            start_ns: self.start_ns,
            dur_ns: end.saturating_sub(self.start_ns),
            thread: 0, // filled by the ring below
        };
        STAGES[self.kind.index()].observe(record.dur_ns);
        push_with_thread(record);
    }
}

/// Start a span of `kind`. Returns an inert guard when tracing is off.
#[inline]
pub fn span(kind: SpanKind) -> Span {
    span_with(kind, 0)
}

/// Start a span of `kind` carrying a detail payload.
#[inline]
pub fn span_with(kind: SpanKind, detail: u64) -> Span {
    if !enabled() {
        return Span {
            kind,
            detail,
            start_ns: 0,
            armed: false,
        };
    }
    Span {
        kind,
        detail,
        start_ns: now_ns(),
        armed: true,
    }
}

/// Pack a GEMM shape into a span detail (`m`, `k`, `n` each saturated at
/// 2²⁰−1, so a larger dimension reads as the cap rather than wrapping).
/// Bits 60–63 are left free for the kernel tag of [`pack_gemm`].
pub fn pack_dims(m: usize, k: usize, n: usize) -> u64 {
    const MASK: u64 = (1 << 20) - 1;
    let cap = |d: usize| (d as u64).min(MASK);
    (cap(m) << 40) | (cap(k) << 20) | cap(n)
}

/// Inverse of [`pack_dims`] (the kernel-tag bits of [`pack_gemm`] details
/// are ignored).
pub fn unpack_dims(detail: u64) -> (usize, usize, usize) {
    const MASK: u64 = (1 << 20) - 1;
    (
        ((detail >> 40) & MASK) as usize,
        ((detail >> 20) & MASK) as usize,
        (detail & MASK) as usize,
    )
}

/// Pack a GEMM shape *and* the concrete kernel that computed it (as a
/// [`kernel_tag_name`] tag in the four bits [`pack_dims`] leaves free), so
/// `/debug/trace` names the kernel of each GEMM span.
pub fn pack_gemm(m: usize, k: usize, n: usize, kernel_tag: u8) -> u64 {
    pack_dims(m, k, n) | ((kernel_tag as u64 & 0xF) << 60)
}

/// The kernel tag carried by a [`pack_gemm`] detail (0 on details packed
/// by plain [`pack_dims`], i.e. "kernel unknown").
pub fn unpack_kernel_tag(detail: u64) -> u8 {
    ((detail >> 60) & 0xF) as u8
}

/// The kernel name a [`pack_gemm`] tag stands for; `None` for the
/// untagged value 0 and any unassigned tag. Tags are assigned by
/// `Kernel::trace_tag` in [`crate::kernels`].
pub fn kernel_tag_name(tag: u8) -> Option<&'static str> {
    match tag {
        1 => Some("naive"),
        2 => Some("blocked"),
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// Collection
// ---------------------------------------------------------------------------

/// Snapshot the records of one trace across every live thread's ring
/// buffer and the ring of exited threads' spans, sorted by start time
/// (ties: longer span first, so parents precede children). `trace == 0`
/// returns every record.
pub fn collect(trace: u64) -> Vec<SpanRecord> {
    let keep = |r: &&SpanRecord| trace == 0 || r.trace == trace;
    let mut out = Vec::new();
    {
        // Holding the registry keeps an exiting thread from moving its
        // spans into `RETIRED` between the two reads.
        let registry = lock(&REGISTRY);
        for buf in registry.iter() {
            out.extend(lock(&buf.ring).records.iter().filter(keep).copied());
        }
        out.extend(lock(&RETIRED).records.iter().filter(keep).copied());
    }
    out.sort_by(|a, b| {
        a.start_ns
            .cmp(&b.start_ns)
            .then(b.dur_ns.cmp(&a.dur_ns))
            .then(a.thread.cmp(&b.thread))
    });
    out
}

/// Total spans overwritten in full ring buffers since process start.
pub fn dropped_spans() -> u64 {
    let registry = lock(&REGISTRY);
    let live: u64 = registry.iter().map(|buf| lock(&buf.ring).dropped).sum();
    live + lock(&RETIRED).dropped
}

// ---------------------------------------------------------------------------
// Histograms
// ---------------------------------------------------------------------------

/// Finite buckets of every [`Histogram`]; an overflow bucket follows them.
pub const HISTOGRAM_BUCKETS: usize = 14;

/// Histogram bucket upper bounds for stage durations, in nanoseconds
/// (1 µs … 5 s).
pub const STAGE_BUCKET_BOUNDS_NS: [u64; HISTOGRAM_BUCKETS] = [
    1_000,
    5_000,
    10_000,
    50_000,
    100_000,
    500_000,
    1_000_000,
    5_000_000,
    10_000_000,
    50_000_000,
    100_000_000,
    500_000_000,
    1_000_000_000,
    5_000_000_000,
];

/// An atomic, insert-only duration histogram over one table of bucket
/// upper bounds in nanoseconds: a count per bucket, the overflow past the
/// last bound, the total count and the sum. An observation increments one
/// bucket; readers that want cumulative counts sum them. The stage
/// histograms here and the serving latency histograms are this type.
#[derive(Debug)]
pub struct Histogram {
    bounds_ns: &'static [u64; HISTOGRAM_BUCKETS],
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    overflow: AtomicU64,
    count: AtomicU64,
    sum_ns: AtomicU64,
}

impl Histogram {
    /// An empty histogram over `bounds_ns` (ascending).
    pub const fn new(bounds_ns: &'static [u64; HISTOGRAM_BUCKETS]) -> Histogram {
        Histogram {
            bounds_ns,
            buckets: [const { AtomicU64::new(0) }; HISTOGRAM_BUCKETS],
            overflow: AtomicU64::new(0),
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
        }
    }

    /// Records one observation of `dur_ns` nanoseconds.
    pub fn observe(&self, dur_ns: u64) {
        let bucket = match self.bounds_ns.iter().position(|&b| dur_ns <= b) {
            Some(i) => &self.buckets[i],
            None => &self.overflow,
        };
        bucket.fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(dur_ns, Ordering::Relaxed);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// The current counts.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds_ns: self.bounds_ns,
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            overflow: self.overflow.load(Ordering::Relaxed),
            count: self.count(),
            sum_ns: self.sum_ns.load(Ordering::Relaxed),
        }
    }
}

/// The counts of a [`Histogram`] at one instant.
#[derive(Clone, Debug)]
pub struct HistogramSnapshot {
    /// Bucket upper bounds, nanoseconds.
    pub bounds_ns: &'static [u64; HISTOGRAM_BUCKETS],
    /// Per-bucket (non-cumulative) counts, aligned with `bounds_ns`.
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Observations above the last bound.
    pub overflow: u64,
    /// Total observations.
    pub count: u64,
    /// Total duration observed, nanoseconds.
    pub sum_ns: u64,
}

impl HistogramSnapshot {
    /// Approximate quantile (`q` in `[0, 1]`) in **seconds**, linearly
    /// interpolated within the containing bucket. Zero when empty; the
    /// last finite bound when the quantile lands in the overflow bucket.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        let mut lower = 0u64;
        for (&upper, &n) in self.bounds_ns.iter().zip(&self.buckets) {
            if seen + n >= target {
                let into = (target - seen) as f64 / n.max(1) as f64;
                let ns = lower as f64 + into * (upper - lower) as f64;
                return ns / 1e9;
            }
            seen += n;
            lower = upper;
        }
        self.bounds_ns[HISTOGRAM_BUCKETS - 1] as f64 / 1e9
    }
}

static STAGES: [Histogram; SpanKind::ALL.len()] =
    [const { Histogram::new(&STAGE_BUCKET_BOUNDS_NS) }; SpanKind::ALL.len()];

/// Snapshot every stage histogram (one entry per [`SpanKind::ALL`] member,
/// all zeros for stages never observed — presence is unconditional).
pub fn stage_stats() -> Vec<(SpanKind, HistogramSnapshot)> {
    SpanKind::ALL
        .iter()
        .map(|&kind| (kind, STAGES[kind.index()].snapshot()))
        .collect()
}

// ---------------------------------------------------------------------------
// chrome://tracing export
// ---------------------------------------------------------------------------

/// Render every recorded span as a chrome://tracing "trace event" JSON
/// document (`{"traceEvents": [...]}` with `"X"` complete events and
/// `"M"` thread-name metadata). Load it at chrome://tracing or
/// <https://ui.perfetto.dev>.
pub fn chrome_trace_json() -> String {
    let records = collect(0);
    let mut threads: Vec<u64> = records.iter().map(|r| r.thread).collect();
    threads.sort_unstable();
    threads.dedup();

    let mut out = String::with_capacity(records.len() * 96 + 256);
    out.push_str("{\"traceEvents\":[");
    let mut first = true;
    for thread in &threads {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!(
            "{{\"ph\":\"M\",\"pid\":1,\"tid\":{thread},\"name\":\"thread_name\",\
             \"args\":{{\"name\":\"deepseq-{thread}\"}}}}"
        ));
    }
    for r in &records {
        if !first {
            out.push(',');
        }
        first = false;
        let ts_us = r.start_ns as f64 / 1e3;
        let dur_us = r.dur_ns as f64 / 1e3;
        out.push_str(&format!(
            "{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
             \"name\":\"{}\",\"args\":{{\"trace\":{},\"detail\":{}}}}}",
            r.thread,
            ts_us,
            dur_us,
            r.kind.name(),
            r.trace,
            r.detail
        ));
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // All tests here share one process with the rest of the `nn` unit
    // tests; they enable tracing globally (bitwise-neutral, so only the
    // other tests' speed is affected) and always filter on their own
    // minted trace ids.

    #[test]
    fn disabled_spans_record_nothing() {
        // Must run before anything enables tracing in this process to be
        // meaningful, but is correct either way: an unarmed span never
        // records.
        let span = Span {
            kind: SpanKind::Gemm,
            detail: 0,
            start_ns: 0,
            armed: false,
        };
        let trace = next_trace_id();
        let _scope = scope(trace);
        drop(span);
        assert!(collect(trace).is_empty());
    }

    #[test]
    fn spans_record_and_collect_by_trace() {
        set_enabled(true);
        let trace = next_trace_id();
        {
            let _scope = scope(trace);
            let _outer = span(SpanKind::Request);
            std::thread::sleep(std::time::Duration::from_micros(200));
            {
                let _inner = span_with(SpanKind::Gemm, pack_dims(3, 4, 5));
            }
        }
        let records = collect(trace);
        assert_eq!(records.len(), 2, "{records:?}");
        // Sorted parent-first: request starts first (ties broken longest
        // first).
        assert_eq!(records[0].kind, SpanKind::Request);
        assert_eq!(records[1].kind, SpanKind::Gemm);
        assert_eq!(unpack_dims(records[1].detail), (3, 4, 5));
        assert!(records[0].dur_ns >= records[1].dur_ns);
        assert!(records[0].start_ns <= records[1].start_ns);
    }

    #[test]
    fn scope_nests_and_restores() {
        let a = next_trace_id();
        let b = next_trace_id();
        assert_eq!(current_trace(), 0);
        {
            let _outer = scope(a);
            assert_eq!(current_trace(), a);
            {
                let _inner = scope(b);
                assert_eq!(current_trace(), b);
            }
            assert_eq!(current_trace(), a);
        }
        assert_eq!(current_trace(), 0);
    }

    #[test]
    fn stage_stats_cover_all_kinds_and_quantiles_interpolate() {
        let stats = stage_stats();
        assert_eq!(stats.len(), SpanKind::ALL.len());
        for ((found, stat), kind) in stats.iter().zip(SpanKind::ALL) {
            assert_eq!(*found, kind);
            let spread: u64 = stat.buckets.iter().sum::<u64>() + stat.overflow;
            assert_eq!(spread, stat.count, "bucket sum != count for {kind:?}");
        }

        let mut synthetic = Histogram::new(&STAGE_BUCKET_BOUNDS_NS).snapshot();
        assert_eq!(synthetic.quantile(0.5), 0.0);
        synthetic.buckets[0] = 100; // all ≤ 1 µs
        synthetic.count = 100;
        let p50 = synthetic.quantile(0.5);
        assert!(p50 > 0.0 && p50 <= 1e-6, "p50 {p50}");
        synthetic.overflow = 1_000_000;
        synthetic.count += 1_000_000;
        assert_eq!(synthetic.quantile(0.99), 5.0);
    }

    #[test]
    fn an_observation_lands_in_one_bucket() {
        let h = Histogram::new(&STAGE_BUCKET_BOUNDS_NS);
        h.observe(1_000); // on the first bound
        h.observe(1_001);
        h.observe(6_000_000_000); // past the last bound
        let s = h.snapshot();
        assert_eq!(s.buckets[..3], [1, 1, 0]);
        assert_eq!(s.buckets.iter().sum::<u64>(), 2);
        assert_eq!((s.overflow, s.count, h.count()), (1, 3, 3));
        assert_eq!(s.sum_ns, 6_000_002_001);
    }

    #[test]
    fn chrome_export_is_wellformed_and_contains_recorded_span() {
        set_enabled(true);
        let trace = next_trace_id();
        {
            let _scope = scope(trace);
            let _span = span(SpanKind::Serialize);
        }
        let json = chrome_trace_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        assert!(json.contains("\"ph\":\"M\""));
        assert!(json.contains(&format!("\"trace\":{trace}")));
        assert!(json.contains("\"name\":\"serialize\""));
        // Balanced braces — a cheap structural check without a parser.
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn exited_threads_keep_their_spans_in_bounded_memory() {
        set_enabled(true);
        let registered = || lock(&REGISTRY).len();
        let before = registered();
        let traces: Vec<u64> = (0..200).map(|_| next_trace_id()).collect();
        for &trace in &traces {
            std::thread::spawn(move || {
                let _scope = scope(trace);
                let _span = span(SpanKind::SocketWrite);
            })
            .join()
            .expect("span thread");
        }
        // Each exited thread unregistered its buffer…
        let after = registered();
        assert!(
            after < before + 200,
            "{before} → {after} registered buffers"
        );
        // …and its span is still collectible.
        let records = collect(0);
        for trace in traces {
            let spans: Vec<_> = records.iter().filter(|r| r.trace == trace).collect();
            assert_eq!(spans.len(), 1, "trace {trace}: {spans:?}");
            assert_eq!(spans[0].kind, SpanKind::SocketWrite);
        }
    }

    #[test]
    fn pack_dims_roundtrip() {
        assert_eq!(unpack_dims(pack_dims(0, 0, 0)), (0, 0, 0));
        assert_eq!(unpack_dims(pack_dims(1, 2, 3)), (1, 2, 3));
        assert_eq!(
            unpack_dims(pack_dims(1 << 19, 1234, (1 << 20) - 1)),
            (1 << 19, 1234, (1 << 20) - 1)
        );
        assert_eq!(
            unpack_dims(pack_dims((1 << 20) + 5, 0, 1 << 21)),
            ((1 << 20) - 1, 0, (1 << 20) - 1)
        );
    }

    #[test]
    fn kernel_tags_ride_alongside_dims() {
        for tag in 0..=15u8 {
            let detail = pack_gemm(7, 1234, (1 << 20) - 1, tag);
            assert_eq!(unpack_dims(detail), (7, 1234, (1 << 20) - 1));
            assert_eq!(unpack_kernel_tag(detail), tag);
        }
        // Plain pack_dims details are untagged.
        assert_eq!(unpack_kernel_tag(pack_dims(3, 4, 5)), 0);
        assert_eq!(kernel_tag_name(0), None);
        assert_eq!(kernel_tag_name(2), Some("blocked"));
        assert_eq!(kernel_tag_name(3), None);
        assert_eq!(kernel_tag_name(4), None);
        assert_eq!(kernel_tag_name(15), None);
    }
}
