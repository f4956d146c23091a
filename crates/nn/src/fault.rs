//! Deterministic fault injection for exercising recovery paths.
//!
//! Production serving has failure modes that unit tests never reach:
//! a request task panics mid-forward, a checkpoint arrives bit-flipped, a
//! socket write fails halfway, the cache evicts an entry between probe
//! and use. This module lets tests and CI *inject* those failures on
//! purpose, at named points, with a seeded PRNG so a failing run is
//! reproducible bit-for-bit.
//!
//! Arming is environment-driven:
//!
//! ```text
//! DEEPSEQ_FAULT=<point>[@<stage>]:<rate>[:<seed>]
//! ```
//!
//! e.g. `DEEPSEQ_FAULT=task_panic:0.3:42` injects a panic into 30% of
//! request tasks, decided by a PRNG seeded from `42` and the thread's
//! stable ordinal. `slow_stage` takes a stage qualifier
//! (`slow_stage@forward:1.0`) and a fixed delay instead of an error.
//!
//! Like [`crate::trace`], the disarmed fast path is a single relaxed
//! atomic load — no locks, no thread-locals, no clock reads — and the
//! layer is bitwise-neutral to every computation when disarmed, so the
//! determinism suites hold with the module compiled in.
//!
//! Each injection increments a per-point counter exported by the serve
//! crate as `deepseq_faults_injected_total{point=...}`.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// A named place in the stack where a failure can be injected.
///
/// The discriminants are stable indices into [`FaultPoint::ALL`]; new
/// points append at the end.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum FaultPoint {
    /// Corrupt checkpoint bytes as they are read (`Params::load_binary`).
    CheckpointRead = 0,
    /// Panic inside a request's compute task.
    TaskPanic = 1,
    /// Sleep inside a pipeline stage (qualified by a stage name).
    SlowStage = 2,
    /// Drop a request's cone-memo entries before its probe, so every
    /// component misses.
    CacheEvict = 3,
    /// Fail the socket write of a response.
    SocketWrite = 4,
}

impl FaultPoint {
    /// Every point, in discriminant order.
    pub const ALL: [FaultPoint; 5] = [
        FaultPoint::CheckpointRead,
        FaultPoint::TaskPanic,
        FaultPoint::SlowStage,
        FaultPoint::CacheEvict,
        FaultPoint::SocketWrite,
    ];

    /// Stable name used in `DEEPSEQ_FAULT` specs and metric labels.
    pub fn name(self) -> &'static str {
        match self {
            FaultPoint::CheckpointRead => "checkpoint_read",
            FaultPoint::TaskPanic => "task_panic",
            FaultPoint::SlowStage => "slow_stage",
            FaultPoint::CacheEvict => "cache_evict",
            FaultPoint::SocketWrite => "socket_write",
        }
    }

    /// Index into [`FaultPoint::ALL`].
    pub fn index(self) -> usize {
        self as usize
    }

    fn from_name(name: &str) -> Option<FaultPoint> {
        FaultPoint::ALL.into_iter().find(|p| p.name() == name)
    }
}

/// A parsed, armed fault specification.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultSpec {
    /// Which point fires.
    pub point: FaultPoint,
    /// Stage qualifier for [`FaultPoint::SlowStage`] (`slow_stage@forward`);
    /// `None` matches every stage.
    pub stage: Option<String>,
    /// Probability in `[0, 1]` that a visit to the point injects.
    pub rate: f64,
    /// PRNG seed; combined with a stable per-thread ordinal so decisions
    /// are reproducible run-to-run even across thread interleavings.
    pub seed: u64,
}

impl FaultSpec {
    /// Parses `point[@stage]:rate[:seed]`.
    pub fn parse(spec: &str) -> Result<FaultSpec, String> {
        let mut parts = spec.split(':');
        let head = parts.next().unwrap_or_default();
        let (name, stage) = match head.split_once('@') {
            Some((name, stage)) if !stage.is_empty() => (name, Some(stage.to_string())),
            Some((name, _)) => (name, None),
            None => (head, None),
        };
        let point = FaultPoint::from_name(name).ok_or_else(|| {
            let known: Vec<&str> = FaultPoint::ALL.iter().map(|p| p.name()).collect();
            format!("unknown fault point `{name}` (known: {})", known.join(", "))
        })?;
        let rate: f64 = match parts.next() {
            Some(rate) => rate
                .parse()
                .map_err(|_| format!("unparseable fault rate `{rate}`"))?,
            None => 1.0,
        };
        if !(0.0..=1.0).contains(&rate) {
            return Err(format!("fault rate {rate} outside [0, 1]"));
        }
        let seed: u64 = match parts.next() {
            Some(seed) => seed
                .parse()
                .map_err(|_| format!("unparseable fault seed `{seed}`"))?,
            None => 0,
        };
        if let Some(extra) = parts.next() {
            return Err(format!("trailing fault spec field `{extra}`"));
        }
        Ok(FaultSpec {
            point,
            stage,
            rate,
            seed,
        })
    }
}

const STATE_UNINIT: u8 = 0;
const STATE_OFF: u8 = 1;
const STATE_ON: u8 = 2;

/// Tri-state arming flag: the only thing the disarmed hot path touches.
static STATE: AtomicU8 = AtomicU8::new(STATE_UNINIT);

/// The armed spec; consulted only when [`STATE`] is `STATE_ON`.
static SPEC: Mutex<Option<FaultSpec>> = Mutex::new(None);

/// Per-point injection counters (indexed by [`FaultPoint::index`]).
static INJECTED: [AtomicU64; FaultPoint::ALL.len()] = {
    #[allow(clippy::declare_interior_mutable_const)]
    const ZERO: AtomicU64 = AtomicU64::new(0);
    [ZERO; FaultPoint::ALL.len()]
};

/// Monotonic thread-ordinal source for per-thread PRNG streams.
static NEXT_THREAD_ORDINAL: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// This thread's PRNG stream as `(spec seed it derives from, state)`.
    /// Re-arming with a different seed restarts the stream.
    static RNG: Cell<Option<(u64, u64)>> = const { Cell::new(None) };
    static THREAD_ORDINAL: Cell<u64> = const { Cell::new(0) };
}

#[cold]
fn init_slow() -> bool {
    let spec = std::env::var("DEEPSEQ_FAULT")
        .ok()
        .filter(|raw| !raw.is_empty())
        .map(|raw| match FaultSpec::parse(&raw) {
            Ok(spec) => spec,
            Err(why) => {
                crate::config::report_warning(format!("ignoring DEEPSEQ_FAULT=`{raw}`: {why}"));
                // A malformed spec must not half-arm the layer.
                FaultSpec {
                    point: FaultPoint::TaskPanic,
                    stage: None,
                    rate: 0.0,
                    seed: 0,
                }
            }
        })
        .filter(|spec| spec.rate > 0.0);
    let on = spec.is_some();
    *SPEC.lock().unwrap_or_else(|e| e.into_inner()) = spec;
    STATE.store(if on { STATE_ON } else { STATE_OFF }, Ordering::Relaxed);
    on
}

/// Whether any fault is armed. One relaxed atomic load when resolved.
#[inline]
pub fn armed() -> bool {
    match STATE.load(Ordering::Relaxed) {
        STATE_ON => true,
        STATE_OFF => false,
        _ => init_slow(),
    }
}

/// Arms `spec` (or disarms with `None`) regardless of the environment —
/// the test hook. Resets nothing else: counters keep accumulating.
pub fn set_armed(spec: Option<FaultSpec>) {
    let on = spec.as_ref().is_some_and(|s| s.rate > 0.0);
    *SPEC.lock().unwrap_or_else(|e| e.into_inner()) = spec.filter(|s| s.rate > 0.0);
    STATE.store(if on { STATE_ON } else { STATE_OFF }, Ordering::Relaxed);
}

/// splitmix64 — tiny, seedable, and plenty for injection decisions.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Draws a uniform `[0, 1)` sample from this thread's stream for `seed`.
fn thread_sample(seed: u64) -> f64 {
    let ordinal = THREAD_ORDINAL.with(|cell| {
        if cell.get() == 0 {
            cell.set(NEXT_THREAD_ORDINAL.fetch_add(1, Ordering::Relaxed));
        }
        cell.get()
    });
    RNG.with(|cell| {
        let mut state = match cell.get() {
            Some((tag, state)) if tag == seed => state,
            // First draw under this seed on this thread: derive a stream
            // from (seed, ordinal) so each thread is independent but
            // reproducible.
            _ => seed ^ ordinal.wrapping_mul(0xa076_1d64_78bd_642f),
        };
        let word = splitmix64(&mut state);
        cell.set(Some((seed, state)));
        (word >> 11) as f64 / (1u64 << 53) as f64
    })
}

/// Decides whether the armed fault fires at `point` (ignoring any stage
/// qualifier) and counts the injection if so. Disarmed cost: one load.
#[inline]
pub fn should_inject(point: FaultPoint) -> bool {
    if !armed() {
        return false;
    }
    should_inject_slow(point, None).is_some()
}

/// Stage-qualified variant for [`FaultPoint::SlowStage`]: returns the
/// injected delay when the fault fires for `stage`.
#[inline]
pub fn slow_stage_delay(stage: &str) -> Option<Duration> {
    if !armed() {
        return None;
    }
    should_inject_slow(FaultPoint::SlowStage, Some(stage))
}

#[cold]
fn should_inject_slow(point: FaultPoint, stage: Option<&str>) -> Option<Duration> {
    let (rate, seed) = {
        let guard = SPEC.lock().unwrap_or_else(|e| e.into_inner());
        let spec = guard.as_ref()?;
        if spec.point != point {
            return None;
        }
        if let (Some(want), Some(at)) = (spec.stage.as_deref(), stage) {
            if want != at {
                return None;
            }
        }
        (spec.rate, spec.seed)
    };
    if rate < 1.0 && thread_sample(seed) >= rate {
        return None;
    }
    INJECTED[point.index()].fetch_add(1, Ordering::Relaxed);
    // A fixed, short delay: long enough to widen race windows and show
    // up in latency percentiles, short enough for CI.
    Some(Duration::from_millis(25))
}

/// Total injections at `point` since process start.
pub fn injected_count(point: FaultPoint) -> u64 {
    INJECTED[point.index()].load(Ordering::Relaxed)
}

/// `(name, count)` for every point — the `/metrics` export.
pub fn injected_counts() -> Vec<(&'static str, u64)> {
    FaultPoint::ALL
        .iter()
        .map(|&p| (p.name(), injected_count(p)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    // The armed spec is process-global; tests that touch it serialize.
    static LOCK: Mutex<()> = Mutex::new(());

    fn spec(point: FaultPoint, rate: f64, seed: u64) -> FaultSpec {
        FaultSpec {
            point,
            stage: None,
            rate,
            seed,
        }
    }

    #[test]
    fn parse_full_spec() {
        assert_eq!(
            FaultSpec::parse("task_panic:0.25:7").unwrap(),
            spec(FaultPoint::TaskPanic, 0.25, 7)
        );
    }

    #[test]
    fn parse_defaults_rate_and_seed() {
        assert_eq!(
            FaultSpec::parse("cache_evict").unwrap(),
            spec(FaultPoint::CacheEvict, 1.0, 0)
        );
        assert_eq!(
            FaultSpec::parse("socket_write:0.5").unwrap(),
            spec(FaultPoint::SocketWrite, 0.5, 0)
        );
    }

    #[test]
    fn parse_stage_qualifier() {
        let parsed = FaultSpec::parse("slow_stage@forward:1:3").unwrap();
        assert_eq!(parsed.point, FaultPoint::SlowStage);
        assert_eq!(parsed.stage.as_deref(), Some("forward"));
        assert_eq!(parsed.rate, 1.0);
        assert_eq!(parsed.seed, 3);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(FaultSpec::parse("no_such_point:1").is_err());
        assert!(FaultSpec::parse("task_panic:nan-ish").is_err());
        assert!(FaultSpec::parse("task_panic:2.0").is_err());
        assert!(FaultSpec::parse("task_panic:-0.1").is_err());
        assert!(FaultSpec::parse("task_panic:1:0:extra").is_err());
    }

    #[test]
    fn disarmed_injects_nothing() {
        let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_armed(None);
        for point in FaultPoint::ALL {
            assert!(!should_inject(point));
        }
        assert!(slow_stage_delay("forward").is_none());
    }

    #[test]
    fn rate_one_always_fires_and_counts() {
        let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_armed(Some(spec(FaultPoint::CacheEvict, 1.0, 1)));
        let before = injected_count(FaultPoint::CacheEvict);
        for _ in 0..10 {
            assert!(should_inject(FaultPoint::CacheEvict));
        }
        assert_eq!(injected_count(FaultPoint::CacheEvict), before + 10);
        // Other points stay quiet.
        assert!(!should_inject(FaultPoint::TaskPanic));
        set_armed(None);
    }

    #[test]
    fn fractional_rate_is_reproducible_per_seed() {
        let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let draw = |seed: u64| -> Vec<bool> {
            set_armed(Some(spec(FaultPoint::TaskPanic, 0.5, seed)));
            (0..64)
                .map(|_| should_inject(FaultPoint::TaskPanic))
                .collect()
        };
        let a1 = draw(11);
        let b = draw(12);
        let a2 = draw(11);
        assert_eq!(a1, a2, "same seed must reproduce the same decisions");
        assert_ne!(a1, b, "different seeds should differ");
        let fired = a1.iter().filter(|&&f| f).count();
        assert!((8..=56).contains(&fired), "rate 0.5 fired {fired}/64");
        set_armed(None);
    }

    #[test]
    fn stage_qualifier_gates_slow_stage() {
        let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_armed(Some(FaultSpec {
            point: FaultPoint::SlowStage,
            stage: Some("forward".to_string()),
            rate: 1.0,
            seed: 0,
        }));
        assert!(slow_stage_delay("forward").is_some());
        assert!(slow_stage_delay("serialize").is_none());
        set_armed(None);
    }
}
