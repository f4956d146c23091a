//! Request engine on the shared worker pool.
//!
//! An [`Engine`] owns a frozen [`InferenceModel`], the [`ConeMemo`] (its
//! only cache), and a handle to a worker [`Pool`] — by default the
//! process-wide [`Pool::global`], so *one* pool serves every engine,
//! request batch **and** the level-parallel forward passes inside each
//! request, instead of each subsystem spawning its own threads.
//! [`Engine::serve`] answers one request on the calling thread, and its
//! level batches fan out across the pool. [`Engine::serve_batch`] runs
//! `serve` for independent requests on up to `workers` pool tasks
//! (responses return in request order), so the pool stays busy whether
//! traffic is many small circuits or one big one. Workspaces are checked
//! out of a shared pile, one per request in progress, so steady traffic
//! runs without per-request allocation.
//!
//! Each request is partitioned into its weakly connected components and
//! looked up in the memo component by component. When every component
//! hits, the answer is assembled from memoized rows without running the
//! model; otherwise only the missed components are propagated and read
//! out (the whole circuit, when nothing hit). Answers never depend on what
//! was served before.

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use deepseq_core::encoding::initial_states;
use deepseq_core::{CircuitGraph, Predictions};
use deepseq_netlist::SeqAig;
use deepseq_nn::fault::{self, FaultPoint};
use deepseq_nn::ops::mean_pool;
use deepseq_nn::trace;
use deepseq_nn::{Matrix, Pool};
use deepseq_sim::Workload;

use crate::cache::{CacheStats, CachedInference, ConeEntry, ConeKey, ConeMemo};
use crate::cone::{self, Cone};
use crate::infer::{InferenceModel, InferenceOutput, Workspace};
use crate::ServeError;

/// Internal engine failures: the request did not fail validation — the
/// machinery processing it did. The HTTP edge maps these to 500 (every
/// other [`ServeError`] is the client's fault and maps to 400).
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum EngineError {
    /// The request's compute panicked; the panic was caught at the
    /// engine boundary and the thread survived.
    Panicked {
        /// The panic payload, when it was a string.
        detail: String,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Panicked { detail } => {
                write!(f, "request task panicked: {detail}")
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// Panics caught at the engine boundary since process start — the
/// `deepseq_panics_caught_total` metric.
static PANICS_CAUGHT: AtomicU64 = AtomicU64::new(0);

/// Total panics caught (and converted to typed 500s) at the engine
/// boundary since process start.
pub fn panics_caught() -> u64 {
    PANICS_CAUGHT.load(Ordering::Relaxed)
}

/// Locks a mutex, recovering from poisoning: every engine-internal lock
/// guards the model handle, the workspace pile or the memo, whose
/// operations never panic mid-update, and the per-request compute that
/// *can* panic runs outside any of them (and is caught in
/// [`Engine::serve`] anyway), so the poisoned state is consistent.
fn lock_recover<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|poison| poison.into_inner())
}

/// One inference request: a circuit plus the workload applied at its PIs.
#[derive(Debug, Clone)]
pub struct ServeRequest {
    /// Caller-chosen identifier, echoed in the response.
    pub id: u64,
    /// The circuit (must pass [`SeqAig::validate`]).
    pub aig: SeqAig,
    /// Per-PI stimulus; must cover every PI.
    pub workload: Workload,
    /// Seed for the random non-PI rows of the initial state matrix.
    pub init_seed: u64,
}

/// Successful inference payload of a [`ServeResponse`].
#[derive(Debug, Clone)]
pub struct ServedInference {
    /// Node count of the served circuit.
    pub num_nodes: usize,
    /// True if the whole answer came from the cone memo: every component
    /// hit, and the model did not run.
    pub cache_hit: bool,
    /// Number of fanin-cone components whose rows came from the cone memo
    /// (all of them on a cache hit, 0 on a fully cold request).
    pub cones_reused: usize,
    /// Shared predictions + embedding, bitwise what an uncached engine
    /// computes for the request.
    pub data: Arc<CachedInference>,
}

/// Outcome of one request.
#[derive(Debug, Clone)]
pub struct ServeResponse {
    /// The request's identifier.
    pub id: u64,
    /// Design name of the request's circuit.
    pub design: String,
    /// Predictions, or why the request was rejected.
    pub result: Result<ServedInference, ServeError>,
}

/// Sizing knobs of an [`Engine`].
#[derive(Debug, Clone, Copy)]
pub struct EngineOptions {
    /// Maximum requests processed concurrently by [`Engine::serve_batch`]
    /// (additionally capped by the pool's thread count). Clamped to at
    /// least 1. Lower values leave more pool threads to the level
    /// parallelism *inside* each request.
    pub workers: usize,
    /// Not read. It sized the whole-circuit cache that the cone memo
    /// replaced, and stays only so that existing struct literals naming it
    /// keep compiling; `cone_capacity` is the one cache size.
    pub cache_capacity: usize,
    /// Cone-memo capacity in component entries (0 disables reuse; requests
    /// then always run whole circuits).
    pub cone_capacity: usize,
}

impl Default for EngineOptions {
    fn default() -> Self {
        // Sized from the hardware directly — instantiating the global pool
        // here would be a surprising side effect for engines built on an
        // explicit pool.
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(2)
            .min(8);
        EngineOptions {
            workers,
            cache_capacity: 0,
            cone_capacity: 1024,
        }
    }
}

/// The serving engine (see the [module docs](self)).
///
/// # Example
/// ```
/// use deepseq_core::{DeepSeq, DeepSeqConfig};
/// use deepseq_netlist::SeqAig;
/// use deepseq_serve::{Engine, EngineOptions, InferenceModel, ServeRequest};
/// use deepseq_sim::Workload;
///
/// let model = DeepSeq::new(DeepSeqConfig { hidden_dim: 8, iterations: 2,
///                                          ..DeepSeqConfig::default() });
/// let engine = Engine::new(InferenceModel::from_model(&model),
///                          EngineOptions { workers: 2, ..EngineOptions::default() });
///
/// let mut aig = SeqAig::new("toggle");
/// let q = aig.add_ff("q", false);
/// let n = aig.add_not(q);
/// aig.connect_ff(q, n)?;
///
/// let make = |id| ServeRequest { id, aig: aig.clone(),
///                                workload: Workload::uniform(0, 0.5), init_seed: 0 };
/// // Warm the memo, then identical requests hit it (warming must finish
/// // first — two identical requests *in one batch* may race to distinct
/// // pool tasks and both miss).
/// let cold = engine.serve(&make(0));
/// assert!(!cold.result.as_ref().unwrap().cache_hit);
/// let warm = engine.serve_batch(vec![make(1), make(2)]);
/// assert!(warm.iter().all(|r| r.result.as_ref().unwrap().cache_hit));
/// assert_eq!(engine.cache_stats().hits, 2);
/// # Ok::<(), deepseq_netlist::NetlistError>(())
/// ```
pub struct Engine {
    /// Swappable on checkpoint reload; each request snapshots the `Arc` at
    /// start, so in-flight requests finish on the model they began with.
    model: Mutex<Arc<InferenceModel>>,
    cones: Mutex<ConeMemo>,
    pool: Arc<Pool>,
    workspaces: Mutex<Vec<Workspace>>,
    served: AtomicU64,
    max_concurrent: usize,
}

impl Engine {
    /// An engine around a frozen model, on the process-wide
    /// [`Pool::global`].
    pub fn new(model: InferenceModel, options: EngineOptions) -> Engine {
        Engine::with_pool(model, options, Arc::clone(Pool::global()))
    }

    /// An engine on an explicit worker pool (benchmarks and tests size
    /// their own; everything else should share the global pool).
    pub fn with_pool(model: InferenceModel, options: EngineOptions, pool: Arc<Pool>) -> Engine {
        Engine {
            model: Mutex::new(Arc::new(model)),
            cones: Mutex::new(ConeMemo::new(options.cone_capacity)),
            pool,
            workspaces: Mutex::new(Vec::new()),
            served: AtomicU64::new(0),
            max_concurrent: options.workers.max(1),
        }
    }

    /// Answers one request on the calling thread; its level and GEMM
    /// fan-out runs on the engine's pool. Every request gets a response:
    /// an invalid one answers its [`ServeError`], and a panic in its
    /// compute (a bug in the forward pass, or an injected `task_panic`
    /// fault) is caught here and answers [`EngineError::Panicked`], not a
    /// dead thread.
    pub fn serve(&self, request: &ServeRequest) -> ServeResponse {
        let model = lock_recover(&self.model).clone();
        let mut ws = self.checkout();
        let result = match catch_unwind(AssertUnwindSafe(|| {
            serve_one(&model, &self.cones, request, &mut ws)
        })) {
            Ok(result) => {
                lock_recover(&self.workspaces).push(ws);
                result
            }
            // The workspace is dropped, not returned to the pile: the
            // panic may have left it mid-update.
            Err(payload) => {
                PANICS_CAUGHT.fetch_add(1, Ordering::Relaxed);
                let detail = if let Some(s) = payload.downcast_ref::<&str>() {
                    (*s).to_string()
                } else if let Some(s) = payload.downcast_ref::<String>() {
                    s.clone()
                } else {
                    "non-string panic payload".to_string()
                };
                Err(ServeError::Engine(EngineError::Panicked { detail }))
            }
        };
        self.served.fetch_add(1, Ordering::Relaxed);
        ServeResponse {
            id: request.id,
            design: request.aig.name().to_string(),
            result,
        }
    }

    /// Serves a batch of independent requests across the worker pool and
    /// returns the responses in request order. At most `workers` tasks run
    /// concurrently, each claiming the next unserved request until none is
    /// left — uneven batches (one huge circuit among many small ones) stay
    /// load-balanced instead of being pinned to a contiguous split. A
    /// batch of one runs inline on the caller's thread.
    pub fn serve_batch(&self, requests: Vec<ServeRequest>) -> Vec<ServeResponse> {
        let slots: Vec<OnceLock<ServeResponse>> =
            requests.iter().map(|_| OnceLock::new()).collect();
        // The counter only hands out indices; each answer reaches the
        // caller through its slot and `Pool::run`'s join.
        let next = AtomicUsize::new(0);
        let task_count = self
            .max_concurrent
            .min(self.pool.threads())
            .min(requests.len());
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..task_count)
            .map(|_| {
                let (requests, slots, next) = (&requests, &slots, &next);
                Box::new(move || loop {
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    let Some(request) = requests.get(index) else {
                        return;
                    };
                    let _ = slots[index].set(self.serve(request));
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        self.pool.run(tasks);
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("every request index is claimed once")
            })
            .collect()
    }

    /// Answers `request` from the cone memo alone, without computing
    /// anything — the degraded-mode serving path: a request that
    /// validates and whose components all hit is answered from here,
    /// anything else (`None`) is shed at the HTTP edge instead of computed.
    pub fn lookup_cached(&self, request: &ServeRequest) -> Option<ServeResponse> {
        validate(request).ok()?;
        let model = lock_recover(&self.model).clone();
        let h0 = initial_h0(&model, request);
        let data = lookup(&model, &self.cones, &request.aig, &h0).whole_hit()?;
        Some(ServeResponse {
            id: request.id,
            design: request.aig.name().to_string(),
            result: Ok(data),
        })
    }

    /// Atomically replaces the engine's model (a checkpoint reload).
    /// In-flight requests finish on the model they started with; new
    /// requests see the new one. Memo keys carry the model generation, so
    /// nothing computed on the old weights can hit again — including rows
    /// that in-flight requests insert after the swap. The memo is cleared
    /// to free the old entries at once.
    pub fn swap_model(&self, model: InferenceModel) {
        *lock_recover(&self.model) = Arc::new(model);
        lock_recover(&self.cones).clear();
    }

    /// Per-request memo counters: a hit is a request answered wholly from
    /// the memo (see [`ConeMemo::request_stats`]).
    pub fn cache_stats(&self) -> CacheStats {
        lock_recover(&self.cones).request_stats()
    }

    /// Per-component memo counters (see [`ConeMemo::stats`]).
    pub fn cone_stats(&self) -> CacheStats {
        lock_recover(&self.cones).stats()
    }

    /// Total requests processed since construction.
    pub fn requests_served(&self) -> u64 {
        self.served.load(Ordering::Relaxed)
    }

    /// The worker pool this engine schedules on.
    pub fn pool(&self) -> &Arc<Pool> {
        &self.pool
    }

    /// Takes a workspace from the shared pile, or builds a fresh one on the
    /// engine's pool.
    fn checkout(&self) -> Workspace {
        lock_recover(&self.workspaces).pop().unwrap_or_else(|| {
            Workspace::with_pool(deepseq_nn::Kernel::global(), Arc::clone(&self.pool))
        })
    }
}

/// Checks that the request's circuit is valid and its workload covers
/// every PI.
fn validate(request: &ServeRequest) -> Result<(), ServeError> {
    request.aig.validate()?;
    if request.workload.len() < request.aig.num_pis() {
        return Err(ServeError::WorkloadTooShort {
            pis: request.aig.num_pis(),
            stimuli: request.workload.len(),
        });
    }
    Ok(())
}

/// The request's `n×d` initial state matrix under `model`.
fn initial_h0(model: &InferenceModel, request: &ServeRequest) -> Matrix {
    initial_states(
        &request.aig,
        &request.workload,
        model.config().hidden_dim,
        request.init_seed,
    )
}

fn serve_one(
    model: &InferenceModel,
    cones: &Mutex<ConeMemo>,
    request: &ServeRequest,
    ws: &mut Workspace,
) -> Result<ServedInference, ServeError> {
    if fault::should_inject(FaultPoint::TaskPanic) {
        panic!("injected task_panic fault");
    }
    validate(request)?;
    let h0 = initial_h0(model, request);
    let found = lookup(model, cones, &request.aig, &h0);
    if let Some(hit) = found.whole_hit() {
        return Ok(hit);
    }
    if let Some(delay) = fault::slow_stage_delay("forward") {
        std::thread::sleep(delay);
    }
    let reused = found.hits.iter().flatten().count();
    let out = if reused == 0 {
        run_cold(model, cones, &request.aig, &h0, &found, ws)
    } else {
        run_missed(model, cones, &request.aig, &h0, &found, ws)
    };
    Ok(served(out, request.aig.len(), false, reused))
}

fn served(
    out: InferenceOutput,
    num_nodes: usize,
    cache_hit: bool,
    cones_reused: usize,
) -> ServedInference {
    ServedInference {
        num_nodes,
        cache_hit,
        cones_reused,
        data: Arc::new(CachedInference {
            predictions: out.predictions,
            embedding: out.embedding,
            num_nodes,
        }),
    }
}

/// A request's components, their memo keys, and what the memo holds of
/// each.
struct Lookup {
    num_nodes: usize,
    parts: Vec<Cone>,
    keys: Vec<ConeKey>,
    hits: Vec<Option<Arc<ConeEntry>>>,
}

/// Partitions the circuit and looks every component up in the memo (none
/// when the memo is disabled, so the request takes the cold path). The
/// `cache_evict` fault first drops the request's entries.
fn lookup(model: &InferenceModel, cones: &Mutex<ConeMemo>, aig: &SeqAig, h0: &Matrix) -> Lookup {
    let parts = if lock_recover(cones).is_enabled() {
        cone::partition(aig)
    } else {
        Vec::new()
    };
    let keys: Vec<ConeKey> = parts
        .iter()
        .map(|c| ConeKey {
            model: model.generation(),
            structure: cone::component_fingerprint(aig, &c.members),
            h0: cone::component_h0_hash(h0, &c.members),
        })
        .collect();
    if fault::should_inject(FaultPoint::CacheEvict) {
        let mut memo = lock_recover(cones);
        for key in &keys {
            memo.remove(key);
        }
    }
    if let Some(delay) = fault::slow_stage_delay("cache_lookup") {
        std::thread::sleep(delay);
    }
    let span = trace::span(trace::SpanKind::CacheLookup);
    let hits = lock_recover(cones).lookup(&keys);
    drop(span);
    Lookup {
        num_nodes: aig.len(),
        parts,
        keys,
        hits,
    }
}

impl Lookup {
    /// The answer assembled from memoized rows alone, if there is at least
    /// one component and every component hit.
    fn whole_hit(&self) -> Option<ServedInference> {
        let entries: Vec<Arc<ConeEntry>> = self.hits.iter().cloned().collect::<Option<_>>()?;
        let d = entries.first()?.states.cols();
        let out = assemble(self.num_nodes, d, &self.parts, &entries);
        Some(served(out, self.num_nodes, true, entries.len()))
    }
}

/// Scatters each component's rows onto its members' rows of `n`-row state
/// and head matrices, and mean-pools the state in node order, exactly as
/// the readout pools a whole-circuit forward pass.
fn assemble(n: usize, d: usize, parts: &[Cone], entries: &[Arc<ConeEntry>]) -> InferenceOutput {
    let mut state = Matrix::zeros(n, d);
    let mut tr = Matrix::zeros(n, 2);
    let mut lg = Matrix::zeros(n, 1);
    for (c, entry) in parts.iter().zip(entries) {
        cone::scatter_rows(&mut state, &c.members, &entry.states);
        cone::scatter_rows(&mut tr, &c.members, &entry.predictions.tr);
        cone::scatter_rows(&mut lg, &c.members, &entry.predictions.lg);
    }
    InferenceOutput {
        predictions: Predictions { tr, lg },
        embedding: mean_pool(&state),
    }
}

/// The rows of `members` out of a forward pass's final state and heads.
fn gather(state: &Matrix, out: &InferenceOutput, members: &[u32]) -> Arc<ConeEntry> {
    Arc::new(ConeEntry {
        states: cone::gather_rows(state, members),
        predictions: Predictions {
            tr: cone::gather_rows(&out.predictions.tr, members),
            lg: cone::gather_rows(&out.predictions.lg, members),
        },
    })
}

/// Nothing hit: runs the whole circuit (no extraction overhead) and seeds
/// the memo with every component's rows.
fn run_cold(
    model: &InferenceModel,
    cones: &Mutex<ConeMemo>,
    aig: &SeqAig,
    h0: &Matrix,
    found: &Lookup,
    ws: &mut Workspace,
) -> InferenceOutput {
    let out = model.run(&CircuitGraph::build(aig), h0, ws);
    let mut memo = lock_recover(cones);
    for (c, key) in found.parts.iter().zip(&found.keys) {
        memo.insert(*key, gather(ws.state(), &out, &c.members));
    }
    out
}

/// Some components hit: propagates and reads out only the missed ones,
/// merged into one extracted sub-circuit, memoizes their rows and
/// assembles the answer from all components' rows.
///
/// Bitwise identity with a whole-circuit run rests on the invariants laid
/// out in the [`cone` module docs](crate::cone): component rows are a
/// pure function of the [`ConeKey`], the heads are row-pure, and the pool
/// sums rows in node order. The property suite asserts it end to end
/// across thread counts.
fn run_missed(
    model: &InferenceModel,
    cones: &Mutex<ConeMemo>,
    aig: &SeqAig,
    h0: &Matrix,
    found: &Lookup,
    ws: &mut Workspace,
) -> InferenceOutput {
    let components = || found.parts.iter().zip(&found.keys).zip(&found.hits);
    // Components interleave in id space; ascending order preserves the
    // relative member order of each (the bitwise-identity condition).
    let mut missed: Vec<u32> = components()
        .filter(|(_, hit)| hit.is_none())
        .flat_map(|((c, _), _)| c.members.iter().copied())
        .collect();
    missed.sort_unstable();
    let sub = CircuitGraph::build(&cone::extract(aig, &missed));
    let sub_out = model.run(&sub, &cone::gather_rows(h0, &missed), ws);
    let mut memo = lock_recover(cones);
    let entries: Vec<Arc<ConeEntry>> = components()
        .map(|((c, key), hit)| {
            hit.clone().unwrap_or_else(|| {
                let local: Vec<u32> = c
                    .members
                    .iter()
                    .map(|m| missed.binary_search(m).expect("missed member") as u32)
                    .collect();
                let entry = gather(ws.state(), &sub_out, &local);
                memo.insert(*key, Arc::clone(&entry));
                entry
            })
        })
        .collect();
    drop(memo);
    assemble(aig.len(), h0.cols(), &found.parts, &entries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepseq_core::{DeepSeq, DeepSeqConfig};

    fn toggle(name: &str) -> SeqAig {
        let mut aig = SeqAig::new(name);
        let q = aig.add_ff("q", false);
        let n = aig.add_not(q);
        aig.connect_ff(q, n).unwrap();
        aig
    }

    fn engine_on(workers: usize, pool: Arc<Pool>) -> Engine {
        let model = DeepSeq::new(DeepSeqConfig {
            hidden_dim: 8,
            iterations: 2,
            ..DeepSeqConfig::default()
        });
        Engine::with_pool(
            InferenceModel::from_model(&model),
            EngineOptions {
                workers,
                cone_capacity: 64,
                ..EngineOptions::default()
            },
            pool,
        )
    }

    fn engine(workers: usize) -> Engine {
        engine_on(workers, Arc::new(Pool::new(workers)))
    }

    /// `count` requests alternating a toggle and a toggle pair, over three
    /// init seeds, so a batch mixes memo misses, partial hits and hits.
    fn mixed_requests(count: u64) -> Vec<ServeRequest> {
        (0..count)
            .map(|id| ServeRequest {
                id,
                aig: if id % 2 == 0 {
                    toggle("t")
                } else {
                    two_toggles(id % 4 == 1)
                },
                workload: Workload::uniform(0, 0.5),
                init_seed: id % 3,
            })
            .collect()
    }

    #[test]
    fn batch_preserves_request_order() {
        let requests = mixed_requests(13);
        // What `serve` answers for each request on an engine that served
        // nothing before it.
        let reference_pool = Arc::new(Pool::new(1));
        let expected: Vec<Arc<CachedInference>> = requests
            .iter()
            .map(|request| {
                let fresh = engine_on(1, Arc::clone(&reference_pool));
                fresh.serve(request).result.expect("valid request").data
            })
            .collect();
        for threads in [1, 2, 4] {
            let pool = Arc::new(Pool::new(threads));
            for workers in [1, 3, 8] {
                let engine = engine_on(workers, Arc::clone(&pool));
                for size in [0, 1, 13] {
                    let setup = format!("{threads} threads, {workers} workers, {size} requests");
                    let before = engine.requests_served();
                    let responses = engine.serve_batch(requests[..size].to_vec());
                    assert_eq!(engine.requests_served() - before, size as u64, "{setup}");
                    let ids: Vec<u64> = responses.iter().map(|r| r.id).collect();
                    assert_eq!(ids, (0..size as u64).collect::<Vec<_>>(), "{setup}");
                    for (response, want) in responses.iter().zip(&expected) {
                        let got = &response.result.as_ref().expect("valid request").data;
                        assert_eq!(got, want, "request {}, {setup}", response.id);
                    }
                }
            }
        }
    }

    #[test]
    fn identical_requests_hit_the_cache_across_workers() {
        let engine = engine(4);
        let make = |id| ServeRequest {
            id,
            aig: toggle("t"),
            workload: Workload::uniform(0, 0.5),
            init_seed: 0,
        };
        // Warm sequentially, then spray the same request.
        let first = engine.serve_batch(vec![make(0)]);
        assert!(!first[0].result.as_ref().unwrap().cache_hit);
        let responses = engine.serve_batch((1..9).map(make).collect());
        assert!(responses
            .iter()
            .all(|r| r.result.as_ref().unwrap().cache_hit));
        let stats = engine.cache_stats();
        assert_eq!(stats.hits, 8);
        assert_eq!(stats.misses, 1);
    }

    #[test]
    fn invalid_circuit_yields_typed_error_not_a_dead_worker() {
        let engine = engine(1);
        let mut bad = SeqAig::new("bad");
        bad.add_ff("q", false); // never connected
        let responses = engine.serve_batch(vec![
            ServeRequest {
                id: 0,
                aig: bad,
                workload: Workload::uniform(0, 0.5),
                init_seed: 0,
            },
            ServeRequest {
                id: 1,
                aig: toggle("ok"),
                workload: Workload::uniform(0, 0.5),
                init_seed: 0,
            },
        ]);
        assert!(matches!(responses[0].result, Err(ServeError::Netlist(_))));
        // The engine survived and served the next request.
        assert!(responses[1].result.is_ok());
    }

    #[test]
    fn short_workload_is_rejected() {
        let engine = engine(1);
        let mut aig = SeqAig::new("pi");
        aig.add_pi("a");
        let responses = engine.serve_batch(vec![ServeRequest {
            id: 0,
            aig,
            workload: Workload::uniform(0, 0.5),
            init_seed: 0,
        }]);
        assert!(matches!(
            responses[0].result,
            Err(ServeError::WorkloadTooShort { pis: 1, stimuli: 0 })
        ));
    }

    #[test]
    fn swap_model_clears_cache_and_keeps_serving() {
        let engine = engine(2);
        let make = |id| ServeRequest {
            id,
            aig: toggle("t"),
            workload: Workload::uniform(0, 0.5),
            init_seed: 0,
        };
        engine.serve_batch(vec![make(0)]);
        assert!(engine.lookup_cached(&make(1)).is_some());
        let model = DeepSeq::new(DeepSeqConfig {
            hidden_dim: 8,
            iterations: 2,
            ..DeepSeqConfig::default()
        });
        engine.swap_model(InferenceModel::from_model(&model));
        // The old entry is gone (old weights), and serving still works.
        assert!(engine.lookup_cached(&make(2)).is_none());
        let responses = engine.serve_batch(vec![make(3)]);
        assert!(responses[0].result.is_ok());
        assert!(!responses[0].result.as_ref().unwrap().cache_hit);
    }

    /// Two toggles, one per component; `second_init` flips the second.
    fn two_toggles(second_init: bool) -> SeqAig {
        let mut aig = SeqAig::new("pair");
        for init in [false, second_init] {
            let q = aig.add_ff("q", init);
            let n = aig.add_not(q);
            aig.connect_ff(q, n).unwrap();
        }
        aig
    }

    #[test]
    fn memo_answers_whole_partial_and_degraded_lookups() {
        let engine = engine(2);
        let make = |id, aig: SeqAig| ServeRequest {
            id,
            aig,
            workload: Workload::uniform(0, 0.5),
            init_seed: 0,
        };
        let served = |request| {
            let mut responses = engine.serve_batch(vec![request]);
            responses.pop().unwrap().result.unwrap()
        };
        let cold = served(make(0, two_toggles(false)));
        assert_eq!((cold.cache_hit, cold.cones_reused), (false, 0));
        // One component changes: the other comes from the memo.
        let partial = served(make(1, two_toggles(true)));
        assert_eq!((partial.cache_hit, partial.cones_reused), (false, 1));
        let whole = served(make(2, two_toggles(false)));
        assert_eq!((whole.cache_hit, whole.cones_reused), (true, 2));
        assert_eq!(whole.data, cold.data);
        // Degraded lookups answer whole hits only.
        let hit = engine.lookup_cached(&make(3, two_toggles(true))).unwrap();
        assert_eq!(hit.result.unwrap().data, partial.data);
        let mut other_seed = make(4, two_toggles(false));
        other_seed.init_seed = 9;
        assert!(engine.lookup_cached(&other_seed).is_none());
        let stats = engine.cache_stats();
        assert_eq!((stats.hits, stats.misses), (2, 3));
        let cones = engine.cone_stats();
        assert_eq!((cones.hits, cones.misses), (5, 5));
        assert_eq!(cones.entries, 3);
    }

    #[test]
    fn empty_circuit_takes_the_cold_path() {
        let engine = engine(1);
        for id in 0..2 {
            let response = engine.serve_batch(vec![ServeRequest {
                id,
                aig: SeqAig::new("empty"),
                workload: Workload::uniform(0, 0.5),
                init_seed: 0,
            }]);
            let served = response[0].result.as_ref().unwrap();
            assert!(!served.cache_hit);
            assert_eq!(served.data.predictions.tr.shape(), (0, 2));
            assert_eq!(served.data.embedding.shape(), (1, 8));
        }
        assert_eq!(engine.cache_stats().misses, 2);
        assert_eq!(engine.cone_stats().entries, 0);
    }

    #[test]
    fn engines_share_a_pool_without_interference() {
        let pool = Arc::new(Pool::new(3));
        let a = engine_on(2, Arc::clone(&pool));
        let b = engine_on(2, Arc::clone(&pool));
        let make = |id| ServeRequest {
            id,
            aig: toggle("t"),
            workload: Workload::uniform(0, 0.5),
            init_seed: 0,
        };
        let ra = a.serve_batch((0..4).map(make).collect());
        let rb = b.serve_batch((0..4).map(make).collect());
        assert!(ra.iter().chain(&rb).all(|r| r.result.is_ok()));
        assert_eq!(a.requests_served(), 4);
        assert_eq!(b.requests_served(), 4);
    }
}
