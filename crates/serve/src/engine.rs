//! Request engine on the shared worker pool.
//!
//! An [`Engine`] owns a frozen [`InferenceModel`], a shared
//! [`EmbeddingCache`], and a handle to a worker [`Pool`] — by default the
//! process-wide [`Pool::global`], so *one* pool serves every engine,
//! request batch **and** the level-parallel forward passes inside each
//! request, instead of each subsystem spawning its own threads.
//! [`Engine::serve_batch`] fans independent requests out across the pool
//! (responses return in request order); a lone request in turn fans its
//! level batches out, so the pool stays busy whether traffic is many small
//! circuits or one big one. Workspaces are checked out of a shared pile,
//! one per concurrently processing task, so steady traffic runs without
//! per-request allocation.

use std::collections::VecDeque;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use deepseq_core::encoding::initial_states;
use deepseq_core::CircuitGraph;
use deepseq_netlist::SeqAig;
use deepseq_nn::fault::{self, FaultPoint};
use deepseq_nn::trace;
use deepseq_nn::Pool;
use deepseq_sim::Workload;

use crate::cache::{
    CacheKey, CacheStats, CachedInference, ConeKey, ConeMemo, ConeStates, EmbeddingCache,
};
use crate::cone;
use crate::infer::{InferenceModel, InferenceOutput, Workspace};
use crate::ServeError;

/// Internal engine failures: the request did not fail validation — the
/// machinery processing it did. The HTTP edge maps these to 500 (every
/// other [`ServeError`] is the client's fault and maps to 400).
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum EngineError {
    /// The request's compute task panicked; the panic was caught at the
    /// engine boundary and the worker survived.
    Panicked {
        /// The panic payload, when it was a string.
        detail: String,
    },
    /// The reply channel was dropped before a response was sent — the
    /// task died (or an injected fault dropped the sender).
    ReplyDropped,
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Panicked { detail } => {
                write!(f, "request task panicked: {detail}")
            }
            EngineError::ReplyDropped => {
                write!(f, "reply channel dropped before a response was sent")
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
/// guards a pile/queue whose operations never panic mid-update, and the
/// per-request compute that *can* panic runs outside any of them (and is
/// caught in [`process`] anyway), so the poisoned state is consistent.
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
    /// True if the result came from the embedding cache.
    pub cache_hit: bool,
    /// Number of fanin-cone components whose propagated states came from
    /// the cone memo (0 on exact cache hits and fully cold requests).
    pub cones_reused: usize,
    /// Shared predictions + embedding. On a cache hit these are the outputs
    /// of the request that populated the entry, computed under *that*
    /// request's node numbering — see the
    /// [`cache` module docs](crate::cache) on numbering semantics.
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
    /// Embedding-cache capacity in entries (0 disables caching).
    pub cache_capacity: usize,
    /// Cone-memo capacity in component entries (0 disables the
    /// cone-granularity reuse path; requests then always run whole
    /// circuits).
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
            cache_capacity: 256,
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
///                          EngineOptions { workers: 2, cache_capacity: 16,
///                                          ..EngineOptions::default() });
///
/// let mut aig = SeqAig::new("toggle");
/// let q = aig.add_ff("q", false);
/// let n = aig.add_not(q);
/// aig.connect_ff(q, n)?;
///
/// let make = |id| ServeRequest { id, aig: aig.clone(),
///                                workload: Workload::uniform(0, 0.5), init_seed: 0 };
/// // Warm the cache, then identical requests hit it (warming must finish
/// // first — two identical requests *in one batch* may race to distinct
/// // pool tasks and both miss).
/// let cold = engine.serve_batch(vec![make(0)]);
/// assert!(!cold[0].result.as_ref().unwrap().cache_hit);
/// let warm = engine.serve_batch(vec![make(1), make(2)]);
/// assert!(warm.iter().all(|r| r.result.as_ref().unwrap().cache_hit));
/// assert_eq!(engine.cache_stats().hits, 2);
/// # Ok::<(), deepseq_netlist::NetlistError>(())
/// ```
pub struct Engine {
    /// Swappable on checkpoint reload; tasks snapshot the `Arc` at start,
    /// so in-flight requests finish on the model they began with.
    model: Mutex<Arc<InferenceModel>>,
    cache: Arc<Mutex<EmbeddingCache>>,
    cones: Arc<Mutex<ConeMemo>>,
    pool: Arc<Pool>,
    workspaces: Arc<Mutex<Vec<Workspace>>>,
    served: Arc<AtomicU64>,
    hook: Mutex<Option<ServedHook>>,
    max_concurrent: usize,
}

/// Observer invoked after every processed request (both the [`Engine::submit`]
/// and [`Engine::serve_batch`] paths) with the response and the engine-side
/// processing time — validation, cache lookup, and forward pass; queueing
/// ahead of processing is excluded. The HTTP serving edge installs one to
/// feed its `/metrics` latency histograms.
pub type ServedHook = Arc<dyn Fn(&ServeResponse, Duration) + Send + Sync>;

/// A response in flight from [`Engine::submit`].
///
/// [`PendingResponse::wait`] always yields a [`ServeResponse`]: if the
/// compute task dies without replying, the response carries a typed
/// [`EngineError::ReplyDropped`] instead of panicking the caller.
#[derive(Debug)]
pub struct PendingResponse {
    id: u64,
    design: String,
    receiver: mpsc::Receiver<ServeResponse>,
}

impl PendingResponse {
    /// Blocks until the response arrives (or the task provably never
    /// will — a dropped sender yields a typed `ReplyDropped` error).
    pub fn wait(self) -> ServeResponse {
        match self.receiver.recv() {
            Ok(response) => response,
            Err(mpsc::RecvError) => ServeResponse {
                id: self.id,
                design: self.design,
                result: Err(ServeError::Engine(EngineError::ReplyDropped)),
            },
        }
    }

    /// Non-blocking probe; `None` until the response is ready. After the
    /// sender is dropped without a reply, returns the typed error response.
    pub fn try_wait(&mut self) -> Option<ServeResponse> {
        match self.receiver.try_recv() {
            Ok(response) => Some(response),
            Err(mpsc::TryRecvError::Empty) => None,
            Err(mpsc::TryRecvError::Disconnected) => Some(ServeResponse {
                id: self.id,
                design: std::mem::take(&mut self.design),
                result: Err(ServeError::Engine(EngineError::ReplyDropped)),
            }),
        }
    }
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
            cache: Arc::new(Mutex::new(EmbeddingCache::new(options.cache_capacity))),
            cones: Arc::new(Mutex::new(ConeMemo::new(options.cone_capacity))),
            pool,
            workspaces: Arc::new(Mutex::new(Vec::new())),
            served: Arc::new(AtomicU64::new(0)),
            hook: Mutex::new(None),
            max_concurrent: options.workers.max(1),
        }
    }

    /// Installs (or replaces) the served-request observer. Pass the hook
    /// wrapped in an `Arc` so the engine can share it with in-flight
    /// request tasks.
    pub fn set_served_hook(&self, hook: ServedHook) {
        *lock_recover(&self.hook) = Some(hook);
    }

    /// Enqueues one request onto the shared pool; await the response via
    /// [`PendingResponse::wait`]. On a 1-thread pool the request is
    /// processed inline before this returns. A task that dies without
    /// sending (the reply sender is dropped) surfaces as a typed
    /// [`EngineError::ReplyDropped`] response, never a panic or a hang.
    pub fn submit(&self, request: ServeRequest) -> PendingResponse {
        let (reply, receiver) = mpsc::channel();
        let id = request.id;
        let design = request.aig.name().to_string();
        let model = lock_recover(&self.model).clone();
        let cache = Arc::clone(&self.cache);
        let cones = Arc::clone(&self.cones);
        let workspaces = Arc::clone(&self.workspaces);
        let served = Arc::clone(&self.served);
        let pool = Arc::clone(&self.pool);
        let hook = lock_recover(&self.hook).clone();
        self.pool.spawn(move || {
            let mut ws = checkout(&workspaces, &pool);
            let response = process(&model, &cache, &cones, request, &mut ws, &hook);
            served.fetch_add(1, Ordering::Relaxed);
            if fault::should_inject(FaultPoint::EngineReplyDrop) {
                drop(reply); // the caller sees a typed ReplyDropped
            } else {
                // A dropped reply *receiver* means the caller lost interest.
                let _ = reply.send(response);
            }
            lock_recover(&workspaces).push(ws);
        });
        PendingResponse {
            id,
            design,
            receiver,
        }
    }

    /// Serves a batch of independent requests across the worker pool and
    /// returns the responses in request order. At most `workers` tasks run
    /// concurrently, each checking out one workspace and pulling requests
    /// off a shared queue — uneven batches (one huge circuit among many
    /// small ones) stay load-balanced instead of being pinned to a
    /// contiguous split.
    pub fn serve_batch(&self, requests: Vec<ServeRequest>) -> Vec<ServeResponse> {
        let total = requests.len();
        if total == 0 {
            return Vec::new();
        }
        // (id, design) per slot, so a request whose reply never arrives
        // (task died, injected reply drop) still gets a typed response.
        let meta: Vec<(u64, String)> = requests
            .iter()
            .map(|r| (r.id, r.aig.name().to_string()))
            .collect();
        let task_count = self.max_concurrent.min(self.pool.threads()).min(total);
        let queue: Mutex<VecDeque<(usize, ServeRequest)>> =
            Mutex::new(requests.into_iter().enumerate().collect());
        let (reply, responses) = mpsc::channel::<(usize, ServeResponse)>();
        let hook = lock_recover(&self.hook).clone();
        let model = lock_recover(&self.model).clone();
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..task_count)
            .map(|_| {
                let queue = &queue;
                let reply = reply.clone();
                let model = &model;
                let cache = &self.cache;
                let cones = &self.cones;
                let served = &self.served;
                let workspaces = &self.workspaces;
                let pool = &self.pool;
                let hook = &hook;
                Box::new(move || {
                    let mut ws = checkout(workspaces, pool);
                    loop {
                        let next = lock_recover(queue).pop_front();
                        let Some((index, request)) = next else { break };
                        let response = process(model, cache, cones, request, &mut ws, hook);
                        served.fetch_add(1, Ordering::Relaxed);
                        if fault::should_inject(FaultPoint::EngineReplyDrop) {
                            continue; // the slot fills with ReplyDropped
                        }
                        // The receiver outlives `pool.run`; a send can only
                        // fail if the collector below already gave up, and
                        // the missing slot is filled with a typed error.
                        let _ = reply.send((index, response));
                    }
                    lock_recover(workspaces).push(ws);
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        self.pool.run(tasks);
        drop(reply);
        let mut slots: Vec<Option<ServeResponse>> = Vec::with_capacity(total);
        slots.resize_with(total, || None);
        for (index, response) in responses {
            slots[index] = Some(response);
        }
        slots
            .into_iter()
            .zip(meta)
            .map(|(slot, (id, design))| {
                slot.unwrap_or(ServeResponse {
                    id,
                    design,
                    result: Err(ServeError::Engine(EngineError::ReplyDropped)),
                })
            })
            .collect()
    }

    /// Probes the embedding cache for `request` without computing anything
    /// — the degraded-mode serving path: hits are answered from here,
    /// misses are shed at the HTTP edge instead of recomputed.
    pub fn lookup_cached(&self, request: &ServeRequest) -> Option<ServeResponse> {
        let key = CacheKey::for_request(&request.aig, &request.workload, request.init_seed);
        let generation = self.model_generation();
        let data = lock_recover(&self.cache).get(generation, &key)?;
        Some(ServeResponse {
            id: request.id,
            design: request.aig.name().to_string(),
            result: Ok(ServedInference {
                num_nodes: data.num_nodes,
                cache_hit: true,
                cones_reused: 0,
                data,
            }),
        })
    }

    /// Atomically replaces the engine's model (a checkpoint reload).
    /// In-flight requests finish on the model they started with; new
    /// requests see the new one. Both caches key their entries by model
    /// generation, so nothing computed on the old weights can hit again —
    /// including results that in-flight requests insert after the swap.
    /// The embedding cache is cleared to free the old entries at once; the
    /// cone memo's age out under LRU pressure.
    pub fn swap_model(&self, model: InferenceModel) {
        *lock_recover(&self.model) = Arc::new(model);
        lock_recover(&self.cache).clear();
    }

    /// Current embedding-cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        lock_recover(&self.cache).stats()
    }

    /// Current cone-memo counters.
    pub fn cone_stats(&self) -> CacheStats {
        lock_recover(&self.cones).stats()
    }

    /// Generation tag of the currently served model (see
    /// [`InferenceModel::generation`]).
    pub fn model_generation(&self) -> u64 {
        lock_recover(&self.model).generation()
    }

    /// Total requests processed since construction.
    pub fn requests_served(&self) -> u64 {
        self.served.load(Ordering::Relaxed)
    }

    /// The worker pool this engine schedules on.
    pub fn pool(&self) -> &Arc<Pool> {
        &self.pool
    }
}

/// Takes a workspace from the shared pile, or builds a fresh one on the
/// engine's pool.
fn checkout(workspaces: &Mutex<Vec<Workspace>>, pool: &Arc<Pool>) -> Workspace {
    lock_recover(workspaces)
        .pop()
        .unwrap_or_else(|| Workspace::with_pool(deepseq_nn::Kernel::for_serve(), Arc::clone(pool)))
}

fn process(
    model: &InferenceModel,
    cache: &Mutex<EmbeddingCache>,
    cones: &Mutex<ConeMemo>,
    request: ServeRequest,
    ws: &mut Workspace,
    hook: &Option<ServedHook>,
) -> ServeResponse {
    let design = request.aig.name().to_string();
    let id = request.id;
    let start = Instant::now();
    // The panic boundary: a panicking request (a bug in the forward pass,
    // or an injected `task_panic` fault) becomes a typed 500 for *its*
    // client, not a hung connection or a dead worker. The workspace is
    // rebuilt rather than reused — a panic may have left it mid-update.
    let result = catch_unwind(AssertUnwindSafe(|| {
        serve_one(model, cache, cones, request, ws)
    }))
    .unwrap_or_else(|payload| {
        PANICS_CAUGHT.fetch_add(1, Ordering::Relaxed);
        *ws = Workspace::with_pool(ws.kernel(), Arc::clone(ws.pool()));
        let detail = if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        };
        Err(ServeError::Engine(EngineError::Panicked { detail }))
    });
    let response = ServeResponse { id, design, result };
    if let Some(hook) = hook {
        hook(&response, start.elapsed());
    }
    response
}

fn serve_one(
    model: &InferenceModel,
    cache: &Mutex<EmbeddingCache>,
    cones: &Mutex<ConeMemo>,
    request: ServeRequest,
    ws: &mut Workspace,
) -> Result<ServedInference, ServeError> {
    if fault::should_inject(FaultPoint::TaskPanic) {
        panic!("injected task_panic fault");
    }
    request.aig.validate()?;
    if request.workload.len() < request.aig.num_pis() {
        return Err(ServeError::WorkloadTooShort {
            pis: request.aig.num_pis(),
            stimuli: request.workload.len(),
        });
    }
    let key = CacheKey::for_request(&request.aig, &request.workload, request.init_seed);
    let generation = model.generation();
    if fault::should_inject(FaultPoint::CacheEvict) {
        lock_recover(cache).remove(generation, &key);
    }
    if let Some(delay) = fault::slow_stage_delay("cache_lookup") {
        std::thread::sleep(delay);
    }
    let lookup = trace::span(trace::SpanKind::CacheLookup);
    let cached = lock_recover(cache).get(generation, &key);
    drop(lookup);
    if let Some(data) = cached {
        return Ok(ServedInference {
            num_nodes: data.num_nodes,
            cache_hit: true,
            cones_reused: 0,
            data,
        });
    }
    let graph = CircuitGraph::build(&request.aig);
    let h0 = initial_states(
        &request.aig,
        &request.workload,
        model.config().hidden_dim,
        request.init_seed,
    );
    if let Some(delay) = fault::slow_stage_delay("forward") {
        std::thread::sleep(delay);
    }
    let (out, cones_reused) = if lock_recover(cones).is_enabled() && graph.num_nodes > 0 {
        run_with_cones(model, cones, &request.aig, &graph, &h0, ws)
    } else {
        (model.run(&graph, &h0, ws), 0)
    };
    let data = Arc::new(CachedInference {
        predictions: out.predictions,
        embedding: out.embedding,
        num_nodes: graph.num_nodes,
    });
    lock_recover(cache).insert(generation, key, Arc::clone(&data));
    Ok(ServedInference {
        num_nodes: graph.num_nodes,
        cache_hit: false,
        cones_reused,
        data,
    })
}

/// The cone-granularity compute path of a cache-missing request: partition
/// the circuit into weakly connected components, reuse the memoized state
/// rows of every component seen before, propagate *only* the missed
/// components (merged into one sub-circuit), and read the heads out over
/// the assembled full state matrix.
///
/// Bitwise identity with `model.run(graph, h0, ws)` rests on the invariants
/// laid out in the [`cone` module docs](crate::cone): component rows are a
/// pure function of the [`ConeKey`], and the readout is row-pure with an
/// order-stable pool. The property suite asserts it end to end across
/// thread counts.
fn run_with_cones(
    model: &InferenceModel,
    cones: &Mutex<ConeMemo>,
    aig: &SeqAig,
    graph: &CircuitGraph,
    h0: &deepseq_nn::Matrix,
    ws: &mut Workspace,
) -> (InferenceOutput, usize) {
    let parts = cone::partition(aig);
    let generation = model.generation();
    let keys: Vec<ConeKey> = parts
        .iter()
        .map(|c| ConeKey {
            model: generation,
            structure: cone::component_fingerprint(aig, &c.members),
            h0: cone::component_h0_hash(h0, &c.members),
        })
        .collect();
    let hits: Vec<Option<Arc<ConeStates>>> = {
        let mut memo = lock_recover(cones);
        keys.iter().map(|k| memo.get(k)).collect()
    };
    let reused = hits.iter().flatten().count();

    if reused == 0 {
        // Fully cold: run the whole circuit (no extraction overhead) and
        // seed the memo with every component's final rows.
        let out = model.run(graph, h0, ws);
        let mut memo = lock_recover(cones);
        for (c, key) in parts.iter().zip(&keys) {
            memo.insert(
                *key,
                Arc::new(ConeStates {
                    rows: cone::gather_rows(ws.state(), &c.members),
                }),
            );
        }
        return (out, 0);
    }

    // Assemble the final state: memoized rows verbatim, missed components
    // propagated together as one extracted sub-circuit.
    let mut state = h0.clone();
    let mut missed: Vec<u32> = Vec::new();
    for (c, hit) in parts.iter().zip(&hits) {
        match hit {
            Some(states) => cone::scatter_rows(&mut state, &c.members, &states.rows),
            None => missed.extend(&c.members),
        }
    }
    if !missed.is_empty() {
        // Components interleave in id space; ascending order preserves the
        // relative member order of each (the bitwise-identity condition).
        missed.sort_unstable();
        let sub = cone::extract(aig, &missed);
        let sub_graph = CircuitGraph::build(&sub);
        let sub_h0 = cone::gather_rows(h0, &missed);
        model.propagate(&sub_graph, &sub_h0, ws);
        let mut memo = lock_recover(cones);
        for ((c, key), hit) in parts.iter().zip(&keys).zip(&hits) {
            if hit.is_some() {
                continue;
            }
            let local: Vec<u32> = c
                .members
                .iter()
                .map(|m| missed.binary_search(m).expect("missed member") as u32)
                .collect();
            let rows = cone::gather_rows(ws.state(), &local);
            cone::scatter_rows(&mut state, &c.members, &rows);
            memo.insert(*key, Arc::new(ConeStates { rows }));
        }
    }
    (model.readout(&state, ws), reused)
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
                cache_capacity: 8,
                cone_capacity: 64,
            },
            pool,
        )
    }

    fn engine(workers: usize) -> Engine {
        engine_on(workers, Arc::new(Pool::new(workers)))
    }

    #[test]
    fn batch_preserves_request_order() {
        let engine = engine(3);
        let requests: Vec<ServeRequest> = (0..12)
            .map(|id| ServeRequest {
                id,
                aig: toggle(&format!("t{}", id % 3)),
                workload: Workload::uniform(0, 0.5),
                init_seed: id % 2,
            })
            .collect();
        let responses = engine.serve_batch(requests);
        let ids: Vec<u64> = responses.iter().map(|r| r.id).collect();
        assert_eq!(ids, (0..12).collect::<Vec<_>>());
        assert!(responses.iter().all(|r| r.result.is_ok()));
        assert_eq!(engine.requests_served(), 12);
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
    fn submit_delivers_on_the_returned_channel() {
        for threads in [1, 3] {
            let engine = engine_on(2, Arc::new(Pool::new(threads)));
            let response = engine
                .submit(ServeRequest {
                    id: 7,
                    aig: toggle("t"),
                    workload: Workload::uniform(0, 0.5),
                    init_seed: 0,
                })
                .wait();
            assert_eq!(response.id, 7);
            assert!(response.result.is_ok());
            assert_eq!(engine.requests_served(), 1);
        }
    }

    #[test]
    fn served_hook_observes_batch_and_submit_paths() {
        let engine = engine(2);
        let seen = Arc::new(AtomicU64::new(0));
        let counter = Arc::clone(&seen);
        engine.set_served_hook(Arc::new(move |response, latency| {
            assert!(response.result.is_ok());
            assert!(latency <= Duration::from_secs(60));
            counter.fetch_add(1, Ordering::Relaxed);
        }));
        let make = |id| ServeRequest {
            id,
            aig: toggle("t"),
            workload: Workload::uniform(0, 0.5),
            init_seed: 0,
        };
        engine.serve_batch((0..5).map(make).collect());
        engine.submit(make(9)).wait();
        assert_eq!(seen.load(Ordering::Relaxed), 6);
    }

    #[test]
    fn dropped_reply_sender_yields_typed_engine_error() {
        // A task that dies before sending surfaces as ReplyDropped — the
        // caller never panics on recv and never hangs.
        let (reply, receiver) = mpsc::channel::<ServeResponse>();
        drop(reply);
        let pending = PendingResponse {
            id: 3,
            design: "d".into(),
            receiver,
        };
        let response = pending.wait();
        assert_eq!(response.id, 3);
        assert_eq!(response.design, "d");
        assert!(matches!(
            response.result,
            Err(ServeError::Engine(EngineError::ReplyDropped))
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
