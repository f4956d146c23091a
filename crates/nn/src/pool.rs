//! Persistent worker pool behind the multi-threaded execution layer.
//!
//! DeepSeq's levelized propagation is embarrassingly parallel *within* a
//! level, and every GEMM kernel in [`kernels`](crate::kernels) is
//! row-partitionable without changing a single accumulation order. This
//! module provides the one shared substrate both exploit: a [`Pool`] of
//! persistent `std::thread` workers, each with its **own job queue**,
//! stealing from its siblings when it runs dry (no external dependencies —
//! the build is offline). A scoped [`Pool::run`] lets callers fan borrowed
//! work out across the workers; a fire-and-forget [`Pool::spawn`] takes
//! `'static` jobs.
//!
//! The pool runs compute only. No job on it blocks on a socket or any
//! other external event, so every queued job is fair game for every
//! thread that takes jobs, including a thread waiting in `run`. Work that
//! does block — the HTTP server's connections — runs on threads of its
//! own, outside the pool.
//!
//! # Per-worker queues and stealing
//!
//! Jobs are pushed round-robin onto per-worker queues; a worker pops from
//! its own queue first and *steals* from the others when it is empty, so
//! enqueues and dequeues in the common case touch different locks, and an
//! idle worker always finds queued work no matter which queue it landed
//! on. A thread blocked in `run` helps the same way: while its own tasks
//! are outstanding it pops and runs queued jobs, which keeps nested
//! fan-out deadlock-free.
//!
//! # Determinism
//!
//! The pool never reorders or splits arithmetic on its own: callers hand it
//! *disjoint* tasks (row ranges of a product, node ranges of a level) whose
//! per-element computation is identical to the single-threaded code.
//! Stealing only changes *which thread* runs a task, never what the task
//! computes or where it writes. Results are therefore **bitwise identical
//! at any thread count** — property-tested in `crates/nn/tests/properties.rs`
//! and `crates/serve/tests/properties.rs` across pools of 1, 2, 4 and 7
//! threads.
//!
//! # Sizing
//!
//! The process-wide pool ([`Pool::global`]) is sized by the
//! `DEEPSEQ_THREADS` environment variable (read once): a positive integer
//! sets the total parallelism, `1` recovers exactly the single-threaded
//! behavior (no workers are spawned, every task runs inline on the caller),
//! and an unset variable defaults to [`std::thread::available_parallelism`].
//! Unrecognized values warn once to stderr and are recorded in the
//! [`config`](crate::config) warning registry (surfaced by the serve
//! `/metrics` endpoint), then fall back to the default. Explicitly sized
//! pools ([`Pool::new`]) serve tests and benchmarks.
//!
//! # Example
//!
//! ```
//! use deepseq_nn::pool::Pool;
//!
//! let pool = Pool::new(4);
//! let mut out = vec![0u64; 4];
//! // Fan disjoint borrows out across the pool; `run` blocks until done.
//! let tasks: Vec<Box<dyn FnOnce() + Send>> = out
//!     .chunks_mut(1)
//!     .enumerate()
//!     .map(|(i, slot)| {
//!         Box::new(move || slot[0] = i as u64 * 10) as Box<dyn FnOnce() + Send>
//!     })
//!     .collect();
//! pool.run(tasks);
//! assert_eq!(out, [0, 10, 20, 30]);
//! ```

use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use crate::trace;

/// Environment variable sizing the process-wide pool ([`Pool::global`]):
/// a positive integer thread count (`1` disables threading entirely),
/// default [`std::thread::available_parallelism`]. Read once, on first use;
/// unrecognized values warn once to stderr and use the default.
pub const THREADS_ENV: &str = "DEEPSEQ_THREADS";

/// Upper bound on configured thread counts — far above any real machine,
/// it only guards against absurd `DEEPSEQ_THREADS` values.
const MAX_THREADS: usize = 1024;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Queue state shared by the workers and every `Arc<Pool>` holder.
struct Shared {
    /// One job queue per worker.
    queues: Vec<Mutex<VecDeque<Job>>>,
    /// Round-robin push cursor over `queues`.
    next: AtomicUsize,
    /// Jobs currently queued (incremented after a push, decremented after
    /// a successful pop). Lets idle workers verify emptiness before
    /// parking without re-scanning every queue lock.
    pending: AtomicUsize,
    /// Cleared when the pool is dropped; workers drain and exit.
    open: AtomicBool,
    /// Parking lot for idle workers. Pushers notify under the lock *after*
    /// bumping `pending`, and parkers re-check `pending` under the lock
    /// before waiting, so wakeups cannot be lost; the wait still carries a
    /// timeout as a belt-and-braces backstop.
    idle_lock: Mutex<()>,
    idle_cv: Condvar,
    /// Jobs dequeued from a queue other than the popper's home queue.
    steals: AtomicU64,
    /// Times a worker entered the idle wait (parked).
    parks: AtomicU64,
    /// Times a parked worker was woken by a notify (not a timeout).
    wakeups: AtomicU64,
}

impl Shared {
    /// Enqueues a job and wakes one parked worker (any worker can steal
    /// any job).
    fn push(&self, job: Job) {
        let i = self.next.fetch_add(1, Ordering::Relaxed) % self.queues.len();
        self.queues[i].lock().expect("pool queue").push_back(job);
        self.pending.fetch_add(1, Ordering::Release);
        let _guard = self.idle_lock.lock().expect("pool idle lock");
        self.idle_cv.notify_one();
    }

    /// Dequeues one job, checking `home`'s own queue first and stealing
    /// from the siblings in ring order otherwise.
    fn pop(&self, home: usize) -> Option<Job> {
        let n = self.queues.len();
        for k in 0..n {
            let i = (home + k) % n;
            let job = self.queues[i].lock().expect("pool queue").pop_front();
            if let Some(job) = job {
                self.pending.fetch_sub(1, Ordering::Release);
                if i != home {
                    self.steals.fetch_add(1, Ordering::Relaxed);
                }
                return Some(job);
            }
        }
        None
    }
}

/// Body of one worker thread: pop-or-steal until the pool closes and the
/// queues are drained.
fn worker_loop(shared: Arc<Shared>, home: usize) {
    loop {
        if let Some(job) = shared.pop(home) {
            // A panicking job must not kill the worker: scoped tasks
            // re-raise on the caller via their latch guard, spawned jobs
            // just drop their reply channel.
            let _ = catch_unwind(AssertUnwindSafe(job));
            continue;
        }
        if !shared.open.load(Ordering::Acquire) {
            return;
        }
        let guard = shared.idle_lock.lock().expect("pool idle lock");
        if shared.pending.load(Ordering::Acquire) > 0 || !shared.open.load(Ordering::Acquire) {
            continue; // something arrived between the scan and the lock
        }
        shared.parks.fetch_add(1, Ordering::Relaxed);
        let (_guard, timeout) = shared
            .idle_cv
            .wait_timeout(guard, Duration::from_millis(100))
            .expect("pool idle wait");
        if !timeout.timed_out() {
            shared.wakeups.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Counts outstanding tasks of one scoped [`Pool::run`] call; the caller
/// blocks on it (helping drain the queues, see `Pool::wait_on`) so
/// borrowed task state cannot outlive the call.
struct Latch {
    remaining: Mutex<usize>,
    done: Condvar,
}

impl Latch {
    fn new(count: usize) -> Latch {
        Latch {
            remaining: Mutex::new(count),
            done: Condvar::new(),
        }
    }

    fn count_down(&self) {
        let mut remaining = self.remaining.lock().expect("latch lock");
        *remaining -= 1;
        if *remaining == 0 {
            self.done.notify_all();
        }
    }

    fn is_done(&self) -> bool {
        *self.remaining.lock().expect("latch lock") == 0
    }
}

/// Counts down the latch even if the task panics (the worker survives; the
/// panic is re-raised on the calling thread by [`Pool::run`]).
struct CountDownGuard<'a> {
    latch: &'a Latch,
    panicked: &'a AtomicBool,
    completed: bool,
}

impl Drop for CountDownGuard<'_> {
    fn drop(&mut self) {
        if !self.completed {
            self.panicked.store(true, Ordering::Release);
        }
        self.latch.count_down();
    }
}

/// Cumulative scheduler counters of one [`Pool`] (see [`Pool::stats`]).
///
/// All counters are zero for a 1-thread pool (nothing is queued, parked
/// or stolen when every task runs inline).
#[derive(Clone, Copy, Debug, Default)]
pub struct PoolStats {
    /// Total pool parallelism (workers + the calling thread).
    pub threads: usize,
    /// Jobs dequeued from a queue other than the popper's own — the
    /// work-stealing rate. High steals with low parks means the
    /// round-robin placement is fighting the actual load distribution.
    pub steals: u64,
    /// Times a worker found every queue empty and parked on the idle
    /// condvar.
    pub parks: u64,
    /// Parked workers woken by a push notification (timeouts excluded) —
    /// roughly "jobs that had to wait for a thread to wake up".
    pub wakeups: u64,
}

/// A persistent pool of `threads - 1` worker threads plus the calling
/// thread (see the [module docs](self)).
///
/// Cheap to share (`Arc`); the process-wide instance is [`Pool::global`].
/// Dropping a pool closes the queues and joins every worker.
pub struct Pool {
    threads: usize,
    shared: Option<Arc<Shared>>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("threads", &self.threads)
            .finish()
    }
}

impl Pool {
    /// A pool with `threads` total parallelism: `threads - 1` persistent
    /// workers plus the thread calling [`Pool::run`]. `threads` is clamped
    /// to at least 1; a 1-thread pool spawns nothing and runs every task
    /// inline, byte-for-byte the pre-threading behavior.
    pub fn new(threads: usize) -> Pool {
        let threads = threads.clamp(1, MAX_THREADS);
        if threads == 1 {
            return Pool {
                threads,
                shared: None,
                workers: Vec::new(),
            };
        }
        let shared = Arc::new(Shared {
            queues: (1..threads).map(|_| Mutex::new(VecDeque::new())).collect(),
            next: AtomicUsize::new(0),
            pending: AtomicUsize::new(0),
            open: AtomicBool::new(true),
            idle_lock: Mutex::new(()),
            idle_cv: Condvar::new(),
            steals: AtomicU64::new(0),
            parks: AtomicU64::new(0),
            wakeups: AtomicU64::new(0),
        });
        let workers = (0..threads - 1)
            .map(|i| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("deepseq-pool-{}", i + 1))
                    .spawn(move || worker_loop(shared, i))
                    .expect("spawn pool worker")
            })
            .collect();
        Pool {
            threads,
            shared: Some(shared),
            workers,
        }
    }

    /// The process-wide shared pool, sized by `DEEPSEQ_THREADS` (default:
    /// available parallelism). Created on first use and never torn down.
    pub fn global() -> &'static Arc<Pool> {
        static GLOBAL: OnceLock<Arc<Pool>> = OnceLock::new();
        GLOBAL.get_or_init(|| Arc::new(Pool::new(configured_threads())))
    }

    /// Total parallelism (workers + the calling thread), at least 1.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Snapshot of the scheduler counters (steals / parks / wakeups)
    /// since the pool was created. All zeros on a 1-thread pool.
    pub fn stats(&self) -> PoolStats {
        let mut stats = PoolStats {
            threads: self.threads,
            ..PoolStats::default()
        };
        if let Some(shared) = &self.shared {
            stats.steals = shared.steals.load(Ordering::Relaxed);
            stats.parks = shared.parks.load(Ordering::Relaxed);
            stats.wakeups = shared.wakeups.load(Ordering::Relaxed);
        }
        stats
    }

    /// Runs every task to completion, fanning them out across the workers;
    /// the caller executes tasks too. Blocks until all tasks finished, so
    /// tasks may borrow from the caller's stack.
    ///
    /// Tasks must write to disjoint state; the pool adds no synchronization
    /// between them beyond completion. On a 1-thread pool or with a single
    /// task, every task runs inline on the caller **in order** — this is
    /// what makes `DEEPSEQ_THREADS=1` exactly the single-threaded behavior.
    ///
    /// `run` may be called from inside a pool task (a request job fanning
    /// its levels out, a level chunk fanning a GEMM out): while waiting for
    /// its own tasks, the caller **steals queued jobs and runs them**, so
    /// nested fan-out always makes progress even with every worker
    /// occupied, and idle workers pick nested tasks up for real
    /// parallelism.
    ///
    /// # Panics
    /// If a task panics, the panic is re-raised here after all other tasks
    /// of this call completed (workers survive).
    pub fn run<'scope>(&self, tasks: Vec<Box<dyn FnOnce() + Send + 'scope>>) {
        if tasks.is_empty() {
            return;
        }
        let inline = self.threads == 1 || tasks.len() == 1 || self.shared.is_none();
        if inline {
            for task in tasks {
                task();
            }
            return;
        }
        let shared = self.shared.as_ref().expect("checked above");
        let latch = Arc::new(Latch::new(tasks.len() - 1));
        let panicked = Arc::new(AtomicBool::new(false));
        // Forward the caller's trace id into the fanned-out tasks so a
        // request's level/GEMM spans stay attributable to it whichever
        // worker (or stealing `run` caller) executes them. One atomic
        // load when tracing is off; zero-cost inside the task when the
        // caller has no trace.
        let trace_ctx = if trace::enabled() {
            trace::current_trace()
        } else {
            0
        };
        let mut tasks = tasks.into_iter();
        let first = tasks.next().expect("tasks nonempty");
        for task in tasks {
            // SAFETY: the latch guarantees every queued task has finished
            // before `run` returns — the `WaitGuard` below waits even while
            // unwinding — so the `'scope` borrows inside `task` are live for
            // as long as any worker can touch them. Erasing the lifetime is
            // what lets a *persistent* pool (whose queues hold `'static`
            // jobs) execute borrowed work. Edge test:
            // `inline_panic_unwinds_only_after_queued_borrows_finish`.
            #[allow(unsafe_code)]
            let task: Box<dyn FnOnce() + Send + 'static> = unsafe { std::mem::transmute(task) };
            let latch = Arc::clone(&latch);
            let panicked = Arc::clone(&panicked);
            shared.push(Box::new(move || {
                let _trace = (trace_ctx != 0).then(|| trace::scope(trace_ctx));
                let mut guard = CountDownGuard {
                    latch: &latch,
                    panicked: &panicked,
                    completed: false,
                };
                task();
                guard.completed = true;
            }));
        }
        {
            // Block until the queued tasks drain, even if `first` panics.
            struct WaitGuard<'a> {
                latch: &'a Latch,
                pool: &'a Pool,
            }
            impl Drop for WaitGuard<'_> {
                fn drop(&mut self) {
                    self.pool.wait_on(self.latch);
                }
            }
            let _wait = WaitGuard {
                latch: &latch,
                pool: self,
            };
            first();
        }
        if panicked.load(Ordering::Acquire) {
            panic!("a deepseq pool task panicked");
        }
    }

    /// Blocks until `latch` reaches zero, stealing and executing queued
    /// jobs while waiting. The helping is what makes nested `run` calls
    /// deadlock-free: a task blocked on its sub-tasks drains the very
    /// queues those sub-tasks sit in, so some thread always makes progress
    /// no matter how many workers are themselves blocked in nested waits.
    fn wait_on(&self, latch: &Latch) {
        let Some(shared) = &self.shared else {
            return;
        };
        loop {
            if latch.is_done() {
                return;
            }
            if let Some(job) = shared.pop(0) {
                let _ = catch_unwind(AssertUnwindSafe(job));
                continue;
            }
            // Queues looked empty: sleep briefly on the latch. The timeout
            // re-polls the queues, since new jobs don't signal this condvar.
            let guard = latch.remaining.lock().expect("latch lock");
            if *guard == 0 {
                return;
            }
            let _ = latch
                .done
                .wait_timeout(guard, Duration::from_micros(500))
                .expect("latch wait");
        }
    }

    /// Enqueues a `'static` job for the pool (fire and forget). On a
    /// 1-thread pool the job runs inline before `spawn` returns. A panic in
    /// the job is swallowed (the worker survives); jobs that must report
    /// completion should do so through a channel they own.
    ///
    /// The job must not block on external events (a socket, a lock held
    /// across I/O, a channel fed from outside the pool): any thread
    /// waiting in [`Pool::run`] may pick it up, and would then wait on the
    /// same event before its own tasks can finish.
    pub fn spawn(&self, job: impl FnOnce() + Send + 'static) {
        match &self.shared {
            Some(shared) => {
                let trace_ctx = if trace::enabled() {
                    trace::current_trace()
                } else {
                    0
                };
                if trace_ctx != 0 {
                    shared.push(Box::new(move || {
                        let _trace = trace::scope(trace_ctx);
                        job();
                    }));
                } else {
                    shared.push(Box::new(job));
                }
            }
            None => job(),
        }
    }

    /// Computes `f(scratch, i)` for every `i in 0..total` across the pool
    /// and returns the results **in index order**, regardless of which
    /// worker produced them or when it finished.
    ///
    /// Indices are split into contiguous chunks (at most one per pool
    /// thread, at least `min_per_chunk` each, via [`chunk_ranges_or_whole`]);
    /// each chunk becomes one task with a private `scratch`, built by
    /// `init`, that it reuses across its indices. Each result is written
    /// into its own index slot, so completion order never affects the
    /// returned vector; on a 1-thread pool everything runs inline in
    /// ascending order. Chunk boundaries are therefore a pure
    /// load-balancing choice whenever `f` is a pure function of `i` — the
    /// ordered-reduction building block the deterministic data-parallel
    /// trainer and evaluator are made of.
    pub fn ordered_map<S, T, I, F>(
        &self,
        total: usize,
        min_per_chunk: usize,
        init: I,
        f: F,
    ) -> Vec<T>
    where
        S: Send,
        T: Send,
        I: Fn() -> S,
        F: Fn(&mut S, usize) -> T + Sync,
    {
        self.ordered_map_with(&mut Vec::new(), total, min_per_chunk, init, f)
    }

    /// [`Pool::ordered_map`] with scratch that outlives the call: chunk `c`
    /// runs on `scratch[c]`, and `scratch` grows by `init` to the number of
    /// chunks. The training loop keeps its tapes here across optimizer
    /// steps, so a reset tape, not a new one, records each sample.
    pub fn ordered_map_with<S, T, I, F>(
        &self,
        scratch: &mut Vec<S>,
        total: usize,
        min_per_chunk: usize,
        init: I,
        f: F,
    ) -> Vec<T>
    where
        S: Send,
        T: Send,
        I: Fn() -> S,
        F: Fn(&mut S, usize) -> T + Sync,
    {
        let ranges = chunk_ranges_or_whole(total, self.threads(), min_per_chunk);
        if scratch.len() < ranges.len() {
            scratch.resize_with(ranges.len(), init);
        }
        let mut slots: Vec<Option<T>> = Vec::with_capacity(total);
        slots.resize_with(total, || None);
        {
            let f = &f;
            let mut tasks: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::with_capacity(ranges.len());
            let mut slots_rest: &mut [Option<T>] = &mut slots;
            for (range, state) in ranges.into_iter().zip(scratch.iter_mut()) {
                let (chunk, rest) = slots_rest.split_at_mut(range.len());
                slots_rest = rest;
                tasks.push(Box::new(move || {
                    for (slot, i) in chunk.iter_mut().zip(range) {
                        *slot = Some(f(state, i));
                    }
                }));
            }
            self.run(tasks);
        }
        slots
            .into_iter()
            .map(|slot| slot.expect("chunks cover every index"))
            .collect()
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        let Some(shared) = self.shared.take() else {
            return;
        };
        // Closing the pool ends every worker's loop once the queues drain.
        shared.open.store(false, Ordering::Release);
        {
            let _guard = shared.idle_lock.lock().expect("pool idle lock");
            shared.idle_cv.notify_all();
        }
        let me = thread::current().id();
        for handle in self.workers.drain(..) {
            if handle.thread().id() == me {
                // The last `Arc<Pool>` can be released from inside a worker
                // (a spawned job outliving its engine): joining ourselves
                // would deadlock. Detach instead — this worker's loop exits
                // on the closed pool right after the job returns.
                continue;
            }
            let _ = handle.join();
        }
    }
}

/// Splits `0..total` into at most `max_chunks` contiguous ranges of at
/// least `min_per_chunk` items each (the last chunk may be smaller only
/// when `total` itself is). Returns one `0..total` range when `total` is
/// too small to split — callers need no special casing for the serial
/// path. Empty when `total == 0`.
///
/// Chunk boundaries never change results: every parallel consumer in this
/// workspace computes each output element identically regardless of which
/// chunk it lands in.
pub fn chunk_ranges(total: usize, max_chunks: usize, min_per_chunk: usize) -> Vec<Range<usize>> {
    if total == 0 {
        return Vec::new();
    }
    let max_by_size = total / min_per_chunk.max(1);
    let chunks = max_chunks.max(1).min(max_by_size).max(1);
    let base = total / chunks;
    let extra = total % chunks;
    let mut ranges = Vec::with_capacity(chunks);
    let mut start = 0;
    for i in 0..chunks {
        let len = base + usize::from(i < extra);
        ranges.push(start..start + len);
        start += len;
    }
    ranges
}

/// [`chunk_ranges`], gated for the common fan-out-or-not decision: splits
/// only when more than one chunk is allowed *and* `total` is at least two
/// minimum chunks; otherwise returns the single whole range (empty when
/// `total == 0`). Keeping this in one place keeps the GEMM and
/// level-chunking fan-out policies in sync.
pub fn chunk_ranges_or_whole(
    total: usize,
    max_chunks: usize,
    min_per_chunk: usize,
) -> Vec<Range<usize>> {
    if max_chunks > 1 && total >= 2 * min_per_chunk.max(1) {
        chunk_ranges(total, max_chunks, min_per_chunk)
    } else if total == 0 {
        Vec::new()
    } else {
        // One whole range over the input (not `0..total` index values).
        #[allow(clippy::single_range_in_vec_init)]
        {
            vec![0..total]
        }
    }
}

/// The thread count named by `DEEPSEQ_THREADS`, or available parallelism.
/// Warns once (via the `OnceLock` in [`Pool::global`]) through the
/// [`config`](crate::config) registry when the variable is set to
/// something that is not a positive integer.
fn configured_threads() -> usize {
    let default = || thread::available_parallelism().map_or(1, |n| n.get());
    match std::env::var(THREADS_ENV) {
        Ok(value) => match value.trim().parse::<usize>() {
            Ok(n) if n >= 1 => n.min(MAX_THREADS),
            _ => {
                crate::config::report_warning(format!(
                    "{THREADS_ENV}={value:?} is not a positive thread count; \
                     using available parallelism"
                ));
                default()
            }
        },
        Err(_) => default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    fn boxed<'a>(f: impl FnOnce() + Send + 'a) -> Box<dyn FnOnce() + Send + 'a> {
        Box::new(f)
    }

    #[test]
    fn runs_every_task_exactly_once() {
        for threads in [1, 2, 4, 7] {
            let pool = Pool::new(threads);
            let counter = AtomicUsize::new(0);
            let tasks = (0..23)
                .map(|_| {
                    boxed(|| {
                        counter.fetch_add(1, Ordering::Relaxed);
                    })
                })
                .collect();
            pool.run(tasks);
            assert_eq!(counter.load(Ordering::Relaxed), 23, "threads={threads}");
        }
    }

    #[test]
    fn tasks_may_borrow_disjoint_caller_state() {
        let pool = Pool::new(4);
        let mut data = vec![0usize; 100];
        let tasks = data
            .chunks_mut(7)
            .enumerate()
            .map(|(i, chunk)| boxed(move || chunk.iter_mut().for_each(|v| *v = i)))
            .collect();
        pool.run(tasks);
        for (j, &v) in data.iter().enumerate() {
            assert_eq!(v, j / 7);
        }
    }

    #[test]
    fn nested_runs_complete() {
        let pool = Arc::new(Pool::new(3));
        let outer: Vec<_> = (0..3)
            .map(|_| {
                let pool = Arc::clone(&pool);
                boxed(move || {
                    let counter = AtomicUsize::new(0);
                    let inner = (0..5)
                        .map(|_| {
                            boxed(|| {
                                counter.fetch_add(1, Ordering::Relaxed);
                            })
                        })
                        .collect();
                    pool.run(inner);
                    assert_eq!(counter.load(Ordering::Relaxed), 5);
                })
            })
            .collect();
        pool.run(outer);
    }

    #[test]
    fn nested_runs_from_saturating_spawned_jobs_make_progress() {
        // More spawned jobs than workers, each fanning out a nested run:
        // without steal-while-waiting this deadlocks (every worker blocked
        // on sub-tasks that sit behind other jobs in the queues).
        let pool = Arc::new(Pool::new(2)); // one worker
        let (tx, rx) = mpsc::channel();
        for _ in 0..4 {
            let inner_pool = Arc::clone(&pool);
            let tx = tx.clone();
            pool.spawn(move || {
                let pool = inner_pool;
                let counter = AtomicUsize::new(0);
                let inner = (0..8)
                    .map(|_| {
                        boxed(|| {
                            counter.fetch_add(1, Ordering::Relaxed);
                        })
                    })
                    .collect();
                pool.run(inner);
                tx.send(counter.load(Ordering::Relaxed)).expect("rx lives");
            });
        }
        drop(tx);
        for _ in 0..4 {
            let n = rx
                .recv_timeout(std::time::Duration::from_secs(10))
                .expect("nested fan-out completed");
            assert_eq!(n, 8);
        }
    }

    #[test]
    fn spawned_jobs_complete() {
        let pool = Pool::new(3);
        let (tx, rx) = mpsc::channel();
        for i in 0..10 {
            let tx = tx.clone();
            pool.spawn(move || tx.send(i).expect("receiver lives"));
        }
        drop(tx);
        let mut got: Vec<i32> = rx.iter().collect();
        got.sort_unstable();
        assert_eq!(got, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn jobs_are_stolen_across_worker_queues() {
        // 2 workers, one of them wedged on a long job: every other job —
        // including those round-robined onto the wedged worker's queue —
        // must still complete promptly via stealing.
        let pool = Pool::new(3);
        let (wedge_tx, wedge_rx) = mpsc::channel::<()>();
        pool.spawn(move || {
            // Hold one worker until the test observed the others finish.
            let _ = wedge_rx.recv_timeout(std::time::Duration::from_secs(10));
        });
        let (tx, rx) = mpsc::channel();
        for i in 0..16 {
            let tx = tx.clone();
            pool.spawn(move || tx.send(i).expect("receiver lives"));
        }
        drop(tx);
        let mut got: Vec<i32> = Vec::new();
        for _ in 0..16 {
            got.push(
                rx.recv_timeout(std::time::Duration::from_secs(10))
                    .expect("stolen jobs complete while a worker is wedged"),
            );
        }
        got.sort_unstable();
        assert_eq!(got, (0..16).collect::<Vec<_>>());
        // Half the jobs round-robined onto the wedged worker's queue; the
        // free worker must have stolen them.
        assert!(pool.stats().steals > 0, "{:?}", pool.stats());
        wedge_tx.send(()).expect("wedged worker still waiting");
    }

    #[test]
    fn stats_report_threads_parks_and_zero_for_inline_pools() {
        let single = Pool::new(1);
        let stats = single.stats();
        assert_eq!(stats.threads, 1);
        assert_eq!((stats.steals, stats.parks, stats.wakeups), (0, 0, 0));

        let pool = Pool::new(3);
        // Give both workers time to find their queues empty and park.
        std::thread::sleep(std::time::Duration::from_millis(30));
        let (tx, rx) = mpsc::channel();
        for i in 0..8 {
            let tx = tx.clone();
            pool.spawn(move || tx.send(i).expect("receiver lives"));
        }
        drop(tx);
        assert_eq!(rx.iter().count(), 8);
        let stats = pool.stats();
        assert_eq!(stats.threads, 3);
        assert!(stats.parks > 0, "{stats:?}");
        // Wakeups only happen out of a park; the inverse isn't guaranteed
        // (a park may end on its timeout), hence ≤, not ==.
        assert!(stats.wakeups <= stats.parks, "{stats:?}");
    }

    #[test]
    fn task_panic_propagates_and_pool_survives() {
        let pool = Pool::new(2);
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(vec![boxed(|| {}), boxed(|| panic!("boom"))]);
        }));
        assert!(outcome.is_err());
        // The worker survived the panic and still executes tasks.
        let done = AtomicBool::new(false);
        pool.run(vec![
            boxed(|| {}),
            boxed(|| done.store(true, Ordering::Relaxed)),
        ]);
        assert!(done.load(Ordering::Relaxed));
    }

    #[test]
    fn inline_panic_unwinds_only_after_queued_borrows_finish() {
        // The edge of the lifetime erasure in `run`: the queued tasks
        // borrow `slots` from this frame, and the inline first task panics
        // while they are still queued. The unwind must not leave `run`,
        // which ends the borrow, before every queued write has landed.
        let pool = Pool::new(2);
        let mut slots = [0usize; 4];
        let landed = AtomicUsize::new(0);
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let mut tasks = vec![boxed(|| panic!("inline task"))];
            for (i, slot) in slots.iter_mut().enumerate() {
                let landed = &landed;
                tasks.push(boxed(move || {
                    std::thread::sleep(Duration::from_millis(20));
                    *slot = i + 1;
                    landed.fetch_add(1, Ordering::SeqCst);
                }));
            }
            pool.run(tasks);
        }));
        // Counted as soon as the panic is caught: every queued write must
        // have landed by then.
        let landed_at_unwind = landed.load(Ordering::SeqCst);
        assert!(outcome.is_err());
        assert_eq!(landed_at_unwind, 4);
        assert_eq!(slots, [1, 2, 3, 4]);
        // The same pool serves a later `run`.
        let mut later = [0usize; 3];
        let tasks = later
            .iter_mut()
            .enumerate()
            .map(|(i, slot)| boxed(move || *slot = 10 + i))
            .collect();
        pool.run(tasks);
        assert_eq!(later, [10, 11, 12]);
    }

    #[test]
    fn pool_dropped_from_inside_a_worker_does_not_hang() {
        // A spawned job can hold the last `Arc<Pool>` (an engine outlived
        // by work it queued): releasing it runs `Pool::drop` on the
        // worker itself, which must not try to join its own thread.
        let pool = Arc::new(Pool::new(2));
        let (tx, rx) = mpsc::channel();
        let held = Arc::clone(&pool);
        pool.spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(50));
            drop(held); // last Arc → Pool::drop on this worker thread
            tx.send(()).expect("receiver lives");
        });
        drop(pool);
        rx.recv_timeout(std::time::Duration::from_secs(10))
            .expect("worker survived dropping its own pool");
    }

    #[test]
    fn ordered_map_returns_index_order_and_reuses_scratch() {
        for threads in [1usize, 2, 4, 7] {
            let pool = Pool::new(threads);
            // Results come back in index order whatever the pool size…
            let squares = pool.ordered_map(23, 1, || (), |(), i| i * i);
            assert_eq!(
                squares,
                (0..23).map(|i| i * i).collect::<Vec<_>>(),
                "threads={threads}"
            );
            // …scratch is per-chunk: the number of `init` calls equals the
            // number of chunks, never the number of indices.
            let inits = AtomicUsize::new(0);
            let got = pool.ordered_map(
                40,
                1,
                || {
                    inits.fetch_add(1, Ordering::Relaxed);
                    0usize
                },
                |count, i| {
                    *count += 1;
                    (i, *count)
                },
            );
            assert_eq!(got.len(), 40);
            let chunks = inits.load(Ordering::Relaxed);
            assert!(chunks <= threads, "threads={threads}: {chunks} chunks");
            // Each chunk's counter climbs 1, 2, 3, … — proof the scratch
            // persisted across that chunk's indices.
            assert!(got.iter().any(|&(_, c)| c > 1) || threads >= 40);
        }
        // Empty input yields an empty vector.
        assert!(Pool::new(4).ordered_map(0, 1, || (), |(), i| i).is_empty());
    }

    #[test]
    fn ordered_map_with_keeps_scratch_across_calls() {
        for threads in [1usize, 2, 4] {
            let pool = Pool::new(threads);
            let mut scratch = Vec::new();
            let count = |count: &mut usize, i: usize| {
                *count += 1;
                i
            };
            let first = pool.ordered_map_with(&mut scratch, 40, 1, || 0usize, count);
            let chunks = scratch.len();
            assert!((1..=threads).contains(&chunks), "threads={threads}");
            // The second call builds no scratch and counts on from the
            // first one's.
            let second = pool.ordered_map_with(&mut scratch, 40, 1, || unreachable!(), count);
            assert_eq!(first, (0..40).collect::<Vec<_>>());
            assert_eq!(first, second);
            assert_eq!(scratch.len(), chunks);
            assert_eq!(scratch.iter().sum::<usize>(), 80, "threads={threads}");
        }
    }

    #[test]
    fn chunk_ranges_cover_exactly() {
        for total in [0usize, 1, 7, 64, 100, 1023] {
            for max_chunks in [1usize, 2, 4, 7] {
                for min_per in [1usize, 8, 32] {
                    let ranges = chunk_ranges(total, max_chunks, min_per);
                    assert!(ranges.len() <= max_chunks.max(1));
                    let mut next = 0;
                    for r in &ranges {
                        assert_eq!(r.start, next, "contiguous");
                        assert!(!r.is_empty());
                        next = r.end;
                    }
                    assert_eq!(next, total, "covers 0..{total}");
                    if total >= min_per {
                        assert!(ranges.iter().all(|r| r.len() >= min_per || total < min_per));
                    }
                }
            }
        }
    }

    #[test]
    fn one_thread_pool_spawns_nothing_and_runs_inline() {
        let pool = Pool::new(1);
        assert_eq!(pool.threads(), 1);
        // Order is guaranteed inline: later tasks see earlier writes.
        let log = Mutex::new(Vec::new());
        pool.run(
            (0..4)
                .map(|i| {
                    let log = &log;
                    boxed(move || log.lock().expect("log").push(i))
                })
                .collect(),
        );
        assert_eq!(*log.lock().expect("log"), vec![0, 1, 2, 3]);
    }
}
