//! The HTTP/1.1 network front door of the serving engine.
//!
//! [`HttpServer::bind`] puts an [`Engine`] behind a `std::net::TcpListener`:
//! a dedicated accept thread blocks in `accept` and gives each connection
//! a thread of its own, so a slow or idle client never delays another.
//! The engine's worker [`Pool`](deepseq_nn::Pool) runs compute only —
//! the level and GEMM fan-out of admitted requests — and no connection
//! ever waits for a worker. Past `MAX_CONNECTIONS` (1024) open connections
//! the accept thread answers `503` itself and closes the socket. Connection
//! handlers speak the small HTTP slice of [`http`](crate::http), route to
//! the endpoints below, and record everything in a shared [`Metrics`]
//! registry.
//!
//! # Endpoints
//!
//! | Method + path | Purpose |
//! |---|---|
//! | `POST /v1/embed` | circuit text in (AIGER/`.bench`), prediction JSON out |
//! | `GET /healthz` | liveness (always 200); `?ready=1` readiness (503 while draining/degraded) |
//! | `GET /metrics` | Prometheus text exposition |
//! | `POST /admin/drain` | request graceful drain (loopback deployments) |
//! | `POST /admin/degrade` | enter (`?mode=on`, default) or leave (`?mode=off`) degraded mode |
//! | `POST /admin/reload` | re-read the startup checkpoint and swap it in |
//!
//! # Degraded mode
//!
//! A degraded server keeps serving **cache hits** (they are known-good
//! results) and sheds cache misses with `503` + `Retry-After` instead of
//! computing. It is entered three ways: explicitly via `/admin/degrade`,
//! automatically when `/admin/reload` fails (the old weights keep serving
//! hits, but no new compute runs on weights the operator tried and failed
//! to replace), and automatically under sustained admission saturation
//! (`ServerOptions::saturation_trip` consecutive 429s). `/healthz?ready=1`
//! reports `503` while degraded so load balancers route around the
//! instance; plain `/healthz` stays `200` so supervisors don't kill it.
//!
//! # Admission, backpressure, deadlines
//!
//! Embed requests pass a bounded admission gate before touching the
//! engine: at most `max_inflight` compute concurrently, at most
//! `max_queue` wait behind them. Overflow is answered `429` immediately —
//! the queue never grows without bound — and a request whose deadline
//! expires while it waits (or computes) is answered `504`. The gate is
//! what turns "millions of users" worth of open sockets into a bounded
//! amount of queued compute.
//!
//! # Graceful drain
//!
//! [`HttpServer::shutdown`] (or `POST /admin/drain`, or
//! [`HttpServer::request_drain`]) stops the accept loop, lets every
//! admitted request finish, answers `503` to requests arriving on
//! already-open connections, and closes those connections as they go
//! idle. The accept thread sleeps in a blocking `accept`, so a drain
//! request wakes it with one connection to the server's own port
//! (loopback when bound to an unspecified address such as `0.0.0.0`);
//! the thread sees the drain flag, drops that connection uncounted and
//! closes the listener. `shutdown` returns once every connection closed
//! (or the `drain_grace` cap expired). In-flight work is never dropped —
//! the drain property test in `crates/serve/tests/http_drain.rs` holds
//! the server to exactly that.

use std::io::{BufReader, BufWriter};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use deepseq_netlist::{lower_to_aig, parse_aiger, SeqAig};
use deepseq_nn::fault::{self, FaultPoint};
use deepseq_nn::trace;
use deepseq_sim::Workload;

use crate::engine::{Engine, EngineError, ServeRequest, ServeResponse};
use crate::http::{
    read_request_with, write_response, HttpError, HttpLimits, HttpRequest, HttpResponse,
};
use crate::json::response_to_json;
use crate::metrics::Metrics;
use crate::ServeError;

/// Connections open at once, each on its own thread. The accept thread
/// answers `503` and closes any connection past this count. The cap
/// exists because a connection thread, with its stack and kernel state,
/// costs far more than the queued socket a fixed set of handlers would
/// keep instead, and an unbounded count of them can exhaust the process.
const MAX_CONNECTIONS: u64 = 1024;

/// Pause after a failed `accept` (out of file descriptors, for example),
/// so a persistent failure does not spin the accept thread.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);

/// How long a drain waits for its wake-up connection to the listener.
const WAKE_TIMEOUT: Duration = Duration::from_millis(500);

/// Locks a mutex, recovering the guard if a panicking holder poisoned it.
/// Server state (admission counters, drain flag) stays meaningful across a
/// caught panic, so refusing to serve because of poisoning would turn one
/// contained failure into a cascading one.
fn lock_recover<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|poison| poison.into_inner())
}

/// Sizing and policy knobs of an [`HttpServer`].
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// Bind address (`127.0.0.1:0` picks a free loopback port).
    pub addr: String,
    /// Embed requests processed concurrently. `0` sizes from the engine's
    /// pool thread count.
    pub max_inflight: usize,
    /// Embed requests allowed to wait behind the in-flight ones before
    /// newcomers get `429`.
    pub max_queue: usize,
    /// Per-request deadline: time from reading the request to finishing
    /// compute. Expiry answers `504`. Requests may tighten (never extend)
    /// it with `?deadline_ms=`.
    pub deadline: Duration,
    /// Head/body size caps of the HTTP reader.
    pub limits: HttpLimits,
    /// Idle time after which a keep-alive connection is closed. Also
    /// bounds how long a drain waits on idle connections.
    pub idle_keepalive: Duration,
    /// Hard cap on how long [`HttpServer::shutdown`] waits for open
    /// connections after the admitted requests finished.
    pub drain_grace: Duration,
    /// `DSQM` checkpoint the server was started from, if any —
    /// `POST /admin/reload` re-reads it (and is `409` without one).
    pub checkpoint_path: Option<String>,
    /// Consecutive `429` (queue-full) rejections, with no successful
    /// admission in between, after which the server enters degraded mode on
    /// its own. `0` disables the automatic trip (the default); explicit
    /// `POST /admin/degrade` and failed reloads still degrade.
    pub saturation_trip: u64,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions {
            addr: "127.0.0.1:0".to_string(),
            max_inflight: 0,
            max_queue: 64,
            deadline: Duration::from_secs(30),
            limits: HttpLimits::default(),
            idle_keepalive: Duration::from_secs(5),
            drain_grace: Duration::from_secs(30),
            checkpoint_path: None,
            saturation_trip: 0,
        }
    }
}

/// Outcome of a graceful drain.
#[derive(Debug, Clone, Copy)]
pub struct DrainReport {
    /// Requests the engine served over the server's lifetime.
    pub requests_served: u64,
    /// Connections still open when `drain_grace` expired (0 on a clean
    /// drain).
    pub connections_abandoned: u64,
}

/// Admission gate state: how many embed requests hold a compute slot and
/// how many wait for one.
struct AdmissionState {
    in_flight: usize,
    queued: usize,
}

/// Bounded admission for embed requests (see the [module docs](self)).
struct Admission {
    state: Mutex<AdmissionState>,
    freed: Condvar,
}

/// Outcome of one admission attempt.
enum Admit {
    /// A compute slot is held; release it with [`Admission::release`].
    Go,
    /// The wait queue is full — answer `429`.
    QueueFull,
    /// The deadline expired while waiting — answer `504`.
    DeadlineExpired,
}

impl Admission {
    fn new() -> Admission {
        Admission {
            state: Mutex::new(AdmissionState {
                in_flight: 0,
                queued: 0,
            }),
            freed: Condvar::new(),
        }
    }

    /// Tries to take a compute slot, waiting (bounded by `max_queue` and
    /// `deadline`) when all slots are busy. Mirrors the gate state into
    /// the `queue_depth` / `in_flight` gauges.
    fn acquire(
        &self,
        max_inflight: usize,
        max_queue: usize,
        deadline: Instant,
        metrics: &Metrics,
    ) -> Admit {
        let mut state = lock_recover(&self.state);
        if state.in_flight < max_inflight && state.queued == 0 {
            state.in_flight += 1;
            metrics
                .in_flight
                .store(state.in_flight as u64, Ordering::Relaxed);
            return Admit::Go;
        }
        if state.queued >= max_queue {
            return Admit::QueueFull;
        }
        state.queued += 1;
        metrics
            .queue_depth
            .store(state.queued as u64, Ordering::Relaxed);
        loop {
            let now = Instant::now();
            if now >= deadline {
                state.queued -= 1;
                metrics
                    .queue_depth
                    .store(state.queued as u64, Ordering::Relaxed);
                return Admit::DeadlineExpired;
            }
            let (next, _timeout) = self
                .freed
                .wait_timeout(state, deadline - now)
                .unwrap_or_else(|poison| poison.into_inner());
            state = next;
            if state.in_flight < max_inflight {
                state.queued -= 1;
                state.in_flight += 1;
                metrics
                    .queue_depth
                    .store(state.queued as u64, Ordering::Relaxed);
                metrics
                    .in_flight
                    .store(state.in_flight as u64, Ordering::Relaxed);
                return Admit::Go;
            }
        }
    }

    /// Returns a compute slot and wakes one waiter.
    fn release(&self, metrics: &Metrics) {
        let mut state = lock_recover(&self.state);
        state.in_flight -= 1;
        metrics
            .in_flight
            .store(state.in_flight as u64, Ordering::Relaxed);
        self.freed.notify_one();
    }

    /// True when no request holds or waits for a slot.
    fn is_empty(&self) -> bool {
        let state = lock_recover(&self.state);
        state.in_flight == 0 && state.queued == 0
    }
}

/// State shared between the accept thread, every connection handler, and
/// the [`HttpServer`] handle.
struct ServerShared {
    engine: Engine,
    /// Degraded (cache-only) mode: hits still answer, misses shed with 503.
    degraded: AtomicBool,
    metrics: Arc<Metrics>,
    options: ServerOptions,
    max_inflight: usize,
    admission: Admission,
    draining: AtomicBool,
    /// Consecutive queue-full rejections since the last admission; trips
    /// degraded mode at `options.saturation_trip`.
    queue_full_streak: AtomicU64,
    /// Signalled when a drain is requested (admin endpoint or handle) and
    /// when a connection closes (so `shutdown` can wait for zero).
    drain_lock: Mutex<()>,
    drain_cv: Condvar,
    started: Instant,
    /// Where a drain connects to wake the accept thread out of `accept`.
    wake_addr: SocketAddr,
    /// Set once a wake-up connection reached the listener: the accept
    /// thread then exits on its own and can be joined.
    accept_woken: Mutex<bool>,
}

impl ServerShared {
    /// Flags the drain, wakes every drain waiter, and wakes the accept
    /// thread with one connection to the listener unless an earlier call
    /// already did. Returns whether a wake-up connection got through, that
    /// is, whether the accept thread is certain to exit.
    fn request_drain(&self) -> bool {
        self.draining.store(true, Ordering::Release);
        self.notify_drain_waiters();
        let mut woken = lock_recover(&self.accept_woken);
        if !*woken {
            *woken = TcpStream::connect_timeout(&self.wake_addr, WAKE_TIMEOUT).is_ok();
        }
        *woken
    }

    fn is_draining(&self) -> bool {
        self.draining.load(Ordering::Acquire)
    }

    /// Enters or leaves degraded mode; leaving also clears the saturation
    /// streak.
    fn set_degraded(&self, on: bool) {
        self.degraded.store(on, Ordering::Relaxed);
        if !on {
            self.queue_full_streak.store(0, Ordering::Relaxed);
        }
    }

    fn is_degraded(&self) -> bool {
        self.degraded.load(Ordering::Relaxed)
    }

    /// Records one queue-full rejection; a long enough streak with no
    /// admission in between trips degraded mode (sustained saturation).
    fn note_queue_full(&self) {
        let trip = self.options.saturation_trip;
        if trip == 0 {
            return;
        }
        let streak = self.queue_full_streak.fetch_add(1, Ordering::Relaxed) + 1;
        if streak >= trip {
            self.set_degraded(true);
        }
    }

    /// Records one successful admission, resetting the saturation streak.
    fn note_admitted(&self) {
        if self.options.saturation_trip != 0 {
            self.queue_full_streak.store(0, Ordering::Relaxed);
        }
    }

    /// Wakes anything blocked on `drain_cv` (`shutdown`'s drain wait and
    /// `wait_for_drain_request`). Called on every state change the drain
    /// condition reads — drain requested, a connection closed, the
    /// admission gate emptied — so the waiters never have to poll.
    fn notify_drain_waiters(&self) {
        let _guard = lock_recover(&self.drain_lock);
        self.drain_cv.notify_all();
    }
}

/// One counted connection: decrements the open-connection gauge and pokes
/// the drain condvar when dropped — when its handler exits, however it
/// exits, or with the handler's closure if its thread never started.
struct ConnectionGuard {
    shared: Arc<ServerShared>,
}

impl Drop for ConnectionGuard {
    fn drop(&mut self) {
        self.shared
            .metrics
            .connections_open
            .fetch_sub(1, Ordering::Relaxed);
        self.shared.notify_drain_waiters();
    }
}

/// A bound, accepting HTTP server (see the [module docs](self)).
pub struct HttpServer {
    shared: Arc<ServerShared>,
    addr: SocketAddr,
    accept_thread: Option<JoinHandle<()>>,
}

impl HttpServer {
    /// Binds `options.addr` and starts accepting connections on a
    /// dedicated thread. Each connection gets a thread of its own.
    pub fn bind(engine: Engine, options: ServerOptions) -> std::io::Result<HttpServer> {
        let listener = TcpListener::bind(&options.addr)?;
        let addr = listener.local_addr()?;
        let max_inflight = if options.max_inflight == 0 {
            engine.pool().threads().max(1)
        } else {
            options.max_inflight
        };
        let metrics = Arc::new(Metrics::default());
        {
            // Feed the engine-side latency histogram from the engine's own
            // instrumentation hook, so it covers every path into the
            // engine, cache hits included.
            let histogram = Arc::clone(&metrics);
            engine.set_served_hook(Arc::new(move |_response, latency| {
                histogram.engine_latency.observe(latency);
            }));
        }
        let shared = Arc::new(ServerShared {
            engine,
            degraded: AtomicBool::new(false),
            metrics,
            options,
            max_inflight,
            admission: Admission::new(),
            draining: AtomicBool::new(false),
            queue_full_streak: AtomicU64::new(0),
            drain_lock: Mutex::new(()),
            drain_cv: Condvar::new(),
            started: Instant::now(),
            wake_addr: wake_address(addr),
            accept_woken: Mutex::new(false),
        });
        let accept_shared = Arc::clone(&shared);
        let accept_thread = std::thread::Builder::new()
            .name("deepseq-http-accept".to_string())
            .spawn(move || accept_loop(listener, accept_shared))
            .expect("spawn accept thread");
        Ok(HttpServer {
            shared,
            addr,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (with the real port when `:0` was requested).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared metrics registry.
    pub fn metrics(&self) -> Arc<Metrics> {
        Arc::clone(&self.shared.metrics)
    }

    /// The engine behind the server.
    pub fn engine(&self) -> &Engine {
        &self.shared.engine
    }

    /// True once a drain has been requested.
    pub fn drain_requested(&self) -> bool {
        self.shared.is_draining()
    }

    /// True while the server is in degraded (cache-only) mode.
    pub fn degraded(&self) -> bool {
        self.shared.is_degraded()
    }

    /// Enters or leaves degraded mode (`POST /admin/degrade` calls the
    /// same thing).
    pub fn set_degraded(&self, on: bool) {
        self.shared.set_degraded(on);
    }

    /// Requests a drain without blocking (`POST /admin/drain` calls the
    /// same thing). Follow with [`HttpServer::shutdown`] to wait it out.
    pub fn request_drain(&self) {
        self.shared.request_drain();
    }

    /// Blocks until a drain is requested (by [`HttpServer::request_drain`]
    /// or the admin endpoint) — the serve-mode main loop parks here.
    pub fn wait_for_drain_request(&self) {
        let mut guard = lock_recover(&self.shared.drain_lock);
        while !self.shared.is_draining() {
            guard = self
                .shared
                .drain_cv
                .wait(guard)
                .unwrap_or_else(|poison| poison.into_inner());
        }
    }

    /// Gracefully drains and shuts down: stops accepting, finishes every
    /// admitted request, waits for connections to close (bounded by
    /// `drain_grace`), and joins the accept thread. Should the wake-up
    /// connection fail, the accept thread is left to exit on the next
    /// connection it accepts instead of being joined.
    pub fn shutdown(mut self) -> DrainReport {
        let accept_exits = self.shared.request_drain();
        if let Some(handle) = self.accept_thread.take() {
            if accept_exits {
                let _ = handle.join();
            }
        }
        let grace = self.shared.options.drain_grace;
        let deadline = Instant::now() + grace;
        {
            let mut guard = lock_recover(&self.shared.drain_lock);
            loop {
                let drained = self.shared.admission.is_empty()
                    && self.shared.metrics.connections_open.load(Ordering::Relaxed) == 0;
                if drained {
                    break;
                }
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                // Every input of the drained condition notifies `drain_cv`
                // on change (connection close, admission release/expiry),
                // so the full remaining grace can be slept in one wait —
                // no polling cap adding up to 100 ms of shutdown latency.
                let (next, _) = self
                    .shared
                    .drain_cv
                    .wait_timeout(guard, deadline - now)
                    .unwrap_or_else(|poison| poison.into_inner());
                guard = next;
            }
        }
        DrainReport {
            requests_served: self.shared.engine.requests_served(),
            connections_abandoned: self.shared.metrics.connections_open.load(Ordering::Relaxed),
        }
    }
}

/// The address a drain connects to in order to wake the accept thread:
/// the bound address, with loopback in place of an unspecified IP.
fn wake_address(bound: SocketAddr) -> SocketAddr {
    let mut addr = bound;
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    addr
}

/// Accepts connections until a drain is requested, then drops the
/// listener (new connects are refused by the OS from that point on).
fn accept_loop(listener: TcpListener, shared: Arc<ServerShared>) {
    loop {
        let accepted = listener.accept();
        // Checked before counting: the drain's wake-up connection, or
        // any client racing it, is dropped uncounted.
        if shared.is_draining() {
            return; // dropping the listener closes the socket
        }
        match accepted {
            Ok((stream, _peer)) => open_connection(stream, &shared),
            Err(_) => std::thread::sleep(ACCEPT_BACKOFF),
        }
    }
}

/// Counts an accepted connection and starts its handler thread, or, past
/// `MAX_CONNECTIONS`, answers `503` and closes it on the calling thread.
fn open_connection(stream: TcpStream, shared: &Arc<ServerShared>) {
    let metrics = &shared.metrics;
    metrics.connections_total.fetch_add(1, Ordering::Relaxed);
    let already_open = metrics.connections_open.fetch_add(1, Ordering::Relaxed);
    let guard = ConnectionGuard {
        shared: Arc::clone(shared),
    };
    if already_open >= MAX_CONNECTIONS {
        let response = HttpResponse::error(503, "too many open connections").closing();
        metrics.count_status(503);
        let _ = stream.set_write_timeout(Some(Duration::from_millis(100)));
        let _ = write_response(&mut BufWriter::new(&stream), &response);
        let _ = stream.shutdown(Shutdown::Write);
        return;
    }
    // A failed spawn drops the closure, and with it the socket (the peer
    // sees it close) and the guard (the gauge counts it closed).
    let _ = std::thread::Builder::new()
        .name("deepseq-http-conn".to_string())
        .spawn(move || handle_connection(stream, guard));
}

/// Serves one connection: keep-alive request loop, routing, error
/// rendering. Never panics the thread on a bad peer.
///
/// # Socket timeouts
///
/// The read timeout distinguishes two very different waits. *Between*
/// requests, the socket may sit idle only `idle_keepalive` before the
/// connection is reclaimed. *Within* a request — from the moment the head
/// is parsed — body reads and the response write instead run against the
/// request's own deadline budget: a client legitimately trickling a large
/// body is not killed by the (much shorter) keepalive timeout, and a stuck
/// peer cannot pin the thread past the deadline either.
fn handle_connection(stream: TcpStream, guard: ConnectionGuard) {
    let shared = &guard.shared;
    let _ = stream.set_nodelay(true);
    // Timeout-control handle: `set_read_timeout`/`set_write_timeout` act on
    // the shared socket, so this clone adjusts the reader and writer halves
    // below without borrowing either.
    let Ok(control) = stream.try_clone() else {
        return;
    };
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = BufWriter::new(stream);

    loop {
        // Waiting for the next request head is the only *idle* period.
        let _ = control.set_read_timeout(Some(shared.options.idle_keepalive));
        let mut head_parsed_at = None;
        let request =
            match read_request_with(&mut reader, &mut writer, &shared.options.limits, |_head| {
                // The head is in: the request's deadline clock starts now,
                // and body reads share its budget instead of the keepalive
                // timeout.
                head_parsed_at = Some(Instant::now());
                let _ = control.set_read_timeout(Some(clamp_timeout(shared.options.deadline)));
            }) {
                Ok(request) => request,
                Err(HttpError::Closed) => return,
                Err(HttpError::Io(_)) => return, // timeout/reset: nothing to answer
                Err(HttpError::BadRequest(msg)) => {
                    // Malformed input answers 400 with a JSON error body — the
                    // connection is closed (framing may be lost) but never
                    // dropped without a response.
                    let response = HttpResponse::error(400, &msg).closing();
                    shared.metrics.count_status(400);
                    let _ = write_response(&mut writer, &response);
                    return;
                }
                Err(HttpError::NotImplemented(msg)) => {
                    let response = HttpResponse::error(501, &msg).closing();
                    shared.metrics.count_status(501);
                    let _ = write_response(&mut writer, &response);
                    return;
                }
            };
        let mut response = route(shared, &request);
        // During a drain, finish the request we already read but close the
        // connection; new requests belong on a live instance.
        if request.wants_close() || shared.is_draining() {
            response.close = true;
        }
        shared.metrics.count_status(response.status);
        // The response write runs against what is left of the request's
        // deadline budget — a stalled peer cannot pin this worker for
        // longer than the request was allowed to live.
        let deadline = head_parsed_at.unwrap_or_else(Instant::now) + shared.options.deadline;
        let remaining = deadline.saturating_duration_since(Instant::now());
        let _ = control.set_write_timeout(Some(clamp_timeout(remaining)));
        let wrote = {
            // Re-enter the request's trace (echoed on the response) so
            // the socket-write span joins its span tree.
            let _trace = response_trace_scope(&response);
            let _span = trace::span(trace::SpanKind::SocketWrite);
            if fault::should_inject(FaultPoint::SocketWrite) {
                // Model a peer reset mid-write: the connection is torn down
                // (the error return below closes it) but the server, its
                // admission slot accounting, and the drain machinery are
                // untouched.
                Err(std::io::Error::new(
                    std::io::ErrorKind::BrokenPipe,
                    "injected socket_write fault",
                ))
            } else {
                write_response(&mut writer, &response)
            }
        };
        if wrote.is_err() || response.close {
            return;
        }
    }
}

/// Clamps a socket timeout to at least 100 ms: `set_read_timeout(Some(0))`
/// is an `Err` by contract, and even a request whose budget just expired
/// deserves the few syscalls it takes to push its `504` out.
fn clamp_timeout(budget: Duration) -> Duration {
    budget.max(Duration::from_millis(100))
}

/// Scope for the trace id a response carries in its `deepseq-trace-id`
/// header, if tracing is on and the response has one.
fn response_trace_scope(response: &HttpResponse) -> Option<trace::TraceScope> {
    if !trace::enabled() {
        return None;
    }
    response
        .extra_headers
        .iter()
        .find(|(name, _)| name == "deepseq-trace-id")
        .and_then(|(_, value)| value.parse::<u64>().ok())
        .map(trace::scope)
}

/// Dispatches one parsed request to its endpoint.
fn route(shared: &Arc<ServerShared>, request: &HttpRequest) -> HttpResponse {
    let metrics = &shared.metrics;
    match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/v1/embed") => {
            metrics.requests_embed.fetch_add(1, Ordering::Relaxed);
            let start = Instant::now();
            // Mint a per-request trace id at the edge; the thread-local
            // scope carries it through the engine into pool tasks and
            // kernel dispatch, and the response echoes it so clients can
            // fetch the span tree from `/debug/trace?id=…`.
            let trace_id = if trace::enabled() {
                trace::next_trace_id()
            } else {
                0
            };
            let _trace = (trace_id != 0).then(|| trace::scope(trace_id));
            let request_span = trace::span(trace::SpanKind::Request);
            let mut response = embed(shared, request, start);
            drop(request_span);
            if trace_id != 0 {
                response = response.with_header("deepseq-trace-id", trace_id.to_string());
            }
            metrics.request_latency.observe(start.elapsed());
            response
        }
        ("GET", "/debug/trace") => {
            metrics.requests_other.fetch_add(1, Ordering::Relaxed);
            debug_trace(request)
        }
        ("GET", "/healthz") => {
            metrics.requests_healthz.fetch_add(1, Ordering::Relaxed);
            healthz(shared, request)
        }
        ("GET", "/metrics") => {
            metrics.requests_metrics.fetch_add(1, Ordering::Relaxed);
            let engine = &shared.engine;
            HttpResponse::text(
                200,
                metrics.render(
                    &engine.cache_stats(),
                    &engine.cone_stats(),
                    &engine.pool().stats(),
                    shared.is_draining(),
                    shared.is_degraded(),
                ),
            )
        }
        ("POST", "/admin/drain") => {
            metrics.requests_other.fetch_add(1, Ordering::Relaxed);
            shared.request_drain();
            HttpResponse::json(200, "{\"status\":\"draining\"}").closing()
        }
        ("POST", "/admin/degrade") => {
            metrics.requests_other.fetch_add(1, Ordering::Relaxed);
            admin_degrade(shared, request)
        }
        ("POST", "/admin/reload") => {
            metrics.requests_other.fetch_add(1, Ordering::Relaxed);
            admin_reload(shared)
        }
        (_, "/v1/embed")
        | (_, "/healthz")
        | (_, "/metrics")
        | (_, "/admin/drain")
        | (_, "/admin/degrade")
        | (_, "/admin/reload")
        | (_, "/debug/trace") => {
            metrics.requests_other.fetch_add(1, Ordering::Relaxed);
            HttpResponse::error(405, &format!("{} not allowed here", request.method))
        }
        (_, path) => {
            metrics.requests_other.fetch_add(1, Ordering::Relaxed);
            HttpResponse::error(404, &format!("no such endpoint {path}"))
        }
    }
}

/// `GET /debug/trace`: span-level introspection. With `?id=N` (the
/// `deepseq-trace-id` echoed on a traced embed response), the span tree
/// of that request; without a query, a per-stage latency summary.
/// Answers `404` while tracing is disabled.
fn debug_trace(request: &HttpRequest) -> HttpResponse {
    if !trace::enabled() {
        return HttpResponse::error(
            404,
            "tracing is disabled; set DEEPSEQ_TRACE=1 or pass --trace-out",
        );
    }
    match request.query_param("id") {
        Some(raw) => match raw.parse::<u64>() {
            Ok(id) if id > 0 => {
                let records = trace::collect(id);
                if records.is_empty() {
                    return HttpResponse::error(404, &format!("no spans recorded for trace {id}"));
                }
                HttpResponse::json(200, crate::json::trace_tree_json(id, &records))
            }
            _ => HttpResponse::error(400, &format!("malformed trace id {raw:?}")),
        },
        None => HttpResponse::json(
            200,
            crate::json::stage_summary_json(&trace::stage_stats(), trace::dropped_spans()),
        ),
    }
}

/// `GET /healthz`: liveness by default (200 as long as the process
/// answers, with `draining` / `degraded` / `ready` detail in the body);
/// with `?ready=1`, a readiness probe that answers `503` while the server
/// is draining or degraded, so load balancers route around it while
/// `kubelet`-style liveness checks keep it alive.
fn healthz(shared: &Arc<ServerShared>, request: &HttpRequest) -> HttpResponse {
    let draining = shared.is_draining();
    let degraded = shared.is_degraded();
    let ready = !draining && !degraded;
    let body = format!(
        "{{\"status\":\"{}\",\"live\":true,\"ready\":{ready},\"draining\":{draining},\
         \"degraded\":{degraded},\"uptime_ms\":{}}}",
        if ready { "ok" } else { "degraded" },
        shared.started.elapsed().as_millis()
    );
    let readiness_probe = matches!(request.query_param("ready"), Some("1" | "true"));
    let status = if readiness_probe && !ready { 503 } else { 200 };
    HttpResponse::json(status, body)
}

/// `POST /admin/degrade`: enters (`?mode=on`, the default) or leaves
/// (`?mode=off`) degraded mode.
fn admin_degrade(shared: &Arc<ServerShared>, request: &HttpRequest) -> HttpResponse {
    let on = match request.query_param("mode") {
        None | Some("on") => true,
        Some("off") => false,
        Some(other) => {
            return HttpResponse::error(400, &format!("unknown mode {other:?} (on | off)"))
        }
    };
    shared.set_degraded(on);
    let status = if on { "degraded" } else { "ok" };
    HttpResponse::json(200, format!("{{\"status\":\"{status}\"}}"))
}

/// `POST /admin/reload`: re-reads the checkpoint the server was started
/// from and swaps it in. A failed reload — missing file, corrupt bytes,
/// checksum mismatch, a text checkpoint, a parameter missing — leaves the
/// old model serving but flips the server
/// into degraded mode: the operator asked for weights the server cannot
/// vouch for, so only cache hits keep flowing until a reload succeeds or
/// degraded mode is cleared explicitly.
fn admin_reload(shared: &Arc<ServerShared>) -> HttpResponse {
    let Some(path) = shared.options.checkpoint_path.as_deref() else {
        return HttpResponse::error(
            409,
            "no checkpoint to reload (server started without --checkpoint)",
        );
    };
    match crate::infer::load_checkpoint(path.as_ref()) {
        Ok(model) => {
            shared.engine.swap_model(model.into());
            shared.set_degraded(false);
            HttpResponse::json(200, "{\"status\":\"reloaded\"}")
        }
        Err(msg) => {
            shared.set_degraded(true);
            HttpResponse::error(500, &format!("checkpoint reload failed ({msg}); degraded"))
        }
    }
}

/// `POST /v1/embed`: parse → admit → engine → JSON.
fn embed(shared: &Arc<ServerShared>, request: &HttpRequest, start: Instant) -> HttpResponse {
    let metrics = &shared.metrics;
    if shared.is_draining() {
        metrics.rejected_draining.fetch_add(1, Ordering::Relaxed);
        return HttpResponse::error(503, "server is draining").closing();
    }
    let parse_span = trace::span(trace::SpanKind::Parse);
    let serve_request = match parse_embed_request(request) {
        Ok(serve_request) => serve_request,
        Err(msg) => return HttpResponse::error(400, &msg),
    };
    drop(parse_span);
    let summary = matches!(request.query_param("summary"), Some("1" | "true"));
    if shared.is_degraded() {
        // Cache-only: hits still flow (the cached result is known good),
        // misses shed immediately. No compute runs on a server that cannot
        // vouch for its weights or is saturated.
        if let Some(response) = shared.engine.lookup_cached(&serve_request) {
            return HttpResponse::json(200, response_to_json(&response, summary));
        }
        metrics.rejected_degraded.fetch_add(1, Ordering::Relaxed);
        return HttpResponse::error(503, "server is degraded; cache miss shed")
            .with_header("retry-after", "5".to_string());
    }
    // Requests may tighten the configured deadline, never extend it.
    let deadline_budget = match request.query_param("deadline_ms") {
        None => shared.options.deadline,
        Some(raw) => match raw.parse::<u64>() {
            Ok(ms) => Duration::from_millis(ms).min(shared.options.deadline),
            Err(_) => return HttpResponse::error(400, &format!("malformed deadline_ms {raw:?}")),
        },
    };
    let deadline = start + deadline_budget;

    let queue_span = trace::span(trace::SpanKind::QueueWait);
    let admit = shared.admission.acquire(
        shared.max_inflight,
        shared.options.max_queue,
        deadline,
        metrics,
    );
    drop(queue_span);
    match admit {
        Admit::QueueFull => {
            metrics.rejected_queue_full.fetch_add(1, Ordering::Relaxed);
            shared.note_queue_full();
            HttpResponse::error(429, "admission queue is full; retry later")
                .with_header("retry-after", "1".to_string())
        }
        Admit::DeadlineExpired => {
            metrics.deadline_expired.fetch_add(1, Ordering::Relaxed);
            // The expired request left the admission queue: a draining
            // shutdown may be waiting for exactly that.
            shared.notify_drain_waiters();
            HttpResponse::error(504, "deadline expired while queued")
        }
        Admit::Go => {
            shared.note_admitted();
            let request_id = serve_request.id;
            let design = serve_request.aig.name().to_string();
            // serve_batch with one request runs it inline on this
            // connection's thread; level fan-out inside the engine still
            // spreads across the pool.
            let mut responses = shared.engine.serve_batch(vec![serve_request]);
            shared.admission.release(metrics);
            shared.notify_drain_waiters();
            // serve_batch answers every request (typed errors included);
            // should that invariant ever break, answer a typed 500, never
            // panic a connection handler.
            let response = responses.pop().unwrap_or(ServeResponse {
                id: request_id,
                design,
                result: Err(ServeError::Engine(EngineError::ReplyDropped)),
            });
            if Instant::now() > deadline {
                metrics.deadline_expired.fetch_add(1, Ordering::Relaxed);
                return HttpResponse::error(504, "deadline expired during processing");
            }
            let status = match &response.result {
                Ok(_) => 200,
                // Server-side machinery failures (caught panic, dropped
                // reply) are 500s; everything else is the request's fault.
                Err(e) if e.is_internal() => 500,
                Err(_) => 400,
            };
            let serialize_span = trace::span(trace::SpanKind::Serialize);
            let body = response_to_json(&response, summary);
            drop(serialize_span);
            HttpResponse::json(status, body)
        }
    }
}

/// Builds a [`ServeRequest`] from the HTTP request's body and query.
fn parse_embed_request(request: &HttpRequest) -> Result<ServeRequest, String> {
    if request.body.is_empty() {
        return Err("empty body; POST an ASCII AIGER (`aag …`) or `.bench` netlist".to_string());
    }
    let text = std::str::from_utf8(&request.body)
        .map_err(|_| "body is not UTF-8 circuit text".to_string())?;
    let name = request.query_param("name").unwrap_or("request");
    let format = match request.query_param("format") {
        Some("aiger") => "aiger",
        Some("bench") => "bench",
        Some(other) => return Err(format!("unknown format {other:?} (aiger | bench)")),
        // Sniff: an ASCII AIGER always opens with its `aag` header.
        None if text.trim_start().starts_with("aag") => "aiger",
        None => "bench",
    };
    let aig: SeqAig = if format == "aiger" {
        parse_aiger(text).map_err(|e| format!("invalid AIGER payload: {e}"))?
    } else {
        let netlist = deepseq_netlist::bench_io::parse_bench_named(text, name)
            .map_err(|e| format!("invalid .bench payload: {e}"))?;
        lower_to_aig(&netlist)
            .map_err(|e| format!("lowering .bench payload: {e}"))?
            .aig
    };
    let p1 = match request.query_param("p1") {
        None => 0.5,
        Some(raw) => raw
            .parse::<f64>()
            .ok()
            .filter(|p| (0.0..=1.0).contains(p))
            .ok_or(format!("malformed p1 {raw:?} (float in [0, 1])"))?,
    };
    let parse_u64 = |key: &str| -> Result<u64, String> {
        match request.query_param(key) {
            None => Ok(0),
            Some(raw) => raw.parse().map_err(|_| format!("malformed {key} {raw:?}")),
        }
    };
    Ok(ServeRequest {
        id: parse_u64("id")?,
        init_seed: parse_u64("seed")?,
        workload: Workload::uniform(aig.num_pis(), p1),
        aig,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::infer::InferenceModel;
    use crate::EngineOptions;
    use deepseq_core::{DeepSeq, DeepSeqConfig};
    use deepseq_nn::Pool;

    fn test_engine() -> Engine {
        let model = DeepSeq::new(DeepSeqConfig {
            hidden_dim: 8,
            iterations: 2,
            ..DeepSeqConfig::default()
        });
        Engine::with_pool(
            InferenceModel::from_model(&model),
            EngineOptions {
                workers: 2,
                ..EngineOptions::default()
            },
            Arc::new(Pool::new(2)),
        )
    }

    fn get(path: &str) -> HttpRequest {
        HttpRequest {
            method: "GET".into(),
            path: path.into(),
            query: Vec::new(),
            headers: Vec::new(),
            body: Vec::new(),
        }
    }

    fn post(path: &str, query: &[(&str, &str)], body: &[u8]) -> HttpRequest {
        HttpRequest {
            method: "POST".into(),
            path: path.into(),
            query: query
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            headers: Vec::new(),
            body: body.to_vec(),
        }
    }

    fn shared() -> Arc<ServerShared> {
        shared_with(ServerOptions::default())
    }

    fn shared_with(options: ServerOptions) -> Arc<ServerShared> {
        Arc::new(ServerShared {
            engine: test_engine(),
            degraded: AtomicBool::new(false),
            metrics: Arc::new(Metrics::default()),
            options,
            max_inflight: 2,
            admission: Admission::new(),
            draining: AtomicBool::new(false),
            queue_full_streak: AtomicU64::new(0),
            drain_lock: Mutex::new(()),
            drain_cv: Condvar::new(),
            started: Instant::now(),
            // No accept thread runs here, so a drain has nothing to wake.
            wake_addr: SocketAddr::from((Ipv4Addr::LOCALHOST, 0)),
            accept_woken: Mutex::new(true),
        })
    }

    /// A 2-node toggle circuit in ASCII AIGER.
    const TOGGLE_AAG: &[u8] = b"aag 1 0 1 1 0\n2 3\n2\n";

    #[test]
    fn embed_round_trips_a_circuit() {
        let shared = shared();
        let response = route(&shared, &post("/v1/embed", &[("id", "7")], TOGGLE_AAG));
        assert_eq!(response.status, 200, "{:?}", response.body);
        let body = String::from_utf8(response.body).expect("json body");
        assert!(body.starts_with("{\"id\":7,"), "{body}");
        assert!(body.contains("\"cache_hit\":false"), "{body}");
        // Second identical request hits the cache.
        let response = route(&shared, &post("/v1/embed", &[("id", "8")], TOGGLE_AAG));
        let body = String::from_utf8(response.body).expect("json body");
        assert!(body.contains("\"cache_hit\":true"), "{body}");
    }

    #[test]
    fn embed_rejects_garbage_with_400() {
        let shared = shared();
        for (query, body) in [
            (vec![], b"not a circuit at all".to_vec()),
            (vec![], b"aag 1 1\n".to_vec()),
            (vec![], Vec::new()),
            (vec![], vec![0xff, 0xfe]),
            (vec![("p1", "2.0")], TOGGLE_AAG.to_vec()),
            (vec![("seed", "abc")], TOGGLE_AAG.to_vec()),
            (vec![("format", "verilog")], TOGGLE_AAG.to_vec()),
            (vec![("deadline_ms", "soon")], TOGGLE_AAG.to_vec()),
        ] {
            let response = route(&shared, &post("/v1/embed", &query, &body));
            assert_eq!(response.status, 400, "{query:?}");
            let body = String::from_utf8(response.body).expect("json");
            assert!(body.starts_with("{\"error\":"), "{body}");
        }
    }

    #[test]
    fn zero_deadline_expires_with_504() {
        let shared = shared();
        let response = route(
            &shared,
            &post("/v1/embed", &[("deadline_ms", "0")], TOGGLE_AAG),
        );
        assert_eq!(response.status, 504);
        assert_eq!(shared.metrics.deadline_expired.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn health_metrics_and_unknown_routes() {
        let shared = shared();
        let health = route(&shared, &get("/healthz"));
        assert_eq!(health.status, 200);
        assert!(String::from_utf8(health.body)
            .unwrap()
            .contains("\"draining\":false"));

        // Serve one circuit so the cache counters are nonzero.
        route(&shared, &post("/v1/embed", &[], TOGGLE_AAG));
        let metrics = route(&shared, &get("/metrics"));
        assert_eq!(metrics.status, 200);
        let text = String::from_utf8(metrics.body).unwrap();
        assert!(text.contains("deepseq_cache_hit_ratio"), "{text}");
        assert!(text.contains("deepseq_cone_hits_total"), "{text}");
        assert!(text.contains("deepseq_cache_misses_total 1"), "{text}");
        assert!(text.contains("deepseq_degraded 0"), "{text}");
        assert!(
            text.contains("deepseq_http_request_duration_seconds_bucket"),
            "{text}"
        );

        assert_eq!(route(&shared, &get("/nope")).status, 404);
        assert_eq!(route(&shared, &get("/v1/embed")).status, 405);
    }

    #[test]
    fn draining_rejects_embeds_with_503() {
        let shared = shared();
        shared.request_drain();
        let response = route(&shared, &post("/v1/embed", &[], TOGGLE_AAG));
        assert_eq!(response.status, 503);
        assert!(response.close);
        let health = route(&shared, &get("/healthz"));
        assert!(String::from_utf8(health.body)
            .unwrap()
            .contains("\"draining\":true"));
    }

    #[test]
    fn degraded_mode_serves_hits_and_sheds_misses() {
        let shared = shared();
        // Populate the cache while healthy.
        let warm = route(&shared, &post("/v1/embed", &[("id", "1")], TOGGLE_AAG));
        assert_eq!(warm.status, 200);

        let degrade = route(&shared, &post("/admin/degrade", &[], b""));
        assert_eq!(degrade.status, 200);
        assert!(shared.is_degraded());

        // Hit: still served, marked as a cache hit.
        let hit = route(&shared, &post("/v1/embed", &[("id", "2")], TOGGLE_AAG));
        assert_eq!(hit.status, 200);
        let body = String::from_utf8(hit.body).unwrap();
        assert!(body.contains("\"cache_hit\":true"), "{body}");

        // Miss: shed with 503 + Retry-After, counted.
        let miss = route(&shared, &post("/v1/embed", &[("seed", "99")], TOGGLE_AAG));
        assert_eq!(miss.status, 503);
        assert!(miss
            .extra_headers
            .iter()
            .any(|(name, _)| name == "retry-after"));
        let body = String::from_utf8(miss.body).unwrap();
        assert!(body.starts_with("{\"error\":"), "{body}");
        assert_eq!(shared.metrics.rejected_degraded.load(Ordering::Relaxed), 1);

        // Recovery: mode=off restores full service.
        let restore = route(&shared, &post("/admin/degrade", &[("mode", "off")], b""));
        assert_eq!(restore.status, 200);
        assert!(!shared.is_degraded());
        let served = route(&shared, &post("/v1/embed", &[("seed", "99")], TOGGLE_AAG));
        assert_eq!(served.status, 200);
    }

    #[test]
    fn degrade_rejects_unknown_modes() {
        let shared = shared();
        let response = route(&shared, &post("/admin/degrade", &[("mode", "maybe")], b""));
        assert_eq!(response.status, 400);
        assert!(!shared.is_degraded());
    }

    #[test]
    fn healthz_splits_liveness_from_readiness() {
        let shared = shared();
        // Healthy: both views 200 and ready.
        let live = route(&shared, &get("/healthz"));
        assert_eq!(live.status, 200);
        assert!(String::from_utf8(live.body)
            .unwrap()
            .contains("\"ready\":true"));

        shared.set_degraded(true);
        // Liveness stays 200 (the process is fine) …
        let live = route(&shared, &get("/healthz"));
        assert_eq!(live.status, 200);
        let body = String::from_utf8(live.body).unwrap();
        assert!(body.contains("\"ready\":false"), "{body}");
        assert!(body.contains("\"degraded\":true"), "{body}");
        // … while the readiness probe reports 503.
        let ready = route(
            &shared,
            &HttpRequest {
                method: "GET".into(),
                path: "/healthz".into(),
                query: vec![("ready".into(), "1".into())],
                headers: Vec::new(),
                body: Vec::new(),
            },
        );
        assert_eq!(ready.status, 503);
    }

    #[test]
    fn sustained_queue_saturation_trips_degraded_mode() {
        let shared = shared_with(ServerOptions {
            saturation_trip: 3,
            ..ServerOptions::default()
        });
        shared.note_queue_full();
        shared.note_queue_full();
        assert!(!shared.is_degraded());
        // An admission in between resets the streak.
        shared.note_admitted();
        shared.note_queue_full();
        shared.note_queue_full();
        assert!(!shared.is_degraded());
        shared.note_queue_full();
        assert!(shared.is_degraded());
        // Clearing degraded mode also clears the streak.
        shared.set_degraded(false);
        shared.note_queue_full();
        assert!(!shared.is_degraded());
    }

    #[test]
    fn reload_without_checkpoint_answers_409() {
        let shared = shared();
        let response = route(&shared, &post("/admin/reload", &[], b""));
        assert_eq!(response.status, 409);
        assert!(!shared.is_degraded());
    }

    #[test]
    fn failed_reload_degrades_and_successful_reload_recovers() {
        let dir = std::env::temp_dir().join(format!("deepseq-reload-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("model.dsqm");
        let model = DeepSeq::new(DeepSeqConfig {
            hidden_dim: 8,
            iterations: 2,
            ..DeepSeqConfig::default()
        });
        std::fs::write(&path, model.save_binary()).expect("write checkpoint");

        let shared = shared_with(ServerOptions {
            checkpoint_path: Some(path.to_string_lossy().into_owned()),
            ..ServerOptions::default()
        });
        // Good checkpoint: reload succeeds, stays healthy.
        let ok = route(&shared, &post("/admin/reload", &[], b""));
        assert_eq!(ok.status, 200, "{:?}", String::from_utf8(ok.body));
        assert!(!shared.is_degraded());

        // Corrupt the checkpoint (single bit flip in the body): reload
        // fails with the CRC guard and the server degrades.
        let mut bytes = std::fs::read(&path).expect("read checkpoint");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(&path, &bytes).expect("rewrite checkpoint");
        let bad = route(&shared, &post("/admin/reload", &[], b""));
        assert_eq!(bad.status, 500);
        assert!(shared.is_degraded());
        let body = String::from_utf8(bad.body).unwrap();
        assert!(body.starts_with("{\"error\":"), "{body}");

        // Restore the file: the next reload succeeds and clears degraded.
        bytes[mid] ^= 0x10;
        std::fs::write(&path, &bytes).expect("restore checkpoint");
        let ok = route(&shared, &post("/admin/reload", &[], b""));
        assert_eq!(ok.status, 200);
        assert!(!shared.is_degraded());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn connections_past_the_cap_get_503_and_close() {
        use std::io::Read;
        let shared = shared();
        let open = &shared.metrics.connections_open;
        open.store(MAX_CONNECTIONS, Ordering::Relaxed);
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let mut client = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (stream, _peer) = listener.accept().expect("accept");
        open_connection(stream, &shared);
        client
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");
        // Reading to EOF proves the server closed the socket.
        let mut raw = String::new();
        client.read_to_string(&mut raw).expect("503, then EOF");
        assert!(raw.starts_with("HTTP/1.1 503 "), "{raw}");
        assert!(raw.contains("connection: close\r\n"), "{raw}");
        assert_eq!(open.load(Ordering::Relaxed), MAX_CONNECTIONS);
        assert_eq!(shared.metrics.responses_5xx.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn admission_gate_overflows_and_releases() {
        let metrics = Metrics::default();
        let admission = Admission::new();
        let deadline = Instant::now() + Duration::from_secs(5);
        // Fill both slots, then the 1-deep queue, then overflow.
        assert!(matches!(
            admission.acquire(2, 1, deadline, &metrics),
            Admit::Go
        ));
        assert!(matches!(
            admission.acquire(2, 1, deadline, &metrics),
            Admit::Go
        ));
        let short = Instant::now() + Duration::from_millis(30);
        assert!(matches!(
            admission.acquire(2, 0, short, &metrics),
            Admit::QueueFull
        ));
        // A queued request whose deadline passes reports expiry.
        assert!(matches!(
            admission.acquire(2, 1, short, &metrics),
            Admit::DeadlineExpired
        ));
        admission.release(&metrics);
        admission.release(&metrics);
        assert!(admission.is_empty());
        assert_eq!(metrics.in_flight.load(Ordering::Relaxed), 0);
    }
}
