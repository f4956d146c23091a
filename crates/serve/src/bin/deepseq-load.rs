//! `deepseq-load` — a std-only load client for the `deepseq-serve` HTTP
//! endpoint.
//!
//! ```text
//! deepseq-load --addr 127.0.0.1:8184 [--requests 64] [--concurrency 16]
//!              [--distinct 8] [--no-keepalive] [--drain]
//! ```
//!
//! Fires `--requests` embed requests at the server from `--concurrency`
//! client threads, cycling through `--distinct` generated circuits (so the
//! run exercises both the cache-miss and cache-hit paths), then scrapes
//! `/metrics` and verifies the `deepseq_cache_hit_ratio` gauge parses as a
//! float. Exits nonzero if any request fails, any response is non-2xx, or
//! the metrics contract is violated — CI's `serve-e2e` job is built on
//! exactly that exit code. `--drain` finally POSTs `/admin/drain` so a
//! scripted server process shuts down cleanly.
//!
//! Each client thread holds **one persistent keep-alive connection** and
//! frames responses by `content-length`, reconnecting transparently if the
//! server closed an idle socket — so a C-thread run probes C accept cycles
//! and N request/response exchanges, like a real pooled client would.
//! `--no-keepalive` restores the old one-connection-per-request behaviour
//! for exercising the accept path itself.
//!
//! When the server runs with tracing enabled (`--trace-out` /
//! `DEEPSEQ_TRACE`), the run finishes by scraping `GET /debug/trace` and
//! printing the server-side per-stage latency summary (count, p50, p95 per
//! pipeline stage); without tracing that endpoint answers 404 and the
//! summary is silently skipped.

#![forbid(unsafe_code)]

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use deepseq_netlist::{write_aiger, SeqAig};

const USAGE: &str = "deepseq-load — std-only load client for deepseq-serve

USAGE:
    deepseq-load --addr <HOST:PORT> [OPTIONS]

OPTIONS:
    --requests <N>     total embed requests to fire (default 64)
    --concurrency <C>  client threads firing them (default 16)
    --distinct <D>     distinct circuits to cycle through (default 8;
                       repeats exercise the server-side cone memo)
    --no-keepalive     open a fresh connection per request instead of one
                       persistent connection per thread
    --retries <N>      retry transport failures and 429/500/503/504 up to N
                       times per request, sleeping exponential backoff with
                       decorrelated jitter in between (default 0)
    --hedge-after <MS> fire a second identical request on a fresh connection
                       if the first hasn't answered after MS, and take the
                       first completion (default: off)
    --drain            POST /admin/drain after the run
";

struct Args {
    addr: String,
    requests: usize,
    concurrency: usize,
    distinct: usize,
    keepalive: bool,
    retries: usize,
    hedge_after: Option<Duration>,
    drain: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut out = Args {
        addr: String::new(),
        requests: 64,
        concurrency: 16,
        distinct: 8,
        keepalive: true,
        retries: 0,
        hedge_after: None,
        drain: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| -> Result<&String, String> {
            it.next().ok_or(format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--addr" => out.addr = value("--addr")?.clone(),
            "--requests" => out.requests = parse_num(value("--requests")?, "--requests")?.max(1),
            "--concurrency" => {
                out.concurrency = parse_num(value("--concurrency")?, "--concurrency")?.max(1)
            }
            "--distinct" => out.distinct = parse_num(value("--distinct")?, "--distinct")?.max(1),
            "--no-keepalive" => out.keepalive = false,
            "--retries" => out.retries = parse_num(value("--retries")?, "--retries")?,
            "--hedge-after" => {
                let ms = parse_num(value("--hedge-after")?, "--hedge-after")?;
                out.hedge_after = Some(Duration::from_millis(ms as u64));
            }
            "--drain" => out.drain = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown option `{other}`\n\n{USAGE}")),
        }
    }
    if out.addr.is_empty() {
        return Err(format!("--addr is required\n\n{USAGE}"));
    }
    Ok(out)
}

fn parse_num(s: &str, name: &str) -> Result<usize, String> {
    s.parse().map_err(|_| format!("{name} needs an integer"))
}

/// A parsed HTTP response: status code and body.
struct Response {
    status: u16,
    body: String,
}

/// A client connection that survives across requests. Responses are framed
/// by `content-length`, so the socket stays usable for the next exchange;
/// a server-side `connection: close` (or any read/write error on a reused
/// socket) drops the stream and the next exchange reconnects.
struct Client {
    addr: String,
    stream: Option<BufReader<TcpStream>>,
    keepalive: bool,
    /// Connections opened over this client's lifetime.
    connects: usize,
}

impl Client {
    fn new(addr: &str, keepalive: bool) -> Self {
        Client {
            addr: addr.to_string(),
            stream: None,
            keepalive,
            connects: 0,
        }
    }

    /// One HTTP/1.1 exchange, reusing the pooled connection when possible.
    /// A failed attempt on a *reused* socket is retried once on a fresh
    /// connection — the server is allowed to close an idle keep-alive
    /// socket at any time, and that race is not a request failure.
    fn exchange(&mut self, method: &str, path: &str, body: &[u8]) -> Result<Response, String> {
        let reused = self.stream.is_some();
        match self.try_exchange(method, path, body) {
            Err(_) if reused => {
                self.stream = None;
                self.try_exchange(method, path, body)
            }
            outcome => outcome,
        }
    }

    fn try_exchange(&mut self, method: &str, path: &str, body: &[u8]) -> Result<Response, String> {
        if self.stream.is_none() {
            let stream = TcpStream::connect(&self.addr)
                .map_err(|e| format!("connect {}: {e}", self.addr))?;
            stream
                .set_read_timeout(Some(Duration::from_secs(60)))
                .map_err(|e| e.to_string())?;
            self.connects += 1;
            self.stream = Some(BufReader::new(stream));
        }
        let reader = self.stream.as_mut().expect("connected above");
        let connection = if self.keepalive {
            "keep-alive"
        } else {
            "close"
        };
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: {}\r\nConnection: {connection}\r\nContent-Length: {}\r\n\r\n",
            self.addr,
            body.len()
        );
        let send = reader
            .get_mut()
            .write_all(head.as_bytes())
            .and_then(|()| reader.get_mut().write_all(body));
        if let Err(e) = send {
            self.stream = None;
            return Err(format!("send {path}: {e}"));
        }
        match read_response(reader, path) {
            Ok((response, server_closes)) => {
                if server_closes || !self.keepalive {
                    self.stream = None;
                }
                Ok(response)
            }
            Err(e) => {
                self.stream = None;
                Err(e)
            }
        }
    }
}

/// Reads one `content-length`-framed response off the stream, leaving the
/// stream positioned at the next response. Returns the response and
/// whether the server announced `connection: close`.
fn read_response(
    reader: &mut BufReader<TcpStream>,
    path: &str,
) -> Result<(Response, bool), String> {
    let mut status = 0u16;
    let mut content_length: Option<usize> = None;
    let mut server_closes = false;
    let mut line = String::new();
    loop {
        line.clear();
        let n = reader
            .read_line(&mut line)
            .map_err(|e| format!("read {path}: {e}"))?;
        if n == 0 {
            return Err(format!("read {path}: connection closed mid-response"));
        }
        let trimmed = line.trim_end_matches(['\r', '\n']);
        if status == 0 {
            status = trimmed
                .split(' ')
                .nth(1)
                .and_then(|code| code.parse().ok())
                .ok_or(format!("malformed status line for {path}: {trimmed:.120}"))?;
            continue;
        }
        if trimmed.is_empty() {
            break; // end of headers
        }
        if let Some((name, value)) = trimmed.split_once(':') {
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                content_length = Some(
                    value
                        .parse()
                        .map_err(|_| format!("bad content-length for {path}: {value}"))?,
                );
            } else if name.eq_ignore_ascii_case("connection") {
                server_closes = value.eq_ignore_ascii_case("close");
            }
        }
    }
    let body = match content_length {
        Some(len) => {
            let mut raw = vec![0u8; len];
            reader
                .read_exact(&mut raw)
                .map_err(|e| format!("read body {path}: {e}"))?;
            String::from_utf8_lossy(&raw).into_owned()
        }
        None => {
            // No content-length: the connection is the frame (close-delimited).
            let mut raw = Vec::new();
            reader
                .read_to_end(&mut raw)
                .map_err(|e| format!("read body {path}: {e}"))?;
            server_closes = true;
            String::from_utf8_lossy(&raw).into_owned()
        }
    };
    Ok((Response { status, body }, server_closes))
}

/// splitmix64: the jitter source for retry backoff. Self-contained so the
/// client stays std-only.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Exponential backoff with decorrelated jitter: each delay is drawn
/// uniformly from `[base, prev * 3]`, capped — successive retries spread
/// out *and* desynchronise across clients, avoiding retry stampedes.
struct Backoff {
    state: u64,
    prev_ms: u64,
}

const BACKOFF_BASE_MS: u64 = 25;
const BACKOFF_CAP_MS: u64 = 2_000;

impl Backoff {
    fn new(seed: u64) -> Backoff {
        Backoff {
            state: seed,
            prev_ms: BACKOFF_BASE_MS,
        }
    }

    fn next_delay(&mut self) -> Duration {
        let upper = (self.prev_ms.saturating_mul(3)).clamp(BACKOFF_BASE_MS + 1, BACKOFF_CAP_MS);
        let span = upper - BACKOFF_BASE_MS;
        let ms = BACKOFF_BASE_MS + splitmix64(&mut self.state) % (span + 1);
        self.prev_ms = ms;
        Duration::from_millis(ms)
    }
}

/// Reliability counters of one load run.
#[derive(Default)]
struct RetryStats {
    /// Retry attempts fired (beyond each request's first attempt).
    retries: AtomicUsize,
    /// Hedge requests fired (primary exceeded --hedge-after).
    hedges: AtomicUsize,
    /// Requests whose accepted answer came from the hedge, not the primary.
    hedge_wins: AtomicUsize,
}

/// True for outcomes worth retrying: transport failures and the statuses a
/// fault-injected or saturated server answers (429 backpressure, 500 caught
/// panic, 503 degraded/draining, 504 deadline).
fn is_retryable(outcome: &Result<Response, String>) -> bool {
    match outcome {
        Err(_) => true,
        Ok(response) => matches!(response.status, 429 | 500 | 503 | 504),
    }
}

/// One request attempt: the pooled exchange, or — when hedging — the
/// primary plus at most one hedge on fresh connections, first completion
/// wins (a failed first completion still waits for the straggler).
fn send_once(
    client: &mut Client,
    addr: &str,
    path: &str,
    body: &[u8],
    hedge_after: Option<Duration>,
    stats: &RetryStats,
) -> Result<Response, String> {
    let Some(hedge_delay) = hedge_after else {
        return client.exchange("POST", path, body);
    };
    // Hedged attempts each get a one-shot connection: the answer may come
    // from either socket, so neither can be pooled for reuse.
    let (tx, rx) = mpsc::channel::<(u8, Result<Response, String>)>();
    let spawn_attempt = |tag: u8| {
        let addr = addr.to_string();
        let path = path.to_string();
        let body = body.to_vec();
        let tx = tx.clone();
        std::thread::spawn(move || {
            let mut one_shot = Client::new(&addr, false);
            let _ = tx.send((tag, one_shot.exchange("POST", &path, &body)));
        });
    };
    spawn_attempt(0);
    let mut in_flight = 1usize;
    let (first_tag, first) = match rx.recv_timeout(hedge_delay) {
        Ok(completion) => completion,
        Err(mpsc::RecvTimeoutError::Timeout) => {
            stats.hedges.fetch_add(1, Ordering::Relaxed);
            spawn_attempt(1);
            in_flight += 1;
            match rx.recv() {
                Ok(completion) => completion,
                Err(_) => return Err("hedged request: no attempt completed".to_string()),
            }
        }
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            return Err("hedged request: attempt thread died".to_string())
        }
    };
    in_flight -= 1;
    let first_ok = matches!(&first, Ok(r) if (200..300).contains(&r.status));
    if first_ok || in_flight == 0 {
        if first_ok && first_tag == 1 {
            stats.hedge_wins.fetch_add(1, Ordering::Relaxed);
        }
        return first;
    }
    // The first completion failed and the other attempt is still running:
    // its answer may yet save the request.
    match rx.recv() {
        Ok((tag, second)) if matches!(&second, Ok(r) if (200..300).contains(&r.status)) => {
            if tag == 1 {
                stats.hedge_wins.fetch_add(1, Ordering::Relaxed);
            }
            second
        }
        _ => first,
    }
}

/// Generates the `index`-th distinct workload circuit: a `3 + index`-bit
/// ripple counter with an enable PI — sequential depth, a few ANDs, and a
/// different structural hash per index.
fn counter_circuit(index: usize) -> String {
    let bits = 3 + index;
    let mut aig = SeqAig::new(format!("counter{bits}"));
    let enable = aig.add_pi("enable");
    let ffs: Vec<_> = (0..bits)
        .map(|b| aig.add_ff(format!("q{b}"), b % 2 == 0))
        .collect();
    let mut carry = enable;
    for (b, &ff) in ffs.iter().enumerate() {
        // next = q XOR carry; carry = q AND carry.
        let nq = aig.add_not(ff);
        let ncarry = aig.add_not(carry);
        let l = aig.add_and(ff, ncarry);
        let r = aig.add_and(nq, carry);
        let nl = aig.add_not(l);
        let nr = aig.add_not(r);
        let nxor = aig.add_and(nl, nr);
        let next = aig.add_not(nxor);
        let new_carry = aig.add_and(ff, carry);
        aig.connect_ff(ff, next).expect("ff wiring");
        aig.set_output(ff, format!("count{b}"));
        carry = new_carry;
    }
    write_aiger(&aig)
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(1)
        }
    }
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let circuits: Arc<Vec<String>> = Arc::new((0..args.distinct).map(counter_circuit).collect());

    // Fire the embed load: a shared ticket counter fans args.requests
    // requests out over args.concurrency threads, each holding one pooled
    // connection.
    let next = Arc::new(AtomicUsize::new(0));
    let failures = Arc::new(AtomicUsize::new(0));
    let connects = Arc::new(AtomicUsize::new(0));
    let stats = Arc::new(RetryStats::default());
    let started = Instant::now();
    let threads: Vec<_> = (0..args.concurrency)
        .map(|worker| {
            let addr = args.addr.clone();
            let circuits = Arc::clone(&circuits);
            let next = Arc::clone(&next);
            let failures = Arc::clone(&failures);
            let connects = Arc::clone(&connects);
            let stats = Arc::clone(&stats);
            let total = args.requests;
            let keepalive = args.keepalive;
            let retries = args.retries;
            let hedge_after = args.hedge_after;
            std::thread::spawn(move || {
                let mut client = Client::new(&addr, keepalive);
                let mut backoff = Backoff::new(0x6c0a_dc11 ^ (worker as u64) << 32);
                loop {
                    let ticket = next.fetch_add(1, Ordering::Relaxed);
                    if ticket >= total {
                        connects.fetch_add(client.connects, Ordering::Relaxed);
                        return;
                    }
                    let circuit = &circuits[ticket % circuits.len()];
                    let path = format!("/v1/embed?id={ticket}&summary=1");
                    let mut outcome = send_once(
                        &mut client,
                        &addr,
                        &path,
                        circuit.as_bytes(),
                        hedge_after,
                        &stats,
                    );
                    for _attempt in 0..retries {
                        if !is_retryable(&outcome) {
                            break;
                        }
                        stats.retries.fetch_add(1, Ordering::Relaxed);
                        std::thread::sleep(backoff.next_delay());
                        outcome = send_once(
                            &mut client,
                            &addr,
                            &path,
                            circuit.as_bytes(),
                            hedge_after,
                            &stats,
                        );
                    }
                    match outcome {
                        Ok(response) if (200..300).contains(&response.status) => {}
                        Ok(response) => {
                            failures.fetch_add(1, Ordering::Relaxed);
                            eprintln!(
                                "request {ticket}: status {} body {:.200}",
                                response.status, response.body
                            );
                        }
                        Err(e) => {
                            failures.fetch_add(1, Ordering::Relaxed);
                            eprintln!("request {ticket}: {e}");
                        }
                    }
                }
            })
        })
        .collect();
    for thread in threads {
        thread.join().map_err(|_| "client thread panicked")?;
    }
    let elapsed = started.elapsed();
    let failed = failures.load(Ordering::Relaxed);
    println!(
        "{} requests in {:.3}s ({:.1} req/s), {} failed, {} connections, \
         {} retries, {} hedges ({} won by hedge)",
        args.requests,
        elapsed.as_secs_f64(),
        args.requests as f64 / elapsed.as_secs_f64().max(1e-9),
        failed,
        connects.load(Ordering::Relaxed),
        stats.retries.load(Ordering::Relaxed),
        stats.hedges.load(Ordering::Relaxed),
        stats.hedge_wins.load(Ordering::Relaxed)
    );
    if failed > 0 {
        return Err(format!("{failed} of {} requests failed", args.requests));
    }

    let mut client = Client::new(&args.addr, args.keepalive);

    // Scrape /metrics and hold the server to its contract: the cache
    // hit-rate gauge must be present and parse as a float.
    let metrics = client.exchange("GET", "/metrics", b"")?;
    if metrics.status != 200 {
        return Err(format!("/metrics answered {}", metrics.status));
    }
    let hit_ratio: f64 = metrics
        .body
        .lines()
        .find_map(|line| line.strip_prefix("deepseq_cache_hit_ratio "))
        .ok_or("deepseq_cache_hit_ratio missing from /metrics")?
        .trim()
        .parse()
        .map_err(|e| format!("deepseq_cache_hit_ratio does not parse as f64: {e}"))?;
    println!("cache hit ratio: {hit_ratio:.3}");

    // If the server traces, print its per-stage latency summary; a 404
    // just means tracing is off over there.
    let trace = client.exchange("GET", "/debug/trace", b"")?;
    if trace.status == 200 {
        print_stage_summary(&trace.body);
    }

    if args.drain {
        let drain = client.exchange("POST", "/admin/drain", b"")?;
        if drain.status != 200 {
            return Err(format!("/admin/drain answered {}", drain.status));
        }
        println!("drain requested");
    }
    Ok(())
}

/// Prints the non-empty stages of a `/debug/trace` stage summary
/// (`{"dropped_spans":N,"stages":[{"stage":...,"count":...,...}]}`) as an
/// aligned table. The parse is deliberately shallow — pull each
/// `{...}` stage object apart by its known keys.
fn print_stage_summary(body: &str) {
    println!("server per-stage latency (from /debug/trace):");
    println!(
        "  {:<12} {:>8} {:>12} {:>12}",
        "stage", "count", "p50", "p95"
    );
    for object in body.split("{\"stage\":\"").skip(1) {
        let Some(stage) = object.split('"').next() else {
            continue;
        };
        let field = |key: &str| -> Option<f64> {
            let tail = object.split(&format!("\"{key}\":")).nth(1)?;
            tail.split([',', '}']).next()?.parse().ok()
        };
        let count = field("count").unwrap_or(0.0);
        if count == 0.0 {
            continue;
        }
        let ms = |key| field(key).map_or_else(|| "?".into(), |s| format!("{:.3}ms", s * 1e3));
        println!(
            "  {:<12} {:>8} {:>12} {:>12}",
            stage,
            count as u64,
            ms("p50_s"),
            ms("p95_s")
        );
    }
    if let Some(dropped) = body
        .split("\"dropped_spans\":")
        .nth(1)
        .and_then(|t| t.split(',').next())
        .and_then(|t| t.parse::<u64>().ok())
    {
        if dropped > 0 {
            println!("  ({dropped} spans dropped server-side; rings overflowed)");
        }
    }
}
