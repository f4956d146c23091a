//! Serving metrics: counters, gauges, latency histograms, and the
//! `/metrics` text exposition.
//!
//! Everything is lock-free atomics so the hot path (one histogram insert +
//! a few counter bumps per request) costs nanoseconds, and a scrape never
//! blocks a request. The exposition follows the Prometheus text format
//! (`# TYPE` lines, `_bucket{le="…"}` cumulative histograms), which any
//! scraper — and the `serve-e2e` CI load client — can parse line by line
//! without a client library.
//!
//! The registry deliberately includes [`config_warning_count`]
//! (re-exported from [`deepseq_nn::config`]): the `DEEPSEQ_THREADS` /
//! `DEEPSEQ_KERNEL` warn-once stderr messages also surface here as a
//! `deepseq_config_warnings_total` counter, so a misconfigured deployment
//! is visible in a scrape (and in CI logs) instead of a scrolled-away log
//! line.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use deepseq_nn::trace::{StageStats, STAGE_BUCKET_BOUNDS_NS};
use deepseq_nn::PoolStats;

use crate::cache::CacheStats;

pub use deepseq_nn::warning_count as config_warning_count;

/// Upper bounds (seconds) of the histogram buckets, `+Inf` implied.
/// Spans 100 µs (cache hits) to 10 s (huge circuits on a loaded box).
pub const LATENCY_BUCKETS: [f64; 14] = [
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5,
];

/// A fixed-bucket cumulative latency histogram (atomic, insert-only).
#[derive(Debug, Default)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; LATENCY_BUCKETS.len()],
    count: AtomicU64,
    /// Sum in nanoseconds (u64 wraps after ~584 years of accumulated
    /// latency; acceptable).
    sum_nanos: AtomicU64,
}

impl LatencyHistogram {
    /// Records one observation.
    pub fn observe(&self, latency: Duration) {
        let seconds = latency.as_secs_f64();
        for (bound, bucket) in LATENCY_BUCKETS.iter().zip(&self.buckets) {
            if seconds <= *bound {
                bucket.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_nanos
            .fetch_add(latency.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Renders the histogram in Prometheus text format under `name`.
    fn render(&self, out: &mut String, name: &str) {
        let _ = writeln!(out, "# TYPE {name} histogram");
        for (bound, bucket) in LATENCY_BUCKETS.iter().zip(&self.buckets) {
            let _ = writeln!(
                out,
                "{name}_bucket{{le=\"{bound}\"}} {}",
                bucket.load(Ordering::Relaxed)
            );
        }
        let count = self.count.load(Ordering::Relaxed);
        let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {count}");
        let sum = self.sum_nanos.load(Ordering::Relaxed) as f64 / 1e9;
        let _ = writeln!(out, "{name}_sum {sum}");
        let _ = writeln!(out, "{name}_count {count}");
    }
}

/// The server-wide metrics registry (shared by `Arc`).
#[derive(Debug, Default)]
pub struct Metrics {
    /// Connections accepted since start.
    pub connections_total: AtomicU64,
    /// Connections currently open.
    pub connections_open: AtomicU64,
    /// Requests read, by endpoint.
    pub requests_embed: AtomicU64,
    /// `/healthz` requests.
    pub requests_healthz: AtomicU64,
    /// `/metrics` requests.
    pub requests_metrics: AtomicU64,
    /// Requests to any other path/method (404/405/…).
    pub requests_other: AtomicU64,
    /// Responses by status class.
    pub responses_2xx: AtomicU64,
    /// 4xx responses (including 429s, counted separately below too).
    pub responses_4xx: AtomicU64,
    /// 5xx responses (including 504s, counted separately below too).
    pub responses_5xx: AtomicU64,
    /// Requests rejected because the admission queue was full (429).
    pub rejected_queue_full: AtomicU64,
    /// Requests whose deadline expired before/at processing (504).
    pub deadline_expired: AtomicU64,
    /// Requests rejected during drain (503).
    pub rejected_draining: AtomicU64,
    /// Embed cache-misses shed with 503 while degraded.
    pub rejected_degraded: AtomicU64,
    /// Embed requests currently waiting for an admission slot (gauge).
    pub queue_depth: AtomicU64,
    /// Embed requests currently holding an admission slot (gauge).
    pub in_flight: AtomicU64,
    /// End-to-end time per embed request: admission wait + parse + engine.
    pub request_latency: LatencyHistogram,
    /// Engine processing time per served request (from the engine's
    /// served-hook, so it covers cache hits and misses alike).
    pub engine_latency: LatencyHistogram,
}

impl Metrics {
    /// Counts a response's status class.
    pub fn count_status(&self, status: u16) {
        let counter = match status {
            200..=299 => &self.responses_2xx,
            400..=499 => &self.responses_4xx,
            _ => &self.responses_5xx,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Renders the registry (plus the embedding-cache and cone-memo
    /// counters, the pool's scheduler counters, the per-stage span
    /// histograms, the process-wide config-warning / caught-panic /
    /// injected-fault counts) in Prometheus text format.
    pub fn render(
        &self,
        cache: &CacheStats,
        cones: &CacheStats,
        pool: &PoolStats,
        draining: bool,
        degraded: bool,
    ) -> String {
        let mut out = String::with_capacity(2048);
        let counter = |out: &mut String, name: &str, help: &str, value: u64| {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {value}");
        };
        let gauge = |out: &mut String, name: &str, help: &str, value: f64| {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} gauge");
            let _ = writeln!(out, "{name} {value}");
        };
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);

        counter(
            &mut out,
            "deepseq_connections_total",
            "Connections accepted since start.",
            load(&self.connections_total),
        );
        gauge(
            &mut out,
            "deepseq_connections_open",
            "Connections currently open.",
            load(&self.connections_open) as f64,
        );
        for (name, help, value) in [
            (
                "deepseq_requests_total{endpoint=\"embed\"}",
                "deepseq_requests_total",
                load(&self.requests_embed),
            ),
            (
                "deepseq_requests_total{endpoint=\"healthz\"}",
                "",
                load(&self.requests_healthz),
            ),
            (
                "deepseq_requests_total{endpoint=\"metrics\"}",
                "",
                load(&self.requests_metrics),
            ),
            (
                "deepseq_requests_total{endpoint=\"other\"}",
                "",
                load(&self.requests_other),
            ),
        ] {
            if !help.is_empty() {
                let _ = writeln!(out, "# HELP {help} Requests read, by endpoint.");
                let _ = writeln!(out, "# TYPE {help} counter");
            }
            let _ = writeln!(out, "{name} {value}");
        }
        for (label, value) in [
            ("2xx", load(&self.responses_2xx)),
            ("4xx", load(&self.responses_4xx)),
            ("5xx", load(&self.responses_5xx)),
        ] {
            if label == "2xx" {
                let _ = writeln!(
                    out,
                    "# HELP deepseq_responses_total Responses by status class."
                );
                let _ = writeln!(out, "# TYPE deepseq_responses_total counter");
            }
            let _ = writeln!(out, "deepseq_responses_total{{class=\"{label}\"}} {value}");
        }
        counter(
            &mut out,
            "deepseq_rejected_queue_full_total",
            "Embed requests rejected with 429 (admission queue full).",
            load(&self.rejected_queue_full),
        );
        counter(
            &mut out,
            "deepseq_deadline_expired_total",
            "Embed requests rejected with 504 (deadline expired).",
            load(&self.deadline_expired),
        );
        counter(
            &mut out,
            "deepseq_rejected_draining_total",
            "Embed requests rejected with 503 (server draining).",
            load(&self.rejected_draining),
        );
        counter(
            &mut out,
            "deepseq_rejected_degraded_total",
            "Embed cache-misses shed with 503 while degraded.",
            load(&self.rejected_degraded),
        );
        gauge(
            &mut out,
            "deepseq_queue_depth",
            "Embed requests waiting for an admission slot.",
            load(&self.queue_depth) as f64,
        );
        gauge(
            &mut out,
            "deepseq_in_flight",
            "Embed requests currently being processed.",
            load(&self.in_flight) as f64,
        );
        gauge(
            &mut out,
            "deepseq_draining",
            "1 while the server is draining, else 0.",
            if draining { 1.0 } else { 0.0 },
        );
        gauge(
            &mut out,
            "deepseq_degraded",
            "1 while the server is in degraded (cache-only) mode, else 0.",
            if degraded { 1.0 } else { 0.0 },
        );

        counter(
            &mut out,
            "deepseq_cache_hits_total",
            "Embedding-cache hits.",
            cache.hits,
        );
        counter(
            &mut out,
            "deepseq_cache_misses_total",
            "Embedding-cache misses.",
            cache.misses,
        );
        counter(
            &mut out,
            "deepseq_cache_evictions_total",
            "Embedding-cache evictions.",
            cache.evictions,
        );
        gauge(
            &mut out,
            "deepseq_cache_entries",
            "Embedding-cache resident entries.",
            cache.entries as f64,
        );
        gauge(
            &mut out,
            "deepseq_cache_capacity",
            "Embedding-cache capacity.",
            cache.capacity as f64,
        );
        gauge(
            &mut out,
            "deepseq_cache_hit_ratio",
            "Embedding-cache hit ratio in [0, 1] (0 before any lookup).",
            cache.hit_ratio(),
        );

        counter(
            &mut out,
            "deepseq_cone_hits_total",
            "Cone-memo hits (fanin-cone states reused across requests).",
            cones.hits,
        );
        counter(
            &mut out,
            "deepseq_cone_misses_total",
            "Cone-memo misses (cones recomputed).",
            cones.misses,
        );
        counter(
            &mut out,
            "deepseq_cone_evictions_total",
            "Cone-memo evictions.",
            cones.evictions,
        );
        gauge(
            &mut out,
            "deepseq_cone_entries",
            "Cone-memo resident entries.",
            cones.entries as f64,
        );
        gauge(
            &mut out,
            "deepseq_cone_capacity",
            "Cone-memo capacity (0 disables cone reuse).",
            cones.capacity as f64,
        );
        gauge(
            &mut out,
            "deepseq_cone_hit_ratio",
            "Cone-memo hit ratio in [0, 1] (0 before any lookup).",
            cones.hit_ratio(),
        );

        gauge(
            &mut out,
            "deepseq_pool_threads",
            "Worker-pool parallelism (workers + caller).",
            pool.threads as f64,
        );
        counter(
            &mut out,
            "deepseq_pool_steals_total",
            "Pool jobs dequeued from another worker's queue.",
            pool.steals,
        );
        counter(
            &mut out,
            "deepseq_pool_parks_total",
            "Times a pool worker parked on the idle condvar.",
            pool.parks,
        );
        counter(
            &mut out,
            "deepseq_pool_wakeups_total",
            "Parked pool workers woken by a job notification.",
            pool.wakeups,
        );

        counter(
            &mut out,
            "deepseq_config_warnings_total",
            "Configuration warnings (DEEPSEQ_THREADS / DEEPSEQ_KERNEL) since start.",
            config_warning_count(),
        );
        counter(
            &mut out,
            "deepseq_panics_caught_total",
            "Worker-task panics caught at the engine boundary.",
            crate::engine::panics_caught(),
        );
        let _ = writeln!(
            out,
            "# HELP deepseq_faults_injected_total Injected faults by point \
             (populated while DEEPSEQ_FAULT is armed)."
        );
        let _ = writeln!(out, "# TYPE deepseq_faults_injected_total counter");
        for (point, value) in deepseq_nn::fault::injected_counts() {
            let _ = writeln!(
                out,
                "deepseq_faults_injected_total{{point=\"{point}\"}} {value}"
            );
        }

        self.request_latency
            .render(&mut out, "deepseq_http_request_duration_seconds");
        self.engine_latency
            .render(&mut out, "deepseq_engine_duration_seconds");
        render_stage_seconds(&mut out, &deepseq_nn::trace::stage_stats());
        out
    }
}

/// Renders the per-stage span histograms as one `deepseq_stage_seconds`
/// family with a `stage` label, plus p50/p95 gauges per stage. Every
/// [`SpanKind`](deepseq_nn::SpanKind) appears unconditionally (all-zero
/// while tracing is off), so scrapers and the exposition contract tests
/// never depend on the `DEEPSEQ_TRACE` switch.
fn render_stage_seconds(out: &mut String, stages: &[StageStats]) {
    let _ = writeln!(
        out,
        "# HELP deepseq_stage_seconds Span duration per pipeline stage \
         (populated while DEEPSEQ_TRACE is on)."
    );
    let _ = writeln!(out, "# TYPE deepseq_stage_seconds histogram");
    for stage in stages {
        let name = stage.kind.name();
        let mut cumulative = 0u64;
        for (&bound_ns, &n) in STAGE_BUCKET_BOUNDS_NS.iter().zip(&stage.buckets) {
            cumulative += n;
            let _ = writeln!(
                out,
                "deepseq_stage_seconds_bucket{{stage=\"{name}\",le=\"{}\"}} {cumulative}",
                bound_ns as f64 / 1e9
            );
        }
        let _ = writeln!(
            out,
            "deepseq_stage_seconds_bucket{{stage=\"{name}\",le=\"+Inf\"}} {}",
            stage.count
        );
        let _ = writeln!(
            out,
            "deepseq_stage_seconds_sum{{stage=\"{name}\"}} {}",
            stage.sum_ns as f64 / 1e9
        );
        let _ = writeln!(
            out,
            "deepseq_stage_seconds_count{{stage=\"{name}\"}} {}",
            stage.count
        );
    }
    for (metric, q) in [
        ("deepseq_stage_p50_seconds", 0.5),
        ("deepseq_stage_p95_seconds", 0.95),
    ] {
        let _ = writeln!(
            out,
            "# HELP {metric} Approximate per-stage span duration quantile."
        );
        let _ = writeln!(out, "# TYPE {metric} gauge");
        for stage in stages {
            let _ = writeln!(
                out,
                "{metric}{{stage=\"{}\"}} {}",
                stage.kind.name(),
                stage.quantile(q)
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_cumulative() {
        let h = LatencyHistogram::default();
        h.observe(Duration::from_micros(50)); // ≤ every bucket
        h.observe(Duration::from_millis(3)); // ≤ 5ms …
        h.observe(Duration::from_secs(60)); // +Inf only
        assert_eq!(h.count(), 3);
        let mut out = String::new();
        h.render(&mut out, "x");
        assert!(out.contains("x_bucket{le=\"0.0001\"} 1"), "{out}");
        assert!(out.contains("x_bucket{le=\"0.005\"} 2"), "{out}");
        assert!(out.contains("x_bucket{le=\"2.5\"} 2"), "{out}");
        assert!(out.contains("x_bucket{le=\"+Inf\"} 3"), "{out}");
        assert!(out.contains("x_count 3"), "{out}");
    }

    #[test]
    fn render_exposes_the_required_fields() {
        let m = Metrics::default();
        m.requests_embed.fetch_add(7, Ordering::Relaxed);
        m.count_status(200);
        m.count_status(429);
        m.count_status(504);
        m.queue_depth.store(3, Ordering::Relaxed);
        m.in_flight.store(2, Ordering::Relaxed);
        m.request_latency.observe(Duration::from_millis(1));
        let cache = CacheStats {
            hits: 3,
            misses: 1,
            evictions: 0,
            entries: 4,
            capacity: 16,
        };
        let cones = CacheStats {
            hits: 9,
            misses: 3,
            evictions: 2,
            entries: 7,
            capacity: 1024,
        };
        let pool = PoolStats {
            threads: 4,
            steals: 11,
            parks: 5,
            wakeups: 3,
        };
        let text = m.render(&cache, &cones, &pool, true, false);
        for needle in [
            "deepseq_requests_total{endpoint=\"embed\"} 7",
            "deepseq_responses_total{class=\"2xx\"} 1",
            "deepseq_responses_total{class=\"4xx\"} 1",
            "deepseq_responses_total{class=\"5xx\"} 1",
            "deepseq_queue_depth 3",
            "deepseq_in_flight 2",
            "deepseq_draining 1",
            "deepseq_degraded 0",
            "deepseq_rejected_degraded_total 0",
            "deepseq_cache_hit_ratio 0.75",
            "deepseq_cone_hits_total 9",
            "deepseq_cone_misses_total 3",
            "deepseq_cone_evictions_total 2",
            "deepseq_cone_entries 7",
            "deepseq_cone_capacity 1024",
            "deepseq_cone_hit_ratio 0.75",
            "deepseq_cache_hits_total 3",
            "deepseq_cache_misses_total 1",
            "deepseq_cache_entries 4",
            "deepseq_cache_capacity 16",
            "deepseq_config_warnings_total",
            "deepseq_panics_caught_total",
            "deepseq_faults_injected_total{point=\"checkpoint_read\"}",
            "deepseq_faults_injected_total{point=\"engine_reply_drop\"}",
            "deepseq_http_request_duration_seconds_bucket{le=\"+Inf\"} 1",
            "deepseq_pool_threads 4",
            "deepseq_pool_steals_total 11",
            "deepseq_pool_parks_total 5",
            "deepseq_pool_wakeups_total 3",
            "deepseq_stage_seconds_bucket{stage=\"gemm\",le=\"+Inf\"}",
            "deepseq_stage_seconds_count{stage=\"queue_wait\"}",
            "deepseq_stage_p50_seconds{stage=\"forward\"}",
            "deepseq_stage_p95_seconds{stage=\"cache_lookup\"}",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
        // The hit-ratio line parses as a float — the contract the CI load
        // client enforces over the wire.
        let ratio_line = text
            .lines()
            .find(|l| l.starts_with("deepseq_cache_hit_ratio "))
            .expect("hit ratio line");
        let value: f64 = ratio_line
            .split_whitespace()
            .nth(1)
            .expect("value")
            .parse()
            .expect("parses");
        assert!((value - 0.75).abs() < 1e-12);
    }
}
