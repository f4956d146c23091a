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

use deepseq_nn::trace::{Histogram, HistogramSnapshot, SpanKind, HISTOGRAM_BUCKETS};
use deepseq_nn::PoolStats;

use crate::cache::CacheStats;

pub use deepseq_nn::warning_count as config_warning_count;

/// Upper bounds (nanoseconds) of the latency histogram buckets, `+Inf`
/// implied. Spans 100 µs (cache hits) to 2.5 s (huge circuits on a loaded
/// box).
pub const LATENCY_BUCKETS_NS: [u64; HISTOGRAM_BUCKETS] = [
    100_000,
    250_000,
    500_000,
    1_000_000,
    2_500_000,
    5_000_000,
    10_000_000,
    25_000_000,
    50_000_000,
    100_000_000,
    250_000_000,
    500_000_000,
    1_000_000_000,
    2_500_000_000,
];

/// A latency [`Histogram`] over [`LATENCY_BUCKETS_NS`], observed as
/// [`Duration`]s and rendered as a Prometheus histogram.
#[derive(Debug)]
pub struct LatencyHistogram(Histogram);

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram(Histogram::new(&LATENCY_BUCKETS_NS))
    }
}

impl LatencyHistogram {
    /// Records one observation.
    pub fn observe(&self, latency: Duration) {
        self.0.observe(latency.as_nanos() as u64);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.0.count()
    }

    /// Renders the histogram in Prometheus text format under `name`.
    fn render(&self, out: &mut String, name: &str) {
        let _ = writeln!(out, "# TYPE {name} histogram");
        render_histogram(out, name, "", &self.0.snapshot());
    }
}

/// Writes the `_bucket` lines of one histogram (cumulative: the per-bucket
/// counts are summed here), its `_sum` in seconds and its `_count`. Every
/// line carries `label` (`key="value"`, or empty for none).
fn render_histogram(out: &mut String, name: &str, label: &str, h: &HistogramSnapshot) {
    let (le_prefix, labels) = match label {
        "" => (String::new(), String::new()),
        label => (format!("{label},"), format!("{{{label}}}")),
    };
    let mut cumulative = 0u64;
    for (&bound_ns, &n) in h.bounds_ns.iter().zip(&h.buckets) {
        cumulative += n;
        let _ = writeln!(
            out,
            "{name}_bucket{{{le_prefix}le=\"{}\"}} {cumulative}",
            bound_ns as f64 / 1e9
        );
    }
    let _ = writeln!(out, "{name}_bucket{{{le_prefix}le=\"+Inf\"}} {}", h.count);
    let _ = writeln!(out, "{name}_sum{labels} {}", h.sum_ns as f64 / 1e9);
    let _ = writeln!(out, "{name}_count{labels} {}", h.count);
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

    /// Renders the registry (plus the cone memo's per-request `cache` and
    /// per-component `cones` counters, the pool's scheduler counters, the
    /// per-stage span histograms, the process-wide config-warning /
    /// caught-panic / injected-fault counts) in Prometheus text format.
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
            "Requests answered wholly from the cone memo.",
            cache.hits,
        );
        counter(
            &mut out,
            "deepseq_cache_misses_total",
            "Requests not answered wholly from the cone memo.",
            cache.misses,
        );
        counter(
            &mut out,
            "deepseq_cache_evictions_total",
            "Cone-memo evictions.",
            cache.evictions,
        );
        gauge(
            &mut out,
            "deepseq_cache_entries",
            "Cone-memo resident component entries.",
            cache.entries as f64,
        );
        gauge(
            &mut out,
            "deepseq_cache_capacity",
            "Cone-memo capacity in component entries (0 disables reuse).",
            cache.capacity as f64,
        );
        gauge(
            &mut out,
            "deepseq_cache_hit_ratio",
            "Share of requests answered wholly from the cone memo, in [0, 1] (0 before any lookup).",
            cache.hit_ratio(),
        );

        counter(
            &mut out,
            "deepseq_cone_hits_total",
            "Cone-memo component hits (fanin-cone rows reused across requests).",
            cones.hits,
        );
        counter(
            &mut out,
            "deepseq_cone_misses_total",
            "Cone-memo component misses (cones recomputed).",
            cones.misses,
        );
        gauge(
            &mut out,
            "deepseq_cone_hit_ratio",
            "Cone-memo component hit ratio in [0, 1] (0 before any lookup).",
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
            "deepseq_pool_parks_total",
            "Times a pool worker found the queue empty and went to sleep.",
            pool.parks,
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
/// [`SpanKind`] appears unconditionally (all-zero while tracing is off),
/// so scrapers and the exposition contract tests never depend on the
/// `DEEPSEQ_TRACE` switch.
fn render_stage_seconds(out: &mut String, stages: &[(SpanKind, HistogramSnapshot)]) {
    let _ = writeln!(
        out,
        "# HELP deepseq_stage_seconds Span duration per pipeline stage \
         (populated while DEEPSEQ_TRACE is on)."
    );
    let _ = writeln!(out, "# TYPE deepseq_stage_seconds histogram");
    for (kind, stage) in stages {
        let label = format!("stage=\"{}\"", kind.name());
        render_histogram(out, "deepseq_stage_seconds", &label, stage);
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
        for (kind, stage) in stages {
            let _ = writeln!(
                out,
                "{metric}{{stage=\"{}\"}} {}",
                kind.name(),
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
            evictions: 2,
            entries: 7,
            capacity: 1024,
        };
        let cones = CacheStats {
            hits: 9,
            misses: 3,
            ..cache
        };
        let pool = PoolStats {
            threads: 4,
            parks: 5,
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
            "deepseq_cone_hit_ratio 0.75",
            "deepseq_cache_hits_total 3",
            "deepseq_cache_misses_total 1",
            "deepseq_cache_evictions_total 2",
            "deepseq_cache_entries 7",
            "deepseq_cache_capacity 1024",
            "deepseq_config_warnings_total",
            "deepseq_panics_caught_total",
            "deepseq_faults_injected_total{point=\"checkpoint_read\"}",
            "deepseq_faults_injected_total{point=\"engine_reply_drop\"}",
            "deepseq_http_request_duration_seconds_bucket{le=\"+Inf\"} 1",
            "deepseq_pool_threads 4",
            "deepseq_pool_parks_total 5",
            "deepseq_stage_seconds_bucket{stage=\"gemm\",le=\"+Inf\"}",
            "deepseq_stage_seconds_count{stage=\"queue_wait\"}",
            "deepseq_stage_p50_seconds{stage=\"forward\"}",
            "deepseq_stage_p95_seconds{stage=\"cache_lookup\"}",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
        // One memo: its size and evictions are `deepseq_cache_*` only.
        for gone in [
            "deepseq_cone_evictions",
            "deepseq_cone_entries",
            "deepseq_cone_capacity",
        ] {
            assert!(!text.contains(gone), "unexpected {gone:?} in:\n{text}");
        }
        // One job queue: no job changes queues and every park ends in a
        // wake-up, so width and parks are the only pool families.
        let pool_families: Vec<&str> = text
            .lines()
            .filter_map(|line| line.split_once(' ').map(|(name, _)| name))
            .filter(|name| name.starts_with("deepseq_pool_"))
            .collect();
        assert_eq!(
            pool_families,
            ["deepseq_pool_threads", "deepseq_pool_parks_total"],
            "{text}"
        );
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
