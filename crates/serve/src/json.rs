//! JSON rendering of serving responses, with no serialization dependency
//! (the repository builds offline).
//!
//! A response body is rendered into one `String`, reserved up front from
//! the matrix shapes. Numbers are written straight into it with `f32`'s
//! `Display`: the shortest decimal that round-trips, never in exponent
//! notation, so always a valid JSON number. Non-finite values become
//! `null`. The bytes of every body are pinned by the facade's
//! `response_golden` test.

use std::fmt::Write;

use crate::engine::ServeResponse;

/// Escapes a string for a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    push_escaped(&mut out, s);
    out
}

/// Appends `s` escaped for a JSON string literal. Runs of characters that
/// need no escape are copied whole; every escaped character is ASCII, so
/// the scan can go byte by byte.
fn push_escaped(out: &mut String, s: &str) {
    let mut plain = 0;
    for (i, byte) in s.bytes().enumerate() {
        let escaped = match byte {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[plain..i]);
        if escaped.is_empty() {
            let _ = write!(out, "\\u{byte:04x}");
        } else {
            out.push_str(escaped);
        }
        plain = i + 1;
    }
    out.push_str(&s[plain..]);
}

/// Appends one number, or `null` if it is not finite.
fn push_number(out: &mut String, v: f32) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// Appends `rows` rows of `cols` values from row-major `data`: a flat
/// array when `cols == 1`, an array of row arrays otherwise.
fn push_rows(out: &mut String, data: &[f32], rows: usize, cols: usize) {
    out.push('[');
    for r in 0..rows {
        if r > 0 {
            out.push(',');
        }
        let row = &data[r * cols..(r + 1) * cols];
        if cols == 1 {
            push_number(out, row[0]);
            continue;
        }
        out.push('[');
        for (c, &v) in row.iter().enumerate() {
            if c > 0 {
                out.push(',');
            }
            push_number(out, v);
        }
        out.push(']');
    }
    out.push(']');
}

/// Renders one response as a single JSON object (one line, no trailing
/// newline). Full mode includes the per-node prediction matrices; summary
/// mode only their means.
pub fn response_to_json(response: &ServeResponse, summary: bool) -> String {
    // Room for the fixed fields and, per value, a decimal of up to 11
    // characters with its separator; only tiny or huge values need more.
    let values = match &response.result {
        Ok(served) if !summary => {
            let preds = &served.data.predictions;
            preds.tr.data().len() + preds.lg.data().len() + served.data.embedding.cols()
        }
        Ok(served) => 2 + served.data.embedding.cols(),
        Err(_) => 16,
    };
    let mut out = String::with_capacity(128 + response.design.len() + 12 * values);
    let _ = write!(out, "{{\"id\":{},\"design\":\"", response.id);
    push_escaped(&mut out, &response.design);
    out.push('"');
    match &response.result {
        Err(err) => {
            out.push_str(",\"error\":\"");
            push_escaped(&mut out, &err.to_string());
            out.push('"');
        }
        Ok(served) => {
            let preds = &served.data.predictions;
            let _ = write!(
                out,
                ",\"nodes\":{},\"cache_hit\":{}",
                served.num_nodes, served.cache_hit
            );
            if summary {
                out.push_str(",\"mean_tr\":");
                push_number(&mut out, preds.tr.mean_abs());
                out.push_str(",\"mean_lg\":");
                push_number(&mut out, preds.lg.mean_abs());
            } else {
                for (key, m) in [(",\"tr\":", &preds.tr), (",\"lg\":", &preds.lg)] {
                    out.push_str(key);
                    push_rows(&mut out, m.data(), m.rows(), m.cols());
                }
            }
            // The `1×d` embedding renders as a one-row matrix.
            let emb = &served.data.embedding;
            out.push_str(",\"embedding\":");
            push_rows(&mut out, emb.row(0), 1, emb.cols());
        }
    }
    out.push('}');
    out
}

/// Hard cap on spans rendered by [`trace_tree_json`] — the parent search
/// is quadratic, and a debug endpoint should stay cheap even against a
/// trace that filled every ring buffer.
const MAX_TREE_SPANS: usize = 10_000;

/// Renders one trace's records (from
/// [`trace::collect`](deepseq_nn::trace::collect), already sorted
/// start-ascending with longer spans first) as a span **tree**: each span
/// is nested under the tightest enclosing span, with same-thread
/// enclosures preferred — so a request's levels sit under its forward
/// pass even when a worker ran them.
pub fn trace_tree_json(trace_id: u64, records: &[deepseq_nn::SpanRecord]) -> String {
    let truncated = records.len() > MAX_TREE_SPANS;
    let records = &records[..records.len().min(MAX_TREE_SPANS)];
    let interval = |i: usize| (records[i].start_ns, records[i].start_ns + records[i].dur_ns);
    // Tightest strict enclosure; identical intervals stay siblings (no
    // parent chains between indistinguishable spans).
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); records.len()];
    let mut roots: Vec<usize> = Vec::new();
    for i in 0..records.len() {
        let (si, ei) = interval(i);
        let mut best: Option<usize> = None;
        for j in 0..records.len() {
            if j == i {
                continue;
            }
            let (sj, ej) = interval(j);
            if !(sj <= si && ej >= ei && (sj, ej) != (si, ei)) {
                continue;
            }
            let better = match best {
                None => true,
                Some(b) => {
                    let same_j = records[j].thread == records[i].thread;
                    let same_b = records[b].thread == records[i].thread;
                    if same_j != same_b {
                        same_j
                    } else {
                        records[j].dur_ns < records[b].dur_ns
                    }
                }
            };
            if better {
                best = Some(j);
            }
        }
        match best {
            Some(parent) => children[parent].push(i),
            None => roots.push(i),
        }
    }

    fn emit(
        out: &mut String,
        records: &[deepseq_nn::SpanRecord],
        children: &[Vec<usize>],
        i: usize,
        depth: usize,
    ) {
        let r = &records[i];
        let _ = write!(
            out,
            "{{\"kind\":\"{}\",\"thread\":{},\"start_us\":{:.3},\"dur_us\":{:.3}",
            r.kind.name(),
            r.thread,
            r.start_ns as f64 / 1e3,
            r.dur_ns as f64 / 1e3
        );
        if r.detail != 0 {
            let _ = write!(out, ",\"detail\":{}", r.detail);
            if r.kind == deepseq_nn::SpanKind::Gemm {
                let (m, k, n) = deepseq_nn::trace::unpack_dims(r.detail);
                let _ = write!(out, ",\"dims\":[{m},{k},{n}]");
                let tag = deepseq_nn::trace::unpack_kernel_tag(r.detail);
                if let Some(kernel) = deepseq_nn::trace::kernel_tag_name(tag) {
                    let _ = write!(out, ",\"kernel\":\"{kernel}\"");
                }
            }
        }
        // Depth cap: identical clock readings could in principle nest
        // thousands of spans; beyond any plausible real nesting just
        // flatten the remainder away.
        if !children[i].is_empty() && depth < 64 {
            out.push_str(",\"children\":[");
            for (x, &c) in children[i].iter().enumerate() {
                if x > 0 {
                    out.push(',');
                }
                emit(out, records, children, c, depth + 1);
            }
            out.push(']');
        }
        out.push('}');
    }

    let mut out = String::with_capacity(records.len() * 96 + 128);
    let _ = write!(
        out,
        "{{\"trace\":{trace_id},\"spans\":{},\"truncated\":{truncated},\"tree\":[",
        records.len()
    );
    for (x, &root) in roots.iter().enumerate() {
        if x > 0 {
            out.push(',');
        }
        emit(&mut out, records, &children, root, 0);
    }
    out.push_str("]}");
    out
}

/// Renders the per-stage latency summary for `GET /debug/trace` (no
/// `id`): one entry per span kind with count, p50/p95 and total seconds.
pub fn stage_summary_json(
    stages: &[(deepseq_nn::SpanKind, deepseq_nn::trace::HistogramSnapshot)],
    dropped: u64,
) -> String {
    let mut out = String::with_capacity(stages.len() * 96 + 64);
    let _ = write!(out, "{{\"dropped_spans\":{dropped},\"stages\":[");
    for (i, (kind, stage)) in stages.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"stage\":\"{}\",\"count\":{},\"p50_s\":{},\"p95_s\":{},\"total_s\":{}}}",
            kind.name(),
            stage.count,
            stage.quantile(0.5),
            stage.quantile(0.95),
            stage.sum_ns as f64 / 1e9
        );
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_handles_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn numbers_are_json_safe() {
        let render = |v: f32| {
            let mut out = String::new();
            push_number(&mut out, v);
            out
        };
        assert_eq!(render(0.5), "0.5");
        assert_eq!(render(f32::NAN), "null");
        assert_eq!(render(f32::INFINITY), "null");
    }

    #[test]
    fn matrix_rendering_flattens_columns() {
        let render = |rows: usize, cols: usize| {
            let data: Vec<f32> = (0..rows * cols).map(|v| v as f32).collect();
            let mut out = String::new();
            push_rows(&mut out, &data, rows, cols);
            out
        };
        assert_eq!(render(2, 1), "[0,1]");
        assert_eq!(render(2, 2), "[[0,1],[2,3]]");
        assert_eq!(render(2, 0), "[[],[]]");
        assert_eq!(render(0, 2), "[]");
    }

    #[test]
    fn trace_tree_nests_by_containment() {
        use deepseq_nn::{SpanKind, SpanRecord};
        let rec = |kind, start_ns, dur_ns, thread, detail| SpanRecord {
            trace: 7,
            kind,
            detail,
            start_ns,
            dur_ns,
            thread,
        };
        // collect() order: start ascending, longer spans first on ties.
        let records = vec![
            rec(SpanKind::Request, 0, 1000, 0, 0),
            rec(SpanKind::Forward, 100, 800, 0, 42),
            rec(
                SpanKind::Gemm,
                200,
                100,
                3,
                deepseq_nn::trace::pack_gemm(4, 5, 6, 2),
            ),
            rec(SpanKind::Serialize, 950, 20, 0, 0),
        ];
        let json = trace_tree_json(7, &records);
        assert!(json.starts_with("{\"trace\":7,\"spans\":4,\"truncated\":false,"));
        // Gemm nests under forward (tightest container) despite the
        // differing thread, and its packed dims + kernel tag are decoded.
        let forward = json.find("\"kind\":\"forward\"").expect("forward span");
        let gemm = json.find("\"kind\":\"gemm\"").expect("gemm span");
        let serialize = json.find("\"kind\":\"serialize\"").expect("serialize span");
        assert!(forward < gemm, "gemm should be inside forward: {json}");
        assert!(json.contains("\"dims\":[4,5,6]"), "{json}");
        assert!(json.contains("\"kernel\":\"blocked\""), "{json}");
        // Serialize is a direct child of request, after forward closes.
        assert!(serialize > gemm, "{json}");
        // Exactly one root.
        assert_eq!(json.matches("\"kind\":\"request\"").count(), 1);
    }

    #[test]
    fn identical_intervals_stay_siblings() {
        use deepseq_nn::{SpanKind, SpanRecord};
        let rec = |kind| SpanRecord {
            trace: 1,
            kind,
            detail: 0,
            start_ns: 10,
            dur_ns: 10,
            thread: 0,
        };
        let json = trace_tree_json(1, &[rec(SpanKind::Gemm), rec(SpanKind::Head)]);
        assert!(!json.contains("children"), "{json}");
    }

    #[test]
    fn stage_summary_lists_every_stage() {
        let stages = deepseq_nn::trace::stage_stats();
        let json = stage_summary_json(&stages, 3);
        assert!(json.starts_with("{\"dropped_spans\":3,\"stages\":["));
        for kind in deepseq_nn::SpanKind::ALL {
            assert!(
                json.contains(&format!("{{\"stage\":\"{}\"", kind.name())),
                "missing {}: {json}",
                kind.name()
            );
        }
        assert!(json.ends_with("]}"));
    }
}
