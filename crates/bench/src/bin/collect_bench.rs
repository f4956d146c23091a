//! Collects `target/criterion/*/estimates.json` into one perf-trajectory
//! file (default `BENCH_serve.json`) and regenerates the README bench table
//! from it, so CI runs, local runs and the committed docs all read from a
//! single snapshot instead of a directory tree or hand-copied numbers.
//!
//! ```text
//! # fold criterion estimates into the snapshot
//! cargo run -p deepseq-bench --bin collect_bench -- \
//!     [--criterion-dir target/criterion] [--filter serve_] [--out BENCH_serve.json]
//!
//! # rewrite the generated table in README.md from the snapshot
//! cargo run -p deepseq-bench --bin collect_bench -- --readme [README.md]
//!
//! # fail when a gated ratio of the snapshot fell below half its base value
//! cargo run -p deepseq-bench --bin collect_bench -- --compare BASE.json [--out BENCH_serve.json]
//! ```
//!
//! Each matching benchmark's `estimates.json` is already a JSON object
//! (`id`, `unit`, `mean`, `median`, `min`, `max`, …), so the output embeds
//! them verbatim under their benchmark ids, sorted for stable diffs. A
//! `derived` section adds the ratios the acceptance criteria and the README
//! table read: tape → tape-free (serving-default `blocked` kernel) speedup
//! per design, naive → blocked kernel speedup per GEMM shape, for the
//! fused GRU gate and for the tape-free forward pass, full-recompute →
//! cone-memo speedup on near-duplicate circuits
//! (`cone_speedup_*`), and the 1-thread → N-thread speedups of the
//! `perf_threads` and `perf_train` entries
//! (`serve_mt_<what>_t<N>_<rest>` → `mt_speedup_<what>_t<N>_<rest>`,
//! `serve_train_<what>_t<N>_<rest>` → `train_speedup_<what>_t<N>_<rest>`).
//!
//! `--readme` replaces everything between the `<!-- bench-table:begin -->`
//! and `<!-- bench-table:end -->` markers with a table generated from the
//! snapshot; it touches nothing else in the file.
//!
//! `--compare BASE.json` is the regression gate of CI's bench smoke. It
//! prints every compared ratio next to its BASE value, and exits nonzero,
//! naming each offender, when a `kernel_speedup_*`,
//! `tapefree_speedup_*` or `cone_speedup_*` ratio present in both the
//! snapshot and BASE is below [`GATE_FRACTION`] of its BASE value, or when
//! the two share no gated ratio at all. Each of
//! those ratios divides two rows measured seconds apart in one process, so
//! a shared runner's slow phases mostly cancel out; absolute rows do not.
//! The `mt_speedup_*` and `train_speedup_*` ratios stay out: they describe
//! the host's core count, not the code.

#![forbid(unsafe_code)]

use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;

/// Marker opening the generated README section.
const TABLE_BEGIN: &str = "<!-- bench-table:begin -->";
/// Marker closing the generated README section.
const TABLE_END: &str = "<!-- bench-table:end -->";

/// Derived-ratio families `--compare` gates.
const GATED_RATIOS: [&str; 3] = ["kernel_speedup_", "tapefree_speedup_", "cone_speedup_"];

/// `--compare` fails a gated ratio below this fraction of its base value.
const GATE_FRACTION: f64 = 0.5;

fn main() -> ExitCode {
    let mut criterion_dir = PathBuf::from("target/criterion");
    let mut filter = String::from("serve_");
    let mut out_path = PathBuf::from("BENCH_serve.json");
    let mut readme_path: Option<PathBuf> = None;
    let mut base_path: Option<PathBuf> = None;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--criterion-dir" => match it.next() {
                Some(v) => criterion_dir = PathBuf::from(v),
                None => return usage("--criterion-dir needs a value"),
            },
            "--filter" => match it.next() {
                Some(v) => filter = v.clone(),
                None => return usage("--filter needs a value"),
            },
            "--out" => match it.next() {
                Some(v) => out_path = PathBuf::from(v),
                None => return usage("--out needs a value"),
            },
            "--compare" => match it.next() {
                Some(v) => base_path = Some(PathBuf::from(v)),
                None => return usage("--compare needs a value"),
            },
            "--readme" => {
                let next_is_value = it.peek().is_some_and(|v| !v.starts_with("--"));
                readme_path = Some(if next_is_value {
                    PathBuf::from(it.next().expect("peeked"))
                } else {
                    PathBuf::from("README.md")
                });
            }
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }

    if let Some(base) = base_path {
        return compare(&out_path, &base);
    }
    if let Some(readme) = readme_path {
        return regenerate_readme(&out_path, &readme);
    }
    collect(&criterion_dir, &filter, &out_path)
}

fn collect(criterion_dir: &PathBuf, filter: &str, out_path: &PathBuf) -> ExitCode {
    let mut entries: Vec<(String, String)> = Vec::new();
    let dir = match fs::read_dir(criterion_dir) {
        Ok(dir) => dir,
        Err(e) => {
            eprintln!(
                "error: cannot read {} ({e}); run `cargo bench` first",
                criterion_dir.display()
            );
            return ExitCode::from(2);
        }
    };
    for entry in dir.flatten() {
        let name = entry.file_name().to_string_lossy().to_string();
        if !name.starts_with(filter) {
            continue;
        }
        let estimates = entry.path().join("estimates.json");
        match fs::read_to_string(&estimates) {
            Ok(content) => entries.push((name, content.trim().to_string())),
            Err(_) => eprintln!("warning: {} has no estimates.json, skipped", name),
        }
    }
    entries.sort();

    if entries.is_empty() {
        eprintln!(
            "error: no benchmarks matching `{filter}*` under {}",
            criterion_dir.display()
        );
        return ExitCode::from(2);
    }

    let means: Vec<(String, f64)> = entries
        .iter()
        .filter_map(|(name, content)| extract_number(content, "mean").map(|m| (name.clone(), m)))
        .collect();
    let derived = derive_speedups(&means);

    let mut json = String::from("{\n  \"schema\": \"deepseq-bench v1\",\n  \"benches\": {\n");
    for (i, (name, content)) in entries.iter().enumerate() {
        let indented = content.replace('\n', "\n    ");
        json.push_str(&format!("    \"{name}\": {indented}"));
        json.push_str(if i + 1 < entries.len() { ",\n" } else { "\n" });
    }
    json.push_str("  },\n  \"derived\": {\n");
    for (i, (name, value)) in derived.iter().enumerate() {
        json.push_str(&format!("    \"{name}\": {value:.3}"));
        json.push_str(if i + 1 < derived.len() { ",\n" } else { "\n" });
    }
    json.push_str("  }\n}\n");

    if let Err(e) = fs::write(out_path, &json) {
        eprintln!("error: writing {}: {e}", out_path.display());
        return ExitCode::from(2);
    }
    println!(
        "wrote {} ({} benches matching `{filter}*`, {} derived ratios)",
        out_path.display(),
        entries.len(),
        derived.len()
    );
    ExitCode::SUCCESS
}

/// Speedup ratios between related benchmark ids, from their means.
fn derive_speedups(means: &[(String, f64)]) -> Vec<(String, f64)> {
    let mean_of = |id: &str| -> Option<f64> {
        means
            .iter()
            .find(|(name, _)| name == id)
            .map(|&(_, m)| m)
            .filter(|&m| m > 0.0)
    };
    let mut out = Vec::new();
    for (name, mean) in means {
        if *mean <= 0.0 {
            continue;
        }
        // Naive → blocked GEMM, per shape.
        if let Some(rest) = name.strip_prefix("serve_kernel_blocked_") {
            if let Some(naive) = mean_of(&format!("serve_kernel_naive_{rest}")) {
                out.push((format!("kernel_speedup_blocked_{rest}"), naive / mean));
            }
        }
        if let Some(rest) = name.strip_prefix("serve_fused_gate_blocked_") {
            if let Some(naive) = mean_of(&format!("serve_fused_gate_naive_{rest}")) {
                out.push((format!("fused_gate_speedup_blocked_{rest}"), naive / mean));
            }
        }
        // Tape → tape-free and naive → blocked tape-free, per design tag;
        // `blocked` is the serving default.
        if let Some(tag) = name.strip_prefix("serve_tapefree_blocked_") {
            if let Some(tape) = mean_of(&format!("serve_tape_forward_{tag}")) {
                out.push((format!("tapefree_speedup_{tag}"), tape / mean));
            }
            if let Some(naive) = mean_of(&format!("serve_tapefree_naive_{tag}")) {
                out.push((
                    format!("tapefree_kernel_speedup_blocked_{tag}"),
                    naive / mean,
                ));
            }
        }
        // Full recompute → cone-memo near-duplicate, per fixture.
        if let Some(rest) = name.strip_prefix("serve_cone_hit_") {
            if let Some(full) = mean_of(&format!("serve_cone_full_{rest}")) {
                out.push((format!("cone_speedup_{rest}"), full / mean));
            }
        }
        // 1-thread → N-thread, per perf_threads / perf_train entry.
        for (prefix, ratio_prefix) in [
            ("serve_mt_", "mt_speedup_"),
            ("serve_train_", "train_speedup_"),
        ] {
            if let Some((what, threads, rest)) = split_threaded_id(name, prefix) {
                if threads != 1 {
                    if let Some(t1) = mean_of(&format!("{prefix}{what}_t1_{rest}")) {
                        out.push((format!("{ratio_prefix}{what}_t{threads}_{rest}"), t1 / mean));
                    }
                }
            }
        }
    }
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

/// Splits a `<prefix><what>_t<N>_<rest>` bench id into its parts; `None`
/// for ids of any other family.
fn split_threaded_id<'a>(name: &'a str, prefix: &str) -> Option<(&'a str, usize, &'a str)> {
    let body = name.strip_prefix(prefix)?;
    let (what, tail) = body.split_once("_t")?;
    let (digits, rest) = tail.split_once('_')?;
    let threads: usize = digits.parse().ok()?;
    Some((what, threads, rest))
}

fn regenerate_readme(snapshot: &PathBuf, readme: &PathBuf) -> ExitCode {
    let json = match fs::read_to_string(snapshot) {
        Ok(s) => s,
        Err(e) => {
            eprintln!(
                "error: cannot read {} ({e}); run the collect step first",
                snapshot.display()
            );
            return ExitCode::from(2);
        }
    };
    let benches = parse_benches(&json);
    let derived = parse_derived(&json);
    if benches.is_empty() {
        eprintln!("error: no benches found in {}", snapshot.display());
        return ExitCode::from(2);
    }

    let mut table = String::new();
    table.push_str(TABLE_BEGIN);
    table.push_str(
        "\n<!-- Generated from BENCH_serve.json by\n     \
         `cargo run -p deepseq-bench --bin collect_bench -- --readme`.\n     \
         Do not edit by hand: rerun the benches + collect step instead. -->\n",
    );
    table.push_str("\n| benchmark | mean/iter |\n|---|---:|\n");
    for (name, mean) in &benches {
        table.push_str(&format!("| `{name}` | {} |\n", format_ns(*mean)));
    }
    if !derived.is_empty() {
        table.push_str("\n| derived ratio | speedup |\n|---|---:|\n");
        for (name, value) in &derived {
            table.push_str(&format!("| `{name}` | {value:.2}× |\n"));
        }
    }
    table.push_str(TABLE_END);

    let content = match fs::read_to_string(readme) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot read {} ({e})", readme.display());
            return ExitCode::from(2);
        }
    };
    let (Some(begin), Some(end)) = (content.find(TABLE_BEGIN), content.find(TABLE_END)) else {
        eprintln!(
            "error: {} lacks the `{TABLE_BEGIN}` / `{TABLE_END}` markers",
            readme.display()
        );
        return ExitCode::from(2);
    };
    if end < begin {
        eprintln!("error: bench-table markers are out of order");
        return ExitCode::from(2);
    }
    let mut updated = String::with_capacity(content.len());
    updated.push_str(&content[..begin]);
    updated.push_str(&table);
    updated.push_str(&content[end + TABLE_END.len()..]);
    if let Err(e) = fs::write(readme, &updated) {
        eprintln!("error: writing {}: {e}", readme.display());
        return ExitCode::from(2);
    }
    println!(
        "updated {} ({} bench rows, {} derived ratios)",
        readme.display(),
        benches.len(),
        derived.len()
    );
    ExitCode::SUCCESS
}

/// The regression gate: see the module docs.
fn compare(snapshot: &PathBuf, base: &PathBuf) -> ExitCode {
    let read = |path: &PathBuf| match fs::read_to_string(path) {
        Ok(json) => Some(parse_derived(&json)),
        Err(e) => {
            eprintln!("error: cannot read {} ({e})", path.display());
            None
        }
    };
    let (Some(current), Some(base_ratios)) = (read(snapshot), read(base)) else {
        return ExitCode::from(2);
    };
    let pairs = gated_pairs(&current, &base_ratios);
    if pairs.is_empty() {
        eprintln!(
            "error: {} and {} share no gated ratio; nothing to compare",
            snapshot.display(),
            base.display()
        );
        return ExitCode::from(2);
    }
    // Every compared ratio, so a run shows how much headroom the gate has.
    for &(name, now, was) in &pairs {
        println!("{name}: {now:.3} (base {was:.3}, {:.2} of base)", now / was);
    }
    let offenders: Vec<_> = pairs
        .iter()
        .filter(|&&(_, now, was)| now < GATE_FRACTION * was)
        .collect();
    for (name, now, was) in &offenders {
        eprintln!(
            "error: {name} is {now:.3}, below {GATE_FRACTION} of its base {was:.3} (in {})",
            base.display()
        );
    }
    println!(
        "compared {} gated ratios of {} against {}: {} below {GATE_FRACTION} of base",
        pairs.len(),
        snapshot.display(),
        base.display(),
        offenders.len()
    );
    if offenders.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// `(name, current, base)` of every gated ratio present in both lists.
fn gated_pairs<'a>(
    current: &'a [(String, f64)],
    base: &[(String, f64)],
) -> Vec<(&'a str, f64, f64)> {
    current
        .iter()
        .filter(|(name, _)| GATED_RATIOS.iter().any(|prefix| name.starts_with(prefix)))
        .filter_map(|(name, now)| {
            let (_, was) = base.iter().find(|(b, _)| b == name)?;
            Some((name.as_str(), *now, *was))
        })
        .collect()
}

/// Extracts `(id, mean)` pairs from the snapshot's `benches` section by
/// scanning for the `"id"`/`"mean"` fields this tool itself wrote — no JSON
/// dependency needed for a format we control end to end.
fn parse_benches(json: &str) -> Vec<(String, f64)> {
    let body = match json.find("\"benches\"") {
        Some(at) => &json[at..],
        None => return Vec::new(),
    };
    let body = body
        .find("\"derived\"")
        .map_or(body, |derived_at| &body[..derived_at]);
    let mut out = Vec::new();
    let mut rest = body;
    while let Some(at) = rest.find("\"id\": \"") {
        rest = &rest[at + 7..];
        let Some(name_end) = rest.find('"') else {
            break;
        };
        let name = rest[..name_end].to_string();
        if let Some(mean) = extract_number(rest, "mean") {
            out.push((name, mean));
        }
    }
    out
}

/// Extracts `(name, value)` pairs from the snapshot's `derived` section.
fn parse_derived(json: &str) -> Vec<(String, f64)> {
    let Some(at) = json.find("\"derived\"") else {
        return Vec::new();
    };
    let body = &json[at..];
    let Some(open) = body.find('{') else {
        return Vec::new();
    };
    let Some(close) = body.find('}') else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for line in body[open + 1..close].lines() {
        let line = line.trim().trim_end_matches(',');
        let Some((key, value)) = line.split_once(':') else {
            continue;
        };
        let key = key.trim().trim_matches('"');
        if let Ok(v) = value.trim().parse::<f64>() {
            out.push((key.to_string(), v));
        }
    }
    out
}

/// Finds `"field": <number>` after the current position and parses it.
fn extract_number(json: &str, field: &str) -> Option<f64> {
    let key = format!("\"{field}\":");
    let at = json.find(&key)?;
    let rest = json[at + key.len()..].trim_start();
    let end = rest
        .find(|c: char| {
            c != '-' && c != '+' && c != '.' && c != 'e' && c != 'E' && !c.is_ascii_digit()
        })
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Human-readable duration from nanoseconds.
fn format_ns(ns: f64) -> String {
    if ns >= 1e6 {
        format!("{:.2} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.2} µs", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

fn usage(msg: &str) -> ExitCode {
    eprintln!(
        "error: {msg}\nusage: collect_bench [--criterion-dir DIR] [--filter PREFIX] [--out FILE]\n       collect_bench --readme [README] [--out SNAPSHOT]\n       collect_bench --compare BASE [--out SNAPSHOT]"
    );
    ExitCode::from(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_pairs_only_gated_ratios_present_in_both() {
        let ratios = |pairs: &[(&str, f64)]| -> Vec<(String, f64)> {
            pairs.iter().map(|&(n, v)| (n.to_string(), v)).collect()
        };
        let base = ratios(&[
            ("cone_speedup_blocks16", 9.0),
            ("kernel_speedup_blocked_8x68x32", 3.8),
            ("mt_speedup_gemm_t2_256x256x64", 1.8),
            ("tapefree_kernel_speedup_blocked_ptc_d32_t4", 2.4),
            ("tapefree_speedup_ptc_d32_t4", 1.2),
        ]);
        let current = ratios(&[
            ("cone_speedup_blocks16", 1.1),
            ("kernel_speedup_blocked_8x68x32", 1.9),
            ("kernel_speedup_blocked_1x68x32", 0.1),
            ("mt_speedup_gemm_t2_256x256x64", 0.1),
            ("tapefree_kernel_speedup_blocked_ptc_d32_t4", 0.1),
            ("tapefree_speedup_ptc_d32_t4", 0.7),
        ]);
        let pairs = gated_pairs(&current, &base);
        // The host-describing `mt_` ratio, the ungated `tapefree_kernel_`
        // one and the row missing from the base are not compared.
        let names: Vec<&str> = pairs.iter().map(|p| p.0).collect();
        assert_eq!(
            names,
            [
                "cone_speedup_blocks16",
                "kernel_speedup_blocked_8x68x32",
                "tapefree_speedup_ptc_d32_t4"
            ]
        );
        // 1.1 < 4.5 fails; 1.9 and 0.7 are at least half their base.
        let below: Vec<&str> = pairs
            .iter()
            .filter(|&&(_, now, was)| now < GATE_FRACTION * was)
            .map(|p| p.0)
            .collect();
        assert_eq!(below, ["cone_speedup_blocks16"]);
    }
}
