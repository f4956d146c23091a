//! `perfbench` — end-to-end serving and training benchmark of DeepSeq with
//! per-layer attribution. Usually started through `perfbench/run.py`, which
//! builds this binary and the `deepseq-serve` server first.
//!
//! ```text
//! perfbench --workload fresh|repeat|eco|train --seed N --seconds S --trace 0|1
//!           --server-bin PATH
//! perfbench --record-train
//! ```
//!
//! Human-readable lines go to standard output; the last line is one JSON
//! object with `correct`, `attempted`, `failed` and `metrics` (the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`). See `perfbench/README.md`.

mod inputs;
mod layers;
mod probe;
mod server;
mod serving;
mod stats;
mod train;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use serving::{Ctx, Kind};
use stats::{ratio, Report};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    server_bin: PathBuf,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 0u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut server_bin = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = value()?.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|_| "--seconds needs a number")?;
                if seconds.is_nan() || seconds <= 0.0 {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--server-bin" => server_bin = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        server_bin: server_bin.ok_or("--server-bin is required")?,
    })
}

/// A per-run scratch directory inside the working directory, removed on
/// drop: every run gets a fresh checkpoint and nothing is shared between
/// runs.
struct TempDir(PathBuf);

impl TempDir {
    fn new() -> Result<TempDir, String> {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos());
        let path = Path::new(".perfbench_tmp").join(format!("{}-{nanos}", std::process::id()));
        std::fs::create_dir_all(&path).map_err(|e| format!("creating {}: {e}", path.display()))?;
        Ok(TempDir(path))
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leaves the parent only when no other run is using it.
        let _ = std::fs::remove_dir(".perfbench_tmp");
    }
}

fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    println!(
        "perfbench: workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let kind = match args.workload.as_str() {
        "fresh" => Some(Kind::Fresh),
        "repeat" => Some(Kind::Repeat),
        "eco" => Some(Kind::Eco),
        "train" => None,
        other => return Err(format!("unknown workload {other:?}")),
    };
    let tmp = TempDir::new()?;
    let checkpoint = tmp.0.join("model.dsqm");
    deepseq_nn::write_atomic(&checkpoint, &inputs::model().save_binary())
        .map_err(|e| format!("writing checkpoint: {e}"))?;
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        server_bin: args.server_bin.clone(),
        checkpoint,
    };
    match (kind, args.trace) {
        (Some(kind), false) => serving::run_timed(&ctx, kind, report),
        (None, false) => train::run_timed(args.seconds, report),
        (Some(kind), true) => {
            let (plain, traced) = serving::run_traced(&ctx, kind, report)?;
            layers::train_layers(report);
            println!("tracing overhead: {traced:.3} traced vs {plain:.3} untraced operations/s");
            report.metric("trace.overhead_ratio", ratio(traced, plain), "ratio");
            Ok(())
        }
        (None, true) => {
            // `train` has no HTTP edge: its serving layers are measured on
            // the `fresh` stream of the same seed, in half the run; the
            // tracing overhead on whole jobs takes the other half.
            let half = Ctx {
                seconds: args.seconds / 2.0,
                ..ctx
            };
            serving::run_traced(&half, Kind::Fresh, report)?;
            layers::train_layers(report);
            let (plain, traced) = train::traced_overhead(args.seconds / 2.0, report)?;
            println!("tracing overhead: {traced:.3} traced vs {plain:.3} untraced operations/s");
            report.metric("trace.overhead_ratio", ratio(traced, plain), "ratio");
            Ok(())
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--record-train") {
        train::record();
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            return ExitCode::from(2);
        }
    };
    let mut report = Report::default();
    if let Err(msg) = run(&args, &mut report) {
        eprintln!("perfbench: {msg}");
        return ExitCode::FAILURE;
    }
    println!("{}", report.json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: output check failed");
        ExitCode::from(3)
    }
}
