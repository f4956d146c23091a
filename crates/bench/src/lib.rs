//! Shared harness utilities for the table-regeneration benches.
//!
//! Every table and figure of the paper has a `[[bench]]` target (run
//! `cargo bench -p deepseq-bench`), so the whole evaluation regenerates
//! from one command. Because the original experiments trained for days on
//! GPUs, each harness is **scaled** by default and scalable via environment
//! variables:
//!
//! | Variable | Effect |
//! |---|---|
//! | `DEEPSEQ_SCALE` | `smoke`, `default` or `full` preset |
//! | `DEEPSEQ_CIRCUITS` | total pre-training circuits |
//! | `DEEPSEQ_EPOCHS` | pre-training epochs |
//! | `DEEPSEQ_HIDDEN` | hidden dimension |
//! | `DEEPSEQ_T` | propagation iterations |
//! | `DEEPSEQ_SIM_CYCLES` | simulation cycles per workload |
//! | `DEEPSEQ_FT_WORKLOADS` | fine-tuning workloads per design |
//! | `DEEPSEQ_FT_EPOCHS` | fine-tuning epochs |
//! | `DEEPSEQ_FT_LR` | fine-tuning learning rate |
//!
//! The `full` preset reproduces the paper's settings (d=64, T=10,
//! 50 epochs, 10 534 circuits, 1 000 fine-tuning workloads) and is intended
//! for long unattended runs.

#![forbid(unsafe_code)]

use std::env;
use std::fs;
use std::path::PathBuf;
use std::time::Instant;

use deepseq_core::train::{train, TrainOptions, TrainSample};
use deepseq_core::{DeepSeq, DeepSeqConfig};
use deepseq_data::dataset::Corpus;
use deepseq_sim::{SimOptions, Workload};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Experiment scale knobs (see the [module docs](self)).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    /// Total pre-training circuits across the three families.
    pub circuits: usize,
    /// Pre-training epochs.
    pub epochs: usize,
    /// Hidden dimension.
    pub hidden: usize,
    /// Propagation iterations `T`.
    pub iterations: usize,
    /// Simulation cycles per workload (64 lanes each).
    pub sim_cycles: usize,
    /// Fine-tuning workloads per test design.
    pub ft_workloads: usize,
    /// Fine-tuning epochs.
    pub ft_epochs: usize,
    /// Learning rate for (pre-)training.
    pub lr: f32,
    /// Learning rate for per-design fine-tuning (downstream tasks need to
    /// adapt quickly within a small step budget).
    pub ft_lr: f32,
}

impl Scale {
    /// Tiny settings for CI smoke runs (seconds).
    pub fn smoke() -> Self {
        Scale {
            circuits: 9,
            epochs: 2,
            hidden: 8,
            iterations: 2,
            sim_cycles: 64,
            ft_workloads: 2,
            ft_epochs: 1,
            lr: 3e-3,
            ft_lr: 5e-3,
        }
    }

    /// CPU-budget default (minutes per table).
    pub fn default_scale() -> Self {
        Scale {
            circuits: 160,
            epochs: 40,
            hidden: 24,
            iterations: 3,
            sim_cycles: 160,
            ft_workloads: 12,
            ft_epochs: 25,
            lr: 2e-3,
            ft_lr: 2e-2,
        }
    }

    /// The paper's settings (days of CPU time).
    pub fn full() -> Self {
        Scale {
            circuits: 10_534,
            epochs: 50,
            hidden: 64,
            iterations: 10,
            sim_cycles: 157, // 157 × 64 lanes ≈ the paper's 10 000 cycles
            ft_workloads: 1_000,
            ft_epochs: 50,
            lr: 1e-4,
            ft_lr: 1e-4,
        }
    }

    /// Reads the scale from the environment.
    pub fn from_env() -> Self {
        let mut scale = match env::var("DEEPSEQ_SCALE").as_deref() {
            Ok("smoke") => Scale::smoke(),
            Ok("full") => Scale::full(),
            _ => Scale::default_scale(),
        };
        let read = |key: &str| -> Option<usize> { env::var(key).ok()?.parse().ok() };
        if let Some(v) = read("DEEPSEQ_CIRCUITS") {
            scale.circuits = v;
        }
        if let Some(v) = read("DEEPSEQ_EPOCHS") {
            scale.epochs = v;
        }
        if let Some(v) = read("DEEPSEQ_HIDDEN") {
            scale.hidden = v;
        }
        if let Some(v) = read("DEEPSEQ_T") {
            scale.iterations = v;
        }
        if let Some(v) = read("DEEPSEQ_SIM_CYCLES") {
            scale.sim_cycles = v;
        }
        if let Some(v) = read("DEEPSEQ_FT_WORKLOADS") {
            scale.ft_workloads = v;
        }
        if let Some(v) = read("DEEPSEQ_FT_EPOCHS") {
            scale.ft_epochs = v;
        }
        if let Ok(v) = env::var("DEEPSEQ_FT_LR") {
            if let Ok(v) = v.parse() {
                scale.ft_lr = v;
            }
        }
        scale
    }

    /// Model configuration at this scale for a given aggregator/scheme.
    pub fn config(
        &self,
        aggregator: deepseq_core::Aggregator,
        scheme: deepseq_core::PropagationScheme,
    ) -> DeepSeqConfig {
        DeepSeqConfig {
            hidden_dim: self.hidden,
            iterations: self.iterations,
            aggregator,
            scheme,
            seed: 7,
        }
    }

    /// Simulation options at this scale.
    pub fn sim_options(&self, seed: u64) -> SimOptions {
        SimOptions {
            cycles: self.sim_cycles,
            warmup: (self.sim_cycles / 10).max(4),
            seed,
        }
    }

    /// Training options at this scale.
    pub fn train_options(&self) -> TrainOptions {
        TrainOptions {
            epochs: self.epochs,
            lr: self.lr,
            ..TrainOptions::default()
        }
    }
}

/// Generates the pre-training corpus and simulated samples at a scale.
/// Returns `(train, test)` split 85/15 as in the evaluation protocol.
pub fn build_samples(scale: &Scale, hidden_dim: usize) -> (Vec<TrainSample>, Vec<TrainSample>) {
    let corpus = Corpus::generate(scale.circuits, 11);
    let mut rng = StdRng::seed_from_u64(13);
    let samples: Vec<TrainSample> = corpus
        .circuits()
        .iter()
        .enumerate()
        .map(|(i, aig)| {
            let workload = Workload::random(aig.num_pis(), &mut rng);
            TrainSample::generate(
                aig,
                &workload,
                hidden_dim,
                &scale.sim_options(100 + i as u64),
                200 + i as u64,
            )
        })
        .collect();
    deepseq_core::train_test_split(samples, 0.15, 17)
}

/// The pre-trained checkpoint's cache file at a scale, under
/// `target/deepseq_cache/` whatever the bench CWD. Its name holds every
/// field that reaches [`build_samples`] or training (hidden size, `T`,
/// circuits, epochs, simulation cycles, learning rate), so no scale reads
/// a model trained on other data; the fine-tuning fields stay out.
fn cache_path(scale: &Scale) -> PathBuf {
    let dir = match env::var("CARGO_TARGET_DIR") {
        Ok(dir) => PathBuf::from(dir),
        Err(_) => PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target"),
    };
    dir.join("deepseq_cache").join(format!(
        "pretrained_h{}_t{}_c{}_e{}_s{}_lr{}.dsqm",
        scale.hidden, scale.iterations, scale.circuits, scale.epochs, scale.sim_cycles, scale.lr
    ))
}

/// Returns a pre-trained DeepSeq model at this scale, building its samples
/// and training it (then caching a `DSQM` checkpoint, see `cache_path`)
/// on first use. A cache file that does not decode is retrained and
/// rewritten.
pub fn pretrained_deepseq(scale: &Scale) -> DeepSeq {
    let path = cache_path(scale);
    if let Ok(bytes) = fs::read(&path) {
        if let Ok(model) = DeepSeq::from_binary_checkpoint(&bytes) {
            eprintln!(
                "[deepseq-bench] loaded cached checkpoint {}",
                path.display()
            );
            return model;
        }
    }
    let (samples, _) = build_samples(scale, scale.hidden);
    let config = scale.config(
        deepseq_core::Aggregator::DualAttention,
        deepseq_core::PropagationScheme::Custom,
    );
    let mut model = DeepSeq::new(config);
    let start = Instant::now();
    train(&mut model, &samples, &scale.train_options());
    eprintln!(
        "[deepseq-bench] pre-trained DeepSeq on {} circuits × {} epochs in {:.1}s",
        samples.len(),
        scale.epochs,
        start.elapsed().as_secs_f64()
    );
    if let Some(dir) = path.parent() {
        let _ = fs::create_dir_all(dir);
    }
    let _ = deepseq_nn::write_atomic(&path, &model.save_binary());
    model
}

/// Prints a formatted table row list with a title banner (the harnesses all
/// report in the paper's row format).
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!();
    println!("=== {title} ===");
    // Column widths.
    let cols = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (c, width) in widths.iter_mut().enumerate().take(cols) {
            if let Some(cell) = row.get(c) {
                *width = (*width).max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let mut s = String::new();
        for (c, cell) in cells.iter().enumerate() {
            s.push_str(&format!("{:<width$}  ", cell, width = widths[c]));
        }
        println!("{}", s.trim_end());
    };
    line(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    line(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
    for row in rows {
        line(row);
    }
    println!();
}

/// Formats a probability-scale error.
pub fn fmt_pe(v: f64) -> String {
    format!("{v:.3}")
}

/// Formats a percentage.
pub fn fmt_pct(v: f64) -> String {
    format!("{v:.2}%")
}

/// Formats milliwatts.
pub fn fmt_mw(v: f64) -> String {
    format!("{v:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_scale_defaults() {
        let s = Scale::default_scale();
        assert!(s.circuits > 0 && s.epochs > 0);
        let full = Scale::full();
        assert_eq!(full.hidden, 64);
        assert_eq!(full.iterations, 10);
        assert_eq!(full.circuits, 10_534);
    }

    #[test]
    fn build_samples_split() {
        let s = Scale::smoke();
        let (train, test) = build_samples(&s, s.hidden);
        assert!(!train.is_empty());
        assert!(!test.is_empty());
    }

    #[test]
    fn cache_path_keys_every_pretraining_input() {
        let base = Scale::smoke();
        let path = |change: fn(&mut Scale)| {
            let mut scale = base;
            change(&mut scale);
            cache_path(&scale)
        };
        let pretraining: [fn(&mut Scale); 6] = [
            |s| s.hidden += 1,
            |s| s.iterations += 1,
            |s| s.circuits += 1,
            |s| s.epochs += 1,
            |s| s.sim_cycles += 1,
            |s| s.lr *= 2.0,
        ];
        for (i, change) in pretraining.into_iter().enumerate() {
            assert_ne!(path(change), cache_path(&base), "field {i} left out");
        }
        let fine_tuning: [fn(&mut Scale); 3] = [
            |s| s.ft_workloads += 1,
            |s| s.ft_epochs += 1,
            |s| s.ft_lr *= 2.0,
        ];
        for change in fine_tuning {
            assert_eq!(path(change), cache_path(&base));
        }
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_pe(0.028), "0.028");
        assert_eq!(fmt_pct(16.349), "16.35%");
        assert_eq!(fmt_mw(0.6531), "0.653");
    }
}
