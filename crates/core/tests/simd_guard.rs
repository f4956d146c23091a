//! The training-side guard of the two-mode numerics contract: setting
//! `DEEPSEQ_KERNEL=simd` is a *serving* opt-in and must be invisible to
//! every training-path computation.
//!
//! This binary sets the variable before any kernel dispatch and then
//! pins that (a) the process-wide training default refuses fast mode
//! and stays on the bitwise `blocked` kernel,
//! (b) the `Matrix` product methods the autograd tape is built on keep
//! producing the naive kernel's exact bits, and (c) full data-parallel
//! training stays bitwise deterministic — identical epoch history,
//! parameter bytes and eval metrics across repeated runs and across
//! worker-pool sizes, exactly as `training_determinism.rs` proves for
//! the default environment.

use std::sync::Once;

use deepseq_core::{evaluate_on, train_on, DeepSeq, DeepSeqConfig, TrainOptions, TrainSample};
use deepseq_netlist::SeqAig;
use deepseq_nn::{Kernel, Matrix, Pool};
use deepseq_sim::{SimOptions, Workload};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Set `DEEPSEQ_KERNEL=simd` before the first dispatch caches it. Every
/// test calls this first.
fn set_simd_env() {
    static INIT: Once = Once::new();
    INIT.call_once(|| std::env::set_var("DEEPSEQ_KERNEL", "simd"));
    assert!(
        Kernel::fast_mode(),
        "DEEPSEQ_KERNEL=simd was set too late: the kernel choice was already cached"
    );
}

#[test]
fn training_default_refuses_fast_mode() {
    set_simd_env();
    assert_eq!(
        Kernel::global(),
        Kernel::Blocked,
        "the training default must ignore DEEPSEQ_KERNEL=simd"
    );
    assert!(Kernel::global().is_bitwise());
    // But the serving entry point honors it — the env var is not lost.
    assert_eq!(Kernel::for_serve(), Kernel::Simd);
}

#[test]
fn matrix_products_stay_bitwise_naive() {
    set_simd_env();
    // Shapes big enough that a leaked fast-mode dispatch would actually
    // run fused panels (and therefore change bits for these operands).
    let a = Matrix::from_fn(48, 96, |r, c| ((r * 96 + c) as f32).sin());
    let b = Matrix::from_fn(96, 40, |r, c| ((r * 40 + c) as f32 * 0.37).cos());
    let got = a.matmul(&b);
    let want = Kernel::Naive.matmul(&a, &b);
    assert_eq!(got, want, "Matrix::matmul left the bitwise reference path");
    assert_eq!(a.t_matmul(&want), Kernel::Naive.t_matmul(&a, &want));
    assert_eq!(a.matmul_t(&a), Kernel::Naive.matmul_t(&a, &a));
}

/// A tiny two-sample training suite (mirrors the determinism suite's
/// recipe at smaller scale).
fn sample_suite(hidden: usize) -> Vec<TrainSample> {
    let mut rng = StdRng::seed_from_u64(17);
    (0..2)
        .map(|i| {
            let mut aig = SeqAig::new(format!("g{i}"));
            let a = aig.add_pi("a");
            let b = aig.add_pi("b");
            let g = aig.add_and(a, b);
            let q = aig.add_ff("q", i % 2 == 0);
            let inv = aig.add_not(g);
            let g2 = aig.add_and(q, inv);
            aig.connect_ff(q, g2).unwrap();
            aig.set_output(g2, "y");
            let w = Workload::random(2, &mut rng);
            TrainSample::generate(
                &aig,
                &w,
                hidden,
                &SimOptions {
                    cycles: 32,
                    warmup: 4,
                    seed: 5 ^ i as u64,
                },
                9 + i as u64,
            )
        })
        .collect()
}

#[test]
fn training_stays_bitwise_deterministic_under_simd_env() {
    set_simd_env();
    let samples = sample_suite(8);
    let opts = TrainOptions {
        epochs: 2,
        ..TrainOptions::default()
    };
    let outcome = |threads: usize| {
        let pool = Pool::new(threads);
        let mut model = DeepSeq::new(DeepSeqConfig {
            hidden_dim: 8,
            iterations: 2,
            seed: 3,
            ..DeepSeqConfig::default()
        });
        let history = train_on(&pool, &mut model, &samples, &opts);
        let metrics = evaluate_on(&pool, &model, &samples);
        (history, model.params().save_binary(), metrics)
    };
    let reference = outcome(1);
    // Same pool size, repeated: the regression pin against any
    // run-to-run nondeterminism sneaking in via the env flag.
    assert_eq!(outcome(1), reference, "repeat run diverged under simd env");
    for threads in [2usize, 4] {
        assert_eq!(
            outcome(threads),
            reference,
            "training under DEEPSEQ_KERNEL=simd diverged at {threads} threads"
        );
    }
}
