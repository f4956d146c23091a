//! `simd` is a retired `DEEPSEQ_KERNEL` name. This binary sets it before
//! the first kernel dispatch and checks that it takes the path of every
//! unrecognized value: no kernel from the environment, one configuration
//! warning (counted by `deepseq_config_warnings_total`) that names the
//! accepted values, and the `blocked` default for training and serving
//! alike, which computes the reference kernel's exact bits.
//!
//! The kernel choice is read once per process, so the binary holds a
//! single test: a second one could dispatch first, on another thread.

use deepseq_core::encoding::initial_states;
use deepseq_core::{CircuitGraph, DeepSeq, DeepSeqConfig};
use deepseq_data::random::{random_circuit, CircuitSpec};
use deepseq_nn::kernels::KERNEL_ENV;
use deepseq_nn::{Kernel, Matrix};
use deepseq_serve::metrics::config_warning_count;
use deepseq_serve::{InferenceModel, Workspace};
use deepseq_sim::Workload;
use rand::rngs::StdRng;
use rand::SeedableRng;

mod util;
use util::assert_matrices_match;

#[test]
fn retired_simd_name_falls_back_to_blocked() {
    std::env::set_var(KERNEL_ENV, "simd");

    assert_eq!(Kernel::from_env(), None);
    assert_eq!(Kernel::global(), Kernel::Blocked);
    assert_eq!(Kernel::for_serve(), Kernel::Blocked);
    // Read three times above, warned once.
    let warnings = deepseq_nn::warnings();
    let kernel_warnings: Vec<&String> = warnings
        .iter()
        .filter(|w| w.contains("naive | blocked"))
        .collect();
    assert_eq!(kernel_warnings.len(), 1, "{warnings:?}");
    assert!(kernel_warnings[0].contains("\"simd\""), "{warnings:?}");
    assert_eq!(config_warning_count(), warnings.len() as u64);

    // The `Matrix` products the tape is built on, at shapes that fan out
    // and fill whole register tiles.
    let a = Matrix::from_fn(48, 96, |r, c| ((r * 96 + c) as f32).sin());
    let b = Matrix::from_fn(96, 40, |r, c| ((r * 40 + c) as f32 * 0.37).cos());
    let product = Kernel::Naive.matmul(&a, &b);
    assert_matrices_match(&a.matmul(&b), &product, "matmul");
    assert_matrices_match(
        &a.t_matmul(&product),
        &Kernel::Naive.t_matmul(&a, &product),
        "t_matmul",
    );
    assert_matrices_match(&a.matmul_t(&a), &Kernel::Naive.matmul_t(&a, &a), "matmul_t");

    // One forward pass on the default serving workspace.
    let model = DeepSeq::new(DeepSeqConfig {
        hidden_dim: 32,
        iterations: 2,
        ..DeepSeqConfig::default()
    });
    let frozen = InferenceModel::from_model(&model);
    let aig = random_circuit("g", &CircuitSpec::default(), &mut StdRng::seed_from_u64(5));
    let graph = CircuitGraph::build(&aig);
    let h0 = initial_states(&aig, &Workload::uniform(aig.num_pis(), 0.4), 32, 3);
    let mut ws = Workspace::new();
    assert_eq!(ws.kernel(), Kernel::Blocked);
    let served = frozen.run(&graph, &h0, &mut ws);
    let reference = frozen.run(&graph, &h0, &mut Workspace::with_kernel(Kernel::Naive));
    assert_matrices_match(&served.predictions.tr, &reference.predictions.tr, "tr");
    assert_matrices_match(&served.predictions.lg, &reference.predictions.lg, "lg");
    assert_matrices_match(&served.embedding, &reference.embedding, "embedding");
}
