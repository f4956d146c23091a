//! End-to-end fast mode: this binary opts into `DEEPSEQ_KERNEL=simd`
//! before any kernel dispatch and pins the serving-side half of the
//! two-mode numerics contract:
//!
//! * the selection surface routes serving (and only serving) onto the
//!   fused kernels — `Kernel::for_serve()` honors `simd`, the training
//!   default `Kernel::global()` refuses it;
//! * a full `InferenceModel` forward pass stays within the documented
//!   relative-error bound (`util::FAST_MODE_FORWARD_EPS`) of the tape
//!   path, which keeps running the bitwise reference kernels in the same
//!   process;
//! * the threaded engine returns bitwise-identical predictions to an
//!   in-process tape-free forward — fast mode is self-deterministic, so
//!   crossing the engine boundary (own pool, own workspace) may not
//!   change a single bit.
//!
//! The contract holds with or without AVX2 (the portable fused fallback
//! is bit-identical), so nothing here skips on feature detection.

mod util;

use std::sync::Once;

use deepseq_core::encoding::initial_states;
use deepseq_core::{CircuitGraph, DeepSeq, DeepSeqConfig};
use deepseq_nn::Kernel;
use deepseq_serve::{Engine, EngineOptions, InferenceModel, ServeRequest, Workspace};
use deepseq_sim::Workload;

/// Flip this process into fast mode before the first kernel dispatch
/// caches `DEEPSEQ_KERNEL`. Every test calls this first; tests sharing
/// the binary makes the setting process-wide, which is exactly the
/// deployment shape being modeled.
fn enable_fast_mode() {
    static INIT: Once = Once::new();
    INIT.call_once(|| std::env::set_var("DEEPSEQ_KERNEL", "simd"));
    assert!(
        Kernel::fast_mode(),
        "DEEPSEQ_KERNEL=simd was set too late: the kernel choice was already cached"
    );
}

fn small_config() -> DeepSeqConfig {
    DeepSeqConfig {
        hidden_dim: 8,
        iterations: 2,
        ..DeepSeqConfig::default()
    }
}

#[test]
fn fast_mode_selection_surface() {
    enable_fast_mode();
    // Serving honors fast mode and reports fast-mode numerics.
    assert_eq!(Kernel::for_serve(), Kernel::Simd);
    assert!(!Kernel::for_serve().is_bitwise());
    // Training refuses fast mode: the tape default stays on the bitwise
    // blocked kernel no matter what the environment says.
    assert_eq!(Kernel::global(), Kernel::Blocked);
    assert!(Kernel::global().is_bitwise());
}

#[test]
fn forward_stays_within_documented_bound_of_tape_path() {
    enable_fast_mode();
    let config = small_config();
    let model = DeepSeq::new(config);
    let frozen = InferenceModel::from_model(&model);
    let mut ws = Workspace::new(); // serving default → fused kernels
    for index in 0..4 {
        let aig = util::counter_aig(index);
        let graph = CircuitGraph::build(&aig);
        let h0 = initial_states(
            &aig,
            &Workload::uniform(aig.num_pis(), 0.4),
            8,
            index as u64,
        );
        let tape = model.predict(&graph, &h0); // tape path → bitwise kernels
        let free = frozen.run(&graph, &h0, &mut ws);
        let ctx = format!("counter{index}");
        util::assert_matrices_match(&free.predictions.tr, &tape.tr, &format!("{ctx} tr"));
        util::assert_matrices_match(&free.predictions.lg, &tape.lg, &format!("{ctx} lg"));
        let emb_tape = model.embed_graph(&graph, &h0);
        util::assert_matrices_match(&free.embedding, &emb_tape, &format!("{ctx} embedding"));
    }
}

#[test]
fn engine_matches_in_process_forward_bitwise() {
    enable_fast_mode();
    let config = small_config();
    let model = DeepSeq::new(config);
    // Two frozen models from the same deterministic build: identical bits.
    let engine = Engine::new(
        InferenceModel::from_model(&model),
        EngineOptions {
            workers: 3,
            ..EngineOptions::default()
        },
    );
    let frozen = InferenceModel::from_model(&model);
    let requests: Vec<ServeRequest> = (0..3)
        .map(|i| {
            let aig = util::counter_aig(i);
            let workload = Workload::uniform(aig.num_pis(), 0.5);
            ServeRequest {
                id: i as u64,
                aig,
                workload,
                init_seed: 1,
            }
        })
        .collect();
    let responses = engine.serve_batch(requests);
    let mut ws = Workspace::new();
    for response in &responses {
        let aig = util::counter_aig(response.id as usize);
        let graph = CircuitGraph::build(&aig);
        let h0 = initial_states(&aig, &Workload::uniform(aig.num_pis(), 0.5), 8, 1);
        let expected = frozen.run(&graph, &h0, &mut ws).predictions;
        let served = response.result.as_ref().expect("valid circuits serve");
        // Bitwise, not bounded: both sides run fast mode, and fast mode
        // is self-deterministic across pools, workspaces and runs.
        assert_eq!(
            served.data.predictions, expected,
            "engine and in-process fast-mode forwards diverged on request {}",
            response.id
        );
    }
}
