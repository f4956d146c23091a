//! The acceptance gate of the serving subsystem: the tape-free forward pass
//! must produce predictions **bitwise equal** to `DeepSeq::forward` on the
//! same checkpoint — across every aggregator, every propagation scheme,
//! random circuits, the empty circuit and the synthetic design suite. Under
//! the opt-in fast mode (`DEEPSEQ_KERNEL=simd`) the same suite runs with the
//! bounded-relative-error half of the two-mode numerics contract instead
//! (see `util::matrices_match`).

mod util;

use deepseq_core::encoding::initial_states;
use deepseq_core::{Aggregator, CircuitGraph, DeepSeq, DeepSeqConfig, PropagationScheme};
use deepseq_data::designs;
use deepseq_data::random::{random_circuit, CircuitSpec};
use deepseq_netlist::{lower_to_aig, parse_aiger, SeqAig};
use deepseq_serve::{InferenceModel, Workspace};
use deepseq_sim::Workload;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn assert_equivalent(aig: &SeqAig, config: DeepSeqConfig, ws: &mut Workspace) {
    let model = DeepSeq::new(config);
    let frozen = InferenceModel::from_model(&model);
    let graph = CircuitGraph::build(aig);
    let workload = Workload::uniform(aig.num_pis(), 0.4);
    let h0 = initial_states(aig, &workload, config.hidden_dim, 7);
    let tape = model.predict(&graph, &h0);
    let free = frozen.run(&graph, &h0, ws).predictions;
    let ctx = format!("{} with {config:?}", aig.name());
    util::assert_matrices_match(&free.tr, &tape.tr, &format!("tr predictions on {ctx}"));
    util::assert_matrices_match(&free.lg, &tape.lg, &format!("lg predictions on {ctx}"));
    // The pooled embedding matches the tape-side readout too.
    let emb_tape = model.embed_graph(&graph, &h0);
    let emb_free = frozen.run(&graph, &h0, ws).embedding;
    util::assert_matrices_match(&emb_free, &emb_tape, &format!("embedding on {ctx}"));
}

#[test]
fn equivalent_on_random_circuits_across_all_configs() {
    let mut rng = StdRng::seed_from_u64(11);
    let spec = CircuitSpec::default();
    let mut circuits: Vec<SeqAig> = (0..3)
        .map(|i| random_circuit(&format!("r{i}"), &spec, &mut rng))
        .collect();
    // A valid 0-node circuit: empty predictions and a zero embedding.
    circuits.push(parse_aiger("aag 0 0 0 0 0\n").expect("empty circuit parses"));
    let mut ws = Workspace::new();
    for agg in [
        Aggregator::ConvSum,
        Aggregator::Attention,
        Aggregator::DualAttention,
    ] {
        for scheme in [
            PropagationScheme::DagConv,
            PropagationScheme::DagRec,
            PropagationScheme::Custom,
        ] {
            let config = DeepSeqConfig {
                hidden_dim: 8,
                iterations: 2,
                aggregator: agg,
                scheme,
                seed: 3,
            };
            for aig in &circuits {
                assert_equivalent(aig, config, &mut ws);
            }
        }
    }
}

#[test]
fn equivalent_on_synthetic_design_suite() {
    // Two of the six Table IV designs (the smaller ones keep test time
    // reasonable); the workspace is reused across designs on purpose —
    // buffer reuse across differently-sized circuits must not leak state.
    let mut ws = Workspace::new();
    let config = DeepSeqConfig {
        hidden_dim: 8,
        iterations: 2,
        ..DeepSeqConfig::default()
    };
    for netlist in [designs::ptc(), designs::rtcclock()] {
        let lowered = lower_to_aig(&netlist).expect("valid design");
        assert_equivalent(&lowered.aig, config, &mut ws);
    }
}

#[test]
fn equivalent_after_binary_checkpoint_roundtrip() {
    let mut rng = StdRng::seed_from_u64(5);
    let aig = random_circuit("ck", &CircuitSpec::default(), &mut rng);
    let config = DeepSeqConfig {
        hidden_dim: 8,
        iterations: 2,
        ..DeepSeqConfig::default()
    };
    let model = DeepSeq::new(config);
    let frozen = InferenceModel::from_binary_checkpoint(&model.save_binary()).unwrap();
    let graph = CircuitGraph::build(&aig);
    let h0 = initial_states(&aig, &Workload::uniform(aig.num_pis(), 0.5), 8, 0);
    let tape = model.predict(&graph, &h0);
    let free = frozen.predict(&graph, &h0);
    util::assert_matrices_match(&free.tr, &tape.tr, "roundtripped tr predictions");
    util::assert_matrices_match(&free.lg, &tape.lg, "roundtripped lg predictions");
}

#[test]
fn workspace_reuse_is_deterministic() {
    // Serving the same request twice through one workspace gives identical
    // bits; interleaving an unrelated circuit in between must not matter.
    let mut rng = StdRng::seed_from_u64(9);
    let a = random_circuit("a", &CircuitSpec::default(), &mut rng);
    let b = random_circuit(
        "b",
        &CircuitSpec {
            num_gates: 60,
            ..CircuitSpec::default()
        },
        &mut rng,
    );
    let config = DeepSeqConfig {
        hidden_dim: 8,
        iterations: 2,
        ..DeepSeqConfig::default()
    };
    let frozen = InferenceModel::from_model(&DeepSeq::new(config));
    let ga = CircuitGraph::build(&a);
    let gb = CircuitGraph::build(&b);
    let ha = initial_states(&a, &Workload::uniform(a.num_pis(), 0.5), 8, 1);
    let hb = initial_states(&b, &Workload::uniform(b.num_pis(), 0.5), 8, 1);
    let mut ws = Workspace::new();
    let first = frozen.run(&ga, &ha, &mut ws).predictions;
    let _ = frozen.run(&gb, &hb, &mut ws);
    let second = frozen.run(&ga, &ha, &mut ws).predictions;
    assert_eq!(first, second);
}
