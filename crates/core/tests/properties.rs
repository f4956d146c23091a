//! Property-based tests for the DeepSeq model: predictions must be valid
//! probabilities on arbitrary circuits, propagation must respect the fixed
//! PI constraint, and graph preprocessing must be structurally sound.

use deepseq_core::encoding::initial_states;
use deepseq_core::{Aggregator, CircuitGraph, DeepSeq, DeepSeqConfig, PropagationScheme};
use deepseq_netlist::{NodeId, SeqAig};
use deepseq_nn::crc32;
use deepseq_sim::Workload;
use proptest::prelude::*;

fn arb_seq_aig() -> impl Strategy<Value = SeqAig> {
    (1usize..5, 0usize..4, 1usize..25, any::<u64>()).prop_map(|(n_pi, n_ff, n_gate, seed)| {
        let mut state = seed | 1;
        let mut next = move |bound: usize| -> usize {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            (state.wrapping_mul(0x2545F4914F6CDD1D) >> 33) as usize % bound.max(1)
        };
        let mut aig = SeqAig::new("prop");
        for i in 0..n_pi {
            aig.add_pi(format!("pi{i}"));
        }
        let mut ffs = Vec::new();
        for i in 0..n_ff {
            ffs.push(aig.add_ff(format!("ff{i}"), next(2) == 1));
        }
        for _ in 0..n_gate {
            let len = aig.len();
            if next(3) == 0 {
                aig.add_not(NodeId(next(len) as u32));
            } else {
                aig.add_and(NodeId(next(len) as u32), NodeId(next(len) as u32));
            }
        }
        let len = aig.len();
        for &ff in &ffs {
            aig.connect_ff(ff, NodeId(next(len) as u32)).unwrap();
        }
        aig.set_output(NodeId((len - 1) as u32), "out");
        aig
    })
}

fn tiny_config(aggregator: Aggregator, scheme: PropagationScheme) -> DeepSeqConfig {
    DeepSeqConfig {
        hidden_dim: 8,
        iterations: 2,
        aggregator,
        scheme,
        seed: 3,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn predictions_are_probabilities(aig in arb_seq_aig(), p1 in 0.0f64..1.0) {
        let config = tiny_config(Aggregator::DualAttention, PropagationScheme::Custom);
        let model = DeepSeq::new(config);
        let graph = CircuitGraph::build(&aig);
        let w = Workload::uniform(aig.num_pis(), p1);
        let h0 = initial_states(&aig, &w, config.hidden_dim, 1);
        let preds = model.predict(&graph, &h0);
        prop_assert_eq!(preds.tr.shape(), (aig.len(), 2));
        prop_assert_eq!(preds.lg.shape(), (aig.len(), 1));
        for &v in preds.tr.data().iter().chain(preds.lg.data()) {
            prop_assert!((0.0..=1.0).contains(&v), "prediction {v} out of range");
        }
    }

    #[test]
    fn all_variants_run_on_random_circuits(aig in arb_seq_aig()) {
        for scheme in [PropagationScheme::DagConv, PropagationScheme::DagRec, PropagationScheme::Custom] {
            for agg in [Aggregator::ConvSum, Aggregator::Attention, Aggregator::DualAttention] {
                let config = tiny_config(agg, scheme);
                let model = DeepSeq::new(config);
                let graph = CircuitGraph::build(&aig);
                let w = Workload::uniform(aig.num_pis(), 0.5);
                let h0 = initial_states(&aig, &w, config.hidden_dim, 1);
                let preds = model.predict(&graph, &h0);
                prop_assert!(preds.lg.data().iter().all(|v| v.is_finite()));
            }
        }
    }

    #[test]
    fn graph_batches_cover_every_gate_once(aig in arb_seq_aig()) {
        let graph = CircuitGraph::build(&aig);
        // Forward batches update exactly the AND/NOT nodes.
        let mut updated = vec![0usize; aig.len()];
        for batch in &graph.forward {
            for &v in &batch.nodes {
                updated[v as usize] += 1;
            }
        }
        for (id, node) in aig.iter() {
            let expected = usize::from(node.is_and() || node.is_not());
            prop_assert_eq!(updated[id.index()], expected, "node {}", id);
        }
    }

    #[test]
    fn reverse_batches_never_touch_pis(aig in arb_seq_aig()) {
        let graph = CircuitGraph::build(&aig);
        for batch in &graph.reverse {
            for &v in &batch.nodes {
                prop_assert!(!aig.node(NodeId(v)).is_pi());
            }
        }
    }

    #[test]
    fn segments_reference_valid_nodes(aig in arb_seq_aig()) {
        let graph = CircuitGraph::build(&aig);
        for batch in graph.forward.iter().chain(&graph.reverse) {
            for &(neighbor, seg) in &batch.edges {
                prop_assert!((seg as usize) < batch.nodes.len());
                prop_assert!((neighbor as usize) < aig.len());
            }
        }
    }

    #[test]
    fn pi_rows_stay_fixed(aig in arb_seq_aig(), p1 in 0.0f64..1.0) {
        let config = tiny_config(Aggregator::DualAttention, PropagationScheme::Custom);
        let model = DeepSeq::new(config);
        let graph = CircuitGraph::build(&aig);
        let w = Workload::uniform(aig.num_pis(), p1);
        let h0 = initial_states(&aig, &w, config.hidden_dim, 1);
        let mut tape = deepseq_nn::Tape::new();
        let vars = model.forward(&mut tape, &graph, &h0);
        let hidden = tape.value(vars.hidden);
        for &pi in &graph.pis {
            for c in 0..config.hidden_dim {
                prop_assert_eq!(hidden.get(pi as usize, c), h0.get(pi as usize, c));
            }
        }
    }

    #[test]
    fn checkpoint_roundtrip_random_configs(
        aig in arb_seq_aig(),
        hidden in 4usize..12,
        iters in 1usize..4,
    ) {
        let config = DeepSeqConfig {
            hidden_dim: hidden,
            iterations: iters,
            aggregator: Aggregator::DualAttention,
            scheme: PropagationScheme::Custom,
            seed: 9,
        };
        let model = DeepSeq::new(config);
        let graph = CircuitGraph::build(&aig);
        let w = Workload::uniform(aig.num_pis(), 0.5);
        let h0 = initial_states(&aig, &w, hidden, 2);
        let before = model.predict(&graph, &h0);
        let restored = DeepSeq::from_text(&model.to_text()).unwrap();
        let after = restored.predict(&graph, &h0);
        prop_assert_eq!(before, after);
    }

    #[test]
    fn text_and_binary_checkpoints_restore_identical_values(
        hidden in 1usize..5,
        seed in any::<u64>(),
    ) {
        let mut model = DeepSeq::new(DeepSeqConfig {
            hidden_dim: hidden,
            iterations: 1,
            ..DeepSeqConfig::default()
        });
        fill_with_value_mix(&mut model, seed);
        let via_text = DeepSeq::from_text(&model.to_text()).expect("text load");
        let via_binary = DeepSeq::from_binary_checkpoint(&model.save_binary()).expect("binary load");
        let bits = |m: &DeepSeq, name: &str| -> Vec<u32> {
            let id = m.params().find(name).expect("name survives");
            m.params().get(id).data().iter().map(|v| v.to_bits()).collect()
        };
        for (_, name, _) in model.params().iter() {
            let t = bits(&via_text, name);
            prop_assert_eq!(&t, &bits(&via_binary, name), "{}: text and binary restores diverge", name);
            prop_assert_eq!(&bits(&model, name), &t, "{}: text restore is lossy", name);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    // One byte edit, truncation or extension of a small checkpoint, with
    // both trailers recomputed so that the edit reaches the parsers behind
    // the checksums. The decoder must return, and an input it accepts must
    // be what the decoded model writes, up to the reserved field that
    // readers ignore.
    #[test]
    fn crc_valid_edits_of_a_checkpoint_decode_or_fail_cleanly(
        variant in 0usize..9,
        hidden in 1usize..5,
        seed in any::<u64>(),
        edit in 0usize..3,
        at in any::<u64>(),
        with in any::<u64>(),
    ) {
        let aggregators = [Aggregator::ConvSum, Aggregator::Attention, Aggregator::DualAttention];
        let schemes = [PropagationScheme::DagConv, PropagationScheme::DagRec, PropagationScheme::Custom];
        let mut model = DeepSeq::new(DeepSeqConfig {
            hidden_dim: hidden,
            iterations: 2,
            aggregator: aggregators[variant % 3],
            scheme: schemes[variant / 3],
            seed,
        });
        fill_with_value_mix(&mut model, seed);
        let mut bytes = model.save_binary();
        let at = at as usize;
        match edit {
            // A third of the byte edits land in the two headers, a third
            // on any field but a weight, a third anywhere.
            0 => {
                let fields = field_offsets(&bytes);
                let i = match at % 3 {
                    0 => at / 3 % (DSQM_HEADER + 12),
                    1 => fields[at / 3 % fields.len()],
                    _ => at / 3 % bytes.len(),
                };
                bytes[i] = with as u8;
            }
            1 => bytes.truncate(at % bytes.len()),
            _ => bytes.extend_from_slice(&with.to_le_bytes()[..1 + at % 8]),
        }
        recompute_trailers(&mut bytes);
        if let Ok(decoded) = DeepSeq::from_binary_checkpoint(&bytes) {
            let mut canonical = bytes.clone();
            canonical[DSQP_RESERVED].fill(0);
            recompute_trailers(&mut canonical);
            prop_assert_eq!(decoded.save_binary(), canonical);
        }
    }
}

/// Length of the `DSQM` header before the embedded `DSQP` blob
/// (`docs/CHECKPOINTS.md`).
const DSQM_HEADER: usize = 24;
/// Where the `DSQP` reserved `u16`, which readers ignore, sits in a `DSQM`.
const DSQP_RESERVED: std::ops::Range<usize> = DSQM_HEADER + 6..DSQM_HEADER + 8;

/// Rewrites both CRC trailers of an edited `DSQM`: first the embedded
/// `DSQP` blob's, which ends 4 bytes before the file, then the file's.
fn recompute_trailers(bytes: &mut [u8]) {
    let n = bytes.len();
    if n >= DSQM_HEADER + 8 {
        let crc = crc32(&bytes[DSQM_HEADER..n - 8]);
        bytes[n - 8..n - 4].copy_from_slice(&crc.to_le_bytes());
    }
    if n >= 4 {
        let crc = crc32(&bytes[..n - 4]);
        bytes[n - 4..].copy_from_slice(&crc.to_le_bytes());
    }
}

/// Offsets of every byte of a valid `DSQM` that is not a weight: both
/// headers, each record's name and shape, and both trailers.
fn field_offsets(dsqm: &[u8]) -> Vec<usize> {
    let u32_at = |at: usize| u32::from_le_bytes(dsqm[at..at + 4].try_into().unwrap()) as usize;
    let mut at = DSQM_HEADER + 12;
    let mut fields: Vec<usize> = (0..at).collect();
    for _ in 0..u32_at(DSQM_HEADER + 8) {
        let name_len = u32_at(at);
        let values = u32_at(at + 4 + name_len) * u32_at(at + 8 + name_len);
        fields.extend(at..at + 12 + name_len);
        at += 12 + name_len + 4 * values;
    }
    fields.extend(at..dsqm.len());
    fields
}

/// Overwrites every weight of `model` with a seeded mix of exact, tiny,
/// negative (`-0.0` included) and arbitrary finite values.
fn fill_with_value_mix(model: &mut DeepSeq, seed: u64) {
    let mut state = seed | 1;
    let mut next = move |bound: usize| -> usize {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        (state.wrapping_mul(0x2545F4914F6CDD1D) >> 33) as usize % bound.max(1)
    };
    let params = model.params_mut();
    let ids: Vec<_> = params.iter().map(|(id, _, _)| id).collect();
    for id in ids {
        let m = params.get_mut(id);
        for r in 0..m.rows() {
            for c in 0..m.cols() {
                let v = match next(5) {
                    0 => 0.0,
                    1 => -(r as f32) - c as f32,
                    2 => 1.0 / (1 + next(1000)) as f32,
                    3 => f32::from_bits(next(u32::MAX as usize) as u32 & 0x7F7F_FFFF),
                    _ => next(1000) as f32 * 1e-3,
                };
                m.set(r, c, v);
            }
        }
    }
}
