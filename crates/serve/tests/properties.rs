//! Property tests of the serving subsystem: the content address must be
//! blind to node renumbering (that is what makes it *content* addressing),
//! the threaded engine must return exactly what a direct forward pass
//! returns, and the level-parallel forward pass must be bitwise identical
//! at every thread count.

use std::collections::HashMap;
use std::sync::Arc;

use deepseq_core::encoding::initial_states;
use deepseq_core::{CircuitGraph, DeepSeq, DeepSeqConfig};
use deepseq_netlist::{AigNode, NodeId, SeqAig};
use deepseq_nn::{Kernel, Pool};
use deepseq_serve::{CacheKey, Engine, EngineOptions, InferenceModel, ServeRequest, Workspace};
use deepseq_sim::PiStimulus;
use deepseq_sim::Workload;
use proptest::prelude::*;

mod util;

/// Strategy: a small random sequential AIG (same recipe as the netlist
/// crate's property tests).
fn arb_seq_aig() -> impl Strategy<Value = SeqAig> {
    (1usize..6, 0usize..5, 0usize..30, any::<u64>()).prop_map(|(n_pi, n_ff, n_gate, seed)| {
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
                let a = NodeId(next(len) as u32);
                aig.add_not(a);
            } else {
                let a = NodeId(next(len) as u32);
                let b = NodeId(next(len) as u32);
                aig.add_and(a, b);
            }
        }
        let len = aig.len();
        for &ff in &ffs {
            let d = NodeId(next(len) as u32);
            aig.connect_ff(ff, d).expect("ff connect");
        }
        aig.set_output(NodeId((len - 1) as u32), "out");
        aig
    })
}

/// Strategy: a *wide* random sequential AIG — the first gate wave draws
/// fanins from the sources only, so one level holds dozens of nodes and the
/// level-parallel path genuinely chunks it (MIN_NODES_PER_CHUNK is 16).
fn arb_wide_aig() -> impl Strategy<Value = SeqAig> {
    (3usize..6, 1usize..4, 60usize..140, any::<u64>()).prop_map(|(n_pi, n_ff, n_gate, seed)| {
        let mut state = seed | 1;
        let mut next = move |bound: usize| -> usize {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            (state.wrapping_mul(0x2545F4914F6CDD1D) >> 33) as usize % bound.max(1)
        };
        let mut aig = SeqAig::new("wide");
        for i in 0..n_pi {
            aig.add_pi(format!("pi{i}"));
        }
        let mut ffs = Vec::new();
        for i in 0..n_ff {
            ffs.push(aig.add_ff(format!("ff{i}"), next(2) == 1));
        }
        let sources = aig.len();
        for g in 0..n_gate {
            // First two thirds: fanins from the sources only (one wide
            // level); the rest from anywhere, for depth.
            let bound = if g < n_gate * 2 / 3 {
                sources
            } else {
                aig.len()
            };
            if next(4) == 0 {
                aig.add_not(NodeId(next(bound) as u32));
            } else {
                let a = NodeId(next(bound) as u32);
                let b = NodeId(next(bound) as u32);
                aig.add_and(a, b);
            }
        }
        let len = aig.len();
        for &ff in &ffs {
            let d = NodeId(next(len) as u32);
            aig.connect_ff(ff, d).expect("ff connect");
        }
        aig.set_output(NodeId((len - 1) as u32), "out");
        aig
    })
}

/// A circuit of self-contained blocks (each: one PI, one FF, four gates
/// drawing fanins only from the block) — every block is exactly one
/// weakly-connected component, so a K-block circuit partitions into K
/// fanin cones for the cone memo.
fn multi_block_aig(seeds: &[u64]) -> SeqAig {
    let mut aig = SeqAig::new("blocks");
    for (b, &seed) in seeds.iter().enumerate() {
        let mut state = seed | 1;
        let mut next = move |bound: usize| -> usize {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            (state.wrapping_mul(0x2545F4914F6CDD1D) >> 33) as usize % bound.max(1)
        };
        let pi = aig.add_pi(format!("b{b}pi"));
        let ff = aig.add_ff(format!("b{b}ff"), next(2) == 1);
        let mut nodes = vec![pi, ff];
        for _ in 0..4 {
            let a = nodes[next(nodes.len())];
            let c = nodes[next(nodes.len())];
            nodes.push(if next(3) == 0 {
                aig.add_not(a)
            } else {
                aig.add_and(a, c)
            });
        }
        aig.connect_ff(ff, *nodes.last().unwrap())
            .expect("ff connect");
    }
    aig
}

/// Random valid topological renumbering (mirror of the netlist property
/// helper; kept local so the crates' tests stay self-contained).
fn renumber(aig: &SeqAig, seed: u64) -> SeqAig {
    let n = aig.len();
    let mut state = seed | 1;
    let mut next = move |bound: usize| -> usize {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        (state.wrapping_mul(0x2545F4914F6CDD1D) >> 33) as usize % bound.max(1)
    };
    let mut out = SeqAig::new(aig.name());
    let mut mapped: Vec<Option<NodeId>> = vec![None; n];
    let mut remaining: Vec<NodeId> = aig.iter().map(|(id, _)| id).collect();
    while !remaining.is_empty() {
        let ready: Vec<usize> = remaining
            .iter()
            .enumerate()
            .filter(|(_, id)| match *aig.node(**id) {
                AigNode::Pi | AigNode::Ff { .. } => true,
                AigNode::And(a, b) => mapped[a.index()].is_some() && mapped[b.index()].is_some(),
                AigNode::Not(a) => mapped[a.index()].is_some(),
            })
            .map(|(i, _)| i)
            .collect();
        let pick = ready[next(ready.len())];
        let id = remaining.swap_remove(pick);
        let new_id = match *aig.node(id) {
            AigNode::Pi => out.add_pi(aig.node_name(id).unwrap_or("pi")),
            AigNode::Ff { init, .. } => out.add_ff(aig.node_name(id).unwrap_or("ff"), init),
            AigNode::And(a, b) => {
                out.add_and(mapped[a.index()].unwrap(), mapped[b.index()].unwrap())
            }
            AigNode::Not(a) => out.add_not(mapped[a.index()].unwrap()),
        };
        mapped[id.index()] = Some(new_id);
    }
    for (id, node) in aig.iter() {
        if let AigNode::Ff { d: Some(d), .. } = *node {
            out.connect_ff(mapped[id.index()].unwrap(), mapped[d.index()].unwrap())
                .expect("renumbered FF connect");
        }
    }
    for (node, name) in aig.outputs() {
        out.set_output(mapped[node.index()].unwrap(), name.clone());
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn cache_key_invariant_under_renumbering(aig in arb_seq_aig(), perm_seed in any::<u64>(), seed in any::<u64>()) {
        // Give every PI a distinct stimulus keyed by its name...
        let stim_of = |name: &str| {
            let salt = name.bytes().map(|b| b as u64).sum::<u64>() % 97;
            PiStimulus::independent(0.01 + salt as f64 / 100.0)
        };
        let workload = Workload::new(
            aig.pis().iter().map(|&pi| stim_of(aig.node_name(pi).unwrap())).collect(),
        );
        let renumbered = renumber(&aig, perm_seed);
        // ...and rebuild the workload in the renumbered circuit's PI order.
        let workload2 = Workload::new(
            renumbered.pis().iter().map(|&pi| stim_of(renumbered.node_name(pi).unwrap())).collect(),
        );
        prop_assert_eq!(
            CacheKey::for_request(&aig, &workload, seed),
            CacheKey::for_request(&renumbered, &workload2, seed),
            "renumbering broke the content address"
        );
    }

    #[test]
    fn inference_bitwise_identical_across_thread_counts(aig in arb_wide_aig(), seed in any::<u64>()) {
        // The chunk boundary only decides *which* scratch a node's update
        // runs in, never the arithmetic: predictions and embedding must be
        // bitwise equal across pools of 1, 2, 4 and 7 threads, for the
        // serve-default blocked kernel and for `Simd` (fast mode changes
        // which bits, never their dependence on thread count).
        let config = DeepSeqConfig { hidden_dim: 16, iterations: 2, ..DeepSeqConfig::default() };
        let model = DeepSeq::new(config);
        let frozen = InferenceModel::from_model(&model).unwrap();
        let graph = CircuitGraph::build(&aig);
        let h0 = initial_states(&aig, &Workload::uniform(aig.num_pis(), 0.5), 16, seed);
        for kernel in [Kernel::Blocked, Kernel::Simd] {
            let mut ws = Workspace::with_pool(kernel, Arc::new(Pool::new(1)));
            let reference = frozen.run(&graph, &h0, &mut ws);
            for threads in [2usize, 4, 7] {
                let mut ws = Workspace::with_pool(kernel, Arc::new(Pool::new(threads)));
                let got = frozen.run(&graph, &h0, &mut ws);
                for (tag, got_m, want_m) in [
                    ("tr", &got.predictions.tr, &reference.predictions.tr),
                    ("lg", &got.predictions.lg, &reference.predictions.lg),
                    ("embedding", &got.embedding, &reference.embedding),
                ] {
                    prop_assert_eq!(got_m.shape(), want_m.shape());
                    for (i, (x, y)) in got_m.data().iter().zip(want_m.data()).enumerate() {
                        prop_assert_eq!(
                            x.to_bits(), y.to_bits(),
                            "{} {} t{} elem {}: {} vs {}",
                            tag, kernel.name(), threads, i, x, y
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn engine_matches_direct_forward(aigs in proptest::collection::vec(arb_seq_aig(), 1..4), workers in 1usize..4) {
        let config = DeepSeqConfig { hidden_dim: 6, iterations: 2, ..DeepSeqConfig::default() };
        let model = DeepSeq::new(config);
        let frozen = InferenceModel::from_model(&model).unwrap();
        let engine = Engine::new(frozen, EngineOptions { workers, cache_capacity: 8,
                                                         ..EngineOptions::default() });

        let requests: Vec<ServeRequest> = aigs.iter().enumerate().map(|(i, aig)| ServeRequest {
            id: i as u64,
            aig: aig.clone(),
            workload: Workload::uniform(aig.num_pis(), 0.5),
            init_seed: 1,
        }).collect();
        let responses = engine.serve_batch(requests);

        let mut expected = HashMap::new();
        for (i, aig) in aigs.iter().enumerate() {
            let graph = CircuitGraph::build(aig);
            let h0 = initial_states(aig, &Workload::uniform(aig.num_pis(), 0.5), 6, 1);
            expected.insert(i as u64, model.predict(&graph, &h0));
        }
        // Two-mode-aware comparison: bitwise against the tape path in the
        // default mode; within the documented forward bound under
        // `DEEPSEQ_KERNEL=simd`, where the engine runs fused kernels but
        // the tape path stays on the reference loops.
        for response in &responses {
            let served = response.result.as_ref().expect("valid circuits serve");
            let want = &expected[&response.id];
            for (tag, got_m, want_m) in [
                ("tr", &served.data.predictions.tr, &want.tr),
                ("lg", &served.data.predictions.lg, &want.lg),
            ] {
                let res = util::matrices_match(got_m, want_m, tag);
                prop_assert!(
                    res.is_ok(),
                    "engine diverged from the tape path on request {}: {:?}",
                    response.id, res
                );
            }
        }
    }

    #[test]
    fn cone_reuse_is_bitwise_identical_to_full_recompute(
        seeds in proptest::collection::vec(any::<u64>(), 2..5),
        edit in any::<u64>(),
    ) {
        let config = DeepSeqConfig { hidden_dim: 8, iterations: 2, ..DeepSeqConfig::default() };
        let model = DeepSeq::new(config);
        let base = multi_block_aig(&seeds);
        // Near-duplicate: rebuild with only the LAST block's seed changed, so
        // every earlier block keeps its node ids — and, because the initial
        // states are drawn row-sequentially from a seeded RNG, its exact h0
        // rows. Those prefix cones must all hit the memo.
        let mut edited_seeds = seeds.clone();
        *edited_seeds.last_mut().unwrap() ^= edit | 1;
        let edited = multi_block_aig(&edited_seeds);
        let request = |aig: &SeqAig, id: u64| ServeRequest {
            id,
            aig: aig.clone(),
            workload: Workload::uniform(aig.num_pis(), 0.5),
            init_seed: 3,
        };
        // The memo must be bitwise-invisible at every thread count: a
        // memo-warm answer for the edit equals a cold full recompute.
        // cache_capacity: 0 disables the exact-match cache so the served
        // result is forced through the cone path.
        for threads in [1usize, 4] {
            let pool = Arc::new(Pool::new(threads));
            let memoed = Engine::with_pool(
                InferenceModel::from_model(&model).unwrap(),
                EngineOptions { workers: 2, cache_capacity: 0, cone_capacity: 64 },
                Arc::clone(&pool),
            );
            let plain = Engine::with_pool(
                InferenceModel::from_model(&model).unwrap(),
                EngineOptions { workers: 2, cache_capacity: 0, cone_capacity: 0 },
                pool,
            );
            memoed.serve_batch(vec![request(&base, 0)]); // warm the memo
            let warm = memoed
                .serve_batch(vec![request(&edited, 1)])
                .pop().unwrap().result.expect("edited circuit serves");
            let cold = plain
                .serve_batch(vec![request(&edited, 2)])
                .pop().unwrap().result.expect("edited circuit serves");
            prop_assert!(
                warm.cones_reused >= seeds.len() - 1,
                "expected at least {} cones reused, got {}",
                seeds.len() - 1, warm.cones_reused
            );
            for (tag, got_m, want_m) in [
                ("tr", &warm.data.predictions.tr, &cold.data.predictions.tr),
                ("lg", &warm.data.predictions.lg, &cold.data.predictions.lg),
                ("embedding", &warm.data.embedding, &cold.data.embedding),
            ] {
                prop_assert_eq!(got_m.shape(), want_m.shape());
                for (i, (x, y)) in got_m.data().iter().zip(want_m.data()).enumerate() {
                    prop_assert_eq!(
                        x.to_bits(), y.to_bits(),
                        "{} t{} elem {}: {} vs {}",
                        tag, threads, i, x, y
                    );
                }
            }
        }
    }
}
