//! Property tests of the serving subsystem: a response is a pure function
//! of its request (whatever the cone memo saw before), the threaded engine
//! must return exactly what a direct forward pass returns, and the
//! level-parallel forward pass must be bitwise identical at every thread
//! count.

use std::collections::HashMap;
use std::sync::Arc;

use deepseq_core::encoding::initial_states;
use deepseq_core::{CircuitGraph, DeepSeq, DeepSeqConfig};
use deepseq_netlist::{AigNode, NodeId, SeqAig};
use deepseq_nn::{Kernel, Pool};
use deepseq_serve::json::response_to_json;
use deepseq_serve::{Engine, EngineOptions, InferenceModel, ServeRequest, Workspace};
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
    fn responses_are_pure_under_repeats_edits_and_renumbering(
        random in arb_seq_aig(),
        seeds in proptest::collection::vec(any::<u64>(), 2..5),
        ops in proptest::collection::vec((0u8..4, any::<u64>()), 4..10),
    ) {
        // One engine with the default memo serves a request sequence that
        // mixes repeats, one-component edits, renumberings and reseeds;
        // each answer must be bitwise what a fresh uncached engine gives
        // the same request, at every pool width.
        let model = DeepSeq::new(DeepSeqConfig { hidden_dim: 8, iterations: 2, ..DeepSeqConfig::default() });
        let request = |id: u64, aig: SeqAig, init_seed: u64| ServeRequest {
            id,
            workload: Workload::uniform(aig.num_pis(), 0.5),
            aig,
            init_seed,
        };
        let mut blocks = seeds.clone();
        let mut sequence = vec![
            request(0, multi_block_aig(&blocks), 0),
            request(1, random, 0),
        ];
        for (i, &(op, arg)) in ops.iter().enumerate() {
            let id = i as u64 + 2;
            let earlier = &sequence[arg as usize % sequence.len()];
            let next = match op {
                0 => ServeRequest { id, ..earlier.clone() },
                1 => {
                    let b = arg as usize % blocks.len();
                    blocks[b] ^= arg | 1;
                    request(id, multi_block_aig(&blocks), 0)
                }
                2 => request(id, renumber(&earlier.aig, arg), earlier.init_seed),
                _ => request(id, earlier.aig.clone(), arg % 3),
            };
            sequence.push(next);
        }
        for threads in [1usize, 4] {
            let pool = Arc::new(Pool::new(threads));
            let engine = |cone_capacity| Engine::with_pool(
                InferenceModel::from_model(&model),
                EngineOptions { workers: 2, cone_capacity, ..EngineOptions::default() },
                Arc::clone(&pool),
            );
            let memoed = engine(EngineOptions::default().cone_capacity);
            for req in &sequence {
                let got = memoed.serve_batch(vec![req.clone()]).pop().unwrap();
                let want = engine(0).serve_batch(vec![req.clone()]).pop().unwrap();
                let (g, w) = (got.result.as_ref().unwrap(), want.result.as_ref().unwrap());
                for (tag, got_m, want_m) in [
                    ("tr", &g.data.predictions.tr, &w.data.predictions.tr),
                    ("lg", &g.data.predictions.lg, &w.data.predictions.lg),
                    ("embedding", &g.data.embedding, &w.data.embedding),
                ] {
                    prop_assert_eq!(got_m.shape(), want_m.shape());
                    for (i, (x, y)) in got_m.data().iter().zip(want_m.data()).enumerate() {
                        prop_assert_eq!(
                            x.to_bits(), y.to_bits(),
                            "request {} {} t{} elem {}: {} vs {}",
                            req.id, tag, threads, i, x, y
                        );
                    }
                }
                prop_assert_eq!(
                    response_to_json(&got, false).replacen("\"cache_hit\":true", "\"cache_hit\":false", 1),
                    response_to_json(&want, false),
                    "request {} t{}", req.id, threads
                );
            }
        }
    }

    #[test]
    fn inference_bitwise_identical_across_thread_counts(aig in arb_wide_aig(), seed in any::<u64>()) {
        // The chunk boundary only decides *which* scratch a node's update
        // runs in, never the arithmetic: predictions and embedding must be
        // bitwise equal across pools of 1, 2, 4 and 7 threads, on the
        // serving default, the blocked kernel.
        let config = DeepSeqConfig { hidden_dim: 16, iterations: 2, ..DeepSeqConfig::default() };
        let model = DeepSeq::new(config);
        let frozen = InferenceModel::from_model(&model);
        let graph = CircuitGraph::build(&aig);
        let h0 = initial_states(&aig, &Workload::uniform(aig.num_pis(), 0.5), 16, seed);
        let mut ws = Workspace::with_pool(Kernel::Blocked, Arc::new(Pool::new(1)));
        let reference = frozen.run(&graph, &h0, &mut ws);
        for threads in [2usize, 4, 7] {
            let mut ws = Workspace::with_pool(Kernel::Blocked, Arc::new(Pool::new(threads)));
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
                        "{} t{} elem {}: {} vs {}",
                        tag, threads, i, x, y
                    );
                }
            }
        }
    }

    #[test]
    fn engine_matches_direct_forward(aigs in proptest::collection::vec(arb_seq_aig(), 1..4), workers in 1usize..4) {
        let config = DeepSeqConfig { hidden_dim: 6, iterations: 2, ..DeepSeqConfig::default() };
        let model = DeepSeq::new(config);
        let frozen = InferenceModel::from_model(&model);
        let engine = Engine::new(frozen, EngineOptions { workers, ..EngineOptions::default() });

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
        // Bitwise against the tape path.
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
        for threads in [1usize, 4] {
            let pool = Arc::new(Pool::new(threads));
            let memoed = Engine::with_pool(
                InferenceModel::from_model(&model),
                EngineOptions { workers: 2, cone_capacity: 64, ..EngineOptions::default() },
                Arc::clone(&pool),
            );
            let plain = Engine::with_pool(
                InferenceModel::from_model(&model),
                EngineOptions { workers: 2, cone_capacity: 0, ..EngineOptions::default() },
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
