//! End-to-end serving scenario: train-free checkpoint handoff into the
//! batched tape-free inference engine, with cone-memo hit/miss statistics.
//!
//! 1. Build a model and write a **binary checkpoint** (the `DSQM` format).
//! 2. Reload it as a frozen [`InferenceModel`] — no tape, no optimizer.
//! 3. Serve a batch of circuits (synthetic design-suite blocks + random
//!    training-scale circuits) through the shared-pool [`Engine`] — the
//!    same `DEEPSEQ_THREADS`-sized pool runs request- and level-level
//!    parallelism, with bitwise-identical outputs at any thread count.
//! 4. Re-serve the same batch: every request is answered from the cone
//!    memo without running the model. A *renumbered* copy of a circuit is
//!    computed instead: its initial states are seeded by node index, so it
//!    is a different request to the forward pass, and the memo is keyed by
//!    what the forward pass reads.
//!
//! Run: `cargo run --release --example serving`

use deepseq::core::{DeepSeq, DeepSeqConfig};
use deepseq::data::random::{random_circuit, CircuitSpec};
use deepseq::netlist::{AigNode, NodeId, SeqAig};
use deepseq::serve::{Engine, EngineOptions, InferenceModel, ServeRequest};
use deepseq::sim::Workload;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // 1. A (here: untrained) model, checkpointed in the binary format. A
    //    production flow would train first; the serving path is identical.
    let config = DeepSeqConfig {
        hidden_dim: 16,
        iterations: 3,
        ..DeepSeqConfig::default()
    };
    let model = DeepSeq::new(config);
    let checkpoint = model.save_binary();
    println!(
        "checkpoint: {} parameters, {} bytes binary (text would be {} bytes)",
        model.params().len(),
        checkpoint.len(),
        model.save_to_string().len()
    );

    // 2. Freeze for serving.
    let frozen = InferenceModel::from_binary_checkpoint(&checkpoint).expect("valid checkpoint");
    let engine = Engine::new(
        frozen,
        EngineOptions {
            workers: 4,
            ..EngineOptions::default()
        },
    );

    // 3. A batch of independent circuits.
    let mut rng = StdRng::seed_from_u64(42);
    let circuits: Vec<SeqAig> = (0..6)
        .map(|i| {
            random_circuit(
                &format!("design{i}"),
                &CircuitSpec {
                    num_gates: 120 + 30 * i,
                    ..CircuitSpec::default()
                },
                &mut rng,
            )
        })
        .collect();

    let requests = |base: u64, circuits: &[SeqAig]| -> Vec<ServeRequest> {
        circuits
            .iter()
            .enumerate()
            .map(|(i, aig)| ServeRequest {
                id: base + i as u64,
                aig: aig.clone(),
                workload: Workload::uniform(aig.num_pis(), 0.5),
                init_seed: 7,
            })
            .collect()
    };

    println!("\ncold batch ({} circuits):", circuits.len());
    serve_round(&engine, requests(0, &circuits));

    // 4. Warm batch: everything hits the memo. A renumbered copy of the
    //    first circuit rides along and is computed, not borrowed from the
    //    original. (Repeats ride the warm batch: in the cold batch they
    //    could race a concurrent worker still computing the original and
    //    legitimately miss.)
    let mut warm = circuits.clone();
    warm.push(reverse_renumber(&circuits[0]));
    println!("\nwarm batch (same circuits + renumbered copy):");
    serve_round(&engine, requests(100, &warm));

    let stats = engine.cache_stats();
    let cones = engine.cone_stats();
    println!(
        "\ncone memo: {} of {} requests answered wholly ({:.0}%), {} of {} components reused, \
         {} entries resident, {} evictions",
        stats.hits,
        stats.hits + stats.misses,
        100.0 * stats.hit_ratio(),
        cones.hits,
        cones.hits + cones.misses,
        stats.entries,
        stats.evictions
    );
    println!("requests served: {}", engine.requests_served());
    assert_eq!(
        stats.hits as usize,
        circuits.len(),
        "every repeated circuit is answered from the memo"
    );
    assert_eq!(
        stats.misses as usize,
        circuits.len() + 1,
        "the cold batch and the renumbered copy are computed"
    );
}

fn serve_round(engine: &Engine, requests: Vec<ServeRequest>) {
    for response in engine.serve_batch(requests) {
        let served = response.result.expect("valid circuits");
        let lg = &served.data.predictions.lg;
        println!(
            "  {:<10} {:>4} nodes  mean p(1)={:.3}  {}",
            response.design,
            served.num_nodes,
            lg.sum() / lg.rows() as f32,
            if served.cache_hit { "HIT" } else { "miss" }
        );
    }
}

/// Rebuilds a circuit with PIs/FFs created in reverse order — a different
/// node numbering of the same structure.
fn reverse_renumber(aig: &SeqAig) -> SeqAig {
    let mut out = SeqAig::new(aig.name());
    let mut mapped: Vec<Option<NodeId>> = vec![None; aig.len()];
    // Sources in reverse id order first, then gates in id order (their
    // fanins are then always available).
    let sources: Vec<NodeId> = aig
        .iter()
        .filter(|(_, n)| n.is_pi() || n.is_ff())
        .map(|(id, _)| id)
        .collect();
    for &id in sources.iter().rev() {
        mapped[id.index()] = Some(match *aig.node(id) {
            AigNode::Pi => out.add_pi(aig.node_name(id).unwrap_or("pi")),
            AigNode::Ff { init, .. } => out.add_ff(aig.node_name(id).unwrap_or("ff"), init),
            _ => unreachable!(),
        });
    }
    for (id, node) in aig.iter() {
        match *node {
            AigNode::And(a, b) => {
                mapped[id.index()] =
                    Some(out.add_and(mapped[a.index()].unwrap(), mapped[b.index()].unwrap()));
            }
            AigNode::Not(a) => {
                mapped[id.index()] = Some(out.add_not(mapped[a.index()].unwrap()));
            }
            _ => {}
        }
    }
    for (id, node) in aig.iter() {
        if let AigNode::Ff { d: Some(d), .. } = *node {
            out.connect_ff(mapped[id.index()].unwrap(), mapped[d.index()].unwrap())
                .expect("renumbered FF");
        }
    }
    for (node, name) in aig.outputs() {
        out.set_output(mapped[node.index()].unwrap(), name.clone());
    }
    out
}
