//! Seeded workload inputs and the model under test.
//!
//! Every generator here is a pure function of its seed: the same seed gives
//! the same circuits, the same request order and the same AIGER bytes on
//! the wire.

use std::collections::HashSet;

use deepseq_core::{DeepSeq, DeepSeqConfig};
use deepseq_data::dataset::{generate_family, Family};
use deepseq_netlist::{structural_hash, SeqAig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Model shape under test: d = 32, T = 4, weights from a fixed seed.
pub const HIDDEN: usize = 32;
pub const ITERATIONS: usize = 4;
pub const MODEL_SEED: u64 = 0x5EED_D5E0;

/// Node-count window of the `fresh`/`repeat`/`train` circuits.
pub const MIN_NODES: usize = 150;
pub const MAX_NODES: usize = 300;

/// Circuits replayed by `repeat` (well under the 256-entry exact cache).
pub const REPEAT_SET: usize = 64;

/// `eco` base design: 16 self-contained blocks of one PI, one FF and
/// `ECO_GATES` AND gates each (the blocks16 shape of the cone-memo bench).
pub const ECO_BLOCKS: usize = 16;
pub const ECO_GATES: usize = 24;
/// Distinct one-block edits cycled by `eco`. Any edit recurs only after
/// this many requests, far beyond the 256-entry exact cache and the cone
/// memo's room for edits, so every request misses the exact cache and
/// recomputes exactly its one edited block.
pub const ECO_EDITS: usize = 2048;

pub fn model() -> DeepSeq {
    DeepSeq::new(DeepSeqConfig {
        hidden_dim: HIDDEN,
        iterations: ITERATIONS,
        seed: MODEL_SEED,
        ..DeepSeqConfig::default()
    })
}

/// splitmix64 finalizer: a cheap, well-mixed hash of one word.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// `count` structurally distinct circuits of 150–300 nodes drawn from the
/// Table I family generator, families in random order.
pub fn family_circuits(seed: u64, count: usize) -> Vec<SeqAig> {
    let mut rng = StdRng::seed_from_u64(mix(seed ^ 0xF4E5));
    let mut seen = HashSet::new();
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let family = Family::all()[rng.gen_range(0..3)];
        let Some(aig) = generate_family(family, 1, rng.gen()).pop() else {
            continue;
        };
        if !(MIN_NODES..=MAX_NODES).contains(&aig.len()) {
            continue;
        }
        if seen.insert(structural_hash(&aig)) {
            out.push(aig);
        }
    }
    out
}

/// One `eco` block appended to `aig`: a PI, an FF and an AND chain in which
/// every gate takes the previous node as one operand, so the block is one
/// weakly connected component whatever the seed. AND-only, so AIGER writes
/// and parses it without inserting inverter nodes, and every block keeps
/// the same node count (and node ids) under any edit.
fn eco_block(aig: &mut SeqAig, block: usize, seed: u64) {
    let mut state = mix(seed) | 1;
    let mut next = move |bound: usize| -> usize {
        state = mix(state);
        (state >> 33) as usize % bound.max(1)
    };
    let pi = aig.add_pi(format!("b{block}pi"));
    let ff = aig.add_ff(format!("b{block}ff"), next(2) == 1);
    let mut nodes = vec![pi, ff, aig.add_and(pi, ff)];
    for _ in 1..ECO_GATES {
        let last = *nodes.last().expect("nonempty");
        let other = nodes[next(nodes.len() - 1)];
        nodes.push(aig.add_and(last, other));
    }
    aig.connect_ff(ff, *nodes.last().expect("nonempty"))
        .expect("block FF connects to its last gate");
}

/// The `eco` design with block `edit.0` re-seeded by `edit.1` (or the base
/// design when `edit` is `None`).
pub fn eco_circuit(seed: u64, edit: Option<(usize, u64)>) -> SeqAig {
    let mut aig = SeqAig::new("eco");
    for block in 0..ECO_BLOCKS {
        let block_seed = match edit {
            Some((k, variant)) if k == block => variant,
            _ => mix(seed ^ ((block as u64) << 40)),
        };
        eco_block(&mut aig, block, block_seed);
    }
    aig
}

/// The `ECO_EDITS` one-block edits of the base design, in the order they
/// are sent: each edit picks a block and a fresh variant seed.
pub fn eco_edits(seed: u64) -> Vec<(usize, u64)> {
    let mut rng = StdRng::seed_from_u64(mix(seed ^ 0xEC0));
    (0..ECO_EDITS)
        .map(|_| (rng.gen_range(0..ECO_BLOCKS), rng.gen::<u64>() | (1 << 63)))
        .collect()
}

/// The `repeat` replay order: request `i` replays circuit `replay_index`.
pub fn replay_index(seed: u64, i: usize) -> usize {
    (mix(seed ^ mix(i as u64)) % REPEAT_SET as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepseq_netlist::write_aiger;

    #[test]
    fn eco_edits_keep_block_shape() {
        let base = eco_circuit(3, None);
        let edited = eco_circuit(3, Some((5, 99)));
        assert_eq!(base.len(), edited.len());
        assert_eq!(base.len(), ECO_BLOCKS * (ECO_GATES + 2));
        assert_ne!(structural_hash(&base), structural_hash(&edited));
        let parsed = deepseq_netlist::parse_aiger(&write_aiger(&edited)).expect("parses");
        assert_eq!(parsed.len(), edited.len());
    }

    #[test]
    fn family_circuits_are_seeded_and_in_range() {
        let a = family_circuits(7, 5);
        let b = family_circuits(7, 5);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(write_aiger(x), write_aiger(y));
            assert!((MIN_NODES..=MAX_NODES).contains(&x.len()));
        }
    }
}
