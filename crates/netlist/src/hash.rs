//! Canonical structural hashing of sequential AIGs.
//!
//! [`structural_hash`] digests a [`SeqAig`] into a 64-bit fingerprint that
//! is **invariant under node renumbering**: any two graphs that differ only
//! in the order nodes were created (any valid topological reordering of the
//! combinational part, FFs and PIs anywhere) hash identically, while
//! structurally different circuits hash differently with overwhelming
//! probability. It names a circuit up to renumbering; it is not a serving
//! cache key, because the forward pass reads node numbering (initial
//! states are seeded by node index).
//!
//! # Algorithm
//!
//! A Weisfeiler–Lehman style iterative refinement adapted to sequential
//! AIGs. Every node carries a label; rounds refine labels from neighbour
//! labels:
//!
//! * round 0: labels depend only on local content — PIs hash their name
//!   (workload semantics bind to PIs), FFs their power-on state, gates their
//!   kind;
//! * each round walks nodes **by combinational depth** (a renumbering
//!   invariant), so within one round a gate sees the *current*-round labels
//!   of its combinational fanins (AND fanins are order-normalized —
//!   `AND(a, b) = AND(b, a)`), while an FF sees the *previous*-round label
//!   of its D input. One round therefore propagates structure across one
//!   sequential (FF) boundary and the whole combinational cone behind it;
//! * `num_ffs + 1` rounds (clamped to `[2, 16]`) let information cross every
//!   feedback path of typical control loops; deeper FF chains still hash
//!   *consistently*, just with less discrimination beyond the cap.
//!
//! The digest combines the final label multiset order-invariantly together
//! with node/type counts and the named outputs.

use crate::aig::{AigNode, SeqAig};
use crate::level::Levels;

/// Mixes one 64-bit word (splitmix64 finalizer) — fast, high-avalanche.
/// Public so downstream content addressing (the `deepseq-serve` cache keys)
/// composes with the structural hash instead of duplicating it.
#[inline]
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

/// Combines words into a running hash, order-sensitively.
#[inline]
pub fn combine(seed: u64, word: u64) -> u64 {
    mix(seed ^ word.wrapping_mul(0xA24BAED4963EE407))
}

/// Hashes a byte string.
pub fn hash_bytes(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF29CE484222325;
    for &b in bytes {
        h = combine(h, b as u64);
    }
    h
}

const TAG_PI: u64 = 0x7069; // "pi"
const TAG_AND: u64 = 0x616E64; // "and"
const TAG_NOT: u64 = 0x6E6F74; // "not"
const TAG_FF: u64 = 0x6666; // "ff"
const TAG_OUT: u64 = 0x6F7574; // "out"

/// Computes the canonical structural hash of a circuit.
///
/// The result is invariant under node renumbering (see the
/// [module docs](self)) and sensitive to gate structure, AND/NOT/FF/PI
/// composition, FF power-on states, PI names and named outputs.
///
/// # Example
/// ```
/// use deepseq_netlist::{structural_hash, SeqAig};
///
/// // The same toggle circuit built in two different node orders.
/// let mut a = SeqAig::new("t1");
/// let qa = a.add_ff("q", false);
/// let na = a.add_not(qa);
/// a.connect_ff(qa, na)?;
///
/// let mut b = SeqAig::new("t2");
/// let pb = b.add_pi("unused"); // name differs ⇒ would differ...
/// # let _ = pb;
/// let qb = b.add_ff("q", false);
/// let nb = b.add_not(qb);
/// b.connect_ff(qb, nb)?;
///
/// assert_ne!(structural_hash(&a), structural_hash(&b)); // extra PI
/// assert_eq!(structural_hash(&a), structural_hash(&a.clone()));
/// # Ok::<(), deepseq_netlist::NetlistError>(())
/// ```
pub fn structural_hash(aig: &SeqAig) -> u64 {
    let n = aig.len();
    if n == 0 {
        return mix(0);
    }
    let label = wl_final_labels(aig);

    // Order-invariant aggregation of the final label multiset: a commutative
    // sum/xor pair of mixed labels, plus counts and named outputs.
    let mut sum = 0u64;
    let mut xor = 0u64;
    for &l in &label {
        let m = mix(l);
        sum = sum.wrapping_add(m);
        xor ^= m.rotate_left((m % 63) as u32);
    }
    let mut out_sum = 0u64;
    for (node, name) in aig.outputs() {
        out_sum = out_sum.wrapping_add(mix(combine(
            combine(TAG_OUT, hash_bytes(name.as_bytes())),
            label[node.index()],
        )));
    }

    let mut digest = mix(n as u64);
    digest = combine(digest, aig.num_pis() as u64);
    digest = combine(digest, aig.num_ffs() as u64);
    digest = combine(digest, aig.num_ands() as u64);
    digest = combine(digest, aig.num_nots() as u64);
    digest = combine(digest, sum);
    digest = combine(digest, xor);
    digest = combine(digest, out_sum);
    digest
}

/// Runs the Weisfeiler–Lehman refinement of the [module docs](self) and
/// returns the final per-node labels, which [`structural_hash`] aggregates
/// order-invariantly.
fn wl_final_labels(aig: &SeqAig) -> Vec<u64> {
    // Each round walks the logic levels (combinational depth, a property of
    // the DAG and so renumbering-invariant), each in id order.
    let levels = Levels::build(aig);

    // Round-0 labels: local content only.
    let mut label: Vec<u64> = aig
        .iter()
        .map(|(id, node)| match node {
            AigNode::Pi => {
                let name = aig.node_name(id).unwrap_or("");
                combine(TAG_PI, hash_bytes(name.as_bytes()))
            }
            AigNode::And(_, _) => mix(TAG_AND),
            AigNode::Not(_) => mix(TAG_NOT),
            AigNode::Ff { init, .. } => combine(TAG_FF, *init as u64),
        })
        .collect();

    let rounds = (aig.num_ffs() + 1).clamp(2, 16);
    let mut next = label.clone();
    for _ in 0..rounds {
        // Sources first: FFs refine from the previous round's D-input label
        // (the sequential edge), PIs stay fixed.
        for level in levels.iter() {
            for &id in level {
                let v = id.index();
                let h = match *aig.node(id) {
                    AigNode::Pi => label[v],
                    AigNode::Ff { init, .. } => {
                        let d = aig.ff_fanin(id).map_or(0, |d| label[d.index()]);
                        combine(combine(combine(TAG_FF, init as u64), label[v]), d)
                    }
                    AigNode::And(a, b) => {
                        // Commutative: order-normalize the fanin labels.
                        let (la, lb) = {
                            let la = next[a.index()];
                            let lb = next[b.index()];
                            (la.min(lb), la.max(lb))
                        };
                        combine(combine(TAG_AND, la), lb)
                    }
                    AigNode::Not(a) => combine(TAG_NOT, next[a.index()]),
                };
                next[v] = h;
            }
        }
        std::mem::swap(&mut label, &mut next);
    }
    label
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aig::NodeId;

    fn toggle(name: &str) -> SeqAig {
        let mut aig = SeqAig::new(name);
        let q = aig.add_ff("q", false);
        let n = aig.add_not(q);
        aig.connect_ff(q, n).unwrap();
        aig.set_output(q, "out");
        aig
    }

    #[test]
    fn hash_ignores_design_name_and_is_deterministic() {
        assert_eq!(structural_hash(&toggle("a")), structural_hash(&toggle("b")));
    }

    #[test]
    fn hash_invariant_under_construction_order() {
        // Same circuit, two creation orders: y = AND(NOT(a), b).
        let mut g1 = SeqAig::new("g1");
        let a1 = g1.add_pi("a");
        let b1 = g1.add_pi("b");
        let n1 = g1.add_not(a1);
        let y1 = g1.add_and(n1, b1);
        g1.set_output(y1, "y");

        let mut g2 = SeqAig::new("g2");
        let b2 = g2.add_pi("b");
        let a2 = g2.add_pi("a");
        let n2 = g2.add_not(a2);
        let y2 = g2.add_and(b2, n2); // AND fanins swapped too
        g2.set_output(y2, "y");

        assert_eq!(structural_hash(&g1), structural_hash(&g2));
    }

    #[test]
    fn hash_sensitive_to_structure() {
        let base = toggle("t");
        // Different FF init.
        let mut flipped = SeqAig::new("t");
        let q = flipped.add_ff("q", true);
        let n = flipped.add_not(q);
        flipped.connect_ff(q, n).unwrap();
        flipped.set_output(q, "out");
        assert_ne!(structural_hash(&base), structural_hash(&flipped));

        // Extra gate.
        let mut bigger = toggle("t");
        let extra = bigger.add_not(NodeId(1));
        bigger.set_output(extra, "extra");
        assert_ne!(structural_hash(&base), structural_hash(&bigger));
    }

    #[test]
    fn hash_sensitive_to_pi_names_and_outputs() {
        let mut g1 = SeqAig::new("g");
        let a = g1.add_pi("a");
        g1.set_output(a, "y");
        let mut g2 = SeqAig::new("g");
        let b = g2.add_pi("other");
        g2.set_output(b, "y");
        assert_ne!(structural_hash(&g1), structural_hash(&g2));

        let mut g3 = SeqAig::new("g");
        let c = g3.add_pi("a");
        g3.set_output(c, "z");
        assert_ne!(structural_hash(&g1), structural_hash(&g3));
    }

    #[test]
    fn hash_values_are_pinned() {
        // `deepseq-serve`'s request keys are built on these values, so a
        // refactor of the hash must keep them: toggle, PI–AND–FF loop
        // (q' = AND(a, q)) and the empty circuit.
        let mut pi_and_ff = SeqAig::new("loop");
        let a = pi_and_ff.add_pi("a");
        let q = pi_and_ff.add_ff("q", false);
        let g = pi_and_ff.add_and(a, q);
        pi_and_ff.connect_ff(q, g).unwrap();
        pi_and_ff.set_output(g, "y");
        for (what, aig, want) in [
            ("toggle", toggle("t"), 0x91d1_82d8_06ad_af89),
            ("pi-and-ff loop", pi_and_ff, 0x3433_637b_d72b_b38d),
            ("empty", SeqAig::new("empty"), 0xe220_a839_7b1d_cdaf),
        ] {
            let got = structural_hash(&aig);
            assert_eq!(got, want, "{what}: {got:#018x}");
        }
    }

    #[test]
    fn empty_graph_hashes() {
        let g = SeqAig::new("empty");
        assert_eq!(structural_hash(&g), structural_hash(&g));
    }
}
