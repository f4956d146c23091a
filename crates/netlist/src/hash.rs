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

/// Per-node canonical **fanin-cone hashes**.
///
/// `cone_hashes(aig)[i]` digests the structure feeding node `i`: its own
/// kind (PI name, FF power-on state, gate type) refined over the same
/// Weisfeiler–Lehman rounds as [`structural_hash`], so it covers the whole
/// combinational cone behind the node plus `num_ffs + 1` (clamped to
/// `[2, 16]`) sequential boundaries. Two nodes whose fanin cones are
/// isomorphic — within one circuit or across circuits — get equal hashes,
/// and the hash of a node is invariant under renumbering of its circuit.
///
/// The serving layer uses these as the content address of its
/// cone-granularity memo: a circuit that shares sub-structure with a cached
/// one reuses the cached cones and only recomputes the changed ones.
///
/// # Example
/// ```
/// use deepseq_netlist::{cone_hashes, SeqAig};
///
/// // Two identical NOT cones over same-named PIs, one extra AND.
/// let mut g = SeqAig::new("g");
/// let a = g.add_pi("x");
/// let b = g.add_pi("x");
/// let na = g.add_not(a);
/// let nb = g.add_not(b);
/// let y = g.add_and(na, nb);
/// let h = cone_hashes(&g);
/// assert_eq!(h[na.index()], h[nb.index()]); // isomorphic cones
/// assert_ne!(h[na.index()], h[y.index()]);
/// ```
pub fn cone_hashes(aig: &SeqAig) -> Vec<u64> {
    wl_final_labels(aig).into_iter().map(mix).collect()
}

/// Runs the Weisfeiler–Lehman refinement of the [module docs](self) and
/// returns the final per-node labels. [`structural_hash`] aggregates them
/// order-invariantly; [`cone_hashes`] exposes them per node.
fn wl_final_labels(aig: &SeqAig) -> Vec<u64> {
    let n = aig.len();
    if n == 0 {
        return Vec::new();
    }

    // Combinational depth per node — renumbering-invariant because it is a
    // property of the DAG, computable in one id-order scan (ordered
    // construction guarantees comb fanins have smaller ids).
    let mut depth = vec![0u32; n];
    let mut max_depth = 0u32;
    for (id, node) in aig.iter() {
        let d = match *node {
            AigNode::Pi | AigNode::Ff { .. } => 0,
            AigNode::And(a, b) => 1 + depth[a.index()].max(depth[b.index()]),
            AigNode::Not(a) => 1 + depth[a.index()],
        };
        depth[id.index()] = d;
        max_depth = max_depth.max(d);
    }
    let mut by_depth: Vec<Vec<u32>> = vec![Vec::new(); max_depth as usize + 1];
    for (id, _) in aig.iter() {
        by_depth[depth[id.index()] as usize].push(id.0);
    }

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
    for round in 0..rounds {
        // Sources first: FFs refine from the previous round's D-input label
        // (the sequential edge), PIs stay fixed.
        for bucket in &by_depth {
            for &v in bucket {
                let id = crate::aig::NodeId(v);
                let h = match *aig.node(id) {
                    AigNode::Pi => label[v as usize],
                    AigNode::Ff { init, .. } => {
                        let d = aig.ff_fanin(id).map_or(0, |d| label[d.index()]);
                        combine(combine(combine(TAG_FF, init as u64), label[v as usize]), d)
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
                next[v as usize] = h;
            }
        }
        let _ = round;
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
    fn empty_graph_hashes() {
        let g = SeqAig::new("empty");
        assert_eq!(structural_hash(&g), structural_hash(&g));
        assert!(cone_hashes(&g).is_empty());
    }

    #[test]
    fn cone_hashes_invariant_under_renumbering() {
        // y = AND(NOT(a), b) built in two node orders: corresponding nodes
        // must carry identical cone hashes.
        let mut g1 = SeqAig::new("g1");
        let a1 = g1.add_pi("a");
        let b1 = g1.add_pi("b");
        let n1 = g1.add_not(a1);
        let y1 = g1.add_and(n1, b1);

        let mut g2 = SeqAig::new("g2");
        let b2 = g2.add_pi("b");
        let a2 = g2.add_pi("a");
        let n2 = g2.add_not(a2);
        let y2 = g2.add_and(b2, n2);

        let h1 = cone_hashes(&g1);
        let h2 = cone_hashes(&g2);
        assert_eq!(h1[a1.index()], h2[a2.index()]);
        assert_eq!(h1[b1.index()], h2[b2.index()]);
        assert_eq!(h1[n1.index()], h2[n2.index()]);
        assert_eq!(h1[y1.index()], h2[y2.index()]);
    }

    #[test]
    fn cone_hashes_distinguish_cone_structure() {
        // Same node kind, different fanin cones.
        let mut g = SeqAig::new("g");
        let a = g.add_pi("a");
        let b = g.add_pi("b");
        let na = g.add_not(a);
        let nb = g.add_not(b); // NOT over a differently-named PI
        let nna = g.add_not(na); // NOT over a deeper cone
        let h = cone_hashes(&g);
        assert_ne!(h[na.index()], h[nb.index()]);
        assert_ne!(h[na.index()], h[nna.index()]);
    }

    #[test]
    fn cone_hashes_cross_sequential_boundaries() {
        // Toggle FFs with different init values: the NOT gates behind them
        // see the difference through the FF edge.
        let mk = |init| {
            let mut g = SeqAig::new("t");
            let q = g.add_ff("q", init);
            let n = g.add_not(q);
            g.connect_ff(q, n).unwrap();
            g
        };
        let h0 = cone_hashes(&mk(false));
        let h1 = cone_hashes(&mk(true));
        assert_ne!(h0[1], h1[1]);
    }
}
