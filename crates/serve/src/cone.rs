//! Cone-granularity partitioning for the [`ConeMemo`](crate::ConeMemo).
//!
//! The reusable unit is the **weakly connected component** of the circuit
//! graph (combinational fanins plus FF D-edges): propagation moves state
//! only along those edges, and both readout heads are per-row, so a
//! component's final state rows and head rows are a pure function of
//!
//! 1. the frozen weights + config (pinned by the model generation),
//! 2. the component's structure *with its relative node order* (levels,
//!    gather order, accumulation order — pinned by
//!    [`component_fingerprint`]),
//! 3. the component's actual initial-state rows (workload values and the
//!    node-index-seeded random rows — pinned by [`component_h0_hash`]).
//!
//! Nothing else in the circuit can influence them: within a level, node
//! updates are row-independent and chunk-invariant (property-tested), a
//! node's level is intrinsic to its component, the reverse schedule only
//! skips empty levels (which preserves per-component level order), FF
//! copy-back stays inside a component, and a head's row does not depend on
//! how many rows are read out with it (the GEMM kernel is chosen by the
//! weight shape, never by the row count). That is why [`extract`] can merge
//! *all* missed components into one sub-circuit and propagate and read
//! them out together: each component's rows come out bitwise-identical to
//! a whole-circuit run, and the memo stores them per component.
//!
//! Extraction keeps members in **ascending original-id order**, which
//! preserves every order-sensitive property the fingerprint hashes: fanin
//! gather order, level bucket order, FF pair order and fanout-list
//! relative order.

use deepseq_netlist::hash::{combine, mix};
use deepseq_netlist::{AigNode, NodeId, SeqAig};
use deepseq_nn::Matrix;

/// One weakly connected component: its member node ids, ascending.
#[derive(Debug, Clone)]
pub struct Cone {
    /// Member node ids of the original circuit, ascending.
    pub members: Vec<u32>,
}

/// Partitions a circuit into its weakly connected components (ascending
/// first-member order, members ascending within each).
pub fn partition(aig: &SeqAig) -> Vec<Cone> {
    let (component, count) = aig.weak_components();
    let mut cones = vec![
        Cone {
            members: Vec::new()
        };
        count
    ];
    for (i, &c) in component.iter().enumerate() {
        cones[c as usize].members.push(i as u32);
    }
    cones
}

/// Order-sensitive structural fingerprint of one component.
///
/// Hashes the member sequence in ascending-id order, each node as its kind
/// tag plus the *local ordinals* of its fanins — so the fingerprint is
/// invariant under renumbering the whole circuit (as long as relative order
/// within the component is preserved, which is exactly the condition for
/// bitwise-identical propagation) and sensitive to everything that affects
/// propagation: kinds, fanin order, FF init values and connectivity.
///
/// Names and outputs are deliberately excluded: neither reaches the
/// arithmetic (PI values enter through the initial-state rows, hashed
/// separately by [`component_h0_hash`]).
pub fn component_fingerprint(aig: &SeqAig, members: &[u32]) -> u64 {
    let ordinal = |id: NodeId| members.binary_search(&id.0).expect("fanin in component") as u64;
    let mut acc = mix(members.len() as u64);
    for &m in members {
        match *aig.node(NodeId(m)) {
            AigNode::Pi => acc = combine(acc, 1),
            AigNode::And(a, b) => {
                acc = combine(acc, 2);
                acc = combine(acc, ordinal(a));
                acc = combine(acc, ordinal(b));
            }
            AigNode::Not(a) => {
                acc = combine(acc, 3);
                acc = combine(acc, ordinal(a));
            }
            AigNode::Ff { d, init } => {
                acc = combine(acc, 4);
                acc = combine(acc, init as u64);
                acc = combine(acc, d.map_or(u64::MAX, ordinal));
            }
        }
    }
    acc
}

/// Content hash of a component's initial-state rows (bit-exact over the
/// `f32` payload, two values per hashed word, row length mixed in so
/// hidden dimensions never collide).
pub fn component_h0_hash(h0: &Matrix, members: &[u32]) -> u64 {
    let mut acc = mix(h0.cols() as u64);
    for &m in members {
        for pair in h0.row(m as usize).chunks(2) {
            let high = pair.get(1).map_or(0, |v| (v.to_bits() as u64) << 32);
            acc = combine(acc, pair[0].to_bits() as u64 | high);
        }
    }
    acc
}

/// Builds one merged sub-circuit over `members` (ascending original ids,
/// possibly spanning several components), remapping fanins to local ids.
///
/// Ascending-id order makes every combinational fanin appear before its
/// user (the original builder API guarantees that), so a single pass adds
/// all nodes; FF D-inputs may point forward and are connected after.
/// The sub-circuit carries no outputs — the caller only propagates it.
pub fn extract(aig: &SeqAig, members: &[u32]) -> SeqAig {
    let mut sub = SeqAig::new(aig.name());
    let mut local = vec![u32::MAX; aig.len()];
    let l = |local: &[u32], id: NodeId| {
        debug_assert_ne!(local[id.index()], u32::MAX, "fanin outside extraction");
        NodeId(local[id.index()])
    };
    for &m in members {
        let id = NodeId(m);
        let name = aig.node_name(id).unwrap_or("");
        let new = match *aig.node(id) {
            AigNode::Pi => sub.add_pi(name),
            AigNode::And(a, b) => sub.add_and(l(&local, a), l(&local, b)),
            AigNode::Not(a) => sub.add_not(l(&local, a)),
            AigNode::Ff { init, .. } => sub.add_ff(name, init),
        };
        local[id.index()] = new.0;
    }
    for &m in members {
        if let AigNode::Ff { d: Some(d), .. } = *aig.node(NodeId(m)) {
            sub.connect_ff(l(&local, NodeId(m)), l(&local, d))
                .expect("remapped FF connection is valid");
        }
    }
    sub
}

/// Gathers the rows of `members` out of a full `n×d` matrix into a dense
/// `k×d` matrix (row `i` = member `i`).
pub fn gather_rows(full: &Matrix, members: &[u32]) -> Matrix {
    let d = full.cols();
    let mut out = Matrix::zeros(members.len(), d);
    for (i, &m) in members.iter().enumerate() {
        out.row_mut(i).copy_from_slice(full.row(m as usize));
    }
    out
}

/// Scatters a dense `k×d` matrix back onto the rows of `members` in a full
/// `n×d` matrix.
pub fn scatter_rows(full: &mut Matrix, members: &[u32], rows: &Matrix) {
    debug_assert_eq!(rows.shape(), (members.len(), full.cols()));
    for (i, &m) in members.iter().enumerate() {
        full.row_mut(m as usize).copy_from_slice(rows.row(i));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two disconnected toggles plus a combinational cone:
    /// component 0 = {q0, n0}, 1 = {q1, n1}, 2 = {a, b, g, inv}.
    fn three_component_circuit() -> SeqAig {
        let mut aig = SeqAig::new("three");
        let q0 = aig.add_ff("q0", false);
        let n0 = aig.add_not(q0);
        aig.connect_ff(q0, n0).unwrap();
        let q1 = aig.add_ff("q1", true);
        let n1 = aig.add_not(q1);
        aig.connect_ff(q1, n1).unwrap();
        let a = aig.add_pi("a");
        let b = aig.add_pi("b");
        let g = aig.add_and(a, b);
        let inv = aig.add_not(g);
        aig.set_output(inv, "y");
        aig
    }

    #[test]
    fn partition_groups_weakly_connected_nodes() {
        let aig = three_component_circuit();
        let cones = partition(&aig);
        assert_eq!(cones.len(), 3);
        assert_eq!(cones[0].members, vec![0, 1]);
        assert_eq!(cones[1].members, vec![2, 3]);
        assert_eq!(cones[2].members, vec![4, 5, 6, 7]);
    }

    #[test]
    fn fingerprint_is_renumbering_invariant_and_structure_sensitive() {
        let aig = three_component_circuit();
        let cones = partition(&aig);
        // The two toggle FFs differ only in init value ⇒ different prints.
        let f0 = component_fingerprint(&aig, &cones[0].members);
        let f1 = component_fingerprint(&aig, &cones[1].members);
        assert_ne!(f0, f1);

        // The same toggle built at different global positions (and with a
        // different FF name) fingerprints identically: only relative
        // structure matters.
        let mut other = SeqAig::new("other");
        other.add_pi("pad"); // shift global ids
        let q = other.add_ff("renamed", false);
        let n = other.add_not(q);
        other.connect_ff(q, n).unwrap();
        let oc = partition(&other);
        assert_eq!(oc[1].members, vec![1, 2]);
        assert_eq!(component_fingerprint(&other, &oc[1].members), f0);
    }

    #[test]
    fn fingerprint_distinguishes_fanin_order() {
        let mut ab = SeqAig::new("ab");
        let a = ab.add_pi("a");
        let b = ab.add_pi("b");
        ab.add_and(a, b);
        let mut ba = SeqAig::new("ba");
        let a2 = ba.add_pi("a");
        let b2 = ba.add_pi("b");
        ba.add_and(b2, a2);
        let ca = partition(&ab);
        let cb = partition(&ba);
        assert_eq!(ca.len(), 1);
        // AND gathers fanins in stored order; swapping them changes the
        // accumulation order, so the prints must differ.
        assert_ne!(
            component_fingerprint(&ab, &ca[0].members),
            component_fingerprint(&ba, &cb[0].members)
        );
    }

    #[test]
    fn h0_hash_binds_row_bits_and_width() {
        let mut m = Matrix::zeros(3, 2);
        m.set(1, 0, 0.25);
        let h = component_h0_hash(&m, &[0, 1]);
        assert_eq!(h, component_h0_hash(&m, &[0, 1]));
        assert_ne!(h, component_h0_hash(&m, &[0, 2])); // different rows
        let mut m2 = m.clone();
        m2.set(1, 1, -0.0); // -0.0 != 0.0 bitwise
        assert_ne!(h, component_h0_hash(&m2, &[0, 1]));
        let wide = Matrix::zeros(3, 4);
        assert_ne!(
            component_h0_hash(&Matrix::zeros(3, 2), &[0]),
            component_h0_hash(&wide, &[0])
        );
    }

    #[test]
    fn extract_remaps_a_component_faithfully() {
        let aig = three_component_circuit();
        let cones = partition(&aig);
        let sub = extract(&aig, &cones[2].members);
        assert_eq!(sub.len(), 4);
        assert_eq!(sub.pis().len(), 2);
        assert!(matches!(*sub.node(NodeId(2)), AigNode::And(a, b)
            if a == NodeId(0) && b == NodeId(1)));
        assert!(matches!(*sub.node(NodeId(3)), AigNode::Not(a) if a == NodeId(2)));
        // Extracted component fingerprints match the originals.
        let sc = partition(&sub);
        assert_eq!(sc.len(), 1);
        assert_eq!(
            component_fingerprint(&sub, &sc[0].members),
            component_fingerprint(&aig, &cones[2].members)
        );

        // FF forward-edges reconnect too.
        let sub_ff = extract(&aig, &cones[0].members);
        assert!(
            matches!(*sub_ff.node(NodeId(0)), AigNode::Ff { d: Some(d), init: false }
            if d == NodeId(1))
        );
    }

    #[test]
    fn extract_merges_multiple_components() {
        let aig = three_component_circuit();
        let cones = partition(&aig);
        let mut merged: Vec<u32> = cones[0].members.clone();
        merged.extend(&cones[2].members);
        let sub = extract(&aig, &merged);
        assert_eq!(sub.len(), 6);
        let sc = partition(&sub);
        assert_eq!(sc.len(), 2);
        assert_eq!(
            component_fingerprint(&sub, &sc[0].members),
            component_fingerprint(&aig, &cones[0].members)
        );
        assert_eq!(
            component_fingerprint(&sub, &sc[1].members),
            component_fingerprint(&aig, &cones[2].members)
        );
    }

    #[test]
    fn gather_scatter_round_trip() {
        let mut full = Matrix::zeros(4, 2);
        for r in 0..4 {
            for c in 0..2 {
                full.set(r, c, (r * 2 + c) as f32);
            }
        }
        let rows = gather_rows(&full, &[1, 3]);
        assert_eq!(rows.row(0), full.row(1));
        assert_eq!(rows.row(1), full.row(3));
        let mut dst = Matrix::zeros(4, 2);
        scatter_rows(&mut dst, &[1, 3], &rows);
        assert_eq!(dst.row(1), full.row(1));
        assert_eq!(dst.row(3), full.row(3));
        assert_eq!(dst.row(0), &[0.0, 0.0]);
    }
}
