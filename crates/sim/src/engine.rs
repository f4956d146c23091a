//! The 64-lane bit-parallel sequential simulator.
//!
//! Every node value is a `u64` word; bit `k` belongs to lane `k`, an
//! independent stimulus stream. One simulated clock cycle therefore yields 64
//! Monte-Carlo samples. The paper's ground-truth generation (a 10 000-cycle
//! random pattern per circuit) maps to `cycles ≈ 10_000 / 64` with identical
//! statistics, or any higher number for tighter estimates.
//!
//! The per-cycle ordering mirrors hardware: flip-flop outputs hold their
//! state from the previous cycle while the combinational part settles, then
//! all FFs load their D inputs at the clock edge.

use deepseq_netlist::aig::{AigNode, SeqAig};
use deepseq_netlist::netlist::{GateId, GateKind, Netlist};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::probability::{NodeProbabilities, ProbabilityAccumulator};
use crate::workload::{PatternGenerator, Workload};

/// Options controlling a simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimOptions {
    /// Clock cycles to simulate (each contributes 64 lane-samples).
    pub cycles: usize,
    /// Leading cycles excluded from the statistics (reset transient).
    pub warmup: usize,
    /// RNG seed for the stimulus streams.
    pub seed: u64,
}

impl Default for SimOptions {
    /// 256 cycles × 64 lanes ≈ 16 k samples, 16 warm-up cycles, seed 0 —
    /// slightly more data than the paper's single 10 000-cycle pattern.
    fn default() -> Self {
        SimOptions {
            cycles: 256,
            warmup: 16,
            seed: 0,
        }
    }
}

/// Result of a simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// Per-node logic and transition probabilities.
    pub probs: NodeProbabilities,
}

/// Simulates `aig` under `workload` and collects per-node probabilities.
///
/// The `workload` must cover exactly `aig.num_pis()` inputs (PI id order);
/// extra or missing entries are a caller bug and panic in debug builds.
///
/// # Example
/// See the [crate-level example](crate).
pub fn simulate(aig: &SeqAig, workload: &Workload, opts: &SimOptions) -> SimResult {
    debug_assert_eq!(workload.len(), aig.num_pis());
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let n = aig.len();
    let pis = aig.pis();
    let ffs = aig.ffs();

    let mut values = vec![0u64; n];
    let mut prev = vec![0u64; n];
    // FF state starts at the power-on value in every lane.
    let mut ff_state: Vec<u64> = ffs
        .iter()
        .map(|&ff| match aig.node(ff) {
            AigNode::Ff { init, .. } => {
                if *init {
                    u64::MAX
                } else {
                    0
                }
            }
            _ => unreachable!("ffs() returns only FFs"),
        })
        .collect();

    let mut gen = PatternGenerator::new(workload);
    let mut acc = ProbabilityAccumulator::new(n);

    for cycle in 0..opts.cycles {
        // 1. Apply stimulus and present FF states.
        let pi_words = gen.step(workload, &mut rng);
        for (i, &pi) in pis.iter().enumerate() {
            values[pi.index()] = pi_words[i];
        }
        for (i, &ff) in ffs.iter().enumerate() {
            values[ff.index()] = ff_state[i];
        }
        // 2. Settle combinational logic (ordered ids ⇒ a single scan).
        for (id, node) in aig.iter() {
            match *node {
                AigNode::And(a, b) => values[id.index()] = values[a.index()] & values[b.index()],
                AigNode::Not(a) => values[id.index()] = !values[a.index()],
                AigNode::Pi | AigNode::Ff { .. } => {}
            }
        }
        // 3. Record statistics after warm-up.
        if cycle >= opts.warmup {
            let with_prev = cycle > opts.warmup;
            acc.record(&values, with_prev.then_some(prev.as_slice()));
        }
        prev.copy_from_slice(&values);
        // 4. Clock edge: FFs capture their D inputs.
        for (i, &ff) in ffs.iter().enumerate() {
            let d = aig.ff_fanin(ff).expect("validated AIG has connected FFs");
            ff_state[i] = values[d.index()];
        }
    }

    SimResult {
        probs: acc.finish(),
    }
}

/// Simulates a generic [`Netlist`] with the same lane semantics. The
/// `workload` covers the netlist's inputs in input id order.
///
/// # Panics
/// Panics if the netlist has a combinational cycle (validate it first).
pub fn simulate_netlist(netlist: &Netlist, workload: &Workload, opts: &SimOptions) -> SimResult {
    debug_assert_eq!(workload.len(), netlist.inputs().len());
    let order = netlist
        .topo_order()
        .expect("simulate_netlist requires an acyclic combinational part");
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let n = netlist.len();
    let inputs = netlist.inputs();
    let dffs = netlist.dffs();

    let mut values = vec![0u64; n];
    let mut prev = vec![0u64; n];
    let mut ff_state: Vec<u64> = dffs
        .iter()
        .map(|&d| if netlist.gate(d).init { u64::MAX } else { 0 })
        .collect();
    let mut gen = PatternGenerator::new(workload);
    let mut acc = ProbabilityAccumulator::new(n);

    for cycle in 0..opts.cycles {
        let pi_words = gen.step(workload, &mut rng);
        for (i, &pi) in inputs.iter().enumerate() {
            values[pi.index()] = pi_words[i];
        }
        for (i, &ff) in dffs.iter().enumerate() {
            values[ff.index()] = ff_state[i];
        }
        for &gate_id in &order {
            values[gate_id.index()] = eval_gate(netlist, gate_id, &values);
        }
        if cycle >= opts.warmup {
            let with_prev = cycle > opts.warmup;
            acc.record(&values, with_prev.then_some(prev.as_slice()));
        }
        prev.copy_from_slice(&values);
        for (i, &ff) in dffs.iter().enumerate() {
            let d = netlist.gate(ff).fanins[0];
            ff_state[i] = values[d.index()];
        }
    }
    SimResult {
        probs: acc.finish(),
    }
}

/// Evaluates one gate's 64-lane word given the current values.
fn eval_gate(netlist: &Netlist, id: GateId, values: &[u64]) -> u64 {
    let gate = netlist.gate(id);
    let val = |g: GateId| values[g.index()];
    match gate.kind {
        GateKind::Input | GateKind::Dff => values[id.index()],
        GateKind::Buf => val(gate.fanins[0]),
        GateKind::Not => !val(gate.fanins[0]),
        GateKind::And => gate.fanins.iter().fold(u64::MAX, |acc, &f| acc & val(f)),
        GateKind::Nand => !gate.fanins.iter().fold(u64::MAX, |acc, &f| acc & val(f)),
        GateKind::Or => gate.fanins.iter().fold(0, |acc, &f| acc | val(f)),
        GateKind::Nor => !gate.fanins.iter().fold(0, |acc, &f| acc | val(f)),
        GateKind::Xor => gate.fanins.iter().fold(0, |acc, &f| acc ^ val(f)),
        GateKind::Xnor => !gate.fanins.iter().fold(0, |acc, &f| acc ^ val(f)),
        GateKind::Mux => {
            let s = val(gate.fanins[0]);
            let a = val(gate.fanins[1]);
            let b = val(gate.fanins[2]);
            (!s & a) | (s & b)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepseq_netlist::lower_to_aig;

    fn opts() -> SimOptions {
        SimOptions {
            cycles: 600,
            warmup: 20,
            seed: 42,
        }
    }

    #[test]
    fn and_gate_probability_is_product() {
        let mut aig = SeqAig::new("and");
        let a = aig.add_pi("a");
        let b = aig.add_pi("b");
        let g = aig.add_and(a, b);
        let w = Workload::uniform(2, 0.5);
        let r = simulate(&aig, &w, &opts());
        assert!((r.probs.p1[a.index()] - 0.5).abs() < 0.02);
        assert!((r.probs.p1[g.index()] - 0.25).abs() < 0.02);
        // Independent-per-cycle inputs: p01(AND) = p0 * p1 = 0.75 * 0.25.
        assert!((r.probs.p01[g.index()] - 0.1875).abs() < 0.02);
    }

    #[test]
    fn not_gate_inverts_probability() {
        let mut aig = SeqAig::new("not");
        let a = aig.add_pi("a");
        let n = aig.add_not(a);
        let w = Workload::uniform(1, 0.8);
        let r = simulate(&aig, &w, &opts());
        assert!((r.probs.p1[n.index()] - 0.2).abs() < 0.02);
        // NOT transitions mirror the input's (swapped direction).
        assert!((r.probs.p01[n.index()] - r.probs.p10[a.index()]).abs() < 1e-12);
    }

    #[test]
    fn toggle_ff_alternates() {
        let mut aig = SeqAig::new("toggle");
        let q = aig.add_ff("q", false);
        let n = aig.add_not(q);
        aig.connect_ff(q, n).unwrap();
        let w = Workload::uniform(0, 0.5);
        let r = simulate(&aig, &w, &opts());
        assert!((r.probs.p1[q.index()] - 0.5).abs() < 0.01);
        // Toggles every cycle: half the cycle pairs are rises.
        assert!((r.probs.p01[q.index()] - 0.5).abs() < 0.01);
        assert!((r.probs.p10[q.index()] - 0.5).abs() < 0.01);
    }

    #[test]
    fn constant_zero_ff_stays_zero() {
        // FF feeding itself holds its initial value forever.
        let mut aig = SeqAig::new("hold");
        let q = aig.add_ff("q", false);
        aig.connect_ff(q, q).unwrap();
        let w = Workload::uniform(0, 0.5);
        let r = simulate(&aig, &w, &opts());
        assert_eq!(r.probs.p1[q.index()], 0.0);
        assert_eq!(r.probs.toggle_rate(q.index()), 0.0);
    }

    #[test]
    fn ff_init_one_holds_one() {
        let mut aig = SeqAig::new("hold1");
        let q = aig.add_ff("q", true);
        aig.connect_ff(q, q).unwrap();
        let w = Workload::uniform(0, 0.5);
        let r = simulate(&aig, &w, &opts());
        assert_eq!(r.probs.p1[q.index()], 1.0);
    }

    #[test]
    fn ff_delays_input_by_one_cycle() {
        // q follows the PI with one cycle delay; its p1 must match the PI's.
        let mut aig = SeqAig::new("delay");
        let a = aig.add_pi("a");
        let q = aig.add_ff("q", false);
        aig.connect_ff(q, a).unwrap();
        let w = Workload::uniform(1, 0.3);
        let r = simulate(&aig, &w, &opts());
        assert!((r.probs.p1[q.index()] - 0.3).abs() < 0.02);
        assert!((r.probs.p01[q.index()] - 0.21).abs() < 0.02);
    }

    #[test]
    fn probabilities_are_consistent() {
        let mut aig = SeqAig::new("mixed");
        let a = aig.add_pi("a");
        let b = aig.add_pi("b");
        let g = aig.add_and(a, b);
        let n = aig.add_not(g);
        let q = aig.add_ff("q", false);
        let g2 = aig.add_and(q, n);
        aig.connect_ff(q, g2).unwrap();
        let w = Workload::uniform(2, 0.6);
        let r = simulate(&aig, &w, &opts());
        assert!(r.probs.check_consistency(0.03).is_ok());
    }

    #[test]
    fn netlist_and_lowered_aig_agree() {
        // The lowering preserves per-gate probabilities: simulate both
        // representations under the same seed and compare mapped nodes.
        use deepseq_netlist::netlist::{GateKind, Netlist};
        let mut nl = Netlist::new("x");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let x = nl.add_gate(GateKind::Xor, vec![a, b]);
        let m = nl.add_gate(GateKind::Mux, vec![c, x, a]);
        let q = nl.add_dff("q", false);
        let o = nl.add_gate(GateKind::Nor, vec![m, q]);
        nl.connect_dff(q, o).unwrap();
        nl.set_output(o, "y");

        let lowered = lower_to_aig(&nl).unwrap();
        let w = Workload::uniform(3, 0.5);
        let o1 = opts();
        let rn = simulate_netlist(&nl, &w, &o1);
        let ra = simulate(&lowered.aig, &w, &o1);
        for (gid, _) in nl.iter() {
            let node = lowered.node_for(gid);
            assert!(
                (rn.probs.p1[gid.index()] - ra.probs.p1[node.index()]).abs() < 1e-12,
                "p1 mismatch at {gid}"
            );
            assert!(
                (rn.probs.p01[gid.index()] - ra.probs.p01[node.index()]).abs() < 1e-12,
                "p01 mismatch at {gid}"
            );
        }
    }

    #[test]
    fn deterministic_under_same_seed() {
        let mut aig = SeqAig::new("det");
        let a = aig.add_pi("a");
        let n = aig.add_not(a);
        let _ = aig.add_and(a, n);
        let w = Workload::uniform(1, 0.4);
        let r1 = simulate(&aig, &w, &opts());
        let r2 = simulate(&aig, &w, &opts());
        assert_eq!(r1, r2);
    }

    #[test]
    fn different_seeds_differ() {
        let mut aig = SeqAig::new("det");
        let a = aig.add_pi("a");
        let _ = aig.add_not(a);
        let w = Workload::uniform(1, 0.4);
        let mut o2 = opts();
        o2.seed = 43;
        let r1 = simulate(&aig, &w, &opts());
        let r2 = simulate(&aig, &w, &o2);
        assert_ne!(r1, r2);
    }
}
