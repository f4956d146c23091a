//! Small sequential circuits shared by the facade's numerics tests.

use deepseq::netlist::SeqAig;

/// Two flip-flops behind one enable input.
pub fn two_ff_circuit() -> SeqAig {
    let mut aig = SeqAig::new("pair");
    let en = aig.add_pi("en");
    let q0 = aig.add_ff("q0", false);
    let q1 = aig.add_ff("q1", false);
    let g0 = aig.add_and(en, q0);
    let d0 = aig.add_not(g0);
    let nq1 = aig.add_not(q1);
    let d1 = aig.add_and(q0, nq1);
    aig.connect_ff(q0, d0).expect("connect q0");
    aig.connect_ff(q1, d1).expect("connect q1");
    aig.set_output(q1, "y");
    aig
}

/// `pairs` AND → NOT pairs over `pis` inputs and `ffs` flip-flops: AND `i`
/// reads input `i % pis` and flip-flop `i % ffs`, and flip-flop `j`
/// latches NOT `j`. Both logic levels hold `pairs` nodes, and every
/// flip-flop fans out to `pairs / ffs` gates.
pub fn and_not_pairs(name: &str, pairs: usize, pis: usize, ffs: usize) -> SeqAig {
    let mut aig = SeqAig::new(name);
    let pis: Vec<_> = (0..pis).map(|i| aig.add_pi(format!("x{i}"))).collect();
    let ffs: Vec<_> = (0..ffs)
        .map(|i| aig.add_ff(format!("q{i}"), false))
        .collect();
    let nots: Vec<_> = (0..pairs)
        .map(|i| {
            let g = aig.add_and(pis[i % pis.len()], ffs[i % ffs.len()]);
            aig.add_not(g)
        })
        .collect();
    for (&q, &d) in ffs.iter().zip(&nots) {
        aig.connect_ff(q, d).expect("connect ff");
    }
    aig.set_output(nots[pairs - 1], "y");
    aig
}
