//! ASCII AIGER (`.aag`) reader and writer.
//!
//! AIGER is the standard interchange format for and-inverter graphs (used by
//! ABC, the HWMCC suites and most open EDA flows), so supporting it makes
//! the pipeline interoperable with real-world AIG tooling. The sequential
//! subset (latches = D flip-flops) maps 1:1 onto [`SeqAig`].
//!
//! Negation lives in *literals* in AIGER (`2·var + sign`) while [`SeqAig`]
//! uses explicit `Not` nodes: the writer folds `Not` nodes into literal
//! signs; the reader materializes at most one `Not` node per negated
//! variable.

use std::collections::HashMap;

use crate::aig::{AigNode, NodeId, SeqAig};
use crate::error::NetlistError;

/// Serializes a [`SeqAig`] to ASCII AIGER (`aag`) text.
///
/// Explicit `Not` nodes disappear into literal signs, so the AND count of
/// the output equals [`SeqAig::num_ands`], not the node count.
pub fn write_aiger(aig: &SeqAig) -> String {
    // Assign variable indices: PIs, then latches, then ANDs (AIGER order).
    let mut var_of: Vec<u32> = vec![0; aig.len()]; // node -> variable index
    let mut next_var = 1u32; // 0 is the constant FALSE
    let pis = aig.pis();
    let ffs = aig.ffs();
    for &pi in &pis {
        var_of[pi.index()] = next_var;
        next_var += 1;
    }
    for &ff in &ffs {
        var_of[ff.index()] = next_var;
        next_var += 1;
    }
    let ands: Vec<NodeId> = aig
        .iter()
        .filter(|(_, n)| n.is_and())
        .map(|(id, _)| id)
        .collect();
    for &a in &ands {
        var_of[a.index()] = next_var;
        next_var += 1;
    }

    // Literal of a node: NOTs chase their operand and flip the sign.
    fn literal(aig: &SeqAig, var_of: &[u32], node: NodeId) -> u32 {
        let mut sign = 0u32;
        let mut cur = node;
        loop {
            match *aig.node(cur) {
                AigNode::Not(a) => {
                    sign ^= 1;
                    cur = a;
                }
                _ => return 2 * var_of[cur.index()] + sign,
            }
        }
    }

    let m = next_var - 1;
    let mut out = format!(
        "aag {} {} {} {} {}\n",
        m,
        pis.len(),
        ffs.len(),
        aig.outputs().len(),
        ands.len()
    );
    for &pi in &pis {
        out.push_str(&format!("{}\n", 2 * var_of[pi.index()]));
    }
    for &ff in &ffs {
        let d = aig.ff_fanin(ff).expect("validated AIG");
        let init = match aig.node(ff) {
            AigNode::Ff { init, .. } => u32::from(*init),
            _ => unreachable!("ffs() yields FFs"),
        };
        out.push_str(&format!(
            "{} {} {}\n",
            2 * var_of[ff.index()],
            literal(aig, &var_of, d),
            init
        ));
    }
    for (o, _) in aig.outputs() {
        out.push_str(&format!("{}\n", literal(aig, &var_of, *o)));
    }
    for &a in &ands {
        if let AigNode::And(x, y) = *aig.node(a) {
            out.push_str(&format!(
                "{} {} {}\n",
                2 * var_of[a.index()],
                literal(aig, &var_of, x),
                literal(aig, &var_of, y)
            ));
        }
    }
    // Symbol table from node names.
    for (i, &pi) in pis.iter().enumerate() {
        if let Some(name) = aig.node_name(pi) {
            out.push_str(&format!("i{i} {name}\n"));
        }
    }
    for (i, &ff) in ffs.iter().enumerate() {
        if let Some(name) = aig.node_name(ff) {
            out.push_str(&format!("l{i} {name}\n"));
        }
    }
    for (i, (_, name)) in aig.outputs().iter().enumerate() {
        out.push_str(&format!("o{i} {name}\n"));
    }
    out.push_str("c\ngenerated by deepseq-netlist\n");
    out
}

/// Parses ASCII AIGER (`aag`) text into a [`SeqAig`].
///
/// # Errors
/// Returns [`NetlistError::Parse`] on malformed headers/lines and
/// [`NetlistError::DanglingRef`] when a literal references an undefined
/// variable. The constant literals `0`/`1` are rejected (the DeepSeq AIG has
/// no constant node); latch resets to a literal are likewise unsupported.
pub fn parse_aiger(text: &str) -> Result<SeqAig, NetlistError> {
    let mut lines = text.lines().enumerate();
    let (_, header) = lines.next().ok_or(NetlistError::Parse {
        line: 1,
        msg: "empty file".into(),
    })?;
    let fields: Vec<&str> = header.split_whitespace().collect();
    if fields.len() != 6 || fields[0] != "aag" {
        return Err(NetlistError::Parse {
            line: 1,
            msg: "expected `aag M I L O A` header".into(),
        });
    }
    let parse_n = |s: &str, line: usize| -> Result<u32, NetlistError> {
        s.parse().map_err(|_| NetlistError::Parse {
            line,
            msg: format!("bad number `{s}`"),
        })
    };
    let m = parse_n(fields[1], 1)?;
    let i = parse_n(fields[2], 1)? as usize;
    let l = parse_n(fields[3], 1)? as usize;
    let o = parse_n(fields[4], 1)? as usize;
    let a = parse_n(fields[5], 1)? as usize;

    struct Latch {
        var: u32,
        next: u32,
        init: bool,
        line: usize,
    }
    struct AndGate {
        lhs: u32,
        rhs0: u32,
        rhs1: u32,
        line: usize,
    }
    // Nothing is reserved from the header counts: they are untrusted, and
    // a 32-byte header can claim billions of lines. Each vector grows with
    // the lines actually read.
    let mut input_vars = Vec::new();
    let mut latches = Vec::new();
    let mut outputs = Vec::new();
    let mut ands = Vec::new();
    let mut next = |expect: &str| -> Result<(usize, &str), NetlistError> {
        lines
            .next()
            .map(|(n, s)| (n + 1, s))
            .ok_or(NetlistError::Parse {
                line: 0,
                msg: format!("unexpected end of file, expected {expect}"),
            })
    };
    for _ in 0..i {
        let (line, s) = next("input")?;
        let lit = parse_n(s.trim(), line)?;
        if lit % 2 != 0 || lit == 0 {
            return Err(NetlistError::Parse {
                line,
                msg: format!("input literal {lit} must be positive and even"),
            });
        }
        input_vars.push(lit / 2);
    }
    for _ in 0..l {
        let (line, s) = next("latch")?;
        let parts: Vec<&str> = s.split_whitespace().collect();
        if parts.len() < 2 || parts.len() > 3 {
            return Err(NetlistError::Parse {
                line,
                msg: "latch needs `lit next [init]`".into(),
            });
        }
        let lit = parse_n(parts[0], line)?;
        let next_lit = parse_n(parts[1], line)?;
        let init = match parts.get(2).map(|s| parse_n(s, line)).transpose()? {
            None | Some(0) => false,
            Some(1) => true,
            Some(other) => {
                return Err(NetlistError::Parse {
                    line,
                    msg: format!("unsupported latch reset literal {other}"),
                })
            }
        };
        if lit % 2 != 0 || lit == 0 {
            return Err(NetlistError::Parse {
                line,
                msg: format!("latch literal {lit} must be positive and even"),
            });
        }
        latches.push(Latch {
            var: lit / 2,
            next: next_lit,
            init,
            line,
        });
    }
    for _ in 0..o {
        let (line, s) = next("output")?;
        outputs.push((parse_n(s.trim(), line)?, line));
    }
    for _ in 0..a {
        let (line, s) = next("and")?;
        let parts: Vec<&str> = s.split_whitespace().collect();
        if parts.len() != 3 {
            return Err(NetlistError::Parse {
                line,
                msg: "and needs `lhs rhs0 rhs1`".into(),
            });
        }
        ands.push(AndGate {
            lhs: parse_n(parts[0], line)? / 2,
            rhs0: parse_n(parts[1], line)?,
            rhs1: parse_n(parts[2], line)?,
            line,
        });
    }
    // Symbol table.
    let mut input_names: HashMap<usize, String> = HashMap::new();
    let mut latch_names: HashMap<usize, String> = HashMap::new();
    let mut output_names: HashMap<usize, String> = HashMap::new();
    for (line, s) in lines {
        let s = s.trim();
        if s == "c" {
            break;
        }
        if s.is_empty() {
            continue;
        }
        let (kind, rest) = s.split_at(1);
        if let Some((idx, name)) = rest.split_once(' ') {
            let idx: usize = idx.parse().map_err(|_| NetlistError::Parse {
                line: line + 1,
                msg: format!("bad symbol index in `{s}`"),
            })?;
            match kind {
                "i" => {
                    input_names.insert(idx, name.to_string());
                }
                "l" => {
                    latch_names.insert(idx, name.to_string());
                }
                "o" => {
                    output_names.insert(idx, name.to_string());
                }
                _ => {}
            }
        }
    }

    // Build the SeqAig: inputs, latches, ANDs in variable order; NOT nodes
    // materialized lazily per negated variable.
    let mut aig = SeqAig::new("aiger");
    let mut node_of_var: HashMap<u32, NodeId> = HashMap::new();
    for (idx, var) in input_vars.iter().enumerate() {
        let name = input_names
            .get(&idx)
            .cloned()
            .unwrap_or_else(|| format!("i{idx}"));
        node_of_var.insert(*var, aig.add_pi(name));
    }
    for (idx, latch) in latches.iter().enumerate() {
        let name = latch_names
            .get(&idx)
            .cloned()
            .unwrap_or_else(|| format!("l{idx}"));
        node_of_var.insert(latch.var, aig.add_ff(name, latch.init));
    }
    // ANDs may reference each other; AIGER requires lhs > rhs for ASCII
    // files produced by `aigtoaig`, but to be liberal we do a fix-point
    // ordering pass.
    let mut pending: Vec<&AndGate> = ands.iter().collect();
    let mut not_cache: HashMap<u32, NodeId> = HashMap::new();
    while !pending.is_empty() {
        let before = pending.len();
        pending.retain(|gate| {
            let r0 = node_of_var.get(&(gate.rhs0 / 2)).copied();
            let r1 = node_of_var.get(&(gate.rhs1 / 2)).copied();
            match (r0, r1) {
                (Some(_), Some(_)) => {
                    let a = resolve_literal(&mut aig, &node_of_var, &mut not_cache, gate.rhs0)
                        .expect("operands exist");
                    let b = resolve_literal(&mut aig, &node_of_var, &mut not_cache, gate.rhs1)
                        .expect("operands exist");
                    let node = aig.add_and(a, b);
                    node_of_var.insert(gate.lhs, node);
                    false
                }
                _ => true,
            }
        });
        if pending.len() == before {
            let line = pending[0].line;
            return Err(NetlistError::Parse {
                line,
                msg: "cyclic or dangling AND definitions".into(),
            });
        }
    }
    for latch in &latches {
        let node = node_of_var[&latch.var];
        let d = resolve_literal(&mut aig, &node_of_var, &mut not_cache, latch.next).ok_or(
            NetlistError::Parse {
                line: latch.line,
                msg: format!("latch next literal {} undefined", latch.next),
            },
        )?;
        aig.connect_ff(node, d)?;
    }
    for (idx, (lit, line)) in outputs.iter().enumerate() {
        let node = resolve_literal(&mut aig, &node_of_var, &mut not_cache, *lit).ok_or(
            NetlistError::Parse {
                line: *line,
                msg: format!("output literal {lit} undefined"),
            },
        )?;
        let name = output_names
            .get(&idx)
            .cloned()
            .unwrap_or_else(|| format!("o{idx}"));
        aig.set_output(node, name);
    }
    let _ = m;
    aig.validate()?;
    Ok(aig)
}

/// Resolves a literal to a node, materializing a shared `Not` for odd
/// literals. Returns `None` for the constants (unsupported) or undefined
/// variables.
fn resolve_literal(
    aig: &mut SeqAig,
    node_of_var: &HashMap<u32, NodeId>,
    not_cache: &mut HashMap<u32, NodeId>,
    lit: u32,
) -> Option<NodeId> {
    if lit < 2 {
        return None; // constant FALSE/TRUE unsupported
    }
    let var = lit / 2;
    let base = *node_of_var.get(&var)?;
    if lit.is_multiple_of(2) {
        Some(base)
    } else {
        Some(*not_cache.entry(var).or_insert_with(|| aig.add_not(base)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SeqAig {
        let mut aig = SeqAig::new("s");
        let a = aig.add_pi("a");
        let b = aig.add_pi("b");
        let q = aig.add_ff("q", true);
        let g = aig.add_and(a, b);
        let n = aig.add_not(g);
        let g2 = aig.add_and(n, q);
        aig.connect_ff(q, g2).unwrap();
        aig.set_output(g2, "y");
        aig
    }

    #[test]
    fn writer_emits_valid_header() {
        let text = write_aiger(&sample());
        let header = text.lines().next().unwrap();
        // 2 inputs, 1 latch, 1 output, 2 ands; NOT folded into literals.
        assert_eq!(header, "aag 5 2 1 1 2");
    }

    /// Minimal sequential simulator for behavioural equivalence tests:
    /// applies the same PI bit stream to a circuit and returns the output
    /// trace of its first primary output.
    fn output_trace(aig: &SeqAig, cycles: usize) -> Vec<bool> {
        let pis = aig.pis();
        let ffs = aig.ffs();
        let mut ff_state: Vec<bool> = ffs
            .iter()
            .map(|&ff| matches!(aig.node(ff), AigNode::Ff { init: true, .. }))
            .collect();
        let mut values = vec![false; aig.len()];
        let mut trace = Vec::with_capacity(cycles);
        let mut lcg = 0x2545F4914F6CDD1Du64;
        let out = aig.outputs()[0].0;
        for _ in 0..cycles {
            for &pi in &pis {
                lcg = lcg
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                values[pi.index()] = (lcg >> 62) & 1 == 1;
            }
            for (i, &ff) in ffs.iter().enumerate() {
                values[ff.index()] = ff_state[i];
            }
            for (id, node) in aig.iter() {
                match *node {
                    AigNode::And(a, b) => {
                        values[id.index()] = values[a.index()] && values[b.index()]
                    }
                    AigNode::Not(a) => values[id.index()] = !values[a.index()],
                    _ => {}
                }
            }
            trace.push(values[out.index()]);
            for (i, &ff) in ffs.iter().enumerate() {
                let d = aig.ff_fanin(ff).expect("validated");
                ff_state[i] = values[d.index()];
            }
        }
        trace
    }

    #[test]
    fn roundtrip_preserves_structure_and_function() {
        let orig = sample();
        let text = write_aiger(&orig);
        let back = parse_aiger(&text).unwrap();
        assert_eq!(back.num_pis(), orig.num_pis());
        assert_eq!(back.num_ffs(), orig.num_ffs());
        assert_eq!(back.num_ands(), orig.num_ands());
        assert_eq!(back.outputs().len(), 1);
        // Behavioural equivalence: identical output traces under the same
        // deterministic PI stream (PI order is preserved by the writer).
        assert_eq!(output_trace(&orig, 200), output_trace(&back, 200));
    }

    #[test]
    fn names_roundtrip() {
        let text = write_aiger(&sample());
        let back = parse_aiger(&text).unwrap();
        assert!(back.find("a").is_some());
        assert!(back.find("q").is_some());
        assert_eq!(back.outputs()[0].1, "y");
    }

    #[test]
    fn latch_init_preserved() {
        let text = write_aiger(&sample());
        let back = parse_aiger(&text).unwrap();
        let q = back.find("q").unwrap();
        assert!(matches!(back.node(q), AigNode::Ff { init: true, .. }));
    }

    #[test]
    fn parse_rejects_bad_header() {
        assert!(parse_aiger("").is_err());
        assert!(parse_aiger("aig 1 1 0 0 0\n2\n").is_err());
        assert!(parse_aiger("aag 1 1\n").is_err());
    }

    #[test]
    fn huge_header_counts_fail_without_reserving_memory() {
        // Each count at u32::MAX on a one-line input: a typed parse error
        // at the first missing line, not an abort on a 100 GB allocation.
        let max = u32::MAX;
        for header in [
            format!("aag {max} {max} 0 0 0"),
            format!("aag {max} 0 {max} 0 0"),
            format!("aag {max} 0 0 {max} 0"),
            format!("aag {max} 0 0 0 {max}"),
        ] {
            let err = parse_aiger(&format!("{header}\n")).unwrap_err();
            assert!(
                matches!(err, NetlistError::Parse { .. }),
                "{header}: {err:?}"
            );
        }
    }

    #[test]
    fn parse_rejects_constant_outputs() {
        // Output literal 1 = constant TRUE: unsupported.
        let err = parse_aiger("aag 1 1 0 1 0\n2\n1\n").unwrap_err();
        assert!(matches!(err, NetlistError::Parse { .. }));
    }

    #[test]
    fn negated_output_becomes_not_node() {
        // y = !a
        let aig = parse_aiger("aag 1 1 0 1 0\n2\n3\n").unwrap();
        assert_eq!(aig.num_nots(), 1);
        assert_eq!(aig.num_pis(), 1);
    }

    #[test]
    fn shared_negation_is_deduplicated() {
        // Two outputs both use !a: only one NOT node may be created.
        let aig = parse_aiger("aag 1 1 0 2 0\n2\n3\n3\n").unwrap();
        assert_eq!(aig.num_nots(), 1);
    }

    #[test]
    fn out_of_order_ands_are_resolved() {
        // AND 8 defined after being referenced by AND 6's operand order
        // (liberal fix-point pass): 6 = 8 & 2, 8 = 2 & 4.
        let aig = parse_aiger("aag 4 2 0 1 2\n2\n4\n6\n6 8 2\n8 2 4\n").unwrap();
        assert_eq!(aig.num_ands(), 2);
    }
}
