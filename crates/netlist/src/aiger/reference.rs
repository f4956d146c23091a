//! The line-splitting AIGER reader that [`super::parse_aiger`] replaced,
//! kept verbatim as the reference of the differential tests. It panics on
//! some malformed inputs and orders out-of-order AND lines in quadratic
//! time; the tests call it under `catch_unwind` on small inputs only.

use std::collections::HashMap;

use crate::aig::{NodeId, SeqAig};
use crate::error::NetlistError;

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
