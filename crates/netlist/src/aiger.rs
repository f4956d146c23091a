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
//!
//! The reader decodes untrusted request bodies on the serving path, so it
//! is built to survive them:
//!
//! * One pass over the text splits each line into fields and parses the
//!   numbers where they stand, into compact per-line records.
//! * Variables map to definitions through tables bounded by the input
//!   length; nothing is sized from the header counts or from `M`.
//! * AND lines that read gates defined further down are ordered in linear
//!   time by an iterative search, so neither a reversed chain nor a deep
//!   one costs quadratic time or stack.
//! * Malformed input of any kind is a [`NetlistError::Parse`], never a
//!   panic.

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
/// Inputs become nodes first, then latches, then the AND gates. ANDs keep
/// their file order, except that one reading a gate defined further down
/// comes later: the order is that of repeated passes over the pending
/// lines, each pass placing the gates whose operands exist. A `Not` node
/// is created just before the first node that reads its negated literal.
///
/// # Errors
/// Returns [`NetlistError::Parse`] on malformed headers and lines, on a
/// variable defined twice, on cyclic AND definitions and on literals of
/// undefined variables. The constant literals `0`/`1` are rejected (the
/// DeepSeq AIG has no constant node); latch resets to a literal are
/// likewise unsupported.
pub fn parse_aiger(text: &str) -> Result<SeqAig, NetlistError> {
    let mut cursor = Cursor {
        text,
        pos: 0,
        line: 0,
    };
    let header = cursor
        .fields()
        .ok_or_else(|| parse_error(1, "empty file"))?;
    if header.count != 6 || header.items[0] != "aag" {
        return Err(parse_error(1, "expected `aag M I L O A` header"));
    }
    header.number(1)?; // M: every variable is checked against a definition instead
    let i = header.number(2)?;
    let l = header.number(3)?;
    let o = header.number(4)?;
    let a = header.number(5)?;

    // Nothing is reserved from the header counts: they are untrusted, and
    // a 32-byte header can claim billions of lines. Each vector grows with
    // the lines actually read.
    let mut circuit = Records::default();
    for _ in 0..i {
        let line = cursor.record("input")?;
        circuit
            .inputs
            .push(line.even_literal(line.single("input")?, "input")? / 2);
    }
    for _ in 0..l {
        let line = cursor.record("latch")?;
        if !(2..=3).contains(&line.count) {
            return Err(parse_error(line.line, "latch needs `lit next [init]`"));
        }
        let lit = line.number(0)?;
        let next = line.number(1)?;
        let init = match line.count {
            2 => false,
            _ => match line.number(2)? {
                0 => false,
                1 => true,
                other => {
                    return Err(parse_error(
                        line.line,
                        format!("unsupported latch reset literal {other}"),
                    ))
                }
            },
        };
        let var = line.even_literal(lit, "latch")? / 2;
        circuit.latches.push(Latch { var, next, init });
    }
    for _ in 0..o {
        let line = cursor.record("output")?;
        circuit.outputs.push(line.single("output")?);
    }
    for _ in 0..a {
        let line = cursor.record("and")?;
        if line.count != 3 {
            return Err(parse_error(line.line, "and needs `lhs rhs0 rhs1`"));
        }
        circuit.ands.push(And {
            var: line.number(0)? / 2,
            rhs: [line.number(1)?, line.number(2)?],
        });
    }
    circuit.read_symbols(&text[cursor.pos..], cursor.line)?;
    circuit.build(text.len())
}

fn parse_error(line: usize, msg: impl Into<String>) -> NetlistError {
    NetlistError::Parse {
        line,
        msg: msg.into(),
    }
}

/// A reading position in the text: the byte offset of the next unread
/// byte, and the 1-based number of the last line started.
struct Cursor<'a> {
    text: &'a str,
    pos: usize,
    line: usize,
}

/// What starts at a reading position.
enum Char {
    /// The end of the line or of the text.
    End,
    /// A field separator of this many bytes.
    Space(usize),
    /// A field character of this many bytes.
    Field(usize),
}

impl<'a> Cursor<'a> {
    /// Classifies the character at the reading position. Separators are
    /// Unicode whitespace, as for `str::split_whitespace`; only non-ASCII
    /// bytes pay for decoding a character.
    #[inline]
    fn peek(&self) -> Char {
        match self.text.as_bytes().get(self.pos) {
            None | Some(b'\n') => Char::End,
            Some(b' ' | b'\t' | b'\r' | 0x0b | 0x0c) => Char::Space(1),
            Some(b) if b.is_ascii() => Char::Field(1),
            Some(_) => match self.text[self.pos..].chars().next() {
                Some(c) if c.is_whitespace() => Char::Space(c.len_utf8()),
                Some(c) => Char::Field(c.len_utf8()),
                None => Char::End,
            },
        }
    }

    /// The next field of the current line, or `None` at its end.
    fn field(&mut self) -> Option<&'a str> {
        loop {
            match self.peek() {
                Char::End => return None,
                Char::Space(len) => self.pos += len,
                Char::Field(_) => break,
            }
        }
        let start = self.pos;
        while let Char::Field(len) = self.peek() {
            self.pos += len;
        }
        Some(&self.text[start..self.pos])
    }

    /// Reads the next line as fields and moves past its end; `None` at the
    /// end of the text.
    fn fields(&mut self) -> Option<Fields<'a>> {
        if self.pos >= self.text.len() {
            return None;
        }
        self.line += 1;
        let mut fields = Fields {
            line: self.line,
            count: 0,
            items: [""; 6],
        };
        while let Some(item) = self.field() {
            if let Some(slot) = fields.items.get_mut(fields.count) {
                *slot = item;
            }
            fields.count += 1;
        }
        self.pos = (self.pos + 1).min(self.text.len());
        Some(fields)
    }

    /// [`Cursor::fields`] of a line the header promised.
    fn record(&mut self, expect: &str) -> Result<Fields<'a>, NetlistError> {
        self.fields()
            .ok_or_else(|| parse_error(0, format!("unexpected end of file, expected {expect}")))
    }
}

/// The whitespace-separated fields of one line: their count and the first
/// six (the header's length; body lines have at most three).
struct Fields<'a> {
    line: usize,
    count: usize,
    items: [&'a str; 6],
}

impl Fields<'_> {
    /// Field `k` as a number, parsed where it stands.
    fn number(&self, k: usize) -> Result<u32, NetlistError> {
        let item = self.items[k];
        item.parse()
            .map_err(|_| parse_error(self.line, format!("bad number `{item}`")))
    }

    /// The line's only field as a number.
    fn single(&self, what: &str) -> Result<u32, NetlistError> {
        if self.count != 1 {
            return Err(parse_error(self.line, format!("{what} needs one literal")));
        }
        self.number(0)
    }

    /// `lit` if it may define a variable: positive and even.
    fn even_literal(&self, lit: u32, what: &str) -> Result<u32, NetlistError> {
        if !lit.is_multiple_of(2) || lit == 0 {
            return Err(parse_error(
                self.line,
                format!("{what} literal {lit} must be positive and even"),
            ));
        }
        Ok(lit)
    }
}

/// A latch line: its variable, next-state literal and reset value.
struct Latch {
    var: u32,
    next: u32,
    init: bool,
}

/// An AND line: the variable it defines and its two operand literals.
struct And {
    var: u32,
    rhs: [u32; 2],
}

/// The lines of an AIGER file, in file order. Line numbers are implied:
/// the header is line 1 and the sections follow it without gaps.
#[derive(Default)]
struct Records<'a> {
    inputs: Vec<u32>,
    latches: Vec<Latch>,
    outputs: Vec<u32>,
    ands: Vec<And>,
    input_names: Vec<Option<&'a str>>,
    latch_names: Vec<Option<&'a str>>,
    output_names: Vec<Option<&'a str>>,
}

/// Sentinel of the `u32` index tables below.
const NONE: u32 = u32::MAX;

impl<'a> Records<'a> {
    /// Line number of definition `def` (inputs, latches, then ANDs).
    fn line_of(&self, def: usize) -> usize {
        let gap = if def >= self.inputs.len() + self.latches.len() {
            self.outputs.len()
        } else {
            0
        };
        2 + def + gap
    }

    /// Reads the symbol table (`i0 name`, `l3 name`, `o1 name`) up to the
    /// `c` line; a later entry for the same index wins. `rest` starts on
    /// the line after `line`.
    fn read_symbols(&mut self, rest: &'a str, line: usize) -> Result<(), NetlistError> {
        self.input_names = vec![None; self.inputs.len()];
        self.latch_names = vec![None; self.latches.len()];
        self.output_names = vec![None; self.outputs.len()];
        for (n, s) in rest.lines().enumerate() {
            let line = line + 1 + n;
            let s = s.trim();
            if s == "c" {
                break;
            }
            let Some(kind) = s.bytes().next() else {
                continue;
            };
            let Some(entry) = s.get(1..) else {
                return Err(parse_error(line, "symbol kind is not an ASCII character"));
            };
            let Some((idx, name)) = entry.split_once(' ') else {
                continue;
            };
            let idx: usize = idx
                .parse()
                .map_err(|_| parse_error(line, format!("bad symbol index in `{s}`")))?;
            let names = match kind {
                b'i' => &mut self.input_names,
                b'l' => &mut self.latch_names,
                b'o' => &mut self.output_names,
                _ => continue,
            };
            if let Some(slot) = names.get_mut(idx) {
                *slot = Some(name);
            }
        }
        Ok(())
    }

    /// Builds the graph. `bound` (the input length) caps the variable
    /// table.
    fn build(self, bound: usize) -> Result<SeqAig, NetlistError> {
        let (ni, nl) = (self.inputs.len(), self.latches.len());
        let first_and = ni + nl;
        let count = first_and + self.ands.len();
        // Operands below are `2·def + sign` in a u32.
        if count > (NONE / 2) as usize {
            return Err(parse_error(1, "too many definitions"));
        }
        let vars = self
            .inputs
            .iter()
            .copied()
            .chain(self.latches.iter().map(|latch| latch.var))
            .chain(self.ands.iter().map(|and| and.var));
        let defs = Defs::new(vars, bound).map_err(|(def, var)| {
            parse_error(self.line_of(def), format!("variable {var} defined twice"))
        })?;
        let mut operands = Vec::with_capacity(self.ands.len());
        for (k, and) in self.ands.iter().enumerate() {
            let operand = |lit: u32| {
                defs.operand(lit).ok_or_else(|| {
                    parse_error(
                        self.line_of(first_and + k),
                        format!("and operand literal {lit} is constant or undefined"),
                    )
                })
            };
            operands.push([operand(and.rhs[0])?, operand(and.rhs[1])?]);
        }
        let order = and_order(&operands, first_and as u32)
            .map_err(|k| parse_error(self.line_of(first_and + k), "cyclic AND definitions"))?;

        let name = |names: &[Option<&str>], kind: char, idx: usize| {
            names[idx].map_or_else(|| format!("{kind}{idx}"), str::to_string)
        };
        let mut graph = Assembly {
            aig: SeqAig::new("aiger"),
            node: Vec::with_capacity(count),
            not: vec![NONE; count],
        };
        for idx in 0..ni {
            let pi = graph.aig.add_pi(name(&self.input_names, 'i', idx));
            graph.node.push(pi);
        }
        for (idx, latch) in self.latches.iter().enumerate() {
            let ff = graph
                .aig
                .add_ff(name(&self.latch_names, 'l', idx), latch.init);
            graph.node.push(ff);
        }
        graph.node.resize(count, NodeId(NONE));
        for k in order {
            let [x, y] = operands[k as usize];
            let a = graph.literal(x);
            let b = graph.literal(y);
            graph.node[first_and + k as usize] = graph.aig.add_and(a, b);
        }
        for (idx, latch) in self.latches.iter().enumerate() {
            let d = defs.operand(latch.next).ok_or_else(|| {
                parse_error(
                    self.line_of(ni + idx),
                    format!("latch next literal {} undefined", latch.next),
                )
            })?;
            let d = graph.literal(d);
            graph.aig.connect_ff(graph.node[ni + idx], d)?;
        }
        for (idx, &lit) in self.outputs.iter().enumerate() {
            let node = defs.operand(lit).ok_or_else(|| {
                parse_error(
                    2 + first_and + idx,
                    format!("output literal {lit} undefined"),
                )
            })?;
            let node = graph.literal(node);
            graph
                .aig
                .set_output(node, name(&self.output_names, 'o', idx));
        }
        graph.aig.validate()?;
        Ok(graph.aig)
    }
}

/// The definition (index into inputs, latches, then ANDs) of each defined
/// variable. Variables below `bound` index `table`; larger ones, which
/// only a file whose variable numbers exceed its own length can hold, are
/// binary-searched in `spill`. Memory stays within the input length
/// whatever `M` and the literals claim.
struct Defs {
    table: Vec<u32>,
    spill: Vec<(u32, u32)>,
}

impl Defs {
    /// Indexes the defined variables, in definition order; `Err` names
    /// the second definition of a variable and the variable.
    fn new(vars: impl Iterator<Item = u32> + Clone, bound: usize) -> Result<Defs, (usize, u32)> {
        let len = vars.clone().max().map_or(0, |max| max as usize + 1);
        let mut table = vec![NONE; len.min(bound)];
        let mut spill = Vec::new();
        for (def, var) in vars.enumerate() {
            match table.get_mut(var as usize) {
                Some(slot) if *slot == NONE => *slot = def as u32,
                Some(_) => return Err((def, var)),
                None => spill.push((var, def as u32)),
            }
        }
        spill.sort_unstable();
        if let Some(pair) = spill.windows(2).find(|pair| pair[0].0 == pair[1].0) {
            return Err((pair[1].1 as usize, pair[1].0));
        }
        Ok(Defs { table, spill })
    }

    /// The operand `2·def + sign` of literal `lit`, or `None` for the
    /// constants and for undefined variables.
    fn operand(&self, lit: u32) -> Option<u32> {
        let var = lit / 2;
        let def = match self.table.get(var as usize) {
            Some(&def) => def,
            None => match self.spill.binary_search_by_key(&var, |&(v, _)| v) {
                Ok(at) => self.spill[at].1,
                Err(_) => NONE,
            },
        };
        (lit >= 2 && def != NONE).then(|| 2 * def + lit % 2)
    }
}

/// The order in which the AND gates become nodes, as indices into
/// `operands` (whose entries are [`Defs::operand`]s; definitions from
/// `first_and` on are ANDs). It is the order of a fix-point loop that
/// sweeps the pending gates in file order, placing each one whose operands
/// exist. Gate `k` is placed in pass 1 + the most steps to a gate later in
/// the file that any chain of its dependencies takes. The passes come from
/// an iterative depth-first search and the order from a counting sort, so
/// a reversed chain costs linear time and no recursion. `Err(k)` names a
/// gate on a cycle.
fn and_order(operands: &[[u32; 2]], first_and: u32) -> Result<Vec<u32>, usize> {
    const OPEN: u32 = NONE; // on the search stack
    let mut pass = vec![0u32; operands.len()]; // 0: not reached yet
    let mut stack = Vec::new();
    let mut last_pass = 0;
    for root in 0..operands.len() {
        if pass[root] != 0 {
            continue;
        }
        pass[root] = OPEN;
        stack.push(root);
        'search: while let Some(&k) = stack.last() {
            let mut at = 1;
            for lit in operands[k] {
                let Some(dep) = (lit / 2).checked_sub(first_and) else {
                    continue; // an input or a latch: present from the start
                };
                let dep = dep as usize;
                match pass[dep] {
                    0 => {
                        pass[dep] = OPEN;
                        stack.push(dep);
                        continue 'search;
                    }
                    OPEN => return Err(k),
                    p => at = at.max(p + u32::from(dep > k)),
                }
            }
            pass[k] = at;
            last_pass = last_pass.max(at);
            stack.pop();
        }
    }
    // Counting sort by pass, stable in file order.
    let mut start = vec![0u32; last_pass as usize + 2];
    for &p in &pass {
        start[p as usize + 1] += 1;
    }
    for p in 1..start.len() {
        start[p] += start[p - 1];
    }
    let mut order = vec![0u32; operands.len()];
    for (k, &p) in pass.iter().enumerate() {
        order[start[p as usize] as usize] = k as u32;
        start[p as usize] += 1;
    }
    Ok(order)
}

/// The graph under construction: the node of each definition, and the
/// `Not` node of each definition once one is needed.
struct Assembly {
    aig: SeqAig,
    node: Vec<NodeId>,
    not: Vec<u32>,
}

impl Assembly {
    /// The node of operand `2·def + sign`, materializing one shared `Not`
    /// per negated definition.
    fn literal(&mut self, operand: u32) -> NodeId {
        let def = (operand / 2) as usize;
        if operand.is_multiple_of(2) {
            return self.node[def];
        }
        if self.not[def] == NONE {
            self.not[def] = self.aig.add_not(self.node[def]).0;
        }
        NodeId(self.not[def])
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use std::panic::catch_unwind;
    use std::time::{Duration, Instant};

    use proptest::prelude::*;

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

    #[test]
    fn constant_operand_after_a_gate_defining_variable_zero_is_a_parse_error() {
        // `0 2 2` defines variable 0, so the constant operand of the next
        // gate names a defined variable (the reference panicked here).
        let body = "aag 2 1 0 0 2\n2\n0 2 2\n4 0 2\n";
        let err = parse_aiger(body).unwrap_err();
        assert!(
            matches!(err, NetlistError::Parse { line: 4, .. }),
            "{err:?}"
        );
        assert!(catch_unwind(|| reference::parse_aiger(body)).is_err());
    }

    #[test]
    fn multibyte_symbol_kind_is_a_parse_error() {
        // The reference split the line inside `é` and panicked.
        let body = "aag 1 1 0 0 0\n2\n\u{e9} x\n";
        let err = parse_aiger(body).unwrap_err();
        assert!(
            matches!(err, NetlistError::Parse { line: 3, .. }),
            "{err:?}"
        );
        assert!(catch_unwind(|| reference::parse_aiger(body)).is_err());
    }

    #[test]
    fn variables_defined_twice_are_parse_errors() {
        for body in [
            "aag 1 2 0 1 0\n2\n2\n2\n",
            "aag 2 2 0 1 1\n2\n4\n4\n4 2 2\n",
            "aag 3 1 0 1 2\n2\n4\n4 2 3\n4 2 2\n",
            "aag 0 2 0 0 0\n4000000000\n4000000000\n",
        ] {
            let err = parse_aiger(body).unwrap_err();
            assert!(
                matches!(&err, NetlistError::Parse { msg, .. } if msg.contains("defined twice")),
                "{body:?}: {err:?}"
            );
        }
    }

    #[test]
    fn cyclic_and_definitions_are_parse_errors() {
        for body in [
            "aag 2 1 0 1 1\n2\n4\n4 4 2\n",
            "aag 3 1 0 1 2\n2\n4\n4 6 2\n6 4 2\n",
        ] {
            let err = parse_aiger(body).unwrap_err();
            assert!(
                matches!(err, NetlistError::Parse { .. }),
                "{body:?}: {err:?}"
            );
        }
    }

    #[test]
    fn variables_beyond_the_input_length_resolve() {
        // Both variables exceed the text's length, so neither fits the
        // variable table; the graph is still the reference's.
        let body = "aag 2000000001 1 0 1 1\n4000000000\n4000000002\n\
                    4000000002 4000000000 4000000001\n";
        let aig = parse_aiger(body).unwrap();
        assert_eq!(aig.len(), 3);
        assert_eq!(agree(body), Ok(()));
    }

    #[test]
    fn fields_split_on_unicode_whitespace_as_the_reference_does() {
        for body in [
            "aag\u{a0}2 1 0 1 1\n+2\u{85}\n\u{b}4\u{c}\n4\u{2003}2\t3\r\ni0  spaced name\n",
            "aag 1 1 0 1 0\r\n2\r\n3\r\nc\r\ncomment\n",
            "aag 1 1 0 1 0\n2\n3\ni0 a\ni0 b\no0 y\nx9 ignored\nc",
            "aag 1 1 0 1 0\n2\n3\u{3000}x\n",
            "aag 1 1 0 1 0\n2\n3\n\u{e9}",
        ] {
            assert_eq!(agree(body), Ok(()), "{body:?}");
        }
        let aig = parse_aiger("aag\u{a0}2 1 0 1 1\n+2\u{85}\n4\n4\u{2003}2\t3\r\n").unwrap();
        assert_eq!(aig.num_ands(), 1);
    }

    /// An AND chain of `n` gates over one input: gate `k` defines
    /// variable `k + 2` from the previous gate (the input for gate 0) and
    /// the negated input; the output reads the last gate. `reversed`
    /// writes the gates last first, so every gate reads one further down.
    fn chain(n: usize, reversed: bool) -> String {
        let mut ands: Vec<String> = (0..n)
            .map(|k| format!("{} {} 3\n", 2 * (k + 2), 2 * (k + 1)))
            .collect();
        if reversed {
            ands.reverse();
        }
        format!(
            "aag {} 1 0 1 {n}\n2\n{}\n{}",
            n + 1,
            2 * (n + 1),
            ands.concat()
        )
    }

    #[test]
    fn reversed_and_chain_parses_in_linear_time() {
        // The reference re-scans every pending gate once per placed gate,
        // so its time grows with the square of the chain: this 60k chain
        // takes it minutes.
        let text = chain(60_000, true);
        let start = Instant::now();
        let aig = parse_aiger(&text).unwrap();
        let took = start.elapsed();
        assert_eq!(aig.num_ands(), 60_000);
        assert!(
            took < Duration::from_secs(5),
            "60k reversed gates took {took:?}"
        );
        // Gate k still reads gate k - 1: node ids follow the chain.
        let last = aig.outputs()[0].0;
        assert!(matches!(aig.node(last), AigNode::And(prev, _) if prev.0 + 1 == last.0));
    }

    #[test]
    fn deep_in_order_chain_parses_without_recursion() {
        let aig = parse_aiger(&chain(100_000, false)).unwrap();
        assert_eq!(aig.num_ands(), 100_000);
        assert_eq!(aig.len(), 100_002);
    }

    #[test]
    fn reversed_chain_gets_the_reference_numbering() {
        assert_eq!(agree(&chain(200, true)), Ok(()));
    }

    /// Parses `text` with both decoders. They agree when both build the
    /// same graph (node for node, with names and outputs) or both fail.
    /// Two differences are allowed: where the reference panics, the new
    /// decoder returns `Parse`; where a variable is defined twice (the
    /// reference let the later definition win), it may return `Parse`.
    fn agree(text: &str) -> Result<(), String> {
        fn same(a: &SeqAig, b: &SeqAig) -> bool {
            a.nodes() == b.nodes()
                && a.outputs() == b.outputs()
                && a.iter().all(|(id, _)| a.node_name(id) == b.node_name(id))
        }
        let got = parse_aiger(text);
        let want = catch_unwind(|| reference::parse_aiger(text));
        match (&want, &got) {
            (Ok(Ok(want)), Ok(got)) if same(want, got) => Ok(()),
            (Ok(Err(_)), Err(_)) | (Err(_), Err(NetlistError::Parse { .. })) => Ok(()),
            (_, Err(NetlistError::Parse { msg, .. })) if msg.contains("defined twice") => Ok(()),
            (Ok(want), got) => Err(format!("reference {want:?}, decoder {got:?}")),
            (Err(_), got) => Err(format!("reference panicked, decoder {got:?}")),
        }
    }

    /// xorshift64* draws in `0..bound`.
    fn draws(seed: u64) -> impl FnMut(usize) -> usize {
        let mut state = seed | 1;
        move |bound| {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 33) as usize % bound.max(1)
        }
    }

    /// A random sequential AIG of about `size` gates, written as AIGER.
    fn random_aiger(seed: u64, size: usize) -> String {
        let mut next = draws(seed);
        let mut aig = SeqAig::new("prop");
        for i in 0..1 + next(4) {
            aig.add_pi(format!("x{i}"));
        }
        let ffs: Vec<NodeId> = (0..next(4))
            .map(|i| aig.add_ff(format!("q{i}"), next(2) == 1))
            .collect();
        for _ in 0..size {
            let a = NodeId(next(aig.len()) as u32);
            if next(4) == 0 {
                aig.add_not(a);
            } else {
                aig.add_and(a, NodeId(next(aig.len()) as u32));
            }
        }
        for &ff in &ffs {
            let d = NodeId(next(aig.len()) as u32);
            aig.connect_ff(ff, d).unwrap();
        }
        for o in 0..1 + next(3) {
            let node = NodeId(next(aig.len()) as u32);
            aig.set_output(node, format!("y{o}"));
        }
        write_aiger(&aig)
    }

    /// `text` with its AND lines in a random order.
    fn shuffle_ands(text: &str, seed: u64) -> String {
        let mut next = draws(seed);
        let mut lines: Vec<&str> = text.lines().collect();
        let counts: Vec<usize> = lines[0]
            .split(' ')
            .skip(2)
            .map(|n| n.parse().unwrap())
            .collect();
        let first = 1 + counts[0] + counts[1] + counts[2];
        let ands = &mut lines[first..first + counts[3]];
        for i in (1..ands.len()).rev() {
            ands.swap(i, next(i + 1));
        }
        lines.join("\n") + "\n"
    }

    /// `text` with 1–3 characters replaced, inserted or deleted; the
    /// replacements favour digits, separators and symbol kinds.
    fn mutate(text: &str, seed: u64) -> String {
        const ALPHABET: [char; 24] = [
            '0', '1', '2', '3', '5', '8', '9', ' ', ' ', '\n', '\r', '\t', '+', '-', 'c', 'i', 'l',
            'o', 'x', '\u{b}', '\u{a0}', '\u{85}', '\u{2003}', '\u{e9}',
        ];
        let mut next = draws(seed);
        let mut chars: Vec<char> = text.chars().collect();
        for _ in 0..1 + next(3) {
            let at = next(chars.len() + 1);
            let c = ALPHABET[next(ALPHABET.len())];
            match next(3) {
                0 if at < chars.len() => chars[at] = c,
                1 if at < chars.len() => {
                    chars.remove(at);
                }
                _ => chars.insert(at, c),
            }
        }
        chars.into_iter().collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]

        #[test]
        fn decoder_matches_reference_on_written_aigs(seed in any::<u64>(), size in 0usize..80) {
            let text = random_aiger(seed, size);
            prop_assert!(parse_aiger(&text).is_ok());
            prop_assert_eq!(agree(&text), Ok(()));
        }

        #[test]
        fn decoder_matches_reference_on_shuffled_and_lines(seed in any::<u64>(), size in 0usize..80) {
            let text = shuffle_ands(&random_aiger(seed, size), seed ^ 0x5eed);
            prop_assert!(parse_aiger(&text).is_ok());
            prop_assert_eq!(agree(&text), Ok(()));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(3000))]

        #[test]
        fn decoder_matches_reference_on_mutated_bytes(
            seed in any::<u64>(),
            size in 0usize..24,
            shuffled in any::<bool>(),
        ) {
            let mut text = random_aiger(seed, size);
            if shuffled {
                text = shuffle_ands(&text, seed);
            }
            let text = mutate(&text, seed.rotate_left(17));
            prop_assert_eq!(agree(&text), Ok(()), "{:?}", text);
        }
    }
}
