//! The DeepSeq model (paper Fig. 1): customized propagation over the
//! cycle-cut circuit graph, per-direction aggregation + GRU combine, and two
//! independent MLP regressor heads for transition (`TR`) and logic (`LG`)
//! probabilities.
//!
//! The forward pass is written once: [`DeepSeq::schedule`] lists the
//! [`Step`]s of paper Fig. 2, and the level step ([`DirectionLayer::step`])
//! and [`DeepSeq::readout`] are generic over [`Ops`]. A backend walks the
//! schedule, runs each level step and commits its rows — on the autograd
//! tape in [`DeepSeq::forward`], in reused scratch buffers (levels chunked
//! across a pool) in the serving crate's `InferenceModel`.

use std::fmt::Write as _;
use std::ops::Range;

use deepseq_netlist::aig::NUM_NODE_TYPES;
use deepseq_nn::ops::mean_pool;
use deepseq_nn::{
    append_crc_trailer, verify_crc_trailer, BinReader, GruCell, Matrix, Mlp, Ops, Params,
    ParamsError, Tape, TapeOps, VarId,
};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use crate::aggregate::AggregatorLayer;
use crate::config::{Aggregator, DeepSeqConfig, PropagationScheme};
use crate::graph::{CircuitGraph, LevelBatch};

/// Node-level predictions of one forward pass.
#[derive(Debug, Clone, PartialEq)]
pub struct Predictions {
    /// `n×2` transition probabilities (`0→1`, `1→0`).
    pub tr: Matrix,
    /// `n×1` logic-1 probabilities.
    pub lg: Matrix,
}

/// Value handles of one forward pass: tape variables for loss construction
/// (as returned by [`DeepSeq::forward`]), or any backend's values (as
/// returned by [`DeepSeq::readout`]).
#[derive(Debug, Clone, Copy)]
pub struct ForwardVars<V = VarId> {
    /// Final hidden states, `n×d`.
    pub hidden: V,
    /// `TR` head output after sigmoid, `n×2`.
    pub tr: V,
    /// `LG` head output after sigmoid, `n×1`.
    pub lg: V,
}

/// One propagation direction: aggregation + GRU combine.
#[derive(Debug, Clone)]
pub struct DirectionLayer {
    /// Message aggregation (Eq. 5–7).
    pub agg: AggregatorLayer,
    /// The Combine function (Eq. 8).
    pub gru: GruCell,
}

/// One step of the propagation schedule (paper Fig. 2).
#[derive(Debug, Clone, Copy)]
pub enum Step<'m> {
    /// Update the nodes of one level batch through a direction layer
    /// ([`DirectionLayer::step`], then commit its rows to `batch.nodes`).
    Level(&'m DirectionLayer, &'m LevelBatch),
    /// FFs copy their D-input state: for each `(ff, d)` in order, node `ff`
    /// takes node `d`'s current state (the clock edge, step 4).
    CopyFfs(&'m [(u32, u32)]),
}

impl DirectionLayer {
    fn new<R: Rng + ?Sized>(
        params: &mut Params,
        name: &str,
        aggregator: Aggregator,
        hidden_dim: usize,
        rng: &mut R,
    ) -> Self {
        let agg = AggregatorLayer::new(params, &format!("{name}.agg"), aggregator, hidden_dim, rng);
        let input_dim = agg.output_dim(hidden_dim) + NUM_NODE_TYPES;
        DirectionLayer {
            agg,
            gru: GruCell::new(params, &format!("{name}.gru"), input_dim, hidden_dim, rng),
        }
    }

    /// The level step over nodes `range` of `batch`: gather the previous
    /// states and messages → aggregate → GRU combine. Returns the new
    /// `range.len()×d` states, row `i` for node `batch.nodes[range.start +
    /// i]`; committing them is the caller's. The step reads only states of
    /// other levels and the nodes' own previous states, so disjoint ranges
    /// of one level give the same rows whether run together or apart.
    pub fn step<O: Ops>(&self, ops: &mut O, batch: &LevelBatch, range: Range<usize>) -> O::Value {
        let nodes = &batch.nodes[range.clone()];
        // Edges are sorted by segment, so the range's edges are contiguous.
        let first = batch
            .edges
            .partition_point(|&(_, seg)| (seg as usize) < range.start);
        let last = batch
            .edges
            .partition_point(|&(_, seg)| (seg as usize) < range.end);
        let edges = &batch.edges[first..last];
        let segments: Vec<usize> = edges
            .iter()
            .map(|&(_, seg)| seg as usize - range.start)
            .collect();
        let node_prev = ops.gather_state(nodes.iter().map(|&v| v as usize));
        let edge_prev = ops.gather_state(segments.iter().map(|&s| nodes[s] as usize));
        let edge_msgs = ops.gather_state(edges.iter().map(|&(u, _)| u as usize));
        let m = self
            .agg
            .aggregate(ops, node_prev, edge_prev, edge_msgs, &segments, nodes.len());
        let x = ops.gather_features(nodes.iter().map(|&v| v as usize));
        let input = ops.concat_cols(m, x);
        self.gru.forward(ops, input, node_prev)
    }
}

/// The DeepSeq model (and, by configuration, the DAG-ConvGNN / DAG-RecGNN
/// baselines of Table II).
///
/// # Example
///
/// ```
/// use deepseq_core::{CircuitGraph, DeepSeq, DeepSeqConfig};
/// use deepseq_core::encoding::initial_states;
/// use deepseq_netlist::SeqAig;
/// use deepseq_sim::Workload;
///
/// let mut aig = SeqAig::new("toggle");
/// let q = aig.add_ff("q", false);
/// let n = aig.add_not(q);
/// aig.connect_ff(q, n)?;
///
/// let model = DeepSeq::new(DeepSeqConfig::default());
/// let graph = CircuitGraph::build(&aig);
/// let h0 = initial_states(&aig, &Workload::uniform(0, 0.5), model.config().hidden_dim, 0);
/// let preds = model.predict(&graph, &h0);
/// assert_eq!(preds.tr.shape(), (2, 2));
/// assert_eq!(preds.lg.shape(), (2, 1));
/// # Ok::<(), deepseq_netlist::NetlistError>(())
/// ```
#[derive(Debug, Clone)]
pub struct DeepSeq {
    config: DeepSeqConfig,
    params: Params,
    forward_layer: DirectionLayer,
    reverse_layer: DirectionLayer,
    tr_head: Mlp,
    lg_head: Mlp,
}

impl DeepSeq {
    /// Builds a model with freshly initialized weights (seeded by
    /// `config.seed`).
    pub fn new(config: DeepSeqConfig) -> Self {
        DeepSeq::build(config, &mut StdRng::seed_from_u64(config.seed))
    }

    /// The parameter skeleton of `config` for a checkpoint to fill: the
    /// names, shapes and registration order of [`DeepSeq::new`], with no
    /// seeded draws (each Xavier weight is its range's lower end).
    fn skeleton(config: DeepSeqConfig) -> Self {
        DeepSeq::build(config, &mut NoDraws)
    }

    /// Registers every parameter of `config`, drawing the Xavier weights
    /// from `rng` in registration order.
    fn build<R: Rng + ?Sized>(config: DeepSeqConfig, rng: &mut R) -> Self {
        let mut params = Params::new();
        let d = config.hidden_dim;
        let forward_layer = DirectionLayer::new(&mut params, "fwd", config.aggregator, d, rng);
        let reverse_layer = DirectionLayer::new(&mut params, "rev", config.aggregator, d, rng);
        // "2 independent sets of 3-MLPs" (Section IV-A3), one per task.
        let tr_head = Mlp::new(&mut params, "tr_head", &[d, d, d, 2], rng);
        let lg_head = Mlp::new(&mut params, "lg_head", &[d, d, d, 1], rng);
        DeepSeq {
            config,
            params,
            forward_layer,
            reverse_layer,
            tr_head,
            lg_head,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &DeepSeqConfig {
        &self.config
    }

    /// The parameter store (weights).
    pub fn params(&self) -> &Params {
        &self.params
    }

    /// Mutable parameter store (for optimizer steps).
    pub fn params_mut(&mut self) -> &mut Params {
        &mut self.params
    }

    /// The propagation schedule (paper Fig. 2) over `graph`: `T` times the
    /// forward levels (step 2; FF states are read, not written), the
    /// reverse levels (step 3) and, under [`PropagationScheme::Custom`],
    /// the FF copy (step 4). Empty level batches are skipped.
    pub fn schedule<'m>(&'m self, graph: &'m CircuitGraph) -> impl Iterator<Item = Step<'m>> + 'm {
        let levels = |layer: &'m DirectionLayer, batches: &'m [LevelBatch]| {
            batches
                .iter()
                .filter(|batch| !batch.is_empty())
                .map(move |batch| Step::Level(layer, batch))
        };
        let copy_ffs = self
            .config
            .scheme
            .updates_ffs()
            .then_some(Step::CopyFfs(&graph.ff_pairs));
        (0..self.config.effective_iterations()).flat_map(move |_| {
            levels(&self.forward_layer, &graph.forward)
                .chain(levels(&self.reverse_layer, &graph.reverse))
                .chain(copy_ffs)
        })
    }

    /// The readout over the final node states of a circuit with
    /// `num_nodes` nodes: the hidden states plus both regressor heads
    /// through a sigmoid. Each head row depends only on the same state row.
    pub fn readout<O: Ops>(&self, ops: &mut O, num_nodes: usize) -> ForwardVars<O::Value> {
        let hidden = ops.gather_state(0..num_nodes);
        let tr_raw = self.tr_head.forward(ops, hidden);
        let tr = ops.sigmoid(tr_raw);
        let lg_raw = self.lg_head.forward(ops, hidden);
        let lg = ops.sigmoid(lg_raw);
        ForwardVars { hidden, tr, lg }
    }

    /// Records the full forward computation on `tape` and returns handles to
    /// hidden states and both head outputs.
    ///
    /// `init_h` is the `n×d` initial state matrix from
    /// [`initial_states`](crate::encoding::initial_states); PI rows stay
    /// fixed throughout (they are never listed in any update batch).
    pub fn forward(&self, tape: &mut Tape, graph: &CircuitGraph, init_h: &Matrix) -> ForwardVars {
        assert_eq!(
            init_h.shape(),
            (graph.num_nodes, self.config.hidden_dim),
            "init_h must be n×hidden_dim"
        );
        let h0 = tape.input(init_h.clone());
        let feats = tape.input(graph.features.clone());
        let mut ops = TapeOps::with_nodes(tape, &self.params, h0, feats);
        for step in self.schedule(graph) {
            match step {
                Step::Level(layer, batch) => {
                    let h = layer.step(&mut ops, batch, 0..batch.len());
                    ops.commit(&batch.nodes, h);
                }
                Step::CopyFfs(pairs) => ops.copy_rows(pairs),
            }
        }
        self.readout(&mut ops, graph.num_nodes)
    }

    /// Runs inference and returns concrete prediction matrices.
    pub fn predict(&self, graph: &CircuitGraph, init_h: &Matrix) -> Predictions {
        let mut tape = Tape::new();
        let vars = self.forward(&mut tape, graph, init_h);
        Predictions {
            tr: tape.value(vars.tr).clone(),
            lg: tape.value(vars.lg).clone(),
        }
    }

    /// Graph-level readout (Eq. 2): mean-pools the final node states into a
    /// single `1×d` circuit embedding. The paper lists netlist-level
    /// embeddings as future work (Section VI); this readout makes the
    /// pre-trained node representations usable for circuit-level tasks such
    /// as netlist classification.
    pub fn embed_graph(&self, graph: &CircuitGraph, init_h: &Matrix) -> Matrix {
        let mut tape = Tape::new();
        let vars = self.forward(&mut tape, graph, init_h);
        mean_pool(tape.value(vars.hidden))
    }

    /// Renders configuration + weights as a text checkpoint, for
    /// `deepseq-serve convert` only: a `deepseq-model v1` header line, then
    /// a `deepseq-params v1` body of `param <name> <rows> <cols>` lines,
    /// each followed by its rows of shortest round-tripping decimals, so
    /// [`DeepSeq::from_text`] restores the same bits.
    pub fn to_text(&self) -> String {
        let c = &self.config;
        let mut out = format!(
            "deepseq-model v1 hidden={} iters={} agg={} scheme={} seed={}\ndeepseq-params v1\n",
            c.hidden_dim,
            c.iterations,
            aggregator_tag(c.aggregator),
            scheme_tag(c.scheme),
            c.seed
        );
        for (_, name, value) in self.params.iter() {
            let _ = writeln!(out, "param {name} {} {}", value.rows(), value.cols());
            for r in 0..value.rows() {
                let row: Vec<String> = value.row(r).iter().map(|v| format!("{v:e}")).collect();
                out.push_str(&row.join(" "));
                out.push('\n');
            }
        }
        out
    }

    /// Restores a model from [`DeepSeq::to_text`] output, which must end
    /// with a newline (so no strict prefix of a checkpoint loads) and give
    /// each parameter once. The model it gives is then decoded as `DSQM`,
    /// under the loading rule of [`DeepSeq::from_binary_checkpoint`].
    ///
    /// # Errors
    /// [`ParamsError::BadHeader`] / [`ParamsError::Parse`] /
    /// [`ParamsError::UnexpectedEof`] / [`ParamsError::Corrupt`] for text
    /// that is not one whole checkpoint, and the errors of
    /// [`DeepSeq::from_binary_checkpoint`].
    pub fn from_text(text: &str) -> Result<Self, ParamsError> {
        let (header, body) = text.split_once('\n').ok_or(ParamsError::BadHeader)?;
        let mut fields = header.split_whitespace();
        if fields.next() != Some("deepseq-model") || fields.next() != Some("v1") {
            return Err(ParamsError::BadHeader);
        }
        let mut config = DeepSeqConfig::default();
        for field in fields {
            let (key, value) = field.split_once('=').ok_or(ParamsError::BadHeader)?;
            match key {
                // `DSQM` stores both as `u32`.
                "hidden" => config.hidden_dim = parse_header_value::<u32>(value)? as usize,
                "iters" => config.iterations = parse_header_value::<u32>(value)? as usize,
                "seed" => config.seed = parse_header_value(value)?,
                "agg" => {
                    config.aggregator = match value {
                        "convsum" => Aggregator::ConvSum,
                        "attention" => Aggregator::Attention,
                        "dual" => Aggregator::DualAttention,
                        _ => return Err(ParamsError::BadHeader),
                    }
                }
                "scheme" => {
                    config.scheme = match value {
                        "dagconv" => PropagationScheme::DagConv,
                        "dagrec" => PropagationScheme::DagRec,
                        "custom" => PropagationScheme::Custom,
                        _ => return Err(ParamsError::BadHeader),
                    }
                }
                _ => return Err(ParamsError::BadHeader),
            }
        }
        if !body.ends_with('\n') {
            return Err(ParamsError::UnexpectedEof);
        }
        // The parameters as the text gives them, in its order.
        let mut given = Params::new();
        let mut lines = body.lines().zip(2..); // line 1 is the model header
        match lines.next() {
            Some((line, _)) if line.trim() == "deepseq-params v1" => {}
            _ => return Err(ParamsError::BadHeader),
        }
        let parse_error = |line, msg| ParamsError::Parse { line, msg };
        while let Some((line, lineno)) = lines.next() {
            let mut parts = line.split_whitespace();
            let (Some("param"), Some(name), Some(Ok(rows)), Some(Ok(cols)), None) = (
                parts.next(),
                parts.next(),
                parts.next().map(str::parse::<usize>),
                parts.next().map(str::parse::<usize>),
                parts.next(),
            ) else {
                if line.trim().is_empty() {
                    continue;
                }
                let msg = "expected `param <name> <rows> <cols>`".to_string();
                return Err(parse_error(lineno, msg));
            };
            if given.find(name).is_some() {
                return Err(ParamsError::Corrupt {
                    msg: format!("parameter `{name}` given twice"),
                });
            }
            let mut values = Vec::new();
            for _ in 0..rows {
                let (row, lineno) = lines.next().ok_or(ParamsError::UnexpectedEof)?;
                for tok in row.split_whitespace() {
                    let bad = || parse_error(lineno, format!("bad float `{tok}`"));
                    values.push(tok.parse().map_err(|_| bad())?);
                }
            }
            if Some(values.len()) != rows.checked_mul(cols) {
                let msg = format!("expected {rows}x{cols} values, got {}", values.len());
                return Err(parse_error(lineno, msg));
            }
            given.register(name, Matrix::from_vec(rows, cols, values));
        }
        DeepSeq::from_binary_checkpoint(&encode_dsqm(&config, &given))
    }

    /// Serializes configuration + weights to the binary checkpoint format:
    /// a `DSQM` model header (version, config fields, little-endian)
    /// followed by the [`Params::save_binary`] blob. This is the format
    /// every load path reads; the serving subsystem (`deepseq-serve`) ships
    /// it. The byte-level layout is specified for third-party loaders in
    /// `docs/CHECKPOINTS.md` at the repository root.
    pub fn save_binary(&self) -> Vec<u8> {
        encode_dsqm(&self.config, &self.params)
    }

    /// Restores a model saved by [`DeepSeq::save_binary`]. The loading
    /// rule: the header must describe a model that fits in the bytes after
    /// it, and the parameters must name each of its weights exactly once.
    /// Both CRC trailers are verified before the bytes they cover are
    /// parsed. The weights go into the configuration's parameter skeleton
    /// (the names and shapes of [`DeepSeq::new`], with no seeded draws), so
    /// no value of the model comes from its `seed`.
    ///
    /// # Errors
    /// Returns [`ParamsError::BadMagic`] for non-checkpoint bytes (text
    /// included), [`ParamsError::UnsupportedVersion`] for any version but
    /// 2, [`ParamsError::ChecksumMismatch`] when the v2 CRC-32 trailer
    /// disagrees with the body, [`ParamsError::Truncated`] /
    /// [`ParamsError::Corrupt`] for damaged payloads and the
    /// [`Params::load_binary`] errors. Trailer-less v1 checkpoints are
    /// [`ParamsError::UnsupportedVersion`].
    pub fn from_binary_checkpoint(bytes: &[u8]) -> Result<Self, ParamsError> {
        // Peek the header version, then verify and strip the v2 CRC
        // trailer before trusting any of the body.
        let mut header = BinReader::new(bytes);
        if header.take::<4>()? != MODEL_MAGIC {
            return Err(ParamsError::BadMagic);
        }
        let body = match header.u16()? {
            MODEL_VERSION => verify_crc_trailer(bytes, MODEL_HEADER_LEN)?,
            found => return Err(ParamsError::UnsupportedVersion { found }),
        };
        let mut r = BinReader::new(body);
        let _magic = r.take::<4>()?; // validated above
        let _version = r.u16()?;
        let hidden_dim = r.u32()? as usize;
        let iterations = r.u32()? as usize;
        let aggregator = match r.take::<1>()?[0] {
            0 => Aggregator::ConvSum,
            1 => Aggregator::Attention,
            2 => Aggregator::DualAttention,
            other => {
                return Err(ParamsError::Corrupt {
                    msg: format!("unknown aggregator tag {other}"),
                })
            }
        };
        let scheme = match r.take::<1>()?[0] {
            0 => PropagationScheme::DagConv,
            1 => PropagationScheme::DagRec,
            2 => PropagationScheme::Custom,
            other => {
                return Err(ParamsError::Corrupt {
                    msg: format!("unknown scheme tag {other}"),
                })
            }
        };
        let seed = r.u64()?;
        validate_config(hidden_dim, iterations, r.remaining())?;
        let config = DeepSeqConfig {
            hidden_dim,
            iterations,
            aggregator,
            scheme,
            seed,
        };
        let mut model = DeepSeq::skeleton(config);
        model.params.load_binary(r.rest())?;
        Ok(model)
    }
}

/// A random source whose every draw is 0, so the skeleton's Xavier
/// initializers cost no generator work.
struct NoDraws;

impl RngCore for NoDraws {
    fn next_u64(&mut self) -> u64 {
        0
    }
}

/// The `DSQM` bytes of a model with configuration `c` and weights
/// `params` (see [`DeepSeq::save_binary`]).
fn encode_dsqm(c: &DeepSeqConfig, params: &Params) -> Vec<u8> {
    let params = params.save_binary();
    let mut out = Vec::with_capacity(MODEL_HEADER_LEN + params.len() + 4);
    out.extend_from_slice(&MODEL_MAGIC);
    out.extend_from_slice(&MODEL_VERSION.to_le_bytes());
    out.extend_from_slice(&(c.hidden_dim as u32).to_le_bytes());
    out.extend_from_slice(&(c.iterations as u32).to_le_bytes());
    out.push(aggregator_byte(c.aggregator));
    out.push(scheme_byte(c.scheme));
    out.extend_from_slice(&c.seed.to_le_bytes());
    out.extend_from_slice(&params);
    // v2: CRC-32 trailer over the whole blob (the embedded DSQP blob
    // also carries its own — the outer one covers the model header).
    append_crc_trailer(&mut out);
    out
}

/// Magic bytes opening every binary *model* checkpoint (the parameter blob
/// inside carries its own `DSQP` magic).
pub const MODEL_MAGIC: [u8; 4] = *b"DSQM";

/// Version written by [`DeepSeq::save_binary`]: v2 appends a CRC32
/// integrity trailer over everything before it. It is the only version
/// read; the trailer-less v1 is rejected as unsupported.
pub const MODEL_VERSION: u16 = 2;

const MODEL_HEADER_LEN: usize = 4 + 2 + 4 + 4 + 1 + 1 + 8;

/// Largest hidden dimension a checkpoint header may claim — the model
/// skeleton allocates `d×d` weight matrices eagerly, so an untrusted header
/// must be bounded *before* model construction (the paper uses `d = 64`;
/// 16384 leaves two orders of magnitude of headroom).
pub const MAX_CHECKPOINT_HIDDEN_DIM: usize = 1 << 14;

/// Largest iteration count a checkpoint header may claim.
pub const MAX_CHECKPOINT_ITERATIONS: usize = 1 << 20;

/// `d×d` matrices every configuration registers: the `U` weights of the
/// three gates of both GRUs and the two hidden layers of both heads.
const SQUARE_MATRICES: u64 = 10;

/// Checks a `DSQM` header before the load allocates its model skeleton: the
/// configuration must be within bounds, and its `d×d` matrices alone, at
/// four bytes per weight, must fit in the `available` bytes of parameters
/// that follow the header.
fn validate_config(
    hidden_dim: usize,
    iterations: usize,
    available: usize,
) -> Result<(), ParamsError> {
    if hidden_dim == 0 || hidden_dim > MAX_CHECKPOINT_HIDDEN_DIM {
        return Err(ParamsError::Corrupt {
            msg: format!("hidden dim {hidden_dim} outside 1..={MAX_CHECKPOINT_HIDDEN_DIM}"),
        });
    }
    if iterations > MAX_CHECKPOINT_ITERATIONS {
        return Err(ParamsError::Corrupt {
            msg: format!("iteration count {iterations} exceeds {MAX_CHECKPOINT_ITERATIONS}"),
        });
    }
    let needed = SQUARE_MATRICES * 4 * (hidden_dim as u64).pow(2);
    if (available as u64) < needed {
        return Err(ParamsError::Corrupt {
            msg: format!(
                "hidden dim {hidden_dim} needs at least {needed} bytes of parameters, \
                 {available} follow the header"
            ),
        });
    }
    Ok(())
}

fn aggregator_byte(a: Aggregator) -> u8 {
    match a {
        Aggregator::ConvSum => 0,
        Aggregator::Attention => 1,
        Aggregator::DualAttention => 2,
    }
}

fn scheme_byte(s: PropagationScheme) -> u8 {
    match s {
        PropagationScheme::DagConv => 0,
        PropagationScheme::DagRec => 1,
        PropagationScheme::Custom => 2,
    }
}

fn aggregator_tag(a: Aggregator) -> &'static str {
    match a {
        Aggregator::ConvSum => "convsum",
        Aggregator::Attention => "attention",
        Aggregator::DualAttention => "dual",
    }
}

fn scheme_tag(s: PropagationScheme) -> &'static str {
    match s {
        PropagationScheme::DagConv => "dagconv",
        PropagationScheme::DagRec => "dagrec",
        PropagationScheme::Custom => "custom",
    }
}

fn parse_header_value<T: std::str::FromStr>(s: &str) -> Result<T, ParamsError> {
    s.parse().map_err(|_| ParamsError::BadHeader)
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepseq_netlist::SeqAig;
    use deepseq_sim::Workload;

    fn sample_aig() -> SeqAig {
        let mut aig = SeqAig::new("s");
        let a = aig.add_pi("a");
        let b = aig.add_pi("b");
        let g = aig.add_and(a, b);
        let n = aig.add_not(g);
        let q = aig.add_ff("q", false);
        let g2 = aig.add_and(q, n);
        aig.connect_ff(q, g2).unwrap();
        aig.set_output(g2, "y");
        aig
    }

    fn small_config(aggregator: Aggregator, scheme: PropagationScheme) -> DeepSeqConfig {
        DeepSeqConfig {
            hidden_dim: 8,
            iterations: 2,
            aggregator,
            scheme,
            seed: 1,
        }
    }

    fn predict_with(config: DeepSeqConfig) -> Predictions {
        let aig = sample_aig();
        let model = DeepSeq::new(config);
        let graph = CircuitGraph::build(&aig);
        let w = Workload::uniform(2, 0.5);
        let h0 = crate::encoding::initial_states(&aig, &w, config.hidden_dim, 3);
        model.predict(&graph, &h0)
    }

    #[test]
    fn predictions_are_probabilities() {
        for agg in [
            Aggregator::ConvSum,
            Aggregator::Attention,
            Aggregator::DualAttention,
        ] {
            for scheme in [
                PropagationScheme::DagConv,
                PropagationScheme::DagRec,
                PropagationScheme::Custom,
            ] {
                let p = predict_with(small_config(agg, scheme));
                assert_eq!(p.tr.shape(), (6, 2));
                assert_eq!(p.lg.shape(), (6, 1));
                for &v in p.tr.data().iter().chain(p.lg.data()) {
                    assert!((0.0..=1.0).contains(&v), "{agg:?}/{scheme:?}: {v}");
                }
            }
        }
    }

    #[test]
    fn custom_scheme_differs_from_dag_rec() {
        // The FF copy step must change the outcome on a circuit with FFs.
        let p_custom = predict_with(small_config(
            Aggregator::DualAttention,
            PropagationScheme::Custom,
        ));
        let p_rec = predict_with(small_config(
            Aggregator::DualAttention,
            PropagationScheme::DagRec,
        ));
        assert_ne!(p_custom.lg, p_rec.lg);
    }

    #[test]
    fn recurrence_changes_predictions() {
        let p_conv = predict_with(small_config(
            Aggregator::Attention,
            PropagationScheme::DagConv,
        ));
        let p_rec = predict_with(small_config(
            Aggregator::Attention,
            PropagationScheme::DagRec,
        ));
        assert_ne!(p_conv.lg, p_rec.lg);
    }

    #[test]
    fn deterministic_given_seed_and_input() {
        let c = small_config(Aggregator::DualAttention, PropagationScheme::Custom);
        assert_eq!(predict_with(c), predict_with(c));
    }

    #[test]
    fn workload_affects_predictions() {
        let aig = sample_aig();
        let c = small_config(Aggregator::DualAttention, PropagationScheme::Custom);
        let model = DeepSeq::new(c);
        let graph = CircuitGraph::build(&aig);
        let h_low = crate::encoding::initial_states(&aig, &Workload::uniform(2, 0.1), 8, 3);
        let h_high = crate::encoding::initial_states(&aig, &Workload::uniform(2, 0.9), 8, 3);
        let p_low = model.predict(&graph, &h_low);
        let p_high = model.predict(&graph, &h_high);
        assert_ne!(p_low.lg, p_high.lg);
    }

    #[test]
    fn checkpoint_roundtrip_preserves_predictions() {
        let aig = sample_aig();
        let c = small_config(Aggregator::DualAttention, PropagationScheme::Custom);
        let model = DeepSeq::new(c);
        let graph = CircuitGraph::build(&aig);
        let h0 = crate::encoding::initial_states(&aig, &Workload::uniform(2, 0.5), 8, 3);
        let before = model.predict(&graph, &h0);
        let text = model.to_text();
        let restored = DeepSeq::from_text(&text).unwrap();
        let after = restored.predict(&graph, &h0);
        assert_eq!(before, after);
        assert_eq!(restored.config(), model.config());
        assert_eq!(
            restored.params().save_binary(),
            model.params().save_binary()
        );
    }

    #[test]
    fn checkpoint_rejects_garbage() {
        assert!(DeepSeq::from_text("nonsense").is_err());
        assert!(DeepSeq::from_text("deepseq-model v2 hidden=8\nx").is_err());
    }

    fn tiny_model() -> DeepSeq {
        DeepSeq::new(DeepSeqConfig {
            hidden_dim: 3,
            ..small_config(Aggregator::DualAttention, PropagationScheme::Custom)
        })
    }

    #[test]
    fn text_rejects_bad_header() {
        let text = tiny_model().to_text();
        let (model_line, body) = text.split_once('\n').unwrap();
        for bad in [
            "nope\n".to_string(),
            format!(
                "{model_line}\nnope\n{}",
                &body[body.find('\n').unwrap() + 1..]
            ),
            text.replace("agg=dual", "agg=max"),
        ] {
            assert_eq!(DeepSeq::from_text(&bad).err(), Some(ParamsError::BadHeader));
        }
    }

    #[test]
    fn text_rejects_unknown_param() {
        let text = tiny_model()
            .to_text()
            .replace("param fwd.gru.uz ", "param ghost ");
        assert_eq!(
            DeepSeq::from_text(&text).err(),
            Some(ParamsError::UnknownParam("ghost".into()))
        );
    }

    #[test]
    fn text_rejects_shape_mismatch() {
        // `fwd.gru.bz` given as 1×2 instead of 1×3, values and all.
        let text = tiny_model().to_text();
        let mut lines: Vec<&str> = text.lines().collect();
        let at = lines
            .iter()
            .position(|&l| l == "param fwd.gru.bz 1 3")
            .unwrap();
        let row: Vec<&str> = lines[at + 1].split(' ').take(2).collect();
        let row = row.join(" ");
        lines[at] = "param fwd.gru.bz 1 2";
        lines[at + 1] = &row;
        assert_eq!(
            DeepSeq::from_text(&(lines.join("\n") + "\n")).err(),
            Some(ParamsError::ShapeMismatch {
                name: "fwd.gru.bz".into(),
                expected: (1, 3),
                actual: (1, 2),
            })
        );
    }

    #[test]
    fn text_rejects_every_strict_prefix_and_duplicated_params() {
        let model = DeepSeq::new(DeepSeqConfig {
            hidden_dim: 4,
            ..small_config(Aggregator::DualAttention, PropagationScheme::Custom)
        });
        let text = model.to_text();
        assert!(DeepSeq::from_text(&text).is_ok());
        for cut in 0..text.len() {
            assert!(
                DeepSeq::from_text(&text[..cut]).is_err(),
                "prefix of {cut} of {} bytes loaded",
                text.len()
            );
        }
        // The first parameter block, given a second time at the end.
        let first = text.find("param ").unwrap();
        let second = first + 1 + text[first + 1..].find("param ").unwrap();
        let twice = format!("{text}{}", &text[first..second]);
        assert!(matches!(
            DeepSeq::from_text(&twice),
            Err(ParamsError::Corrupt { msg }) if msg.contains("given twice")
        ));
    }

    /// A CRC-valid `DSQM` of `model`'s header around `params`.
    fn dsqm_with_params(model: &DeepSeq, params: &Params) -> Vec<u8> {
        let mut bytes = model.save_binary()[..MODEL_HEADER_LEN].to_vec();
        bytes.extend_from_slice(&params.save_binary());
        append_crc_trailer(&mut bytes);
        bytes
    }

    #[test]
    fn binary_checkpoint_rejects_a_missing_param() {
        let model = tiny_model();
        assert!(DeepSeq::from_binary_checkpoint(&dsqm_with_params(&model, model.params())).is_ok());
        let mut partial = Params::new();
        let last = model.params().len() - 1;
        for (_, name, value) in model.params().iter().take(last) {
            partial.register(name, value.clone());
        }
        let missing = model.params().name(deepseq_nn::ParamId(last)).to_string();
        assert_eq!(
            DeepSeq::from_binary_checkpoint(&dsqm_with_params(&model, &partial)).err(),
            Some(ParamsError::MissingParam(missing))
        );
    }

    #[test]
    fn every_configuration_fits_the_header_bound() {
        // The bound rejects headers by their `d×d` matrices alone; every
        // aggregator and scheme must register at least that many.
        for aggregator in [
            Aggregator::ConvSum,
            Aggregator::Attention,
            Aggregator::DualAttention,
        ] {
            for scheme in [
                PropagationScheme::DagConv,
                PropagationScheme::DagRec,
                PropagationScheme::Custom,
            ] {
                for hidden_dim in [2, 5] {
                    let config = DeepSeqConfig {
                        hidden_dim,
                        ..small_config(aggregator, scheme)
                    };
                    let model = DeepSeq::new(config);
                    let squares = model
                        .params()
                        .iter()
                        .filter(|(_, _, m)| m.shape() == (hidden_dim, hidden_dim))
                        .count();
                    assert!(squares as u64 >= SQUARE_MATRICES, "{config:?}: {squares}");
                    assert!(DeepSeq::from_binary_checkpoint(&model.save_binary()).is_ok());
                    assert!(DeepSeq::from_text(&model.to_text()).is_ok());
                }
            }
        }
    }

    #[test]
    fn load_skeleton_registers_what_new_registers() {
        // A parameter added to `DeepSeq::new` but not to the load path's
        // skeleton would fail every load with `MissingParam`; this fails
        // first, for every configuration.
        let listing = |model: &DeepSeq| -> Vec<(String, (usize, usize))> {
            model
                .params()
                .iter()
                .map(|(_, name, value)| (name.to_string(), value.shape()))
                .collect()
        };
        for aggregator in [
            Aggregator::ConvSum,
            Aggregator::Attention,
            Aggregator::DualAttention,
        ] {
            for scheme in [
                PropagationScheme::DagConv,
                PropagationScheme::DagRec,
                PropagationScheme::Custom,
            ] {
                for hidden_dim in [1, 3, 32] {
                    let config = DeepSeqConfig {
                        hidden_dim,
                        ..small_config(aggregator, scheme)
                    };
                    let seeded = DeepSeq::new(config);
                    let skeleton = DeepSeq::skeleton(config);
                    assert_eq!(skeleton.config(), seeded.config());
                    assert_eq!(listing(&skeleton), listing(&seeded), "{config:?}");
                }
            }
        }
    }

    #[test]
    fn binary_checkpoint_roundtrip_preserves_predictions() {
        let aig = sample_aig();
        let c = small_config(Aggregator::DualAttention, PropagationScheme::Custom);
        let model = DeepSeq::new(c);
        let graph = CircuitGraph::build(&aig);
        let h0 = crate::encoding::initial_states(&aig, &Workload::uniform(2, 0.5), 8, 3);
        let before = model.predict(&graph, &h0);
        let bytes = model.save_binary();
        let restored = DeepSeq::from_binary_checkpoint(&bytes).unwrap();
        assert_eq!(restored.config(), model.config());
        assert_eq!(before, restored.predict(&graph, &h0));
        // Binary and text restores agree exactly.
        let from_text = DeepSeq::from_text(&model.to_text()).unwrap();
        assert_eq!(before, from_text.predict(&graph, &h0));
    }

    #[test]
    fn checkpoints_reject_hostile_config_headers_without_allocating() {
        // A header claiming an enormous hidden dim must yield a typed error
        // before the model skeleton tries to allocate d×d weight matrices.
        let text = "deepseq-model v1 hidden=4294967295\ndeepseq-params v1\n";
        assert!(DeepSeq::from_text(text).is_err());
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MODEL_MAGIC);
        bytes.extend_from_slice(&MODEL_VERSION.to_le_bytes());
        bytes.extend_from_slice(&u32::MAX.to_le_bytes()); // hidden_dim
        bytes.extend_from_slice(&1u32.to_le_bytes()); // iterations
        bytes.push(2); // dual
        bytes.push(2); // custom
        bytes.extend_from_slice(&0u64.to_le_bytes()); // seed
        append_crc_trailer(&mut bytes); // valid trailer: reach the bounds check
        assert!(DeepSeq::from_binary_checkpoint(&bytes).is_err());
        // Zero hidden dim is nonsense too.
        let zero = "deepseq-model v1 hidden=0\ndeepseq-params v1\n";
        assert!(DeepSeq::from_text(zero).is_err());
    }

    #[test]
    fn binary_checkpoint_rejects_garbage() {
        assert!(DeepSeq::from_binary_checkpoint(b"junk").is_err());
        let model = DeepSeq::new(small_config(
            Aggregator::DualAttention,
            PropagationScheme::Custom,
        ));
        let bytes = model.save_binary();
        // Every truncation is an error, never a panic.
        for cut in [
            0,
            3,
            MODEL_MAGIC.len() + 1,
            bytes.len() / 2,
            bytes.len() - 1,
        ] {
            assert!(DeepSeq::from_binary_checkpoint(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn binary_checkpoint_rejects_single_bit_flips() {
        // One-bit corruption anywhere must yield a typed error, never a
        // silently-wrong model. One bit position per byte keeps the sweep
        // fast while still covering every byte of header, params and
        // trailer; the exhaustive all-bits sweep lives in the nn crate.
        let model = DeepSeq::new(small_config(
            Aggregator::DualAttention,
            PropagationScheme::Custom,
        ));
        let bytes = model.save_binary();
        for i in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 1 << (i % 8);
            assert!(
                DeepSeq::from_binary_checkpoint(&corrupt).is_err(),
                "flip at byte {i} accepted"
            );
        }
    }

    #[test]
    fn v1_model_checkpoint_is_rejected_as_unsupported() {
        let model = DeepSeq::new(small_config(
            Aggregator::DualAttention,
            PropagationScheme::Custom,
        ));
        // Reconstruct the v1-era layout: no trailers, version fields 1,
        // both for the DSQM header and the embedded DSQP blob.
        let mut v1 = model.save_binary();
        v1.truncate(v1.len() - 4); // outer DSQM trailer
        v1.truncate(v1.len() - 4); // inner DSQP trailer
        v1[4] = 1; // DSQM version
        v1[MODEL_HEADER_LEN + 4] = 1; // DSQP version
        assert_eq!(
            DeepSeq::from_binary_checkpoint(&v1).err(),
            Some(ParamsError::UnsupportedVersion { found: 1 })
        );
    }

    #[test]
    fn pi_rows_unaffected_by_propagation() {
        // PI hidden states stay fixed, so PI predictions depend only on h0:
        // two circuits differing away from the PI keep identical PI rows.
        let aig = sample_aig();
        let c = small_config(Aggregator::DualAttention, PropagationScheme::Custom);
        let model = DeepSeq::new(c);
        let graph = CircuitGraph::build(&aig);
        let w = Workload::uniform(2, 0.5);
        let h0 = crate::encoding::initial_states(&aig, &w, 8, 3);
        let mut tape = Tape::new();
        let vars = model.forward(&mut tape, &graph, &h0);
        let hidden = tape.value(vars.hidden);
        for (i, pi) in graph.pis.iter().enumerate() {
            let _ = i;
            for c in 0..8 {
                assert_eq!(hidden.get(*pi as usize, c), h0.get(*pi as usize, c));
            }
        }
    }

    #[test]
    fn graph_embedding_is_pooled_and_input_sensitive() {
        let aig = sample_aig();
        let c = small_config(Aggregator::DualAttention, PropagationScheme::Custom);
        let model = DeepSeq::new(c);
        let graph = CircuitGraph::build(&aig);
        let h_low = crate::encoding::initial_states(&aig, &Workload::uniform(2, 0.1), 8, 3);
        let h_high = crate::encoding::initial_states(&aig, &Workload::uniform(2, 0.9), 8, 3);
        let e_low = model.embed_graph(&graph, &h_low);
        let e_high = model.embed_graph(&graph, &h_high);
        assert_eq!(e_low.shape(), (1, 8));
        assert_ne!(e_low, e_high, "embedding must reflect the workload");
        assert!(e_low.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn empty_circuit_reads_out_empty_predictions_and_zero_embedding() {
        let aig = SeqAig::new("empty");
        let c = small_config(Aggregator::DualAttention, PropagationScheme::Custom);
        let model = DeepSeq::new(c);
        let graph = CircuitGraph::build(&aig);
        let h0 = crate::encoding::initial_states(&aig, &Workload::uniform(0, 0.5), 8, 0);
        let p = model.predict(&graph, &h0);
        assert_eq!(p.tr.shape(), (0, 2));
        assert_eq!(p.lg.shape(), (0, 1));
        assert_eq!(model.embed_graph(&graph, &h0), Matrix::zeros(1, 8));
    }

    #[test]
    fn pure_combinational_circuit_works() {
        let mut aig = SeqAig::new("comb");
        let a = aig.add_pi("a");
        let b = aig.add_pi("b");
        let g = aig.add_and(a, b);
        aig.set_output(g, "y");
        let c = small_config(Aggregator::DualAttention, PropagationScheme::Custom);
        let model = DeepSeq::new(c);
        let graph = CircuitGraph::build(&aig);
        let h0 = crate::encoding::initial_states(&aig, &Workload::uniform(2, 0.5), 8, 0);
        let p = model.predict(&graph, &h0);
        assert_eq!(p.lg.rows(), 3);
    }
}
