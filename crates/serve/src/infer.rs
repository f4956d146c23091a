//! Tape-free forward pass for serving.
//!
//! [`DeepSeq::forward`](deepseq_core::DeepSeq) records every intermediate on
//! an autograd [`Tape`](deepseq_nn::Tape) so gradients can flow backwards —
//! exactly what inference traffic does *not* need. [`InferenceModel`] owns a
//! frozen copy of the weights and replays the same levelized propagation
//! (paper Fig. 2) on plain [`Matrix`] ops: one `n×d` state matrix updated in
//! place, per-level gathers and GRU steps into preallocated scratch buffers
//! ([`Workspace`]), no gradient bookkeeping, no tape growth.
//!
//! Every operation mirrors the corresponding tape op's arithmetic — same
//! loops, same accumulation order — so the predictions are **bitwise equal**
//! to [`DeepSeq::predict`] on the same checkpoint (asserted by the crate's
//! equivalence tests); only the time and memory differ.
//!
//! # Level parallelism
//!
//! The nodes of one level are independent: each node's new state depends
//! only on the *previous* states of its neighbours. Large levels are
//! therefore chunked across the worker [`Pool`] — each chunk runs the full
//! gather → aggregate → GRU pipeline on its own [`Workspace`]-owned scratch
//! (one set per pool thread), and the chunk outputs are scattered back into
//! the state matrix afterwards. Edges stay grouped by owning node
//! (`LevelBatch` sorts them by segment), so per-node arithmetic — including
//! the segment softmax — is identical at any chunking, and outputs are
//! **bitwise equal across thread counts** (property-tested in this crate's
//! `tests/properties.rs` over pools of 1, 2, 4 and 7 threads).

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use deepseq_core::{Aggregator, CircuitGraph, DeepSeq, DeepSeqConfig, LevelBatch, Predictions};
use deepseq_netlist::aig::NUM_NODE_TYPES;
use deepseq_nn::pool::chunk_ranges_or_whole;
use deepseq_nn::trace;
use deepseq_nn::{Act, Kernel, Matrix, Params, Pool};

use crate::ServeError;

/// Minimum nodes per level chunk — below this, the per-chunk GEMMs are too
/// small to pay for fan-out.
const MIN_NODES_PER_CHUNK: usize = 16;

/// `y = x·W + b` weights of one dense layer.
#[derive(Debug, Clone)]
struct LinearWeights {
    w: Matrix,
    b: Matrix,
}

/// Additive-attention scoring vectors (Eq. 5/6).
#[derive(Debug, Clone)]
struct AttentionWeights {
    w1: Matrix,
    w2: Matrix,
}

/// Frozen aggregation weights of one propagation direction.
#[derive(Debug, Clone)]
enum AggWeights {
    ConvSum(LinearWeights),
    Attention(AttentionWeights),
    Dual {
        att: AttentionWeights,
        gate: AttentionWeights,
    },
}

impl AggWeights {
    fn output_dim(&self, hidden_dim: usize) -> usize {
        match self {
            AggWeights::Dual { .. } => 2 * hidden_dim,
            _ => hidden_dim,
        }
    }
}

/// Frozen GRU cell weights (the Combine function, Eq. 8).
#[derive(Debug, Clone)]
struct GruWeights {
    wz: Matrix,
    uz: Matrix,
    bz: Matrix,
    wr: Matrix,
    ur: Matrix,
    br: Matrix,
    wn: Matrix,
    un: Matrix,
    bn: Matrix,
}

/// One propagation direction: aggregation + GRU combine.
#[derive(Debug, Clone)]
struct DirectionWeights {
    agg: AggWeights,
    gru: GruWeights,
}

/// A frozen, tape-free DeepSeq model for inference.
///
/// Construct it from a trained [`DeepSeq`] (or directly from a text/binary
/// checkpoint) and call [`InferenceModel::predict`]; for request loops,
/// keep one [`Workspace`] per thread and use
/// [`InferenceModel::run`] to avoid per-request allocation.
///
/// # Example
/// ```
/// use deepseq_core::{CircuitGraph, DeepSeq, DeepSeqConfig};
/// use deepseq_core::encoding::initial_states;
/// use deepseq_netlist::SeqAig;
/// use deepseq_serve::InferenceModel;
/// use deepseq_sim::Workload;
///
/// let mut aig = SeqAig::new("toggle");
/// let q = aig.add_ff("q", false);
/// let n = aig.add_not(q);
/// aig.connect_ff(q, n)?;
///
/// let model = DeepSeq::new(DeepSeqConfig { hidden_dim: 8, iterations: 2,
///                                          ..DeepSeqConfig::default() });
/// let frozen = InferenceModel::from_model(&model).unwrap();
/// let graph = CircuitGraph::build(&aig);
/// let h0 = initial_states(&aig, &Workload::uniform(0, 0.5), 8, 0);
/// // Tape-free predictions are bitwise equal to the tape path.
/// assert_eq!(frozen.predict(&graph, &h0), model.predict(&graph, &h0));
/// # Ok::<(), deepseq_netlist::NetlistError>(())
/// ```
#[derive(Debug, Clone)]
pub struct InferenceModel {
    config: DeepSeqConfig,
    generation: u64,
    forward: DirectionWeights,
    reverse: DirectionWeights,
    tr_head: Vec<LinearWeights>,
    lg_head: Vec<LinearWeights>,
}

/// Process-wide counter behind [`InferenceModel::generation`]. Starts at 1
/// so 0 can mean "no model" in diagnostics.
static NEXT_GENERATION: AtomicU64 = AtomicU64::new(1);

/// Predictions plus the mean-pooled circuit embedding of one forward pass.
#[derive(Debug, Clone, PartialEq)]
pub struct InferenceOutput {
    /// Per-node transition / logic probability predictions.
    pub predictions: Predictions,
    /// `1×d` mean-pooled circuit embedding (Eq. 2 readout).
    pub embedding: Matrix,
}

impl InferenceModel {
    /// Freezes the weights of a trained model.
    ///
    /// # Errors
    /// [`ServeError::MissingParam`] if the parameter store does not contain
    /// the canonical DeepSeq parameter names (never for models built by
    /// [`DeepSeq::new`]).
    pub fn from_model(model: &DeepSeq) -> Result<Self, ServeError> {
        let config = *model.config();
        let params = model.params();
        Ok(InferenceModel {
            config,
            generation: NEXT_GENERATION.fetch_add(1, Ordering::Relaxed),
            forward: direction_weights(params, "fwd", config.aggregator)?,
            reverse: direction_weights(params, "rev", config.aggregator)?,
            tr_head: mlp_weights(params, "tr_head", 3)?,
            lg_head: mlp_weights(params, "lg_head", 3)?,
        })
    }

    /// Loads a text checkpoint (see [`DeepSeq::from_checkpoint`]) and
    /// freezes it.
    ///
    /// # Errors
    /// Propagates checkpoint parse errors as [`ServeError::Checkpoint`].
    pub fn from_text_checkpoint(text: &str) -> Result<Self, ServeError> {
        InferenceModel::from_model(&DeepSeq::from_checkpoint(text)?)
    }

    /// Loads a binary checkpoint (see [`DeepSeq::from_binary_checkpoint`])
    /// and freezes it.
    ///
    /// # Errors
    /// Propagates checkpoint decode errors as [`ServeError::Checkpoint`].
    pub fn from_binary_checkpoint(bytes: &[u8]) -> Result<Self, ServeError> {
        InferenceModel::from_model(&DeepSeq::from_binary_checkpoint(bytes)?)
    }

    /// The model configuration.
    pub fn config(&self) -> &DeepSeqConfig {
        &self.config
    }

    /// A process-unique generation tag, assigned when the model was frozen.
    ///
    /// Two `InferenceModel` values never share a generation unless one is a
    /// [`Clone`] of the other (clones carry identical weights, so sharing
    /// is sound). Both caches key their entries by this tag, so after a
    /// reload stale entries can never hit.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Runs one forward pass into `ws` and returns predictions plus the
    /// pooled circuit embedding. `init_h` is the `n×d` initial state matrix
    /// from [`initial_states`](deepseq_core::encoding::initial_states).
    ///
    /// # Panics
    /// Panics if `init_h` is not `n×hidden_dim` (same contract as
    /// [`DeepSeq::forward`]).
    pub fn run(
        &self,
        graph: &CircuitGraph,
        init_h: &Matrix,
        ws: &mut Workspace,
    ) -> InferenceOutput {
        self.propagate(graph, init_h, ws);
        // Temporarily move the state out so the heads can borrow it next to
        // the mutable head scratch; `readout` on the workspace's own state
        // is exactly the pre-split `run` tail, bitwise.
        let state = std::mem::take(&mut ws.state);
        let out = self.readout(&state, ws);
        ws.state = state;
        out
    }

    /// Runs the iterative propagation only, leaving the final `n×d` node
    /// states in the workspace ([`Workspace::state`]). Together with
    /// [`InferenceModel::readout`] this is exactly [`InferenceModel::run`];
    /// the split exists so the cone-granularity cache can propagate a
    /// sub-circuit and read out an assembled full-state matrix.
    ///
    /// # Panics
    /// Panics if `init_h` is not `n×hidden_dim`.
    pub fn propagate(&self, graph: &CircuitGraph, init_h: &Matrix, ws: &mut Workspace) {
        let _span = trace::span_with(trace::SpanKind::Forward, graph.num_nodes as u64);
        let d = self.config.hidden_dim;
        assert_eq!(
            init_h.shape(),
            (graph.num_nodes, d),
            "init_h must be n×hidden_dim"
        );
        ws.state.reset(graph.num_nodes, d);
        ws.state.data_mut().copy_from_slice(init_h.data());

        for _t in 0..self.config.effective_iterations() {
            for batch in &graph.forward {
                self.run_batch(&self.forward, graph, batch, ws);
            }
            for batch in &graph.reverse {
                self.run_batch(&self.reverse, graph, batch, ws);
            }
            if self.config.scheme.updates_ffs() {
                // Fig. 2 step 4: FFs copy their D-input representation; pair
                // order matters when FFs chain, mirroring the tape version.
                for &(ff, dn) in &graph.ff_pairs {
                    for c in 0..d {
                        let v = ws.state.get(dn as usize, c);
                        ws.state.set(ff as usize, c, v);
                    }
                }
            }
        }
    }

    /// Runs the prediction heads and mean-pool readout over a propagated
    /// `n×d` state matrix. Both heads are row-pure (row `i` of the output
    /// depends only on row `i` of `state`) and the pool sums rows in
    /// ascending order, so reading out an assembled state matrix is
    /// bitwise-identical to reading out one produced by a single
    /// [`InferenceModel::propagate`] over the whole circuit.
    pub fn readout(&self, state: &Matrix, ws: &mut Workspace) -> InferenceOutput {
        let head_span = trace::span(trace::SpanKind::Head);
        let tr = run_head(
            ws.kernel,
            &ws.pool,
            &self.tr_head,
            state,
            &mut ws.head_a,
            &mut ws.head_b,
        );
        let lg = run_head(
            ws.kernel,
            &ws.pool,
            &self.lg_head,
            state,
            &mut ws.head_a,
            &mut ws.head_b,
        );
        drop(head_span);
        let embedding = mean_pool(state);
        InferenceOutput {
            predictions: Predictions { tr, lg },
            embedding,
        }
    }

    /// Convenience wrapper around [`InferenceModel::run`] with a throwaway
    /// workspace.
    pub fn predict(&self, graph: &CircuitGraph, init_h: &Matrix) -> Predictions {
        self.run(graph, init_h, &mut Workspace::new()).predictions
    }

    /// One level batch: gather → aggregate → GRU combine → scatter. Large
    /// levels are chunked across the pool (see the [module docs](self) for
    /// the determinism argument); each chunk computes into its own
    /// [`BatchScratch`], then the caller scatters all chunk outputs.
    fn run_batch(
        &self,
        dir: &DirectionWeights,
        graph: &CircuitGraph,
        batch: &LevelBatch,
        ws: &mut Workspace,
    ) {
        if batch.nodes.is_empty() {
            return;
        }
        let d = self.config.hidden_dim;
        let k = batch.nodes.len();
        let chunks = chunk_ranges_or_whole(k, ws.pool.threads(), MIN_NODES_PER_CHUNK);
        ws.ensure_scratch(chunks.len());

        let kernel = ws.kernel;
        let pool = &ws.pool;
        let state = &ws.state;
        if chunks.len() == 1 {
            run_batch_range(
                kernel,
                pool,
                dir,
                graph,
                batch,
                d,
                0..k,
                state,
                &mut ws.scratch[0],
            );
        } else {
            let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = chunks
                .iter()
                .zip(ws.scratch.iter_mut())
                .map(|(range, scratch)| {
                    let range = range.clone();
                    Box::new(move || {
                        run_batch_range(kernel, pool, dir, graph, batch, d, range, state, scratch);
                    }) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            pool.run(tasks);
        }

        // Scatter: chunk outputs land in disjoint state rows (node ids are
        // unique within a level), in node order.
        for (range, scratch) in chunks.iter().zip(&ws.scratch) {
            for (i, &v) in batch.nodes[range.clone()].iter().enumerate() {
                ws.state
                    .row_mut(v as usize)
                    .copy_from_slice(scratch.n.row(i));
            }
        }
    }
}

/// The gather → aggregate → GRU pipeline for the nodes `range` of one level
/// batch, writing the new states into `ws.n` (row `i` = node
/// `batch.nodes[range.start + i]`). Reads the shared previous-state matrix;
/// never writes it — the caller scatters afterwards.
#[allow(clippy::too_many_arguments)]
fn run_batch_range(
    kernel: Kernel,
    pool: &Pool,
    dir: &DirectionWeights,
    graph: &CircuitGraph,
    batch: &LevelBatch,
    d: usize,
    range: Range<usize>,
    state: &Matrix,
    ws: &mut BatchScratch,
) {
    let k = range.len();
    let _span = trace::span_with(trace::SpanKind::LevelChunk, k as u64);
    // Edges are sorted by segment, so this chunk's edges are contiguous.
    let e0 = batch
        .edges
        .partition_point(|&(_, seg)| (seg as usize) < range.start);
    let e1 = batch
        .edges
        .partition_point(|&(_, seg)| (seg as usize) < range.end);
    let edges = &batch.edges[e0..e1];
    let seg_base = range.start;
    let m = edges.len();
    let agg_out = dir.agg.output_dim(d);

    // Gather h_v^{t-1} per node, and per edge both the owner's previous
    // state and the neighbour message state.
    ws.node_prev.reset(k, d);
    for (i, &v) in batch.nodes[range.clone()].iter().enumerate() {
        ws.node_prev
            .row_mut(i)
            .copy_from_slice(state.row(v as usize));
    }
    ws.edge_prev.reset(m, d);
    ws.edge_msgs.reset(m, d);
    for (i, &(u, seg)) in edges.iter().enumerate() {
        let owner = batch.nodes[seg as usize] as usize;
        ws.edge_prev.row_mut(i).copy_from_slice(state.row(owner));
        ws.edge_msgs
            .row_mut(i)
            .copy_from_slice(state.row(u as usize));
    }

    // Aggregate into the left `agg_out` columns of the GRU input buffer;
    // the right NUM_NODE_TYPES columns take the node features.
    ws.input.reset(k, agg_out + NUM_NODE_TYPES);
    match &dir.agg {
        AggWeights::ConvSum(lin) => {
            kernel.linear_act_on(
                pool,
                &ws.edge_msgs,
                &lin.w,
                Some(&lin.b),
                Act::Identity,
                &mut ws.weighted,
            );
            segment_sum_into(&ws.weighted, edges, seg_base, k, d, &mut ws.m_lg);
            for i in 0..k {
                ws.input.row_mut(i)[..d].copy_from_slice(ws.m_lg.row(i));
            }
        }
        AggWeights::Attention(att) => {
            attention_message(kernel, pool, att, edges, seg_base, k, ws);
            for i in 0..k {
                ws.input.row_mut(i)[..d].copy_from_slice(ws.m_lg.row(i));
            }
        }
        AggWeights::Dual { att, gate } => {
            // Eq. 5: logic message m_LG.
            attention_message(kernel, pool, att, edges, seg_base, k, ws);
            // Eq. 6: sigmoid transition gate of m_LG against h_v^{t-1},
            // as one fused kernel call.
            kernel.matmul_bias_act_on(
                pool,
                &ws.node_prev,
                &gate.w1,
                Some((&ws.m_lg, &gate.w2)),
                None,
                Act::Sigmoid,
                &mut ws.gate_a,
                &mut ws.gate_b,
            );
            // Eq. 7: input = [m_TR | m_LG | features].
            for i in 0..k {
                let g = ws.gate_a.get(i, 0);
                let lg_row = ws.m_lg.row(i);
                let row = ws.input.row_mut(i);
                for (c, &v) in lg_row.iter().enumerate() {
                    row[c] = v * g;
                    row[d + c] = v;
                }
            }
        }
    }
    for (i, &v) in batch.nodes[range].iter().enumerate() {
        ws.input.row_mut(i)[agg_out..].copy_from_slice(graph.features.row(v as usize));
    }

    // GRU combine (Eq. 8): each gate is one fused kernel call
    // `act(input·W + h·U + b)`, scratch threaded from the workspace.
    let gru = &dir.gru;
    kernel.matmul_bias_act_on(
        pool,
        &ws.input,
        &gru.wz,
        Some((&ws.node_prev, &gru.uz)),
        Some(&gru.bz),
        Act::Sigmoid,
        &mut ws.z,
        &mut ws.tmp,
    );
    kernel.matmul_bias_act_on(
        pool,
        &ws.input,
        &gru.wr,
        Some((&ws.node_prev, &gru.ur)),
        Some(&gru.br),
        Act::Sigmoid,
        &mut ws.r,
        &mut ws.tmp,
    );
    mul_into(&ws.r, &ws.node_prev, &mut ws.tmp);
    kernel.matmul_bias_act_on(
        pool,
        &ws.input,
        &gru.wn,
        Some((&ws.tmp, &gru.un)),
        Some(&gru.bn),
        Act::Tanh,
        &mut ws.n,
        &mut ws.tmp2,
    );

    // h' = (1 - z) ⊙ n + z ⊙ h, with the tape's exact expression tree.
    for ((n, &z), &h) in
        ws.n.data_mut()
            .iter_mut()
            .zip(ws.z.data())
            .zip(ws.node_prev.data())
    {
        *n = (-z + 1.0) * *n + z * h;
    }
}

/// Shared Eq. 5 path: additive scores (one fused kernel call) → segment
/// softmax → weighted segment sum into `ws.m_lg`. `edges` is the chunk's
/// contiguous edge slice and `seg_base` its first node's segment index.
fn attention_message(
    kernel: Kernel,
    pool: &Pool,
    att: &AttentionWeights,
    edges: &[(u32, u32)],
    seg_base: usize,
    k: usize,
    ws: &mut BatchScratch,
) {
    let d = att.w1.rows();
    kernel.matmul_bias_act_on(
        pool,
        &ws.edge_prev,
        &att.w1,
        Some((&ws.edge_msgs, &att.w2)),
        None,
        Act::Identity,
        &mut ws.scores,
        &mut ws.scores_b,
    );
    segment_softmax_into(&ws.scores, edges, seg_base, k, &mut ws.alpha);
    ws.weighted.reset(edges.len(), d);
    for i in 0..edges.len() {
        let a = ws.alpha.get(i, 0);
        for (o, &v) in ws.weighted.row_mut(i).iter_mut().zip(ws.edge_msgs.row(i)) {
            *o = v * a;
        }
    }
    segment_sum_into(&ws.weighted, edges, seg_base, k, d, &mut ws.m_lg);
}

/// Segment softmax over an `m×1` score column, numerically identical to
/// [`Tape::segment_softmax`](deepseq_nn::Tape::segment_softmax). Segments
/// are rebased by `seg_base` (chunked levels pass their node offset).
fn segment_softmax_into(
    scores: &Matrix,
    edges: &[(u32, u32)],
    seg_base: usize,
    num_segments: usize,
    alpha: &mut Matrix,
) {
    let m = edges.len();
    let mut seg_max = vec![f32::NEG_INFINITY; num_segments];
    for (i, &(_, seg)) in edges.iter().enumerate() {
        let seg = seg as usize - seg_base;
        seg_max[seg] = seg_max[seg].max(scores.get(i, 0));
    }
    let mut seg_total = vec![0.0f32; num_segments];
    alpha.reset(m, 1);
    for (i, &(_, seg)) in edges.iter().enumerate() {
        let seg = seg as usize - seg_base;
        let e = (scores.get(i, 0) - seg_max[seg]).exp();
        alpha.set(i, 0, e);
        seg_total[seg] += e;
    }
    for (i, &(_, seg)) in edges.iter().enumerate() {
        let seg = seg as usize - seg_base;
        alpha.set(i, 0, alpha.get(i, 0) / seg_total[seg]);
    }
}

/// Sums edge rows into their owning node rows, in edge order (matching the
/// tape's accumulation order). Segments are rebased by `seg_base`.
fn segment_sum_into(
    src: &Matrix,
    edges: &[(u32, u32)],
    seg_base: usize,
    k: usize,
    d: usize,
    out: &mut Matrix,
) {
    out.reset(k, d);
    for (i, &(_, seg)) in edges.iter().enumerate() {
        let row = out.row_mut(seg as usize - seg_base);
        for (o, &v) in row.iter_mut().zip(src.row(i)) {
            *o += v;
        }
    }
}

/// Element-wise product into `out`.
fn mul_into(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    assert_eq!(a.shape(), b.shape(), "mul_into shape mismatch");
    out.reset(a.rows(), a.cols());
    for ((o, &x), &y) in out.data_mut().iter_mut().zip(a.data()).zip(b.data()) {
        *o = x * y;
    }
}

/// Runs a regressor head (Linear + ReLU stack, final sigmoid) over the full
/// state matrix, alternating between two scratch buffers. Each layer is one
/// fused kernel call; the products row-partition across the pool.
fn run_head(
    kernel: Kernel,
    pool: &Pool,
    layers: &[LinearWeights],
    state: &Matrix,
    a: &mut Matrix,
    b: &mut Matrix,
) -> Matrix {
    let mut src_is_a = false;
    for (i, layer) in layers.iter().enumerate() {
        let (src, dst): (&Matrix, &mut Matrix) = if i == 0 {
            (state, &mut *a)
        } else if src_is_a {
            (&*a, &mut *b)
        } else {
            (&*b, &mut *a)
        };
        let act = if i + 1 < layers.len() {
            Act::Relu
        } else {
            Act::Identity
        };
        kernel.linear_act_on(pool, src, &layer.w, Some(&layer.b), act, dst);
        src_is_a = !src_is_a;
    }
    let out = if src_is_a { &mut *a } else { &mut *b };
    Act::Sigmoid.apply(out.data_mut());
    out.clone()
}

/// Mean-pools node states into a `1×d` embedding, mirroring
/// [`DeepSeq::embed_graph`]'s accumulation order.
fn mean_pool(hidden: &Matrix) -> Matrix {
    let (n, d) = hidden.shape();
    let mut pooled = Matrix::zeros(1, d);
    for r in 0..n {
        for c in 0..d {
            pooled.set(0, c, pooled.get(0, c) + hidden.get(r, c));
        }
    }
    pooled.scale_assign(1.0 / n.max(1) as f32);
    pooled
}

/// Per-chunk scratch of one level-batch pipeline run: every buffer is
/// reshaped with [`Matrix::reset`] (allocation-reusing), so after the first
/// request of a given size a chunk runs with near-zero allocator traffic.
#[derive(Debug, Clone, Default)]
struct BatchScratch {
    node_prev: Matrix,
    edge_prev: Matrix,
    edge_msgs: Matrix,
    scores: Matrix,
    scores_b: Matrix,
    alpha: Matrix,
    weighted: Matrix,
    m_lg: Matrix,
    gate_a: Matrix,
    gate_b: Matrix,
    input: Matrix,
    z: Matrix,
    r: Matrix,
    n: Matrix,
    tmp: Matrix,
    tmp2: Matrix,
}

/// Preallocated scratch for [`InferenceModel::run`], plus the GEMM
/// [`Kernel`] and worker [`Pool`] all products of the forward pass dispatch
/// through.
///
/// The workspace owns one `BatchScratch` set per pool thread so large
/// levels can fan out without allocation; all buffers are reshaped with
/// [`Matrix::reset`], which reuses their allocations. Keep one workspace
/// per request-processing thread (the engine does); they are cheap when
/// idle.
///
/// The kernel defaults to [`Kernel::for_serve`] — `auto` (shape-resolved
/// blocked/packed/naive), unless `DEEPSEQ_KERNEL` overrides it; every
/// kernel is bitwise-equal on finite inputs, so this is a pure performance
/// choice. The pool defaults to [`Pool::global`] (sized by
/// `DEEPSEQ_THREADS`); outputs are bitwise-identical at any thread count.
/// Use [`Workspace::with_kernel`] / [`Workspace::with_pool`] to pin either
/// explicitly (benchmarks and the thread-determinism property tests do).
#[derive(Debug, Clone)]
pub struct Workspace {
    kernel: Kernel,
    pool: Arc<Pool>,
    state: Matrix,
    head_a: Matrix,
    head_b: Matrix,
    scratch: Vec<BatchScratch>,
}

impl Workspace {
    /// An empty workspace on the serving-default kernel and the global
    /// pool; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        Workspace::with_kernel(Kernel::for_serve())
    }

    /// An empty workspace pinned to a specific GEMM kernel (global pool).
    pub fn with_kernel(kernel: Kernel) -> Self {
        Workspace::with_pool(kernel, Arc::clone(Pool::global()))
    }

    /// An empty workspace pinned to a specific kernel and worker pool.
    pub fn with_pool(kernel: Kernel, pool: Arc<Pool>) -> Self {
        Workspace {
            kernel,
            pool,
            state: Matrix::default(),
            head_a: Matrix::default(),
            head_b: Matrix::default(),
            scratch: vec![BatchScratch::default()],
        }
    }

    /// The kernel this workspace dispatches matrix products through.
    pub fn kernel(&self) -> Kernel {
        self.kernel
    }

    /// The worker pool level chunks and large products fan out across.
    pub fn pool(&self) -> &Arc<Pool> {
        &self.pool
    }

    /// The `n×d` node states left by the last
    /// [`propagate`](InferenceModel::propagate) (empty before the first).
    pub fn state(&self) -> &Matrix {
        &self.state
    }

    /// Grows the per-chunk scratch list to at least `chunks` entries.
    fn ensure_scratch(&mut self, chunks: usize) {
        if self.scratch.len() < chunks {
            self.scratch.resize(chunks, BatchScratch::default());
        }
    }
}

impl Default for Workspace {
    fn default() -> Self {
        Workspace::new()
    }
}

fn linear_weights(params: &Params, name: &str) -> Result<LinearWeights, ServeError> {
    Ok(LinearWeights {
        w: take(params, &format!("{name}.w"))?,
        b: take(params, &format!("{name}.b"))?,
    })
}

fn attention_weights(params: &Params, name: &str) -> Result<AttentionWeights, ServeError> {
    Ok(AttentionWeights {
        w1: take(params, &format!("{name}.w1"))?,
        w2: take(params, &format!("{name}.w2"))?,
    })
}

fn direction_weights(
    params: &Params,
    name: &str,
    aggregator: Aggregator,
) -> Result<DirectionWeights, ServeError> {
    let agg = match aggregator {
        Aggregator::ConvSum => {
            AggWeights::ConvSum(linear_weights(params, &format!("{name}.agg.conv"))?)
        }
        Aggregator::Attention => {
            AggWeights::Attention(attention_weights(params, &format!("{name}.agg.att"))?)
        }
        Aggregator::DualAttention => AggWeights::Dual {
            att: attention_weights(params, &format!("{name}.agg.att"))?,
            gate: attention_weights(params, &format!("{name}.agg.gate"))?,
        },
    };
    let gru = GruWeights {
        wz: take(params, &format!("{name}.gru.wz"))?,
        uz: take(params, &format!("{name}.gru.uz"))?,
        bz: take(params, &format!("{name}.gru.bz"))?,
        wr: take(params, &format!("{name}.gru.wr"))?,
        ur: take(params, &format!("{name}.gru.ur"))?,
        br: take(params, &format!("{name}.gru.br"))?,
        wn: take(params, &format!("{name}.gru.wn"))?,
        un: take(params, &format!("{name}.gru.un"))?,
        bn: take(params, &format!("{name}.gru.bn"))?,
    };
    Ok(DirectionWeights { agg, gru })
}

fn mlp_weights(
    params: &Params,
    name: &str,
    depth: usize,
) -> Result<Vec<LinearWeights>, ServeError> {
    (0..depth)
        .map(|i| linear_weights(params, &format!("{name}.{i}")))
        .collect()
}

fn take(params: &Params, name: &str) -> Result<Matrix, ServeError> {
    params
        .find(name)
        .map(|id| params.get(id).clone())
        .ok_or_else(|| ServeError::MissingParam(name.to_string()))
}
