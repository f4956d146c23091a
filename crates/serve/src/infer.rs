//! Tape-free forward pass for serving.
//!
//! [`InferenceModel`] keeps a frozen [`DeepSeq`] and runs *its* forward
//! pass — the propagation [`schedule`](DeepSeq::schedule), the level step
//! and the [`readout`](DeepSeq::readout), the code training records on the
//! autograd tape — on a second backend of the [`Ops`] trait: each op
//! evaluates into the next slot of a reused scratch arena ([`Workspace`])
//! and reads its weights straight from the model's [`Params`]. Nothing is
//! recorded and one `n×d` state matrix is updated in place. The model code
//! is shared and every single-op value computation is the same
//! `deepseq_nn` function on both backends, so predictions are **bitwise
//! equal** to [`DeepSeq::predict`] under the bitwise kernels (asserted by
//! the crate's equivalence tests); only time and memory differ.
//!
//! # Level parallelism
//!
//! The nodes of one level are independent: each node's new state depends
//! only on the *previous* states of its neighbours. Large levels are
//! therefore chunked across the worker [`Pool`] — each chunk runs the level
//! step on its own [`Workspace`]-owned arena (one per pool thread), and the
//! chunk outputs are committed to the state matrix afterwards. Edges stay
//! grouped by owning node (`LevelBatch` sorts them by segment), so per-node
//! arithmetic — including the segment softmax — is identical at any
//! chunking, and outputs are **bitwise equal across thread counts**
//! (property-tested in this crate's `tests/properties.rs` over pools of 1,
//! 2, 4 and 7 threads).

use std::ops::Range;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use deepseq_core::{
    CircuitGraph, DeepSeq, DeepSeqConfig, DirectionLayer, LevelBatch, Predictions, Step,
};
use deepseq_nn::ops::{
    concat_cols_into, gru_blend_into, mean_pool, mul_col_into, segment_softmax_into,
    segment_sum_into,
};
use deepseq_nn::pool::chunk_ranges_or_whole;
use deepseq_nn::trace;
use deepseq_nn::{Act, Kernel, Matrix, Ops, ParamId, Params, Pool};

use crate::{cone, ServeError};

/// Minimum nodes per level chunk — below this, the per-chunk GEMMs are too
/// small to pay for fan-out.
const MIN_NODES_PER_CHUNK: usize = 16;

/// A frozen, tape-free DeepSeq model for inference.
///
/// Construct it from a trained [`DeepSeq`] (or directly from a `DSQM`
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
/// let frozen = InferenceModel::from_model(&model);
/// let graph = CircuitGraph::build(&aig);
/// let h0 = initial_states(&aig, &Workload::uniform(0, 0.5), 8, 0);
/// // Tape-free predictions are bitwise equal to the tape path.
/// assert_eq!(frozen.predict(&graph, &h0), model.predict(&graph, &h0));
/// # Ok::<(), deepseq_netlist::NetlistError>(())
/// ```
#[derive(Debug, Clone)]
pub struct InferenceModel {
    model: DeepSeq,
    generation: u64,
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

impl From<DeepSeq> for InferenceModel {
    /// Freezes a model, taking ownership of its weights.
    fn from(model: DeepSeq) -> Self {
        InferenceModel {
            model,
            generation: NEXT_GENERATION.fetch_add(1, Ordering::Relaxed),
        }
    }
}

impl InferenceModel {
    /// Freezes a copy of the weights of a trained model.
    pub fn from_model(model: &DeepSeq) -> Self {
        InferenceModel::from(model.clone())
    }

    /// Loads a binary checkpoint (see [`DeepSeq::from_binary_checkpoint`])
    /// and freezes it.
    ///
    /// # Errors
    /// Propagates checkpoint decode errors as [`ServeError::Checkpoint`].
    pub fn from_binary_checkpoint(bytes: &[u8]) -> Result<Self, ServeError> {
        Ok(DeepSeq::from_binary_checkpoint(bytes)?.into())
    }

    /// The model configuration.
    pub fn config(&self) -> &DeepSeqConfig {
        self.model.config()
    }

    /// A process-unique generation tag, assigned when the model was frozen.
    ///
    /// Two `InferenceModel` values never share a generation unless one is a
    /// [`Clone`] of the other (clones carry identical weights, so sharing
    /// is sound). The cone memo keys its entries by this tag, so after a
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
        // Temporarily move the state out so the readout can borrow it next
        // to the mutable scratch.
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
        assert_eq!(
            init_h.shape(),
            (graph.num_nodes, self.config().hidden_dim),
            "init_h must be n×hidden_dim"
        );
        let (n, d) = init_h.shape();
        ws.state.reset(n, d);
        ws.state.data_mut().copy_from_slice(init_h.data());
        for step in self.model.schedule(graph) {
            match step {
                Step::Level(layer, batch) => self.level(layer, batch, &graph.features, ws),
                Step::CopyFfs(pairs) => {
                    for &(ff, src) in pairs {
                        let from = src as usize * d;
                        ws.state
                            .data_mut()
                            .copy_within(from..from + d, ff as usize * d);
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
        let scratch = &mut ws.scratch[0];
        let mut eval = Eval {
            kernel: ws.kernel,
            pool: &ws.pool,
            params: self.model.params(),
            features: &Matrix::default(), // the heads read no features
            state,
            scratch: scratch.reset(),
        };
        let vars = self.model.readout(&mut eval, state.rows());
        let predictions = Predictions {
            tr: scratch.slots[vars.tr].clone(),
            lg: scratch.slots[vars.lg].clone(),
        };
        drop(head_span);
        InferenceOutput {
            predictions,
            embedding: mean_pool(state),
        }
    }

    /// Convenience wrapper around [`InferenceModel::run`] with a throwaway
    /// workspace.
    pub fn predict(&self, graph: &CircuitGraph, init_h: &Matrix) -> Predictions {
        self.run(graph, init_h, &mut Workspace::new()).predictions
    }

    /// One level batch: the level step, chunked across the pool when the
    /// level is large (see the [module docs](self) for the determinism
    /// argument), then the commit of every chunk's rows into the state.
    fn level(
        &self,
        layer: &DirectionLayer,
        batch: &LevelBatch,
        features: &Matrix,
        ws: &mut Workspace,
    ) {
        let chunks = chunk_ranges_or_whole(batch.len(), ws.pool.threads(), MIN_NODES_PER_CHUNK);
        if ws.scratch.len() < chunks.len() {
            ws.scratch.resize_with(chunks.len(), Scratch::default);
        }
        let (kernel, pool, params, state) = (ws.kernel, &*ws.pool, self.model.params(), &ws.state);
        let run = |range: Range<usize>, scratch: &mut Scratch| {
            let _span = trace::span_with(trace::SpanKind::LevelChunk, range.len() as u64);
            let mut eval = Eval {
                kernel,
                pool,
                params,
                features,
                state,
                scratch: scratch.reset(),
            };
            let output = layer.step(&mut eval, batch, range);
            scratch.output = output;
        };
        if let [whole] = chunks.as_slice() {
            run(whole.clone(), &mut ws.scratch[0]);
        } else {
            let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = chunks
                .iter()
                .zip(ws.scratch.iter_mut())
                .map(|(range, scratch)| {
                    let range = range.clone();
                    let run = &run;
                    Box::new(move || run(range, scratch)) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            ws.pool.run(tasks);
        }

        // Commit: chunk outputs land in disjoint state rows (node ids are
        // unique within a level).
        for (range, scratch) in chunks.iter().zip(&ws.scratch) {
            let rows = &scratch.slots[scratch.output];
            cone::scatter_rows(&mut ws.state, &batch.nodes[range.clone()], rows);
        }
    }
}

/// Loads a `DSQM` checkpoint file: reads it whole, then decodes it
/// ([`DeepSeq::from_binary_checkpoint`], which verifies its CRC). A file
/// rewritten in place during the load yields the old model, the new one or
/// a typed error.
///
/// # Errors
/// [`ServeError::Io`] if the file cannot be read; [`ServeError::Checkpoint`]
/// if it does not decode. A text checkpoint is
/// [`ParamsError::BadMagic`](deepseq_nn::ParamsError::BadMagic): convert
/// it with `deepseq-serve convert` first.
pub fn load_checkpoint(path: &Path) -> Result<DeepSeq, ServeError> {
    let bytes = std::fs::read(path).map_err(|e| ServeError::Io(e.to_string()))?;
    Ok(DeepSeq::from_binary_checkpoint(&bytes)?)
}

/// Preallocated scratch for [`InferenceModel::run`], plus the GEMM
/// [`Kernel`] and worker [`Pool`] all products of the forward pass dispatch
/// through.
///
/// The workspace owns one scratch arena per level chunk (the first also
/// serves the readout) so large levels can fan out without allocation;
/// every op reshapes its slot with [`Matrix::reset`], which reuses the
/// allocation. The one exception is the `naive` reference kernel, whose
/// add mode forms a fused gate's second product in a fresh matrix (see
/// [`Kernel::matmul_add_into`]). Keep one workspace per request-processing
/// thread (the engine does); they are cheap when idle.
///
/// The kernel defaults to [`Kernel::global`] — `blocked`, unless
/// `DEEPSEQ_KERNEL` overrides it; the kernels are bitwise-equal on finite
/// inputs, so that choice is pure performance. The pool defaults to
/// [`Pool::global`] (sized by `DEEPSEQ_THREADS`); outputs are
/// bitwise-identical at any thread count.
/// Use [`Workspace::with_kernel`] / [`Workspace::with_pool`] to pin either
/// explicitly (benchmarks and the thread-determinism property tests do).
#[derive(Debug, Clone)]
pub struct Workspace {
    kernel: Kernel,
    pool: Arc<Pool>,
    state: Matrix,
    scratch: Vec<Scratch>,
}

impl Workspace {
    /// An empty workspace on the process-wide default kernel and the
    /// global pool; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        Workspace::with_kernel(Kernel::global())
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
            scratch: vec![Scratch::default()],
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
}

impl Default for Workspace {
    fn default() -> Self {
        Workspace::new()
    }
}

/// One scratch arena: value slots filled in op order, one per op. Every
/// level step runs the same op sequence, so slot `i` is reshaped into by
/// the same op each time and, after the first request of a given size, a
/// chunk runs with near-zero allocator traffic. Each op writes only its
/// own slot; a fused gate adds its second product into it in place
/// ([`Kernel::matmul_bias_act_on`]), except under the `naive` reference,
/// which allocates that product before adding it.
#[derive(Debug, Clone, Default)]
struct Scratch {
    slots: Vec<Matrix>,
    used: usize,
    /// The slot holding the last level step's new rows.
    output: usize,
}

impl Scratch {
    /// Frees every slot for reuse.
    fn reset(&mut self) -> &mut Scratch {
        self.used = 0;
        self
    }
}

/// The serving backend of [`Ops`]: evaluates each op into the next slot
/// of one scratch arena (values are slot indices). Gathers read the node
/// `state`, which stays read-only while a level runs.
struct Eval<'a> {
    kernel: Kernel,
    pool: &'a Pool,
    params: &'a Params,
    features: &'a Matrix,
    state: &'a Matrix,
    scratch: &'a mut Scratch,
}

impl Eval<'_> {
    /// Evaluates `f(weights, earlier slots, out)` into the next slot.
    fn push(&mut self, f: impl FnOnce(&Params, &[Matrix], &mut Matrix)) -> usize {
        let s = &mut *self.scratch;
        if s.used == s.slots.len() {
            s.slots.push(Matrix::default());
        }
        let (done, rest) = s.slots.split_at_mut(s.used);
        f(self.params, done, &mut rest[0]);
        s.used += 1;
        s.used - 1
    }

    /// Stacks rows `rows` of `src` into the next slot.
    fn gather(&mut self, src: &Matrix, rows: impl ExactSizeIterator<Item = usize>) -> usize {
        self.push(|_, _, out| {
            out.reset(rows.len(), src.cols());
            for (i, r) in rows.enumerate() {
                out.row_mut(i).copy_from_slice(src.row(r));
            }
        })
    }
}

impl Ops for Eval<'_> {
    type Value = usize;

    fn gather_state(&mut self, rows: impl ExactSizeIterator<Item = usize>) -> usize {
        self.gather(self.state, rows)
    }

    fn gather_features(&mut self, rows: impl ExactSizeIterator<Item = usize>) -> usize {
        self.gather(self.features, rows)
    }

    fn fused_gate(
        &mut self,
        x: usize,
        w: ParamId,
        h: usize,
        u: ParamId,
        b: Option<ParamId>,
        act: Act,
    ) -> usize {
        let (kernel, pool) = (self.kernel, self.pool);
        self.push(|p, s, out| {
            let second = Some((&s[h], p.get(u)));
            let bias = b.map(|b| p.get(b));
            kernel.matmul_bias_act_on(pool, &s[x], p.get(w), second, bias, act, out);
        })
    }

    fn linear(&mut self, x: usize, w: ParamId, b: ParamId, act: Act) -> usize {
        let (kernel, pool) = (self.kernel, self.pool);
        self.push(|p, s, out| {
            kernel.matmul_bias_act_on(pool, &s[x], p.get(w), None, Some(p.get(b)), act, out);
        })
    }

    fn segment_softmax(&mut self, scores: usize, segments: &[usize], num_segments: usize) -> usize {
        self.push(|_, s, out| segment_softmax_into(&s[scores], segments, num_segments, out))
    }

    fn segment_sum(&mut self, src: usize, segments: &[usize], num_segments: usize) -> usize {
        self.push(|_, s, out| segment_sum_into(&s[src], segments, num_segments, out))
    }

    fn mul_col(&mut self, a: usize, col: usize) -> usize {
        self.push(|_, s, out| mul_col_into(&s[a], &s[col], out))
    }

    fn mul(&mut self, a: usize, b: usize) -> usize {
        self.push(|_, s, out| {
            assert_eq!(s[a].shape(), s[b].shape(), "mul shape mismatch");
            out.reset(s[a].rows(), s[a].cols());
            for ((o, &x), &y) in out.data_mut().iter_mut().zip(s[a].data()).zip(s[b].data()) {
                *o = x * y;
            }
        })
    }

    fn concat_cols(&mut self, a: usize, b: usize) -> usize {
        self.push(|_, s, out| concat_cols_into(&s[a], &s[b], out))
    }

    fn sigmoid(&mut self, a: usize) -> usize {
        self.push(|_, s, out| {
            out.reset(s[a].rows(), s[a].cols());
            out.data_mut().copy_from_slice(s[a].data());
            Act::Sigmoid.apply(out.data_mut());
        })
    }

    fn gru_blend(&mut self, z: usize, n: usize, h: usize) -> usize {
        self.push(|_, s, out| gru_blend_into(&s[z], &s[n], &s[h], out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_checkpoint_reads_dsqm_and_rejects_text_and_garbage() {
        let dir = std::env::temp_dir().join(format!("deepseq-load-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let model = DeepSeq::new(DeepSeqConfig {
            hidden_dim: 4,
            ..DeepSeqConfig::default()
        });
        let files: [(&str, Vec<u8>); 4] = [
            ("model.dsqm", model.save_binary()),
            ("model.txt", model.to_text().into_bytes()),
            ("garbage", vec![0xff, 0xfe, 0x00, 0x80, 0xc3]),
            ("empty", Vec::new()),
        ];
        let mut loaded = Vec::new();
        for (name, bytes) in &files {
            std::fs::write(dir.join(name), bytes).unwrap();
            loaded.push(load_checkpoint(&dir.join(name)));
        }
        let missing = load_checkpoint(&dir.join("missing"));
        std::fs::remove_dir_all(&dir).unwrap();

        let decoded = loaded[0].as_ref().expect("DSQM loads");
        assert_eq!(decoded.config(), model.config());
        assert_eq!(decoded.params().save_binary(), model.params().save_binary());
        let bad_magic = ServeError::Checkpoint(deepseq_nn::ParamsError::BadMagic);
        for rejected in &loaded[1..3] {
            assert_eq!(rejected.as_ref().err(), Some(&bad_magic));
        }
        let empty = deepseq_nn::ParamsError::Truncated {
            offset: 0,
            needed: 4,
        };
        assert_eq!(
            loaded[3].as_ref().err(),
            Some(&ServeError::Checkpoint(empty))
        );
        assert!(matches!(missing, Err(ServeError::Io(_))));
    }
}
