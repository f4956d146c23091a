//! The op set DeepSeq's forward pass is written against, the value
//! arithmetic its backends share, and [`TapeOps`], the autograd backend.
//!
//! Model code (the level step, aggregation, the GRU combine, the heads) is
//! written once, generically over [`Ops`]. [`TapeOps`] records each op on a
//! [`Tape`] — training, `DeepSeq::predict`, GRANNITE; the serving
//! workspace of `deepseq-serve` evaluates the same ops into reused scratch
//! buffers. Where the tape records a single op, its arithmetic is one
//! function here that both backends call, so they agree bit for bit under
//! the bitwise kernels.
//!
//! # Example
//!
//! ```
//! use deepseq_nn::{Matrix, Mlp, Params, Tape, TapeOps};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let mut params = Params::new();
//! let head = Mlp::new(&mut params, "head", &[4, 8, 1], &mut rng);
//! let mut tape = Tape::new();
//! let x = tape.input(Matrix::full(3, 4, 0.5));
//! let y = head.forward(&mut TapeOps::new(&mut tape, &params), x);
//! assert_eq!(tape.value(y).shape(), (3, 1));
//! ```

use crate::kernels::Act;
use crate::matrix::Matrix;
use crate::params::{ParamId, Params};
use crate::tape::{Tape, VarId};

/// The operations of one forward pass over a node state — the `n×d`
/// matrix of node representations that levelized propagation updates.
/// Each backend owns the state and commits new rows between level steps;
/// ops return fresh values and never mutate their inputs. Weights are
/// named by [`ParamId`] and resolved by the backend.
pub trait Ops {
    /// Handle to a value held by the backend.
    type Value: Copy;

    /// Rows `rows` of the current node state, stacked into `rows.len()×d`.
    /// No rows give an empty `0×d` value.
    fn gather_state(&mut self, rows: impl ExactSizeIterator<Item = usize>) -> Self::Value;

    /// Rows `rows` of the node-feature matrix, stacked.
    fn gather_features(&mut self, rows: impl ExactSizeIterator<Item = usize>) -> Self::Value;

    /// `act(x·W + h·U [+ b])` — the GRU gate (Eq. 8) and, without bias and
    /// activation, the additive-attention score (Eq. 5/6).
    fn fused_gate(
        &mut self,
        x: Self::Value,
        w: ParamId,
        h: Self::Value,
        u: ParamId,
        b: Option<ParamId>,
        act: Act,
    ) -> Self::Value;

    /// `act(x·W + b)` — one dense layer.
    fn linear(&mut self, x: Self::Value, w: ParamId, b: ParamId, act: Act) -> Self::Value;

    /// Softmax of an `m×1` score column within each segment
    /// (`segments[i] < num_segments` owns row `i`).
    fn segment_softmax(
        &mut self,
        scores: Self::Value,
        segments: &[usize],
        num_segments: usize,
    ) -> Self::Value;

    /// Sums the rows of `src` into `num_segments` rows by segment.
    fn segment_sum(
        &mut self,
        src: Self::Value,
        segments: &[usize],
        num_segments: usize,
    ) -> Self::Value;

    /// Scales row `r` of `a` by `col[r]` (an `m×1` column).
    fn mul_col(&mut self, a: Self::Value, col: Self::Value) -> Self::Value;

    /// Element-wise product.
    fn mul(&mut self, a: Self::Value, b: Self::Value) -> Self::Value;

    /// Column-wise concatenation `[a | b]`.
    fn concat_cols(&mut self, a: Self::Value, b: Self::Value) -> Self::Value;

    /// Logistic sigmoid.
    fn sigmoid(&mut self, a: Self::Value) -> Self::Value;

    /// The GRU state update `(1 - z) ⊙ n + z ⊙ h`.
    fn gru_blend(&mut self, z: Self::Value, n: Self::Value, h: Self::Value) -> Self::Value;
}

/// Writes the segment softmax of the `m×1` column `scores` into `out`
/// (`m×1`): per segment, `exp(s - max)` over the segment's sum of them.
///
/// # Panics
/// Panics if `scores` is not a column, lengths differ or a segment id is
/// out of range.
pub fn segment_softmax_into(
    scores: &Matrix,
    segments: &[usize],
    num_segments: usize,
    out: &mut Matrix,
) {
    assert_eq!(scores.cols(), 1, "segment_softmax needs an m×1 column");
    assert_eq!(
        segments.len(),
        scores.rows(),
        "segment_softmax length mismatch"
    );
    // Per-segment max for numerical stability.
    let mut seg_max = vec![f32::NEG_INFINITY; num_segments];
    for (&seg, &s) in segments.iter().zip(scores.data()) {
        seg_max[seg] = seg_max[seg].max(s);
    }
    let mut seg_total = vec![0.0f32; num_segments];
    out.reset(segments.len(), 1);
    let rows = out.data_mut().iter_mut().zip(segments);
    for ((o, &seg), &s) in rows.zip(scores.data()) {
        let e = (s - seg_max[seg]).exp();
        *o = e;
        seg_total[seg] += e;
    }
    for (o, &seg) in out.data_mut().iter_mut().zip(segments) {
        *o /= seg_total[seg];
    }
}

/// Writes the GRU state update `(1 - z) ⊙ n + z ⊙ h` into `out`, each
/// element as `(-z + 1) · n + z · h`: the bits of the chain
/// `affine(z, -1, 1)`, `mul`, `mul`, `add` (multiplying by `-1` is exactly
/// negation). [`Tape::gru_blend`] and the serving workspace both call it.
///
/// # Panics
/// Panics unless `z`, `n` and `h` share one shape.
pub fn gru_blend_into(z: &Matrix, n: &Matrix, h: &Matrix, out: &mut Matrix) {
    assert_eq!(z.shape(), n.shape(), "gru_blend shape mismatch");
    assert_eq!(z.shape(), h.shape(), "gru_blend shape mismatch");
    out.reset(z.rows(), z.cols());
    let inputs = z.data().iter().zip(n.data()).zip(h.data());
    for (o, ((&z, &n), &h)) in out.data_mut().iter_mut().zip(inputs) {
        *o = (-z + 1.0) * n + z * h;
    }
}

/// Writes the segment sum of the rows of `src` into `out`
/// (`num_segments×c`), accumulating in row order.
///
/// # Panics
/// Panics if `segments.len()` differs from the row count or a segment id is
/// out of range.
pub fn segment_sum_into(src: &Matrix, segments: &[usize], num_segments: usize, out: &mut Matrix) {
    assert_eq!(segments.len(), src.rows(), "segment_sum length mismatch");
    out.reset(num_segments, src.cols());
    for (i, &seg) in segments.iter().enumerate() {
        assert!(seg < num_segments, "segment id out of range");
        for (o, &v) in out.row_mut(seg).iter_mut().zip(src.row(i)) {
            *o += v;
        }
    }
}

/// Writes `a` with row `r` scaled by `col[r]` into `out`.
///
/// # Panics
/// Panics if `col` is not an `m×1` column over `a`'s rows.
pub fn mul_col_into(a: &Matrix, col: &Matrix, out: &mut Matrix) {
    assert_eq!(col.cols(), 1, "mul_col needs an m×1 column");
    assert_eq!(a.rows(), col.rows(), "mul_col row mismatch");
    out.reset(a.rows(), a.cols());
    for r in 0..a.rows() {
        let s = col.get(r, 0);
        for (o, &v) in out.row_mut(r).iter_mut().zip(a.row(r)) {
            *o = v * s;
        }
    }
}

/// Writes `[a | b]` into `out`.
///
/// # Panics
/// Panics if the row counts differ.
pub fn concat_cols_into(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    assert_eq!(a.rows(), b.rows(), "concat_cols row mismatch");
    let ca = a.cols();
    out.reset(a.rows(), ca + b.cols());
    for r in 0..a.rows() {
        let row = out.row_mut(r);
        row[..ca].copy_from_slice(a.row(r));
        row[ca..].copy_from_slice(b.row(r));
    }
}

/// Mean of the rows of `hidden`, as a `1×d` matrix — the graph-level
/// readout. Rows are summed in ascending order; no rows give zeros.
pub fn mean_pool(hidden: &Matrix) -> Matrix {
    let (n, d) = hidden.shape();
    let mut pooled = Matrix::zeros(1, d);
    for r in 0..n {
        for (p, &v) in pooled.row_mut(0).iter_mut().zip(hidden.row(r)) {
            *p += v;
        }
    }
    pooled.scale_assign(1.0 / n.max(1) as f32);
    pooled
}

/// The [`Ops`] backend that records on an autograd [`Tape`]; weights are
/// parameter leaves of `params`, so [`Tape::backward`] reaches them.
///
/// Each weight is recorded as one leaf, on its first use, and every later
/// use reads that leaf. [`Tape::backward`] then adds all uses' gradient
/// terms into the leaf's gradient in place, in reverse use order, the
/// order in which one leaf per use would reach
/// [`GradStore`](crate::GradStore) — the same bits, one copy of each
/// weight per pass.
///
/// Every layer op is one tape node: a GRU gate or attention score
/// ([`Tape::fused_gate`]), a dense layer ([`Tape::linear`]) and the GRU
/// blend ([`Tape::gru_blend`]), each computed the way the serving backend
/// computes it and each with the bits of its unfused chain.
///
/// With [`TapeOps::with_nodes`], the node state is a row map (node → tape
/// value and row) that [`TapeOps::commit`] and [`TapeOps::copy_rows`]
/// update without recording anything.
#[derive(Debug)]
pub struct TapeOps<'t> {
    tape: &'t mut Tape,
    params: &'t Params,
    /// The leaf of each parameter used so far, indexed by [`ParamId`].
    leaves: Vec<Option<VarId>>,
    cur: Vec<(VarId, usize)>,
    /// State width (for empty gathers) and node features.
    nodes: Option<(usize, VarId)>,
}

impl<'t> TapeOps<'t> {
    /// A backend over `tape` for layer ops only (no node state).
    pub fn new(tape: &'t mut Tape, params: &'t Params) -> Self {
        TapeOps {
            tape,
            params,
            leaves: Vec::new(),
            cur: Vec::new(),
            nodes: None,
        }
    }

    /// A backend whose node state starts as the rows of `state` (`n×d`)
    /// and whose node features are the rows of `features`.
    pub fn with_nodes(
        tape: &'t mut Tape,
        params: &'t Params,
        state: VarId,
        features: VarId,
    ) -> Self {
        let (n, d) = tape.value(state).shape();
        TapeOps {
            tape,
            params,
            leaves: Vec::new(),
            cur: (0..n).map(|i| (state, i)).collect(),
            nodes: Some((d, features)),
        }
    }

    /// Level commit: node `nodes[i]` now lives in row `i` of `h`.
    pub fn commit(&mut self, nodes: &[u32], h: VarId) {
        for (i, &v) in nodes.iter().enumerate() {
            self.cur[v as usize] = (h, i);
        }
    }

    /// FF copy: for each `(dst, src)` in order, node `dst` takes node
    /// `src`'s current row (later pairs see earlier copies).
    pub fn copy_rows(&mut self, pairs: &[(u32, u32)]) {
        for &(dst, src) in pairs {
            self.cur[dst as usize] = self.cur[src as usize];
        }
    }

    fn nodes(&self) -> (usize, VarId) {
        self.nodes.expect("node-state ops need TapeOps::with_nodes")
    }

    /// The leaf of weight `id`, recorded on its first use.
    fn param(&mut self, id: ParamId) -> VarId {
        if self.leaves.len() <= id.0 {
            self.leaves.resize(id.0 + 1, None);
        }
        *self.leaves[id.0].get_or_insert_with(|| self.tape.param(self.params, id))
    }
}

impl Ops for TapeOps<'_> {
    type Value = VarId;

    fn gather_state(&mut self, rows: impl ExactSizeIterator<Item = usize>) -> VarId {
        if rows.len() == 0 {
            let width = self.nodes().0;
            return self.tape.input(Matrix::zeros(0, width));
        }
        let sources = rows.map(|r| self.cur[r]).collect();
        self.tape.gather_rows(sources)
    }

    fn gather_features(&mut self, rows: impl ExactSizeIterator<Item = usize>) -> VarId {
        let features = self.nodes().1;
        self.tape.gather_rows(rows.map(|r| (features, r)).collect())
    }

    fn fused_gate(
        &mut self,
        x: VarId,
        w: ParamId,
        h: VarId,
        u: ParamId,
        b: Option<ParamId>,
        act: Act,
    ) -> VarId {
        let w = self.param(w);
        let u = self.param(u);
        let b = b.map(|b| self.param(b));
        self.tape.fused_gate(x, w, h, u, b, act)
    }

    fn linear(&mut self, x: VarId, w: ParamId, b: ParamId, act: Act) -> VarId {
        let w = self.param(w);
        let b = self.param(b);
        self.tape.linear(x, w, b, act)
    }

    fn segment_softmax(&mut self, scores: VarId, segments: &[usize], _: usize) -> VarId {
        self.tape.segment_softmax(scores, segments.to_vec())
    }

    fn segment_sum(&mut self, src: VarId, segments: &[usize], num_segments: usize) -> VarId {
        self.tape.segment_sum(src, segments.to_vec(), num_segments)
    }

    fn mul_col(&mut self, a: VarId, col: VarId) -> VarId {
        self.tape.mul_col(a, col)
    }

    fn mul(&mut self, a: VarId, b: VarId) -> VarId {
        self.tape.mul(a, b)
    }

    fn concat_cols(&mut self, a: VarId, b: VarId) -> VarId {
        self.tape.concat_cols(a, b)
    }

    fn sigmoid(&mut self, a: VarId) -> VarId {
        self.tape.sigmoid(a)
    }

    fn gru_blend(&mut self, z: VarId, n: VarId, h: VarId) -> VarId {
        self.tape.gru_blend(z, n, h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_weight_is_recorded_once_per_pass() {
        // A three-level chain through one dense layer, recorded through
        // `TapeOps` and by hand as `matmul`, `add_row`, `tanh` with a fresh
        // leaf per use.
        let mut params = Params::new();
        let w = params.register(
            "w",
            Matrix::from_fn(3, 3, |r, c| ((r * 3 + c) as f32).sin()),
        );
        let b = params.register("b", Matrix::from_fn(1, 3, |_, c| 0.1 * c as f32 - 0.05));
        let x0 = Matrix::from_fn(4, 3, |r, c| ((r + 2 * c) as f32 * 0.3).cos());
        let target = Matrix::full(4, 3, 0.25);
        let levels = 3;

        let mut tape = Tape::new();
        let mut y = tape.input(x0.clone());
        let start = tape.len();
        let mut ops = TapeOps::new(&mut tape, &params);
        let mut per_level = Vec::new();
        for _ in 0..levels {
            y = ops.linear(y, w, b, Act::Tanh);
            per_level.push(ops.tape.len());
        }
        let loss = tape.l1_loss(y, &target);

        let mut per_use = Tape::new();
        let mut y = per_use.input(x0);
        for _ in 0..levels {
            let wv = per_use.param(&params, w);
            let bv = per_use.param(&params, b);
            let xw = per_use.matmul(y, wv);
            let pre = per_use.add_row(xw, bv);
            y = per_use.tanh(pre);
        }
        let per_use_loss = per_use.l1_loss(y, &target);

        // Level one records the two leaves and the layer's one fused
        // node; later levels only their node. The hand-made chain records
        // two leaves and three ops per level.
        assert_eq!(per_level, [start + 3, start + 4, start + 5]);
        assert_eq!(per_use.len(), tape.len() + 2 * (levels - 1) + 2 * levels);
        // One leaf sums every use's gradient in the order per-use leaves
        // reach the store, and the fused layer gives its chain's terms, so
        // the sums match bit for bit.
        let (got, want) = (tape.backward(loss), per_use.backward(per_use_loss));
        for id in [w, b] {
            let bits = |m: &Matrix| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(got.get(id).unwrap()), bits(want.get(id).unwrap()));
        }
    }

    #[test]
    fn in_place_sums_match_per_use_leaves() {
        // A GRU cell over three levels, recorded twice. Through one
        // `TapeOps`, each weight is one leaf, so the backward pass adds
        // every use's product term into that leaf's gradient in place. With
        // a fresh `TapeOps` per level, each use has its own leaf: each term
        // is a fresh product and `GradStore` does the sum. The inputs `x`
        // and `h0` are one leaf on both tapes; each sums its terms in place.
        use crate::layers::GruCell;
        use rand::SeedableRng;

        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let mut params = Params::new();
        let cell = GruCell::new(&mut params, "gru", 6, 4, &mut rng);
        let x = params.register(
            "x",
            Matrix::from_fn(5, 6, |r, c| ((r * 6 + c) as f32).sin()),
        );
        let h0 = params.register(
            "h0",
            Matrix::from_fn(5, 4, |r, c| ((r + 3 * c) as f32).cos()),
        );
        let target = Matrix::from_fn(5, 4, |r, c| 0.1 * (r as f32 - c as f32));
        let levels = 3;
        let grads = |leaf_per_use: bool| {
            let mut tape = Tape::new();
            let mut ops = TapeOps::new(&mut tape, &params);
            let (xv, mut h) = (ops.param(x), ops.param(h0));
            for _ in 0..levels {
                if leaf_per_use {
                    ops = TapeOps::new(ops.tape, &params);
                }
                h = cell.forward(&mut ops, xv, h);
            }
            let loss = ops.tape.l1_loss(h, &target);
            (tape.len(), tape.backward(loss))
        };
        let ((shared_len, shared), (per_use_len, per_use)) = (grads(false), grads(true));
        // The nine weights and biases are recorded again per level.
        assert_eq!(per_use_len, shared_len + 9 * (levels - 1));
        let bits = |m: &Matrix| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for (id, name, _) in params.iter() {
            let (got, want) = (shared.get(id), per_use.get(id));
            let (got, want) = (got.expect(name), want.expect(name));
            assert!(
                got.data().iter().any(|&v| v != 0.0),
                "{name} has a gradient"
            );
            assert_eq!(bits(got), bits(want), "{name}");
        }
    }

    #[test]
    fn node_state_remaps_without_recording() {
        let params = Params::new();
        let mut tape = Tape::new();
        let state = tape.input(Matrix::from_rows(&[&[1.0], &[2.0], &[3.0]]));
        let features = tape.input(Matrix::zeros(3, 1));
        let h = tape.input(Matrix::from_rows(&[&[9.0]]));
        let recorded = tape.len();
        let mut ops = TapeOps::with_nodes(&mut tape, &params, state, features);
        ops.commit(&[1], h);
        // Chained copies see earlier ones: 0 ← 1 (now 9), then 2 ← 0.
        ops.copy_rows(&[(0, 1), (2, 0)]);
        let all = ops.gather_state(0..3);
        let none = ops.gather_state(0..0);
        assert_eq!(tape.len(), recorded + 2);
        assert_eq!(tape.value(all).data(), &[9.0, 9.0, 9.0]);
        assert_eq!(tape.value(none).shape(), (0, 1));
        assert_eq!(mean_pool(tape.value(none)), Matrix::zeros(1, 1));
        assert_eq!(mean_pool(tape.value(state)), Matrix::full(1, 1, 2.0));
    }
}
