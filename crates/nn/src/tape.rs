//! Reverse-mode autograd tape.
//!
//! A [`Tape`] records a computation as a flat list of ops over [`Matrix`]
//! values; [`Tape::backward`] walks it in reverse and accumulates parameter
//! gradients into a [`GradStore`]. The op set is exactly what levelized
//! DAG-GNN message passing needs: matrix products, element-wise maps,
//! row gathering across earlier values (the "topological batching" of the
//! paper), segment softmax/sum for per-node attention over variable-size
//! predecessor sets, and an L1 loss (paper Eq. 3).
//!
//! # Example
//!
//! ```
//! use deepseq_nn::{Matrix, Params, Tape};
//!
//! let mut params = Params::new();
//! let w = params.register("w", Matrix::from_rows(&[&[2.0], &[1.0]]));
//! let mut tape = Tape::new();
//! let x = tape.input(Matrix::from_rows(&[&[3.0, 4.0]]));
//! let wv = tape.param(&params, w);
//! let y = tape.matmul(x, wv); // 3*2 + 4*1 = 10
//! let loss = tape.l1_loss(y, &Matrix::from_rows(&[&[0.0]]));
//! let grads = tape.backward(loss);
//! assert_eq!(tape.value(y).get(0, 0), 10.0);
//! // dL/dw = sign(y) * x = [3, 4]
//! assert_eq!(grads.get(w).unwrap().get(0, 0), 3.0);
//! ```

use std::collections::HashMap;

use crate::kernels::{Act, Kernel};
use crate::matrix::Matrix;
use crate::ops;
use crate::params::{GradStore, ParamId, Params};

/// Identifier of a value on a [`Tape`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VarId(usize);

#[derive(Debug, Clone)]
enum Op {
    Leaf,
    MatMul(VarId, VarId),
    Add(VarId, VarId),
    Sub(VarId, VarId),
    Mul(VarId, VarId),
    AddRow(VarId, VarId),
    Affine(VarId, f32),
    Sigmoid(VarId),
    Tanh(VarId),
    Relu(VarId),
    ConcatCols(VarId, VarId),
    GatherRows(Vec<(VarId, usize)>),
    SegmentSum {
        src: VarId,
        segments: Vec<usize>,
    },
    SegmentSoftmax {
        src: VarId,
        segments: Vec<usize>,
    },
    MulCol(VarId, VarId),
    FusedGate {
        x: VarId,
        w: VarId,
        h: VarId,
        u: VarId,
        b: Option<VarId>,
        act: Act,
    },
    L1Loss {
        pred: VarId,
        target: Matrix,
        row_weights: Option<Vec<f32>>,
    },
    AddScalars(Vec<VarId>),
}

#[derive(Debug, Clone)]
struct Node {
    op: Op,
    value: Matrix,
    param: Option<ParamId>,
}

/// A recorded computation (see the [module documentation](self)).
#[derive(Debug, Clone, Default)]
pub struct Tape {
    nodes: Vec<Node>,
}

impl Tape {
    /// An empty tape.
    pub fn new() -> Self {
        Tape::default()
    }

    /// Number of recorded values.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if nothing is recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Discards the recorded computation but keeps the node buffer's
    /// allocation, so one tape can be reused across many samples (the
    /// data-parallel training loop hands each worker a private tape and
    /// resets it between samples instead of reallocating).
    pub fn reset(&mut self) {
        self.nodes.clear();
    }

    /// The value of a variable.
    pub fn value(&self, v: VarId) -> &Matrix {
        &self.nodes[v.0].value
    }

    fn push(&mut self, op: Op, value: Matrix, param: Option<ParamId>) -> VarId {
        let id = VarId(self.nodes.len());
        self.nodes.push(Node { op, value, param });
        id
    }

    /// Records a constant input (no gradient tracked beyond it).
    pub fn input(&mut self, value: Matrix) -> VarId {
        self.push(Op::Leaf, value, None)
    }

    /// Records a parameter leaf; gradients reaching it are accumulated into
    /// the [`GradStore`] under its [`ParamId`].
    pub fn param(&mut self, params: &Params, id: ParamId) -> VarId {
        self.push(Op::Leaf, params.get(id).clone(), Some(id))
    }

    /// `a × b`.
    pub fn matmul(&mut self, a: VarId, b: VarId) -> VarId {
        let value = self.value(a).matmul(self.value(b));
        self.push(Op::MatMul(a, b), value, None)
    }

    /// Element-wise `a + b` (same shape).
    pub fn add(&mut self, a: VarId, b: VarId) -> VarId {
        let value = self.value(a).zip(self.value(b), |x, y| x + y);
        self.push(Op::Add(a, b), value, None)
    }

    /// Element-wise `a - b` (same shape).
    pub fn sub(&mut self, a: VarId, b: VarId) -> VarId {
        let value = self.value(a).zip(self.value(b), |x, y| x - y);
        self.push(Op::Sub(a, b), value, None)
    }

    /// Element-wise `a ⊙ b` (same shape).
    pub fn mul(&mut self, a: VarId, b: VarId) -> VarId {
        let value = self.value(a).zip(self.value(b), |x, y| x * y);
        self.push(Op::Mul(a, b), value, None)
    }

    /// Broadcast add of a `1×c` row vector to every row of an `n×c` matrix.
    ///
    /// # Panics
    /// Panics if `row` is not `1×c`.
    pub fn add_row(&mut self, a: VarId, row: VarId) -> VarId {
        let (n, c) = self.value(a).shape();
        assert_eq!(self.value(row).shape(), (1, c), "add_row needs 1x{c}");
        let rv = self.value(row).clone();
        let av = self.value(a);
        let value = Matrix::from_fn(n, c, |r, col| av.get(r, col) + rv.get(0, col));
        self.push(Op::AddRow(a, row), value, None)
    }

    /// `alpha·a + beta` element-wise.
    pub fn affine(&mut self, a: VarId, alpha: f32, beta: f32) -> VarId {
        let value = self.value(a).map(|x| alpha * x + beta);
        self.push(Op::Affine(a, alpha), value, None)
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, a: VarId) -> VarId {
        let value = self.value(a).map(|x| 1.0 / (1.0 + (-x).exp()));
        self.push(Op::Sigmoid(a), value, None)
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, a: VarId) -> VarId {
        let value = self.value(a).map(f32::tanh);
        self.push(Op::Tanh(a), value, None)
    }

    /// Rectified linear unit.
    pub fn relu(&mut self, a: VarId) -> VarId {
        let value = self.value(a).map(|x| x.max(0.0));
        self.push(Op::Relu(a), value, None)
    }

    /// Column-wise concatenation `[a | b]` (same row count).
    pub fn concat_cols(&mut self, a: VarId, b: VarId) -> VarId {
        let mut value = Matrix::default();
        ops::concat_cols_into(self.value(a), self.value(b), &mut value);
        self.push(Op::ConcatCols(a, b), value, None)
    }

    /// Gathers rows from earlier variables: output row `i` is
    /// `sources[i].0.value.row(sources[i].1)`. All sources must share the
    /// column count. This is the op that stitches per-level node batches
    /// together during levelized propagation.
    ///
    /// # Panics
    /// Panics if `sources` is empty or column counts differ.
    pub fn gather_rows(&mut self, sources: Vec<(VarId, usize)>) -> VarId {
        assert!(!sources.is_empty(), "gather_rows needs at least one row");
        let c = self.value(sources[0].0).cols();
        let mut value = Matrix::zeros(sources.len(), c);
        for (i, &(var, row)) in sources.iter().enumerate() {
            let src = self.value(var);
            assert_eq!(src.cols(), c, "gather_rows column mismatch");
            value.row_mut(i).copy_from_slice(src.row(row));
        }
        self.push(Op::GatherRows(sources), value, None)
    }

    /// Sums rows of `src` (`m×c`) into `num_segments` output rows according
    /// to `segments` (`segments[i]` = output row of input row `i`).
    ///
    /// # Panics
    /// Panics if `segments.len() != m` or a segment id is out of range.
    pub fn segment_sum(&mut self, src: VarId, segments: Vec<usize>, num_segments: usize) -> VarId {
        let mut value = Matrix::default();
        ops::segment_sum_into(self.value(src), &segments, num_segments, &mut value);
        self.push(Op::SegmentSum { src, segments }, value, None)
    }

    /// Softmax over an `m×1` score column, normalized *within* each segment
    /// (the attention normalization over each node's predecessor set).
    ///
    /// # Panics
    /// Panics if `src` is not a column vector or lengths mismatch.
    pub fn segment_softmax(&mut self, src: VarId, segments: Vec<usize>) -> VarId {
        let num_segments = segments.iter().copied().max().map_or(0, |s| s + 1);
        let mut value = Matrix::default();
        ops::segment_softmax_into(self.value(src), &segments, num_segments, &mut value);
        self.push(Op::SegmentSoftmax { src, segments }, value, None)
    }

    /// Broadcast multiply of an `m×c` matrix by an `m×1` column (attention
    /// weights applied to gathered messages).
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn mul_col(&mut self, a: VarId, col: VarId) -> VarId {
        let mut value = Matrix::default();
        ops::mul_col_into(self.value(a), self.value(col), &mut value);
        self.push(Op::MulCol(a, col), value, None)
    }

    /// Fused `act(x·w + h·u [+ b])` — the GRU gate pattern (Eq. 8) and the
    /// additive-attention score (Eq. 5/6) as a single tape node.
    ///
    /// The forward value is computed by the fused kernel entry point
    /// ([`Kernel::matmul_bias_act`](crate::Kernel::matmul_bias_act)) under
    /// the process-wide default kernel, with the exact floating-point
    /// sequence of the unfused op chain (`matmul`, `matmul`, `add`,
    /// `add_row`, activation) — so fusing changes tape size and speed, never
    /// results. One fused node stores one matrix instead of five, which is
    /// what keeps training-tape memory flat as hidden dims grow.
    ///
    /// # Panics
    /// Panics on operand dimension mismatches.
    pub fn fused_gate(
        &mut self,
        x: VarId,
        w: VarId,
        h: VarId,
        u: VarId,
        b: Option<VarId>,
        act: Act,
    ) -> VarId {
        let mut out = Matrix::default();
        Kernel::global().matmul_bias_act(
            self.value(x),
            self.value(w),
            Some((self.value(h), self.value(u))),
            b.map(|bv| self.value(bv)),
            act,
            &mut out,
        );
        self.push(Op::FusedGate { x, w, h, u, b, act }, out, None)
    }

    /// Mean absolute error against a constant target, as a `1×1` scalar
    /// (paper Eq. 3 / Eq. 9 use L1 throughout).
    pub fn l1_loss(&mut self, pred: VarId, target: &Matrix) -> VarId {
        self.l1_loss_impl(pred, target.clone(), None)
    }

    /// L1 loss with per-row weights (e.g. to exclude PI rows from
    /// supervision or reweight rare nodes). Weights of zero drop rows.
    pub fn l1_loss_weighted(
        &mut self,
        pred: VarId,
        target: &Matrix,
        row_weights: Vec<f32>,
    ) -> VarId {
        self.l1_loss_impl(pred, target.clone(), Some(row_weights))
    }

    fn l1_loss_impl(
        &mut self,
        pred: VarId,
        target: Matrix,
        row_weights: Option<Vec<f32>>,
    ) -> VarId {
        let pv = self.value(pred);
        assert_eq!(pv.shape(), target.shape(), "l1_loss shape mismatch");
        if let Some(w) = &row_weights {
            assert_eq!(w.len(), pv.rows(), "row_weights length mismatch");
        }
        let (n, c) = pv.shape();
        let mut total = 0.0f64;
        let mut weight_sum = 0.0f64;
        for r in 0..n {
            let w = row_weights.as_ref().map_or(1.0, |w| w[r]) as f64;
            if w == 0.0 {
                continue;
            }
            for col in 0..c {
                total += w * (pv.get(r, col) - target.get(r, col)).abs() as f64;
            }
            weight_sum += w * c as f64;
        }
        let loss = if weight_sum > 0.0 {
            (total / weight_sum) as f32
        } else {
            0.0
        };
        self.push(
            Op::L1Loss {
                pred,
                target,
                row_weights,
            },
            Matrix::full(1, 1, loss),
            None,
        )
    }

    /// Sums `1×1` scalars (multi-task loss, paper Eq. 3).
    ///
    /// # Panics
    /// Panics if any input is not `1×1` or the list is empty.
    pub fn add_scalars(&mut self, scalars: Vec<VarId>) -> VarId {
        assert!(!scalars.is_empty(), "add_scalars needs inputs");
        let mut total = 0.0;
        for &s in &scalars {
            assert_eq!(
                self.value(s).shape(),
                (1, 1),
                "add_scalars needs 1×1 inputs"
            );
            total += self.value(s).get(0, 0);
        }
        self.push(Op::AddScalars(scalars), Matrix::full(1, 1, total), None)
    }

    /// Runs the backward pass from a `1×1` loss and returns parameter
    /// gradients.
    ///
    /// Every product term of a rule (`g·Wᵀ`, `xᵀ·g`, …) is added into its
    /// operand's gradient in place ([`Kernel::matmul_add_into`],
    /// [`Kernel::t_matmul_add_into`]); a gradient not yet reached starts
    /// zero-filled. That gives the bits of forming each term as a fresh
    /// product and adding it with [`Matrix::add_assign`] (or moving it into
    /// an empty slot: a product's chain starts at `+0.0`, so it never ends
    /// at `-0.0`). Products read node values only, never gradients, so each
    /// term is added as soon as it is formed, in the rule's operand order.
    ///
    /// # Panics
    /// Panics if `loss` is not `1×1`.
    pub fn backward(&self, loss: VarId) -> GradStore {
        assert_eq!(
            self.value(loss).shape(),
            (1, 1),
            "backward needs a scalar loss"
        );
        let mut grads: Vec<Option<Matrix>> = vec![None; self.nodes.len()];
        grads[loss.0] = Some(Matrix::full(1, 1, 1.0));
        let mut store = GradStore::new();
        let mut transposes = HashMap::new();
        let kernel = Kernel::global();

        for idx in (0..self.nodes.len()).rev() {
            let grad = match grads[idx].take() {
                Some(g) => g,
                None => continue,
            };
            let node = &self.nodes[idx];
            if let Some(pid) = node.param {
                store.accumulate(pid, &grad);
            }
            match &node.op {
                Op::Leaf => {}
                Op::MatMul(a, b) => {
                    let da = self.slot(&mut grads, *a);
                    self.add_times_transpose(kernel, &mut transposes, &grad, *b, da);
                    let db = self.slot(&mut grads, *b);
                    kernel.t_matmul_add_into(&self.nodes[a.0].value, &grad, db);
                }
                Op::Add(a, b) => {
                    accumulate(&mut grads, *a, grad.clone());
                    accumulate(&mut grads, *b, grad);
                }
                Op::Sub(a, b) => {
                    accumulate(&mut grads, *b, grad.map(|x| -x));
                    accumulate(&mut grads, *a, grad);
                }
                Op::Mul(a, b) => {
                    let da = grad.zip(&self.nodes[b.0].value, |g, y| g * y);
                    let db = grad.zip(&self.nodes[a.0].value, |g, x| g * x);
                    accumulate(&mut grads, *a, da);
                    accumulate(&mut grads, *b, db);
                }
                Op::AddRow(a, row) => {
                    let drow = column_sums(&grad);
                    accumulate(&mut grads, *a, grad);
                    accumulate(&mut grads, *row, drow);
                }
                Op::Affine(a, alpha) => {
                    accumulate(&mut grads, *a, grad.map(|g| alpha * g));
                }
                Op::Sigmoid(a) => {
                    let dx = grad.zip(&node.value, |g, y| g * y * (1.0 - y));
                    accumulate(&mut grads, *a, dx);
                }
                Op::Tanh(a) => {
                    let dx = grad.zip(&node.value, |g, y| g * (1.0 - y * y));
                    accumulate(&mut grads, *a, dx);
                }
                Op::Relu(a) => {
                    let dx = grad.zip(&self.nodes[a.0].value, |g, x| if x > 0.0 { g } else { 0.0 });
                    accumulate(&mut grads, *a, dx);
                }
                Op::ConcatCols(a, b) => {
                    let ca = self.nodes[a.0].value.cols();
                    let n = grad.rows();
                    let mut da = Matrix::zeros(n, ca);
                    let mut db = Matrix::zeros(n, grad.cols() - ca);
                    for r in 0..n {
                        da.row_mut(r).copy_from_slice(&grad.row(r)[..ca]);
                        db.row_mut(r).copy_from_slice(&grad.row(r)[ca..]);
                    }
                    accumulate(&mut grads, *a, da);
                    accumulate(&mut grads, *b, db);
                }
                Op::GatherRows(sources) => {
                    for (i, &(var, row)) in sources.iter().enumerate() {
                        let entry = self.slot(&mut grads, var);
                        for (o, &g) in entry.row_mut(row).iter_mut().zip(grad.row(i)) {
                            *o += g;
                        }
                    }
                }
                Op::SegmentSum { src, segments } => {
                    let shape = self.nodes[src.0].value.shape();
                    let mut dsrc = Matrix::zeros(shape.0, shape.1);
                    for (i, &seg) in segments.iter().enumerate() {
                        dsrc.row_mut(i).copy_from_slice(grad.row(seg));
                    }
                    accumulate(&mut grads, *src, dsrc);
                }
                Op::SegmentSoftmax { src, segments } => {
                    // ds_i = y_i * (g_i - Σ_{j in seg} y_j g_j)
                    let y = &node.value;
                    let num_segments = segments.iter().copied().max().map_or(0, |s| s + 1);
                    let mut seg_dot = vec![0.0f32; num_segments];
                    for (i, &seg) in segments.iter().enumerate() {
                        seg_dot[seg] += y.get(i, 0) * grad.get(i, 0);
                    }
                    let mut dsrc = Matrix::zeros(y.rows(), 1);
                    for (i, &seg) in segments.iter().enumerate() {
                        dsrc.set(i, 0, y.get(i, 0) * (grad.get(i, 0) - seg_dot[seg]));
                    }
                    accumulate(&mut grads, *src, dsrc);
                }
                Op::MulCol(a, col) => {
                    let av = &self.nodes[a.0].value;
                    let mut da = Matrix::default();
                    ops::mul_col_into(&grad, &self.nodes[col.0].value, &mut da);
                    let mut dcol = Matrix::zeros(av.rows(), 1);
                    for (r, d) in dcol.data_mut().iter_mut().enumerate() {
                        let pairs = grad.row(r).iter().zip(av.row(r));
                        *d = pairs.fold(0.0, |acc, (&g, &x)| acc + g * x);
                    }
                    accumulate(&mut grads, *a, da);
                    accumulate(&mut grads, *col, dcol);
                }
                Op::FusedGate { x, w, h, u, b, act } => {
                    // Same chain rule as the unfused sequence: activation
                    // derivative from the stored output, then the two matmul
                    // backward pairs and the bias row-sum.
                    let y = &node.value;
                    let g = match act {
                        Act::Identity => grad.clone(),
                        Act::Sigmoid => grad.zip(y, |g, y| g * y * (1.0 - y)),
                        Act::Tanh => grad.zip(y, |g, y| g * (1.0 - y * y)),
                        Act::Relu => grad.zip(y, |g, y| if y > 0.0 { g } else { 0.0 }),
                    };
                    let dx = self.slot(&mut grads, *x);
                    self.add_times_transpose(kernel, &mut transposes, &g, *w, dx);
                    let dw = self.slot(&mut grads, *w);
                    kernel.t_matmul_add_into(&self.nodes[x.0].value, &g, dw);
                    let dh = self.slot(&mut grads, *h);
                    self.add_times_transpose(kernel, &mut transposes, &g, *u, dh);
                    let du = self.slot(&mut grads, *u);
                    kernel.t_matmul_add_into(&self.nodes[h.0].value, &g, du);
                    if let Some(b) = b {
                        accumulate(&mut grads, *b, column_sums(&g));
                    }
                }
                Op::L1Loss {
                    pred,
                    target,
                    row_weights,
                } => {
                    let pv = &self.nodes[pred.0].value;
                    let (n, c) = pv.shape();
                    let mut weight_sum = 0.0f64;
                    for r in 0..n {
                        let w = row_weights.as_ref().map_or(1.0, |w| w[r]) as f64;
                        weight_sum += w * c as f64;
                    }
                    if weight_sum > 0.0 {
                        let g0 = grad.get(0, 0) / weight_sum as f32;
                        let dpred = Matrix::from_fn(n, c, |r, col| {
                            let w = row_weights.as_ref().map_or(1.0, |w| w[r]);
                            let d = pv.get(r, col) - target.get(r, col);
                            g0 * w * d.signum()
                        });
                        accumulate(&mut grads, *pred, dpred);
                    }
                }
                Op::AddScalars(scalars) => {
                    for &s in scalars {
                        accumulate(&mut grads, s, grad.clone());
                    }
                }
            }
        }
        store
    }

    /// The gradient of `var`, zero-filled on first use, for terms added
    /// into it in place.
    fn slot<'g>(&self, grads: &'g mut [Option<Matrix>], var: VarId) -> &'g mut Matrix {
        let (rows, cols) = self.nodes[var.0].value.shape();
        grads[var.0].get_or_insert_with(|| Matrix::zeros(rows, cols))
    }

    /// Adds `g · value(v)ᵀ` to `dest` on `kernel`, with the bits of adding
    /// [`Matrix::matmul_t`], through a transpose of `v` made on its first
    /// use in this backward pass and kept in `transposes`: a weight leaf
    /// that every level reads (one leaf per weight under
    /// [`TapeOps`](crate::TapeOps)) is transposed once per pass instead of
    /// once per use.
    fn add_times_transpose(
        &self,
        kernel: Kernel,
        transposes: &mut HashMap<VarId, Matrix>,
        g: &Matrix,
        v: VarId,
        dest: &mut Matrix,
    ) {
        let vt = transposes
            .entry(v)
            .or_insert_with(|| self.nodes[v.0].value.transpose());
        kernel.matmul_add_into(g, vt, dest);
    }
}

/// The `1×c` column sums of `g`, each summed over ascending rows from zero
/// (the bias gradient of a broadcast row add).
fn column_sums(g: &Matrix) -> Matrix {
    let mut sums = Matrix::zeros(1, g.cols());
    for r in 0..g.rows() {
        for (s, &v) in sums.data_mut().iter_mut().zip(g.row(r)) {
            *s += v;
        }
    }
    sums
}

fn accumulate(grads: &mut [Option<Matrix>], var: VarId, grad: Matrix) {
    match &mut grads[var.0] {
        Some(existing) => existing.add_assign(&grad),
        slot @ None => *slot = Some(grad),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Numerically checks dLoss/dParam for a tape-building closure.
    fn grad_check<F>(params: &mut Params, build: F, tol: f32)
    where
        F: Fn(&mut Tape, &Params) -> VarId,
    {
        let mut tape = Tape::new();
        let loss = build(&mut tape, params);
        let analytic = tape.backward(loss);
        let eps = 1e-3f32;
        let ids: Vec<ParamId> = params.iter().map(|(id, _, _)| id).collect();
        for id in ids {
            let (rows, cols) = params.get(id).shape();
            for r in 0..rows {
                for c in 0..cols {
                    let orig = params.get(id).get(r, c);
                    params.get_mut(id).set(r, c, orig + eps);
                    let mut tp = Tape::new();
                    let lp = build(&mut tp, params);
                    let fp = tp.value(lp).get(0, 0);
                    params.get_mut(id).set(r, c, orig - eps);
                    let mut tm = Tape::new();
                    let lm = build(&mut tm, params);
                    let fm = tm.value(lm).get(0, 0);
                    params.get_mut(id).set(r, c, orig);
                    let numeric = (fp - fm) / (2.0 * eps);
                    let a = analytic.get(id).map_or(0.0, |g| g.get(r, c));
                    assert!(
                        (a - numeric).abs() < tol,
                        "param {} ({r},{c}): analytic {a} vs numeric {numeric}",
                        params.name(id)
                    );
                }
            }
        }
    }

    fn rand_matrix(rng: &mut StdRng, rows: usize, cols: usize) -> Matrix {
        Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-1.0..1.0))
    }

    #[test]
    fn grad_matmul_chain() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut params = Params::new();
        let w1 = params.register("w1", rand_matrix(&mut rng, 3, 4));
        let w2 = params.register("w2", rand_matrix(&mut rng, 4, 2));
        let x = rand_matrix(&mut rng, 2, 3);
        let target = rand_matrix(&mut rng, 2, 2);
        grad_check(
            &mut params,
            move |tape, p| {
                let xv = tape.input(x.clone());
                let w1v = tape.param(p, w1);
                let w2v = tape.param(p, w2);
                let h = tape.matmul(xv, w1v);
                let h = tape.tanh(h);
                let y = tape.matmul(h, w2v);
                tape.l1_loss(y, &target)
            },
            2e-2,
        );
    }

    #[test]
    fn grad_sigmoid_relu_affine() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut params = Params::new();
        let w = params.register("w", rand_matrix(&mut rng, 2, 3));
        let x = rand_matrix(&mut rng, 4, 2);
        let target = rand_matrix(&mut rng, 4, 3);
        grad_check(
            &mut params,
            move |tape, p| {
                let xv = tape.input(x.clone());
                let wv = tape.param(p, w);
                let h = tape.matmul(xv, wv);
                let s = tape.sigmoid(h);
                let r = tape.relu(s);
                let a = tape.affine(r, 2.0, -0.5);
                tape.l1_loss(a, &target)
            },
            2e-2,
        );
    }

    #[test]
    fn grad_add_row_and_concat() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut params = Params::new();
        let w = params.register("w", rand_matrix(&mut rng, 2, 2));
        let b = params.register("b", rand_matrix(&mut rng, 1, 2));
        let x = rand_matrix(&mut rng, 3, 2);
        let target = rand_matrix(&mut rng, 3, 4);
        grad_check(
            &mut params,
            move |tape, p| {
                let xv = tape.input(x.clone());
                let wv = tape.param(p, w);
                let bv = tape.param(p, b);
                let h = tape.matmul(xv, wv);
                let h = tape.add_row(h, bv);
                let cat = tape.concat_cols(h, xv);
                tape.l1_loss(cat, &target)
            },
            2e-2,
        );
    }

    #[test]
    fn grad_gather_and_segment_ops() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut params = Params::new();
        let emb = params.register("emb", rand_matrix(&mut rng, 4, 3));
        let w = params.register("w", rand_matrix(&mut rng, 3, 1));
        let target = rand_matrix(&mut rng, 2, 3);
        grad_check(
            &mut params,
            move |tape, p| {
                let e = tape.param(p, emb);
                // Two segments: segment 0 has rows {0, 2}, segment 1 has {1, 3}.
                let gathered = tape.gather_rows(vec![(e, 0), (e, 2), (e, 1), (e, 3)]);
                let segs = vec![0, 0, 1, 1];
                let wv = tape.param(p, w);
                let scores = tape.matmul(gathered, wv);
                let alpha = tape.segment_softmax(scores, segs.clone());
                let weighted = tape.mul_col(gathered, alpha);
                let summed = tape.segment_sum(weighted, segs, 2);
                tape.l1_loss(summed, &target)
            },
            2e-2,
        );
    }

    #[test]
    fn grad_weighted_l1_and_scalar_sum() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut params = Params::new();
        let w = params.register("w", rand_matrix(&mut rng, 2, 2));
        let x = rand_matrix(&mut rng, 3, 2);
        let t1 = rand_matrix(&mut rng, 3, 2);
        let t2 = rand_matrix(&mut rng, 3, 2);
        grad_check(
            &mut params,
            move |tape, p| {
                let xv = tape.input(x.clone());
                let wv = tape.param(p, w);
                let h = tape.matmul(xv, wv);
                let l1 = tape.l1_loss_weighted(h, &t1, vec![1.0, 0.0, 2.0]);
                let l2 = tape.l1_loss(h, &t2);
                tape.add_scalars(vec![l1, l2])
            },
            2e-2,
        );
    }

    #[test]
    fn grad_mul_and_sub() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut params = Params::new();
        let a = params.register("a", rand_matrix(&mut rng, 2, 3));
        let b = params.register("b", rand_matrix(&mut rng, 2, 3));
        let target = rand_matrix(&mut rng, 2, 3);
        grad_check(
            &mut params,
            move |tape, p| {
                let av = tape.param(p, a);
                let bv = tape.param(p, b);
                let m = tape.mul(av, bv);
                let s = tape.sub(m, av);
                tape.l1_loss(s, &target)
            },
            2e-2,
        );
    }

    #[test]
    fn segment_softmax_normalizes_within_segments() {
        let mut tape = Tape::new();
        let scores = tape.input(Matrix::from_rows(&[&[1.0], &[2.0], &[0.5], &[3.0], &[1.5]]));
        let segs = vec![0, 0, 1, 1, 1];
        let alpha = tape.segment_softmax(scores, segs.clone());
        let v = tape.value(alpha);
        let s0: f32 = v.get(0, 0) + v.get(1, 0);
        let s1: f32 = v.get(2, 0) + v.get(3, 0) + v.get(4, 0);
        assert!((s0 - 1.0).abs() < 1e-6);
        assert!((s1 - 1.0).abs() < 1e-6);
        // Larger score ⇒ larger weight.
        assert!(v.get(1, 0) > v.get(0, 0));
        assert!(v.get(3, 0) > v.get(4, 0));
    }

    #[test]
    fn gather_rows_reads_multiple_sources() {
        let mut tape = Tape::new();
        let a = tape.input(Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]));
        let b = tape.input(Matrix::from_rows(&[&[5.0, 6.0]]));
        let g = tape.gather_rows(vec![(b, 0), (a, 1), (a, 0)]);
        assert_eq!(
            tape.value(g),
            &Matrix::from_rows(&[&[5.0, 6.0], &[3.0, 4.0], &[1.0, 2.0]])
        );
    }

    #[test]
    fn l1_loss_value() {
        let mut tape = Tape::new();
        let x = tape.input(Matrix::from_rows(&[&[1.0, -1.0], &[2.0, 0.0]]));
        let loss = tape.l1_loss(x, &Matrix::zeros(2, 2));
        assert!((tape.value(loss).get(0, 0) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn weighted_l1_drops_zero_rows() {
        let mut tape = Tape::new();
        let x = tape.input(Matrix::from_rows(&[&[10.0], &[2.0]]));
        let loss = tape.l1_loss_weighted(x, &Matrix::zeros(2, 1), vec![0.0, 1.0]);
        assert!((tape.value(loss).get(0, 0) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn unused_params_get_no_grad() {
        let mut params = Params::new();
        let w = params.register("w", Matrix::full(1, 1, 2.0));
        let unused = params.register("unused", Matrix::full(1, 1, 3.0));
        let mut tape = Tape::new();
        let wv = tape.param(&params, w);
        let _uv = tape.param(&params, unused);
        let loss = tape.l1_loss(wv, &Matrix::zeros(1, 1));
        let grads = tape.backward(loss);
        assert!(grads.get(w).is_some());
        assert!(grads.get(unused).is_none());
    }

    #[test]
    fn reused_transpose_keeps_matmul_t_bits() {
        // One weight read by a plain product and a fused gate: its one
        // transpose serves both backward rules, which must still give the
        // bits of `matmul_t` on the weight itself.
        let mut params = Params::new();
        let fill = |rows, cols, seed: f32| {
            Matrix::from_fn(rows, cols, |r, c| {
                ((r * cols + c) as f32 * 0.37 + seed).sin()
            })
        };
        let x = params.register("x", fill(5, 6, 0.1));
        let h = params.register("h", fill(5, 6, 0.2));
        let w = params.register("w", fill(6, 4, 0.3));
        let target = fill(5, 4, 0.4).map(|v| v + 50.0);
        let mut tape = Tape::new();
        let (xv, hv, wv) = (
            tape.param(&params, x),
            tape.param(&params, h),
            tape.param(&params, w),
        );
        let y1 = tape.matmul(xv, wv);
        let y2 = tape.fused_gate(hv, wv, xv, wv, None, Act::Identity);
        let sum = tape.add(y1, y2);
        let loss = tape.l1_loss(sum, &target);
        let grads = tape.backward(loss);
        // Every prediction is below its target: dL/dsum = -1/20 throughout.
        let g = Matrix::full(5, 4, -1.0 / 20.0);
        let gwt = Kernel::Naive.matmul_t(&g, params.get(w));
        let mut dx = gwt.clone();
        dx.add_assign(&gwt);
        let bits = |m: &Matrix| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(grads.get(h).unwrap()), bits(&gwt));
        assert_eq!(bits(grads.get(x).unwrap()), bits(&dx));
    }
}
