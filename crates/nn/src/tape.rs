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
    /// `act(x·w [+ h·u] [+ b])`: a GRU gate or an attention score with
    /// the second product, a dense layer without it.
    FusedGate {
        x: VarId,
        w: VarId,
        second: Option<(VarId, VarId)>,
        b: Option<VarId>,
        act: Act,
    },
    /// `(1 - z) ⊙ n + z ⊙ h`.
    GruBlend {
        z: VarId,
        n: VarId,
        h: VarId,
    },
    L1Loss {
        pred: VarId,
        target: Matrix,
        row_weights: Option<Vec<f32>>,
    },
    AddScalars(Vec<VarId>),
}

impl Op {
    /// True if `f` holds for any operand.
    fn any_operand(&self, mut f: impl FnMut(VarId) -> bool) -> bool {
        match self {
            Op::Leaf => false,
            Op::MatMul(a, b)
            | Op::Add(a, b)
            | Op::Sub(a, b)
            | Op::Mul(a, b)
            | Op::AddRow(a, b)
            | Op::ConcatCols(a, b)
            | Op::MulCol(a, b) => f(*a) || f(*b),
            Op::Affine(a, _) | Op::Sigmoid(a) | Op::Tanh(a) | Op::Relu(a) => f(*a),
            Op::SegmentSum { src, .. } | Op::SegmentSoftmax { src, .. } => f(*src),
            Op::GatherRows(sources) => sources.iter().any(|&(v, _)| f(v)),
            Op::FusedGate {
                x, w, second, b, ..
            } => {
                f(*x) || f(*w) || second.is_some_and(|(h, u)| f(h) || f(u)) || b.is_some_and(&mut f)
            }
            Op::GruBlend { z, n, h } => f(*z) || f(*n) || f(*h),
            Op::L1Loss { pred, .. } => f(*pred),
            Op::AddScalars(scalars) => scalars.iter().any(|&s| f(s)),
        }
    }
}

#[derive(Debug, Clone)]
struct Node {
    op: Op,
    value: Matrix,
    param: Option<ParamId>,
    /// True if a parameter is reachable from this value: only such values
    /// get a gradient in [`Tape::backward`].
    needs_grad: bool,
}

/// A recorded computation (see the [module documentation](self)).
///
/// Each recorded value notes whether any parameter is reachable from it.
/// Inputs ([`Tape::input`]) and every value computed from inputs alone
/// (gathers of a circuit's initial states or node features) get no
/// gradient, so the backward pass forms no product, row or buffer for
/// them. Layer ops record one node each: [`Tape::fused_gate`],
/// [`Tape::linear`] and [`Tape::gru_blend`] store one matrix where their
/// unfused chains store three to five, with the same bits.
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
    /// allocation, so one tape can be reused across many samples: the
    /// training loop keeps one tape per worker task across optimizer steps
    /// and resets it before each sample instead of reallocating.
    pub fn reset(&mut self) {
        self.nodes.clear();
    }

    /// The value of a variable.
    pub fn value(&self, v: VarId) -> &Matrix {
        &self.nodes[v.0].value
    }

    fn push(&mut self, op: Op, value: Matrix, param: Option<ParamId>) -> VarId {
        let needs_grad = param.is_some() || op.any_operand(|v| self.nodes[v.0].needs_grad);
        let id = VarId(self.nodes.len());
        self.nodes.push(Node {
            op,
            value,
            param,
            needs_grad,
        });
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
        let mut value = self.value(a).clone();
        value.add_row_assign(self.value(row));
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
        let mut data = Vec::with_capacity(sources.len() * c);
        for &(var, row) in &sources {
            let src = self.value(var);
            assert_eq!(src.cols(), c, "gather_rows column mismatch");
            data.extend_from_slice(src.row(row));
        }
        let value = Matrix::from_vec(sources.len(), c, data);
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
        self.fused(x, w, Some((h, u)), b, act)
    }

    /// Fused `act(x·w + b)` — one dense layer — as a single tape node, with
    /// the bits of `matmul`, `add_row` and the activation op recorded one by
    /// one. The value comes from the fused kernel entry point without a
    /// second product, as the serving backend computes the readout heads.
    ///
    /// # Panics
    /// Panics on operand dimension mismatches.
    pub fn linear(&mut self, x: VarId, w: VarId, b: VarId, act: Act) -> VarId {
        self.fused(x, w, None, Some(b), act)
    }

    /// Records `act(x·w [+ h·u] [+ b])`, valued by the fused kernel entry
    /// point.
    fn fused(
        &mut self,
        x: VarId,
        w: VarId,
        second: Option<(VarId, VarId)>,
        b: Option<VarId>,
        act: Act,
    ) -> VarId {
        let mut out = Matrix::default();
        Kernel::global().matmul_bias_act(
            self.value(x),
            self.value(w),
            second.map(|(h, u)| (self.value(h), self.value(u))),
            b.map(|b| self.value(b)),
            act,
            &mut out,
        );
        let op = Op::FusedGate {
            x,
            w,
            second,
            b,
            act,
        };
        self.push(op, out, None)
    }

    /// The GRU state update `(1 - z) ⊙ n + z ⊙ h` as a single tape node,
    /// with the bits of the chain `affine(z, -1, 1)`, `mul`, `mul`, `add`
    /// in value ([`ops::gru_blend_into`], which serving calls too) and in
    /// every gradient.
    ///
    /// # Panics
    /// Panics unless the three operands share one shape.
    pub fn gru_blend(&mut self, z: VarId, n: VarId, h: VarId) -> VarId {
        let mut value = Matrix::default();
        ops::gru_blend_into(self.value(z), self.value(n), self.value(h), &mut value);
        self.push(Op::GruBlend { z, n, h }, value, None)
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
    /// Every rule writes its terms straight into its operands' gradients,
    /// in the rule's operand order:
    /// - An element-wise term (`Add` … `Relu`, the blend, concatenation,
    ///   segment ops, `MulCol`, the bias column sums, the loss) is stored
    ///   into a gradient that is still empty and added with `+=` to a
    ///   filled one. Zero-filling and then adding would turn a `-0.0` term
    ///   into `+0.0`.
    /// - A product term (`g·Wᵀ`, `xᵀ·g`, …) is added in place
    ///   ([`Kernel::matmul_add_into`], [`Kernel::t_matmul_add_into`]) into
    ///   a gradient zero-filled on first use. That is safe for products
    ///   only: a product's chain starts at `+0.0`, so it never ends at
    ///   `-0.0`, and `+0.0 + chain` is the chain. Gathered rows are added
    ///   into a zero-filled gradient too, as they always were.
    ///
    /// Terms read node values only, never gradients, so the bits are those
    /// of forming each term as a fresh matrix and adding it. Values that no
    /// parameter reaches get no gradient and no terms. Once a node's rule
    /// has run, its gradient buffer serves the next empty gradient, and a
    /// fused gate's activation derivative reuses one buffer for the whole
    /// pass.
    ///
    /// # Panics
    /// Panics if `loss` is not `1×1`.
    pub fn backward(&self, loss: VarId) -> GradStore {
        assert_eq!(
            self.value(loss).shape(),
            (1, 1),
            "backward needs a scalar loss"
        );
        let mut grads = Grads {
            nodes: &self.nodes,
            slots: vec![None; self.nodes.len()],
            free: Vec::new(),
        };
        grads.slots[loss.0] = Some(Matrix::full(1, 1, 1.0));
        let mut store = GradStore::new();
        let mut transposes = HashMap::new();
        let kernel = Kernel::global();
        // The activation derivative of a fused gate, and column sums or
        // per-segment dot products, each reused by every rule of the pass.
        let mut dact = Matrix::default();
        let mut sums = Vec::new();

        for (idx, node) in self.nodes.iter().enumerate().rev() {
            let Some(grad) = grads.slots[idx].take() else {
                continue;
            };
            let g = grad.data();
            match &node.op {
                Op::Leaf => {
                    // Only parameter leaves need a gradient.
                    if let Some(pid) = node.param {
                        store.accumulate_owned(pid, grad);
                    }
                    continue;
                }
                Op::MatMul(a, b) => {
                    if let Some(da) = grads.zeroed(*a) {
                        self.add_times_transpose(kernel, &mut transposes, &grad, *b, da);
                    }
                    if let Some(db) = grads.zeroed(*b) {
                        kernel.t_matmul_add_into(&self.nodes[a.0].value, &grad, db);
                    }
                }
                Op::Add(a, b) => {
                    grads.term(*a, g.iter().copied());
                    grads.term(*b, g.iter().copied());
                }
                Op::Sub(a, b) => {
                    grads.term(*b, g.iter().map(|x| -x));
                    grads.term(*a, g.iter().copied());
                }
                Op::Mul(a, b) => {
                    let (av, bv) = (self.nodes[a.0].value.data(), self.nodes[b.0].value.data());
                    grads.term(*a, g.iter().zip(bv).map(|(g, y)| g * y));
                    grads.term(*b, g.iter().zip(av).map(|(g, x)| g * x));
                }
                Op::AddRow(a, row) => {
                    grads.term(*a, g.iter().copied());
                    column_sums_into(&grad, &mut sums);
                    grads.term(*row, sums.iter().copied());
                }
                Op::Affine(a, alpha) => {
                    grads.term(*a, g.iter().map(|g| alpha * g));
                }
                Op::Sigmoid(a) => {
                    let y = node.value.data();
                    grads.term(*a, g.iter().zip(y).map(|(g, y)| g * y * (1.0 - y)));
                }
                Op::Tanh(a) => {
                    let y = node.value.data();
                    grads.term(*a, g.iter().zip(y).map(|(g, y)| g * (1.0 - y * y)));
                }
                Op::Relu(a) => {
                    let x = self.nodes[a.0].value.data();
                    let relu = |(&g, &x): (&f32, &f32)| if x > 0.0 { g } else { 0.0 };
                    grads.term(*a, g.iter().zip(x).map(relu));
                }
                Op::ConcatCols(a, b) => {
                    let ca = self.nodes[a.0].value.cols();
                    let rows = || (0..grad.rows()).map(|r| grad.row(r));
                    grads.term_rows(*a, rows().map(|row| &row[..ca]));
                    grads.term_rows(*b, rows().map(|row| &row[ca..]));
                }
                Op::GatherRows(sources) => {
                    for (i, &(var, row)) in sources.iter().enumerate() {
                        if let Some(entry) = grads.zeroed(var) {
                            for (o, &g) in entry.row_mut(row).iter_mut().zip(grad.row(i)) {
                                *o += g;
                            }
                        }
                    }
                }
                Op::SegmentSum { src, segments } => {
                    grads.term_rows(*src, segments.iter().map(|&seg| grad.row(seg)));
                }
                Op::SegmentSoftmax { src, segments } => {
                    // ds_i = y_i * (g_i - Σ_{j in seg} y_j g_j)
                    let y = node.value.data();
                    let num_segments = segments.iter().copied().max().map_or(0, |s| s + 1);
                    sums.clear();
                    sums.resize(num_segments, 0.0);
                    for ((&seg, &y), &g) in segments.iter().zip(y).zip(g) {
                        sums[seg] += y * g;
                    }
                    let terms = segments.iter().zip(y).zip(g);
                    grads.term(*src, terms.map(|((&seg, &y), &g)| y * (g - sums[seg])));
                }
                Op::MulCol(a, col) => {
                    let (av, cv) = (&self.nodes[a.0].value, self.nodes[col.0].value.data());
                    let rows = 0..grad.rows();
                    let scaled = rows.clone().flat_map(|r| {
                        let s = cv[r];
                        grad.row(r).iter().map(move |&v| v * s)
                    });
                    grads.term(*a, scaled);
                    let dots = rows.map(|r| {
                        let pairs = grad.row(r).iter().zip(av.row(r));
                        pairs.fold(0.0, |acc, (&g, &x)| acc + g * x)
                    });
                    grads.term(*col, dots);
                }
                Op::FusedGate {
                    x,
                    w,
                    second,
                    b,
                    act,
                } => {
                    // Same chain rule as the unfused sequence: activation
                    // derivative from the stored output, then the matmul
                    // backward pairs and the bias row-sum.
                    let g = activation_grad(*act, &grad, &node.value, &mut dact);
                    if let Some(dx) = grads.zeroed(*x) {
                        self.add_times_transpose(kernel, &mut transposes, g, *w, dx);
                    }
                    if let Some(dw) = grads.zeroed(*w) {
                        kernel.t_matmul_add_into(&self.nodes[x.0].value, g, dw);
                    }
                    if let Some((h, u)) = second {
                        if let Some(dh) = grads.zeroed(*h) {
                            self.add_times_transpose(kernel, &mut transposes, g, *u, dh);
                        }
                        if let Some(du) = grads.zeroed(*u) {
                            kernel.t_matmul_add_into(&self.nodes[h.0].value, g, du);
                        }
                    }
                    if let Some(b) = b {
                        column_sums_into(g, &mut sums);
                        grads.term(*b, sums.iter().copied());
                    }
                }
                Op::GruBlend { z, n, h } => {
                    // The terms of the chain `affine(z, -1, 1)`, `mul`,
                    // `mul`, `add`, in the order it emits them (its
                    // products with `-1` are exactly negations).
                    let zv = self.nodes[z.0].value.data();
                    let nv = self.nodes[n.0].value.data();
                    let hv = self.nodes[h.0].value.data();
                    grads.term(*z, g.iter().zip(hv).map(|(g, h)| g * h));
                    grads.term(*h, g.iter().zip(zv).map(|(g, z)| g * z));
                    grads.term(*n, g.iter().zip(zv).map(|(g, z)| g * (-z + 1.0)));
                    grads.term(*z, g.iter().zip(nv).map(|(g, n)| -(g * n)));
                }
                Op::L1Loss {
                    pred,
                    target,
                    row_weights,
                } => {
                    let pv = &self.nodes[pred.0].value;
                    let (n, c) = pv.shape();
                    let weight = |r: usize| row_weights.as_ref().map_or(1.0, |w| w[r]);
                    let mut weight_sum = 0.0f64;
                    for r in 0..n {
                        weight_sum += weight(r) as f64 * c as f64;
                    }
                    if weight_sum > 0.0 {
                        let g0 = grad.get(0, 0) / weight_sum as f32;
                        let dpred = (0..n).flat_map(|r| {
                            let w = weight(r);
                            let pairs = pv.row(r).iter().zip(target.row(r));
                            pairs.map(move |(&p, &t)| g0 * w * (p - t).signum())
                        });
                        grads.term(*pred, dpred);
                    }
                }
                Op::AddScalars(scalars) => {
                    for &s in scalars {
                        grads.term(s, g.iter().copied());
                    }
                }
            }
            grads.recycle(grad);
        }
        store
    }

    /// Adds `g · value(v)ᵀ` to `dest` on `kernel` as `g × (value(v)ᵀ)`,
    /// through a transpose of `v` made on its first use in this backward
    /// pass and kept in `transposes`: a weight leaf that every level reads
    /// (one leaf per weight under [`TapeOps`](crate::TapeOps)) is
    /// transposed once per pass instead of once per use.
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

/// The gradients of one backward pass: a slot per node, filled only for
/// values that a parameter is reachable from, and the buffers of spent
/// gradients, which serve the next empty slots.
struct Grads<'t> {
    nodes: &'t [Node],
    slots: Vec<Option<Matrix>>,
    free: Vec<Vec<f32>>,
}

impl Grads<'_> {
    /// Emits one term, element by element in row-major order, into the
    /// gradient of `var`: stored into an empty gradient, added with `+=`
    /// to a filled one. A value no parameter reaches takes no term.
    fn term(&mut self, var: VarId, terms: impl Iterator<Item = f32>) {
        let node = &self.nodes[var.0];
        if !node.needs_grad {
            return;
        }
        match &mut self.slots[var.0] {
            Some(grad) => {
                for (g, t) in grad.data_mut().iter_mut().zip(terms) {
                    *g += t;
                }
            }
            slot @ None => {
                let mut data = self.free.pop().unwrap_or_default();
                data.clear();
                data.extend(terms);
                let (rows, cols) = node.value.shape();
                *slot = Some(Matrix::from_vec(rows, cols, data));
            }
        }
    }

    /// [`Grads::term`] with the term given row by row.
    fn term_rows<'r>(&mut self, var: VarId, rows: impl Iterator<Item = &'r [f32]>) {
        let node = &self.nodes[var.0];
        if !node.needs_grad {
            return;
        }
        match &mut self.slots[var.0] {
            Some(grad) => {
                for (r, row) in rows.enumerate() {
                    for (g, &t) in grad.row_mut(r).iter_mut().zip(row) {
                        *g += t;
                    }
                }
            }
            slot @ None => {
                let mut data = self.free.pop().unwrap_or_default();
                data.clear();
                for row in rows {
                    data.extend_from_slice(row);
                }
                let (rows, cols) = node.value.shape();
                *slot = Some(Matrix::from_vec(rows, cols, data));
            }
        }
    }

    /// The gradient of `var`, zero-filled on first use, for terms added
    /// into it in place (products and gathered rows); `None` for a value
    /// no parameter reaches.
    fn zeroed(&mut self, var: VarId) -> Option<&mut Matrix> {
        let node = &self.nodes[var.0];
        if !node.needs_grad {
            return None;
        }
        let free = &mut self.free;
        Some(self.slots[var.0].get_or_insert_with(|| {
            let (rows, cols) = node.value.shape();
            let mut data = free.pop().unwrap_or_default();
            data.clear();
            data.resize(rows * cols, 0.0);
            Matrix::from_vec(rows, cols, data)
        }))
    }

    /// Hands a spent gradient's buffer to the next empty slot.
    fn recycle(&mut self, grad: Matrix) {
        self.free.push(grad.into_data());
    }
}

/// `g ⊙ act'(y)`, from the activation's output `y`: `g` itself under
/// [`Act::Identity`], otherwise written into `out`.
fn activation_grad<'m>(act: Act, g: &'m Matrix, y: &Matrix, out: &'m mut Matrix) -> &'m Matrix {
    match act {
        Act::Identity => return g,
        Act::Sigmoid => zip_into(out, g, y, |g, y| g * y * (1.0 - y)),
        Act::Tanh => zip_into(out, g, y, |g, y| g * (1.0 - y * y)),
        Act::Relu => zip_into(out, g, y, |g, y| if y > 0.0 { g } else { 0.0 }),
    }
    out
}

/// Writes `f(a, b)` element-wise into `out`, reusing its buffer.
fn zip_into(out: &mut Matrix, a: &Matrix, b: &Matrix, f: impl Fn(f32, f32) -> f32) {
    let mut data = std::mem::take(out).into_data();
    data.clear();
    data.extend(a.data().iter().zip(b.data()).map(|(&a, &b)| f(a, b)));
    *out = Matrix::from_vec(a.rows(), a.cols(), data);
}

/// Writes the column sums of `g` into `sums`, each summed over ascending
/// rows from zero (the bias gradient of a broadcast row add).
fn column_sums_into(g: &Matrix, sums: &mut Vec<f32>) {
    sums.clear();
    sums.resize(g.cols(), 0.0);
    for r in 0..g.rows() {
        for (s, &v) in sums.iter_mut().zip(g.row(r)) {
            *s += v;
        }
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
    fn one_node_layer_ops_match_their_chains_bitwise() {
        // `linear` and `gru_blend` record one node each; their chains are
        // `matmul`, `add_row`, activation and `affine(z, -1, 1)`, `mul`,
        // `mul`, `add`. Every operand is a parameter, so every gradient
        // reaches the store. The tape runs the process's kernel; the
        // suite's `DEEPSEQ_KERNEL=naive` run covers the reference loops.
        let fill = |rows, cols, seed: f32| {
            Matrix::from_fn(rows, cols, |r, c| {
                ((r * cols + c) as f32 * 0.37 + seed).sin()
            })
        };
        let bits = |m: &Matrix| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        // Row 0 has weight zero and a target far below the output, so its
        // upstream gradient is `g0 · 0 · signum(+) = +0.0`, and `h ← g·z`
        // is a `-0.0` term into `h`'s empty gradient wherever `z < 0`.
        let weights = vec![0.0, 1.0, 2.0, 0.5];
        let target = Matrix::from_fn(4, 5, |r, c| if r == 0 { -10.0 } else { 0.1 * c as f32 });
        for act in [Act::Identity, Act::Sigmoid, Act::Tanh, Act::Relu] {
            let mut params = Params::new();
            let x = params.register("x", fill(4, 3, 0.1));
            let w = params.register("w", fill(3, 5, 0.2));
            let b = params.register("b", fill(1, 5, 0.3));
            let z = params.register("z", fill(4, 5, 3.0));
            let h = params.register("h", fill(4, 5, 0.5));
            assert!(params.get(z).row(0).iter().any(|&v| v < 0.0));
            let record = |one_node: bool| {
                let mut tape = Tape::new();
                let [xv, wv, bv, zv, hv] = [x, w, b, z, h].map(|id| tape.param(&params, id));
                let (y, out) = if one_node {
                    let y = tape.linear(xv, wv, bv, act);
                    (y, tape.gru_blend(zv, y, hv))
                } else {
                    let xw = tape.matmul(xv, wv);
                    let pre = tape.add_row(xw, bv);
                    let y = match act {
                        Act::Identity => pre,
                        Act::Sigmoid => tape.sigmoid(pre),
                        Act::Tanh => tape.tanh(pre),
                        Act::Relu => tape.relu(pre),
                    };
                    let one_minus_z = tape.affine(zv, -1.0, 1.0);
                    let kept = tape.mul(one_minus_z, y);
                    let carried = tape.mul(zv, hv);
                    (y, tape.add(kept, carried))
                };
                let loss = tape.l1_loss_weighted(out, &target, weights.clone());
                let grads = tape.backward(loss);
                (bits(tape.value(y)), bits(tape.value(out)), grads)
            };
            let ((y, out, got), (chain_y, chain_out, want)) = (record(true), record(false));
            assert_eq!(y, chain_y, "{act:?} linear value");
            assert_eq!(out, chain_out, "{act:?} blend value");
            for (id, name, _) in params.iter() {
                let (got, want) = (got.get(id).expect(name), want.get(id).expect(name));
                assert_eq!(bits(got), bits(want), "{act:?} gradient of {name}");
            }
            let dh = got.get(h).expect("h");
            for (c, &zc) in params.get(z).row(0).iter().enumerate() {
                assert_eq!(
                    dh.get(0, c).to_bits(),
                    (0.0 * zc).to_bits(),
                    "{act:?} dh[0][{c}]"
                );
            }
        }
    }

    #[test]
    fn reused_transpose_matches_a_fresh_transpose_bitwise() {
        // One weight read by a plain product and a fused gate: its one
        // transpose serves both backward rules, which must still give the
        // bits of a product with a transpose made for each use.
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
        let gwt = Kernel::Naive.matmul(&g, &params.get(w).transpose());
        let mut dx = gwt.clone();
        dx.add_assign(&gwt);
        let bits = |m: &Matrix| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(grads.get(h).unwrap()), bits(&gwt));
        assert_eq!(bits(grads.get(x).unwrap()), bits(&dx));
    }
}
