//! Neural layers: [`Linear`], [`Mlp`] (the paper's 3-layer regressor
//! heads), [`GruCell`] (the Combine function, Eq. 8) and
//! [`AdditiveAttention`] (the scoring of Eq. 5/6).
//!
//! Layers own [`ParamId`]s into a shared [`Params`] store and are written
//! once against the [`Ops`] trait: the same `forward` records on a tape
//! ([`TapeOps`](crate::TapeOps)) for training and evaluates into scratch
//! buffers for serving.

use rand::Rng;

use crate::kernels::Act;
use crate::ops::Ops;
use crate::params::{ParamId, Params};

/// Fully connected layer `y = x·W + b`.
#[derive(Debug, Clone)]
pub struct Linear {
    w: ParamId,
    b: ParamId,
    in_dim: usize,
    out_dim: usize,
}

impl Linear {
    /// Registers a Xavier-initialized linear layer under `name`.
    pub fn new<R: Rng + ?Sized>(
        params: &mut Params,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        rng: &mut R,
    ) -> Self {
        Linear {
            w: params.register_xavier(format!("{name}.w"), in_dim, out_dim, rng),
            b: params.register_zeros(format!("{name}.b"), 1, out_dim),
            in_dim,
            out_dim,
        }
    }

    /// Input feature dimension.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output feature dimension.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// `act(x·W + b)`.
    pub fn forward<O: Ops>(&self, ops: &mut O, x: O::Value, act: Act) -> O::Value {
        ops.linear(x, self.w, self.b, act)
    }
}

/// Multi-layer perceptron with ReLU between layers (paper Section IV-A3:
/// "the regressor consists of 2 independent sets of 3-MLPs ... ReLU is used
/// as the activation function between MLP layers").
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Linear>,
}

impl Mlp {
    /// Registers an MLP with the given layer widths, e.g. `[64, 32, 32, 2]`.
    ///
    /// # Panics
    /// Panics if fewer than two dims are given.
    pub fn new<R: Rng + ?Sized>(
        params: &mut Params,
        name: &str,
        dims: &[usize],
        rng: &mut R,
    ) -> Self {
        assert!(
            dims.len() >= 2,
            "an MLP needs at least input and output dims"
        );
        let layers = dims
            .windows(2)
            .enumerate()
            .map(|(i, pair)| Linear::new(params, &format!("{name}.{i}"), pair[0], pair[1], rng))
            .collect();
        Mlp { layers }
    }

    /// The forward pass (ReLU between layers, none after the last).
    pub fn forward<O: Ops>(&self, ops: &mut O, x: O::Value) -> O::Value {
        let mut h = x;
        for (i, layer) in self.layers.iter().enumerate() {
            let act = if i + 1 < self.layers.len() {
                Act::Relu
            } else {
                Act::Identity
            };
            h = layer.forward(ops, h, act);
        }
        h
    }

    /// Number of layers.
    pub fn depth(&self) -> usize {
        self.layers.len()
    }
}

/// Gated recurrent unit cell — the Combine function of Eq. (4)/(8):
/// `h' = GRU([m, x], h)`.
///
/// Standard formulation:
/// `z = σ(i·Wz + h·Uz + bz)`, `r = σ(i·Wr + h·Ur + br)`,
/// `n = tanh(i·Wn + (r⊙h)·Un + bn)`, `h' = (1-z)⊙n + z⊙h`.
#[derive(Debug, Clone)]
pub struct GruCell {
    wz: ParamId,
    uz: ParamId,
    bz: ParamId,
    wr: ParamId,
    ur: ParamId,
    br: ParamId,
    wn: ParamId,
    un: ParamId,
    bn: ParamId,
    input_dim: usize,
    hidden_dim: usize,
}

impl GruCell {
    /// Registers a GRU cell under `name`.
    pub fn new<R: Rng + ?Sized>(
        params: &mut Params,
        name: &str,
        input_dim: usize,
        hidden_dim: usize,
        rng: &mut R,
    ) -> Self {
        let mut reg_w = |suffix: &str, rows: usize| {
            params.register_xavier(format!("{name}.{suffix}"), rows, hidden_dim, rng)
        };
        let wz = reg_w("wz", input_dim);
        let uz = reg_w("uz", hidden_dim);
        let wr = reg_w("wr", input_dim);
        let ur = reg_w("ur", hidden_dim);
        let wn = reg_w("wn", input_dim);
        let un = reg_w("un", hidden_dim);
        let bz = params.register_zeros(format!("{name}.bz"), 1, hidden_dim);
        let br = params.register_zeros(format!("{name}.br"), 1, hidden_dim);
        let bn = params.register_zeros(format!("{name}.bn"), 1, hidden_dim);
        GruCell {
            wz,
            uz,
            bz,
            wr,
            ur,
            br,
            wn,
            un,
            bn,
            input_dim,
            hidden_dim,
        }
    }

    /// Input feature dimension.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Hidden state dimension.
    pub fn hidden_dim(&self) -> usize {
        self.hidden_dim
    }

    /// One GRU step: `input` is `n×input_dim`, `hidden` is
    /// `n×hidden_dim`; returns the new `n×hidden_dim` state.
    ///
    /// Each gate is one fused op ([`Ops::fused_gate`],
    /// `act(x·W + h·U + b)`) — numerically identical to the unfused op
    /// chain, but the tape stores one intermediate per gate instead of
    /// five.
    pub fn forward<O: Ops>(&self, ops: &mut O, input: O::Value, hidden: O::Value) -> O::Value {
        let z = ops.fused_gate(input, self.wz, hidden, self.uz, Some(self.bz), Act::Sigmoid);
        let r = ops.fused_gate(input, self.wr, hidden, self.ur, Some(self.br), Act::Sigmoid);
        let rh = ops.mul(r, hidden);
        let n = ops.fused_gate(input, self.wn, rh, self.un, Some(self.bn), Act::Tanh);
        ops.gru_blend(z, n, hidden)
    }
}

/// Additive attention scorer (Thost & Chen style, used by Eq. 5/6):
/// `score(query, key) = queryᵀ·w1 + keyᵀ·w2` — a scalar per row pair.
#[derive(Debug, Clone)]
pub struct AdditiveAttention {
    w1: ParamId,
    w2: ParamId,
}

impl AdditiveAttention {
    /// Registers scoring vectors for `dim`-dimensional states.
    pub fn new<R: Rng + ?Sized>(params: &mut Params, name: &str, dim: usize, rng: &mut R) -> Self {
        AdditiveAttention {
            w1: params.register_xavier(format!("{name}.w1"), dim, 1, rng),
            w2: params.register_xavier(format!("{name}.w2"), dim, 1, rng),
        }
    }

    /// Scores queries (`n×d`) against keys (`m×d`) that were pre-aligned:
    /// returns `query·w1 + key·w2` where both operands are `k×d` matrices
    /// with matching rows, yielding a `k×1` score column: one fused op
    /// ([`Ops::fused_gate`] without bias or activation).
    pub fn score<O: Ops>(&self, ops: &mut O, query: O::Value, key: O::Value) -> O::Value {
        ops.fused_gate(query, self.w1, key, self.w2, None, Act::Identity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;
    use crate::ops::TapeOps;
    use crate::tape::Tape;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn linear_shapes() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut params = Params::new();
        let lin = Linear::new(&mut params, "lin", 3, 5, &mut rng);
        assert_eq!(lin.in_dim(), 3);
        assert_eq!(lin.out_dim(), 5);
        let mut tape = Tape::new();
        let x = tape.input(Matrix::zeros(7, 3));
        let y = lin.forward(&mut TapeOps::new(&mut tape, &params), x, Act::Identity);
        assert_eq!(tape.value(y).shape(), (7, 5));
    }

    #[test]
    fn linear_zero_weights_give_bias() {
        let mut params = Params::new();
        let w = params.register("l.w", Matrix::zeros(2, 2));
        let b = params.register("l.b", Matrix::from_rows(&[&[1.0, -1.0]]));
        let _ = (w, b);
        let lin = Linear {
            w: params.find("l.w").unwrap(),
            b: params.find("l.b").unwrap(),
            in_dim: 2,
            out_dim: 2,
        };
        let mut tape = Tape::new();
        let x = tape.input(Matrix::full(3, 2, 5.0));
        let y = lin.forward(&mut TapeOps::new(&mut tape, &params), x, Act::Identity);
        for r in 0..3 {
            assert_eq!(tape.value(y).get(r, 0), 1.0);
            assert_eq!(tape.value(y).get(r, 1), -1.0);
        }
    }

    #[test]
    fn mlp_depth_and_shapes() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut params = Params::new();
        let mlp = Mlp::new(&mut params, "head", &[8, 16, 16, 2], &mut rng);
        assert_eq!(mlp.depth(), 3);
        let mut tape = Tape::new();
        let x = tape.input(Matrix::zeros(4, 8));
        let y = mlp.forward(&mut TapeOps::new(&mut tape, &params), x);
        assert_eq!(tape.value(y).shape(), (4, 2));
    }

    #[test]
    #[should_panic(expected = "at least input and output")]
    fn mlp_needs_two_dims() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut params = Params::new();
        let _ = Mlp::new(&mut params, "bad", &[8], &mut rng);
    }

    #[test]
    fn gru_keeps_state_shape() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut params = Params::new();
        let gru = GruCell::new(&mut params, "gru", 6, 4, &mut rng);
        assert_eq!(gru.input_dim(), 6);
        assert_eq!(gru.hidden_dim(), 4);
        let mut tape = Tape::new();
        let x = tape.input(Matrix::zeros(5, 6));
        let h = tape.input(Matrix::zeros(5, 4));
        let h2 = gru.forward(&mut TapeOps::new(&mut tape, &params), x, h);
        assert_eq!(tape.value(h2).shape(), (5, 4));
    }

    #[test]
    fn gru_zero_input_zero_state_stays_bounded() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut params = Params::new();
        let gru = GruCell::new(&mut params, "gru", 3, 3, &mut rng);
        let mut tape = Tape::new();
        let x = tape.input(Matrix::zeros(2, 3));
        let mut h = tape.input(Matrix::zeros(2, 3));
        let mut ops = TapeOps::new(&mut tape, &params);
        for _ in 0..20 {
            h = gru.forward(&mut ops, x, h);
        }
        // Bounded by tanh range.
        for &v in tape.value(h).data() {
            assert!(v.abs() <= 1.0 + 1e-5);
        }
    }

    #[test]
    fn gru_is_trainable() {
        // One gradient step must reduce L1 loss towards a constant target.
        let mut rng = StdRng::seed_from_u64(4);
        let mut params = Params::new();
        let gru = GruCell::new(&mut params, "gru", 2, 2, &mut rng);
        let x = Matrix::from_rows(&[&[0.5, -0.3]]);
        let h0 = Matrix::from_rows(&[&[0.1, 0.2]]);
        let target = Matrix::from_rows(&[&[0.9, -0.9]]);
        let loss_value = |params: &Params| {
            let mut tape = Tape::new();
            let xv = tape.input(x.clone());
            let hv = tape.input(h0.clone());
            let h1 = gru.forward(&mut TapeOps::new(&mut tape, params), xv, hv);
            let loss = tape.l1_loss(h1, &target);
            (tape.value(loss).get(0, 0), tape, loss)
        };
        let (before, tape, loss) = loss_value(&params);
        let grads = tape.backward(loss);
        let mut opt = crate::optim::Adam::new(0.05);
        opt.step(&mut params, &grads);
        let (after, _, _) = loss_value(&params);
        assert!(after < before, "loss {before} -> {after}");
    }

    #[test]
    fn attention_score_shape() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut params = Params::new();
        let att = AdditiveAttention::new(&mut params, "att", 4, &mut rng);
        let mut tape = Tape::new();
        let q = tape.input(Matrix::zeros(6, 4));
        let k = tape.input(Matrix::zeros(6, 4));
        let s = att.score(&mut TapeOps::new(&mut tape, &params), q, k);
        assert_eq!(tape.value(s).shape(), (6, 1));
    }
}
