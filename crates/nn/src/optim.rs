//! Optimizers. The paper trains every model with ADAM at learning rate
//! `1e-4` (Section IV-A3); [`Adam`] implements the standard bias-corrected
//! variant, with optional global-norm gradient clipping.

use std::collections::HashMap;

use crate::matrix::Matrix;
use crate::params::{GradStore, ParamId, Params};

/// The ADAM optimizer (Kingma & Ba).
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    clip_norm: Option<f32>,
    m: HashMap<ParamId, Matrix>,
    v: HashMap<ParamId, Matrix>,
    t: u32,
}

impl Adam {
    /// ADAM with the usual defaults (`β₁ = 0.9`, `β₂ = 0.999`, `ε = 1e-8`).
    pub fn new(lr: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            clip_norm: None,
            m: HashMap::new(),
            v: HashMap::new(),
            t: 0,
        }
    }

    /// Enables global-norm gradient clipping.
    pub fn with_clip_norm(mut self, max_norm: f32) -> Self {
        self.clip_norm = Some(max_norm);
        self
    }

    /// The learning rate.
    pub fn lr(&self) -> f32 {
        self.lr
    }

    /// Changes the learning rate (e.g. for fine-tuning schedules).
    pub fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }

    /// Number of steps taken.
    pub fn steps(&self) -> u32 {
        self.t
    }

    /// Applies one update from `grads` to `params`. Parameters without
    /// gradients are untouched.
    pub fn step(&mut self, params: &mut Params, grads: &GradStore) {
        let mut grads_scale = 1.0f32;
        if let Some(max_norm) = self.clip_norm {
            let norm = grads.global_norm();
            if norm > max_norm && norm > 0.0 {
                grads_scale = max_norm / norm;
            }
        }
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        let ids: Vec<ParamId> = params.iter().map(|(id, _, _)| id).collect();
        for id in ids {
            let Some(grad) = grads.get(id) else { continue };
            let (rows, cols) = params.get(id).shape();
            let m = self
                .m
                .entry(id)
                .or_insert_with(|| Matrix::zeros(rows, cols));
            let v = self
                .v
                .entry(id)
                .or_insert_with(|| Matrix::zeros(rows, cols));
            let value = params.get_mut(id);
            let moments = m.data_mut().iter_mut().zip(v.data_mut());
            let entries = value.data_mut().iter_mut().zip(grad.data()).zip(moments);
            for ((p, &g), (m, v)) in entries {
                let g = g * grads_scale;
                let mi = self.beta1 * *m + (1.0 - self.beta1) * g;
                let vi = self.beta2 * *v + (1.0 - self.beta2) * g * g;
                *m = mi;
                *v = vi;
                let m_hat = mi / bc1;
                let v_hat = vi / bc2;
                *p -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tape::Tape;

    /// Minimizes |w - 3| from w = 0; ADAM must converge close to 3.
    #[test]
    fn adam_converges_on_scalar_l1() {
        let mut params = Params::new();
        let w = params.register("w", Matrix::zeros(1, 1));
        let target = Matrix::full(1, 1, 3.0);
        let mut opt = Adam::new(0.1);
        for _ in 0..200 {
            let mut tape = Tape::new();
            let wv = tape.param(&params, w);
            let loss = tape.l1_loss(wv, &target);
            let grads = tape.backward(loss);
            opt.step(&mut params, &grads);
        }
        let final_w = params.get(w).get(0, 0);
        assert!((final_w - 3.0).abs() < 0.2, "w = {final_w}");
        assert_eq!(opt.steps(), 200);
    }

    #[test]
    fn adam_fits_linear_regression() {
        // y = x * [2, -1]^T; fit with L1.
        let mut params = Params::new();
        let w = params.register("w", Matrix::zeros(2, 1));
        let x = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0], &[2.0, 1.0]]);
        let y = Matrix::from_rows(&[&[2.0], &[-1.0], &[1.0], &[3.0]]);
        let mut opt = Adam::new(0.05);
        for _ in 0..500 {
            let mut tape = Tape::new();
            let xv = tape.input(x.clone());
            let wv = tape.param(&params, w);
            let pred = tape.matmul(xv, wv);
            let loss = tape.l1_loss(pred, &y);
            let grads = tape.backward(loss);
            opt.step(&mut params, &grads);
        }
        assert!((params.get(w).get(0, 0) - 2.0).abs() < 0.15);
        assert!((params.get(w).get(1, 0) + 1.0).abs() < 0.15);
    }

    #[test]
    fn clipping_bounds_update_magnitude() {
        let mut params = Params::new();
        let w = params.register("w", Matrix::zeros(1, 1));
        let mut grads = GradStore::new();
        grads.accumulate(w, &Matrix::full(1, 1, 1e6));
        let mut opt = Adam::new(0.1).with_clip_norm(1.0);
        opt.step(&mut params, &grads);
        // First ADAM step magnitude is bounded by lr regardless, but the
        // clipped gradient also keeps moments sane.
        assert!(params.get(w).get(0, 0).abs() <= 0.11);
    }

    #[test]
    fn untouched_params_stay_put() {
        let mut params = Params::new();
        let a = params.register("a", Matrix::full(1, 1, 7.0));
        let b = params.register("b", Matrix::full(1, 1, 9.0));
        let mut grads = GradStore::new();
        grads.accumulate(a, &Matrix::full(1, 1, 1.0));
        let mut opt = Adam::new(0.1);
        opt.step(&mut params, &grads);
        assert_ne!(params.get(a).get(0, 0), 7.0);
        assert_eq!(params.get(b).get(0, 0), 9.0);
    }

    #[test]
    fn set_lr_changes_rate() {
        let mut opt = Adam::new(0.1);
        opt.set_lr(0.001);
        assert_eq!(opt.lr(), 0.001);
    }
}
