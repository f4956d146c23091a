//! Finite-difference gradient checks for **every** differentiable tape op,
//! on random small shapes under proptest.
//!
//! Each property builds a loss whose computation routes through exactly the
//! op under test (ending in an L1 loss against a target shifted far enough
//! that the |·| kink is never crossed within the finite-difference epsilon),
//! then compares the analytic gradient of every registered parameter entry
//! against central differences. Ops with their own kinks (`relu`, the
//! `Relu`-activated fused gate) generate inputs bounded away from the kink
//! so the numeric derivative is meaningful.
//!
//! The one-node layer ops (`linear` under all four activations,
//! `gru_blend`) get their own properties. Two more run a layer twice
//! through one `TapeOps`, whose second use reads the weight leaves of the
//! first.
//!
//! The deterministic per-op unit checks live in `crates/nn/src/tape.rs`;
//! this file is the randomized sweep the training subsystem's correctness
//! rests on — if any backward rule drifts from its forward, the
//! data-parallel trainer in `deepseq-core` would silently optimize the
//! wrong function.

use deepseq_nn::{Act, GruCell, Linear, Matrix, Params, Tape, TapeOps, VarId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

mod util;
use util::{close_rel, SeedRng};

/// Central-difference gradient check over every entry of every registered
/// parameter. Returns the first mismatch as an error message.
fn check_gradients<F>(params: &mut Params, build: F, tol: f32) -> Result<(), String>
where
    F: Fn(&mut Tape, &Params) -> VarId,
{
    let mut tape = Tape::new();
    let loss = build(&mut tape, params);
    let analytic = tape.backward(loss);
    let eps = 1e-2f32;
    let ids: Vec<_> = params.iter().map(|(id, _, _)| id).collect();
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
                if let Err(msg) = close_rel(&[a], &[numeric], tol) {
                    return Err(format!("param `{}` ({r},{c}): {msg}", params.name(id)));
                }
            }
        }
    }
    Ok(())
}

/// A target far above anything the graph can produce, so `|pred - target|`
/// never crosses its kink during finite differencing.
fn shifted_target(rng: &mut SeedRng, rows: usize, cols: usize, shift: f32) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| rng.smooth_value() + shift)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn grad_matmul(seed in any::<u64>()) {
        let mut rng = SeedRng(seed | 1);
        let (m, k, n) = (rng.dim(), rng.dim(), rng.dim());
        let x = rng.matrix(m, k);
        let t = shifted_target(&mut rng, m, n, 6.0);
        let mut params = Params::new();
        let w = params.register("w", rng.matrix(k, n));
        let ok = check_gradients(&mut params, move |tape, p| {
            let xv = tape.input(x.clone());
            let wv = tape.param(p, w);
            let y = tape.matmul(xv, wv);
            tape.l1_loss(y, &t)
        }, 5e-2);
        prop_assert!(ok.is_ok(), "{:?}", ok);
    }

    #[test]
    fn grad_add_sub_mul(seed in any::<u64>()) {
        let mut rng = SeedRng(seed | 1);
        let (m, n) = (rng.dim(), rng.dim());
        let t = shifted_target(&mut rng, m, n, 6.0);
        let mut params = Params::new();
        let a = params.register("a", rng.matrix(m, n));
        let b = params.register("b", rng.matrix(m, n));
        let c = params.register("c", rng.matrix(m, n));
        let ok = check_gradients(&mut params, move |tape, p| {
            let av = tape.param(p, a);
            let bv = tape.param(p, b);
            let cv = tape.param(p, c);
            let s = tape.add(av, bv);     // a + b
            let d = tape.sub(s, cv);      // a + b - c
            let prod = tape.mul(d, av);   // (a + b - c) ⊙ a
            tape.l1_loss(prod, &t)
        }, 5e-2);
        prop_assert!(ok.is_ok(), "{:?}", ok);
    }

    #[test]
    fn grad_add_row_and_affine(seed in any::<u64>()) {
        let mut rng = SeedRng(seed | 1);
        let (m, n) = (rng.dim(), rng.dim());
        let alpha = rng.smooth_value() * 2.0;
        let t = shifted_target(&mut rng, m, n, 8.0);
        let mut params = Params::new();
        let a = params.register("a", rng.matrix(m, n));
        let b = params.register("bias", rng.matrix(1, n));
        let ok = check_gradients(&mut params, move |tape, p| {
            let av = tape.param(p, a);
            let bv = tape.param(p, b);
            let y = tape.add_row(av, bv);
            let y = tape.affine(y, alpha, 0.25);
            tape.l1_loss(y, &t)
        }, 5e-2);
        prop_assert!(ok.is_ok(), "{:?}", ok);
    }

    #[test]
    fn grad_sigmoid_tanh(seed in any::<u64>()) {
        let mut rng = SeedRng(seed | 1);
        let (m, n) = (rng.dim(), rng.dim());
        let t = shifted_target(&mut rng, m, n, 4.0);
        let mut params = Params::new();
        let a = params.register("a", rng.matrix(m, n));
        let b = params.register("b", rng.matrix(m, n));
        let ok = check_gradients(&mut params, move |tape, p| {
            let av = tape.param(p, a);
            let bv = tape.param(p, b);
            let s = tape.sigmoid(av);
            let h = tape.tanh(bv);
            let y = tape.mul(s, h);
            tape.l1_loss(y, &t)
        }, 5e-2);
        prop_assert!(ok.is_ok(), "{:?}", ok);
    }

    #[test]
    fn grad_relu_off_kink(seed in any::<u64>()) {
        let mut rng = SeedRng(seed | 1);
        let (m, n) = (rng.dim(), rng.dim());
        // Inputs bounded away from the relu kink at zero: |v| ≥ 0.2 while
        // the FD epsilon is 1e-2, so the subgradient is well-defined at
        // every probe.
        let a0 = Matrix::from_fn(m, n, |_, _| rng.value_off_zero());
        let t = shifted_target(&mut rng, m, n, 4.0);
        let mut params = Params::new();
        let a = params.register("a", a0);
        let ok = check_gradients(&mut params, move |tape, p| {
            let av = tape.param(p, a);
            let y = tape.relu(av);
            tape.l1_loss(y, &t)
        }, 5e-2);
        prop_assert!(ok.is_ok(), "{:?}", ok);
    }

    #[test]
    fn grad_concat_cols(seed in any::<u64>()) {
        let mut rng = SeedRng(seed | 1);
        let (m, ca, cb) = (rng.dim(), rng.dim(), rng.dim());
        let t = shifted_target(&mut rng, m, ca + cb, 6.0);
        let mut params = Params::new();
        let a = params.register("a", rng.matrix(m, ca));
        let b = params.register("b", rng.matrix(m, cb));
        let ok = check_gradients(&mut params, move |tape, p| {
            let av = tape.param(p, a);
            let bv = tape.param(p, b);
            let y = tape.concat_cols(av, bv);
            tape.l1_loss(y, &t)
        }, 5e-2);
        prop_assert!(ok.is_ok(), "{:?}", ok);
    }

    #[test]
    fn grad_gather_rows_with_repeats(seed in any::<u64>()) {
        let mut rng = SeedRng(seed | 1);
        let (r, c) = (rng.dim(), rng.dim());
        let gathered = 2 + rng.next(5); // 2..=6 rows, repeats likely
        let rows: Vec<usize> = (0..gathered).map(|_| rng.next(r)).collect();
        let t = shifted_target(&mut rng, gathered, c, 6.0);
        let mut params = Params::new();
        let e = params.register("e", rng.matrix(r, c));
        let ok = check_gradients(&mut params, move |tape, p| {
            let ev = tape.param(p, e);
            let sources: Vec<_> = rows.iter().map(|&row| (ev, row)).collect();
            let y = tape.gather_rows(sources);
            tape.l1_loss(y, &t)
        }, 5e-2);
        prop_assert!(ok.is_ok(), "{:?}", ok);
    }

    #[test]
    fn grad_segment_sum(seed in any::<u64>()) {
        let mut rng = SeedRng(seed | 1);
        let c = rng.dim();
        let num_segs = rng.dim();
        let m = num_segs + rng.next(6); // at least one row per segment
        let segs = rng.segments(m, num_segs);
        let t = shifted_target(&mut rng, num_segs, c, 8.0);
        let mut params = Params::new();
        let e = params.register("e", rng.matrix(m, c));
        let ok = check_gradients(&mut params, move |tape, p| {
            let ev = tape.param(p, e);
            let y = tape.segment_sum(ev, segs.clone(), num_segs);
            tape.l1_loss(y, &t)
        }, 5e-2);
        prop_assert!(ok.is_ok(), "{:?}", ok);
    }

    #[test]
    fn grad_segment_softmax(seed in any::<u64>()) {
        let mut rng = SeedRng(seed | 1);
        let num_segs = rng.dim();
        let m = num_segs + rng.next(6);
        let segs = rng.segments(m, num_segs);
        let t = shifted_target(&mut rng, m, 1, 4.0);
        let mut params = Params::new();
        let s = params.register("scores", rng.matrix(m, 1));
        let ok = check_gradients(&mut params, move |tape, p| {
            let sv = tape.param(p, s);
            let alpha = tape.segment_softmax(sv, segs.clone());
            tape.l1_loss(alpha, &t)
        }, 5e-2);
        prop_assert!(ok.is_ok(), "{:?}", ok);
    }

    #[test]
    fn grad_mul_col(seed in any::<u64>()) {
        let mut rng = SeedRng(seed | 1);
        let (m, c) = (rng.dim(), rng.dim());
        let t = shifted_target(&mut rng, m, c, 6.0);
        let mut params = Params::new();
        let a = params.register("a", rng.matrix(m, c));
        let col = params.register("col", rng.matrix(m, 1));
        let ok = check_gradients(&mut params, move |tape, p| {
            let av = tape.param(p, a);
            let cv = tape.param(p, col);
            let y = tape.mul_col(av, cv);
            tape.l1_loss(y, &t)
        }, 5e-2);
        prop_assert!(ok.is_ok(), "{:?}", ok);
    }

    #[test]
    fn grad_fused_gate_smooth_acts(seed in any::<u64>()) {
        // Identity / Sigmoid / Tanh are smooth everywhere, so unrestricted
        // small inputs are safe. All five operands are parameters — this
        // checks the dx/dw/dh/du/db backward paths at once.
        let mut rng = SeedRng(seed | 1);
        let (m, k, e, d) = (rng.dim(), rng.dim(), rng.dim(), rng.dim());
        let act = [Act::Identity, Act::Sigmoid, Act::Tanh][rng.next(3)];
        let t = shifted_target(&mut rng, m, d, 8.0);
        let mut params = Params::new();
        let x = params.register("x", rng.matrix(m, k));
        let w = params.register("w", rng.matrix(k, d));
        let h = params.register("h", rng.matrix(m, e));
        let u = params.register("u", rng.matrix(e, d));
        let b = params.register("b", rng.matrix(1, d));
        let ok = check_gradients(&mut params, move |tape, p| {
            let xv = tape.param(p, x);
            let wv = tape.param(p, w);
            let hv = tape.param(p, h);
            let uv = tape.param(p, u);
            let bv = tape.param(p, b);
            let y = tape.fused_gate(xv, wv, hv, uv, Some(bv), act);
            tape.l1_loss(y, &t)
        }, 8e-2);
        prop_assert!(ok.is_ok(), "{act:?}: {:?}", ok);
    }

    #[test]
    fn grad_fused_gate_relu_off_kink(seed in any::<u64>()) {
        // Relu kinks where the pre-activation crosses zero. Operands are
        // scaled to [-0.3, 0.3] (dims ≤ 4 bound |x·w + h·u| by 0.72) and
        // the bias is pushed to |b| ∈ [1.0, 2.0], so every pre-activation
        // entry stays ≥ 0.28 away from zero throughout the FD probes.
        let mut rng = SeedRng(seed | 1);
        let (m, k, e, d) = (rng.dim(), rng.dim(), rng.dim(), rng.dim());
        let small = |rng: &mut SeedRng, r: usize, c: usize| {
            Matrix::from_fn(r, c, |_, _| rng.smooth_value() * 0.3)
        };
        let x0 = small(&mut rng, m, k);
        let w0 = small(&mut rng, k, d);
        let h0 = small(&mut rng, m, e);
        let u0 = small(&mut rng, e, d);
        let b0 = Matrix::from_fn(1, d, |_, _| {
            let v = 1.0 + rng.next(1001) as f32 * 1e-3;
            if rng.next(2) == 0 { v } else { -v }
        });
        let t = shifted_target(&mut rng, m, d, 8.0);
        let mut params = Params::new();
        let x = params.register("x", x0);
        let w = params.register("w", w0);
        let h = params.register("h", h0);
        let u = params.register("u", u0);
        let b = params.register("b", b0);
        let ok = check_gradients(&mut params, move |tape, p| {
            let xv = tape.param(p, x);
            let wv = tape.param(p, w);
            let hv = tape.param(p, h);
            let uv = tape.param(p, u);
            let bv = tape.param(p, b);
            let y = tape.fused_gate(xv, wv, hv, uv, Some(bv), Act::Relu);
            tape.l1_loss(y, &t)
        }, 8e-2);
        prop_assert!(ok.is_ok(), "{:?}", ok);
    }

    #[test]
    fn grad_fused_gate_without_bias(seed in any::<u64>()) {
        let mut rng = SeedRng(seed | 1);
        let (m, k, e, d) = (rng.dim(), rng.dim(), rng.dim(), rng.dim());
        let t = shifted_target(&mut rng, m, d, 8.0);
        let mut params = Params::new();
        let x = params.register("x", rng.matrix(m, k));
        let w = params.register("w", rng.matrix(k, d));
        let h = params.register("h", rng.matrix(m, e));
        let u = params.register("u", rng.matrix(e, d));
        let ok = check_gradients(&mut params, move |tape, p| {
            let xv = tape.param(p, x);
            let wv = tape.param(p, w);
            let hv = tape.param(p, h);
            let uv = tape.param(p, u);
            let y = tape.fused_gate(xv, wv, hv, uv, None, Act::Tanh);
            tape.l1_loss(y, &t)
        }, 8e-2);
        prop_assert!(ok.is_ok(), "{:?}", ok);
    }

    #[test]
    fn grad_linear_all_acts(seed in any::<u64>()) {
        // `Tape::linear`, one node for `act(x·w + b)`, under each
        // activation. Operands are scaled to [-0.3, 0.3] and the bias is
        // pushed to |b| ∈ [1.0, 2.0], as for the Relu fused gate, so no
        // pre-activation comes near Relu's kink during the FD probes.
        let mut rng = SeedRng(seed | 1);
        let (m, k, d) = (rng.dim(), rng.dim(), rng.dim());
        let small = |rng: &mut SeedRng, r: usize, c: usize| {
            Matrix::from_fn(r, c, |_, _| rng.smooth_value() * 0.3)
        };
        let x0 = small(&mut rng, m, k);
        let w0 = small(&mut rng, k, d);
        let b0 = Matrix::from_fn(1, d, |_, _| {
            let v = 1.0 + rng.next(1001) as f32 * 1e-3;
            if rng.next(2) == 0 { v } else { -v }
        });
        let t = shifted_target(&mut rng, m, d, 8.0);
        for act in [Act::Identity, Act::Sigmoid, Act::Tanh, Act::Relu] {
            let mut params = Params::new();
            let x = params.register("x", x0.clone());
            let w = params.register("w", w0.clone());
            let b = params.register("b", b0.clone());
            let t = t.clone();
            let ok = check_gradients(&mut params, move |tape, p| {
                let xv = tape.param(p, x);
                let wv = tape.param(p, w);
                let bv = tape.param(p, b);
                let y = tape.linear(xv, wv, bv, act);
                tape.l1_loss(y, &t)
            }, 8e-2);
            prop_assert!(ok.is_ok(), "{act:?}: {:?}", ok);
        }
    }

    #[test]
    fn grad_gru_blend(seed in any::<u64>()) {
        // `Tape::gru_blend`, one node for `(1 - z) ⊙ n + z ⊙ h`; all three
        // operands are parameters.
        let mut rng = SeedRng(seed | 1);
        let (m, d) = (rng.dim(), rng.dim());
        let t = shifted_target(&mut rng, m, d, 6.0);
        let mut params = Params::new();
        let z = params.register("z", rng.matrix(m, d));
        let n = params.register("n", rng.matrix(m, d));
        let h = params.register("h", rng.matrix(m, d));
        let ok = check_gradients(&mut params, move |tape, p| {
            let zv = tape.param(p, z);
            let nv = tape.param(p, n);
            let hv = tape.param(p, h);
            let y = tape.gru_blend(zv, nv, hv);
            tape.l1_loss(y, &t)
        }, 5e-2);
        prop_assert!(ok.is_ok(), "{:?}", ok);
    }

    #[test]
    fn grad_linear_read_twice_through_one_tape_ops(seed in any::<u64>()) {
        // `TapeOps` records each weight once per pass, so the second layer
        // application reads the first one's leaves: the gradient of `w`
        // and `b` must sum both uses.
        let mut rng = SeedRng(seed | 1);
        let (m, d) = (rng.dim(), rng.dim());
        let x = rng.matrix(m, d);
        let t = shifted_target(&mut rng, m, d, 6.0);
        let mut params = Params::new();
        let lin = Linear::new(&mut params, "lin", d, d, &mut StdRng::seed_from_u64(seed));
        let ok = check_gradients(&mut params, move |tape, p| {
            let xv = tape.input(x.clone());
            let mut ops = TapeOps::new(tape, p);
            let y1 = lin.forward(&mut ops, xv, Act::Tanh);
            let y2 = lin.forward(&mut ops, y1, Act::Tanh);
            tape.l1_loss(y2, &t)
        }, 8e-2);
        prop_assert!(ok.is_ok(), "{:?}", ok);
    }

    #[test]
    fn grad_gru_cell_read_twice_through_one_tape_ops(seed in any::<u64>()) {
        // Two recurrent steps of one cell, as two levels of propagation
        // run it: all nine gate weights are read twice.
        let mut rng = SeedRng(seed | 1);
        let (m, e, d) = (rng.dim(), rng.dim(), rng.dim());
        let x = rng.matrix(m, e);
        let h0 = rng.matrix(m, d);
        let t = shifted_target(&mut rng, m, d, 6.0);
        let mut params = Params::new();
        let gru = GruCell::new(&mut params, "gru", e, d, &mut StdRng::seed_from_u64(seed));
        let ok = check_gradients(&mut params, move |tape, p| {
            let xv = tape.input(x.clone());
            let hv = tape.input(h0.clone());
            let mut ops = TapeOps::new(tape, p);
            let h1 = gru.forward(&mut ops, xv, hv);
            let h2 = gru.forward(&mut ops, xv, h1);
            tape.l1_loss(h2, &t)
        }, 8e-2);
        prop_assert!(ok.is_ok(), "{:?}", ok);
    }

    #[test]
    fn grad_weighted_l1_and_add_scalars(seed in any::<u64>()) {
        let mut rng = SeedRng(seed | 1);
        let (m, n) = (rng.dim(), rng.dim());
        // Nonnegative row weights with zeros possible (dropped rows must
        // contribute exactly zero gradient); keep at least one row live so
        // the loss is not constant.
        let mut weights: Vec<f32> = (0..m).map(|_| (rng.next(4) as f32) * 0.5).collect();
        weights[0] = weights[0].max(1.0);
        let t1 = shifted_target(&mut rng, m, n, 6.0);
        let t2 = shifted_target(&mut rng, m, n, 6.0);
        let mut params = Params::new();
        let a = params.register("a", rng.matrix(m, n));
        let ok = check_gradients(&mut params, move |tape, p| {
            let av = tape.param(p, a);
            let l1 = tape.l1_loss_weighted(av, &t1, weights.clone());
            let l2 = tape.l1_loss(av, &t2);
            let l2 = tape.affine(l2, 0.5, 0.0);
            tape.add_scalars(vec![l1, l2])
        }, 5e-2);
        prop_assert!(ok.is_ok(), "{:?}", ok);
    }
}
