//! Property-based tests for the autograd engine: every differentiable op is
//! checked against central finite differences on random inputs, algebraic
//! invariants of the matrix type are verified, and every GEMM kernel variant
//! is held to the naive kernel's bit patterns across randomized shapes
//! (including the degenerate `1×N` / `N×1` / empty cases).

use deepseq_nn::{Act, Kernel, Matrix, Params, ParamsError, Pool, Tape};
use proptest::prelude::*;

mod util;
use util::{close_rel, gate_operands, gemm_operands, transpose_operands};

fn arb_matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-1.0f32..1.0, rows * cols)
        .prop_map(move |data| Matrix::from_vec(rows, cols, data))
}

/// Central-difference gradient check for a single registered parameter.
fn check_param_gradient<F>(params: &mut Params, build: F, tol: f32) -> Result<(), String>
where
    F: Fn(&mut Tape, &Params) -> deepseq_nn::VarId,
{
    let mut tape = Tape::new();
    let loss = build(&mut tape, params);
    let grads = tape.backward(loss);
    let ids: Vec<_> = params.iter().map(|(id, _, _)| id).collect();
    let eps = 1e-2f32;
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
                let analytic = grads.get(id).map_or(0.0, |g| g.get(r, c));
                if let Err(msg) = close_rel(&[analytic], &[numeric], tol) {
                    return Err(format!("({r},{c}): {msg}"));
                }
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn matmul_transpose_identities(a in arb_matrix(3, 4), b in arb_matrix(3, 5)) {
        // aᵀ·b computed directly matches the explicit transpose.
        let direct = a.t_matmul(&b);
        let explicit = a.transpose().matmul(&b);
        let res = close_rel(direct.data(), explicit.data(), 1e-5);
        prop_assert!(res.is_ok(), "{:?}", res);
    }

    #[test]
    fn matmul_is_linear_in_scale(a in arb_matrix(2, 3), b in arb_matrix(3, 2), s in -2.0f32..2.0) {
        let scaled_a = a.map(|x| s * x);
        let left = scaled_a.matmul(&b);
        let right = a.matmul(&b).map(|x| s * x);
        let res = close_rel(left.data(), right.data(), 1e-4);
        prop_assert!(res.is_ok(), "{:?}", res);
    }

    #[test]
    fn transpose_is_involution(a in arb_matrix(4, 3)) {
        prop_assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn grad_check_sigmoid_chain(x in arb_matrix(2, 3), w in arb_matrix(3, 2), t in arb_matrix(2, 2)) {
        // Targets shifted beyond the prediction range: the L1 |x| kink must
        // not be crossed within the finite-difference epsilon, or the
        // numeric gradient is meaningless there.
        let t = t.map(|v| v + 2.5);
        let mut params = Params::new();
        let wid = params.register("w", w);
        let ok = check_param_gradient(&mut params, move |tape, p| {
            let xv = tape.input(x.clone());
            let wv = tape.param(p, wid);
            let h = tape.matmul(xv, wv);
            let s = tape.sigmoid(h);
            tape.l1_loss(s, &t)
        }, 5e-2);
        prop_assert!(ok.is_ok(), "{:?}", ok);
    }

    #[test]
    fn grad_check_tanh_mul(a in arb_matrix(2, 2), b in arb_matrix(2, 2), t in arb_matrix(2, 2)) {
        let t = t.map(|v| v + 2.5); // keep the L1 kink out of FD range
        let mut params = Params::new();
        let aid = params.register("a", a);
        let bid = params.register("b", b);
        let ok = check_param_gradient(&mut params, move |tape, p| {
            let av = tape.param(p, aid);
            let bv = tape.param(p, bid);
            let m = tape.mul(av, bv);
            let s = tape.tanh(m);
            tape.l1_loss(s, &t)
        }, 5e-2);
        prop_assert!(ok.is_ok(), "{:?}", ok);
    }

    #[test]
    fn grad_check_segment_pipeline(e in arb_matrix(4, 3), w in arb_matrix(3, 1), t in arb_matrix(2, 3)) {
        let t = t.map(|v| v + 2.5); // keep the L1 kink out of FD range
        let mut params = Params::new();
        let eid = params.register("e", e);
        let wid = params.register("w", w);
        let ok = check_param_gradient(&mut params, move |tape, p| {
            let ev = tape.param(p, eid);
            let gathered = tape.gather_rows(vec![(ev, 0), (ev, 1), (ev, 2), (ev, 3)]);
            let wv = tape.param(p, wid);
            let scores = tape.matmul(gathered, wv);
            let segs = vec![0, 0, 1, 1];
            let alpha = tape.segment_softmax(scores, segs.clone());
            let weighted = tape.mul_col(gathered, alpha);
            let summed = tape.segment_sum(weighted, segs, 2);
            tape.l1_loss(summed, &t)
        }, 8e-2);
        prop_assert!(ok.is_ok(), "{:?}", ok);
    }

    #[test]
    fn segment_softmax_sums_to_one(scores in arb_matrix(6, 1)) {
        let mut tape = Tape::new();
        let s = tape.input(scores);
        let segs = vec![0, 0, 0, 1, 1, 2];
        let alpha = tape.segment_softmax(s, segs.clone());
        let v = tape.value(alpha);
        let mut sums = [0.0f32; 3];
        for (i, &seg) in segs.iter().enumerate() {
            sums[seg] += v.get(i, 0);
        }
        for sum in sums {
            prop_assert!((sum - 1.0).abs() < 1e-5, "segment sum {sum}");
        }
        // All weights positive.
        prop_assert!(v.data().iter().all(|&w| w > 0.0));
    }

    #[test]
    fn l1_loss_is_nonnegative_and_zero_on_match(x in arb_matrix(3, 2)) {
        let mut tape = Tape::new();
        let xv = tape.input(x.clone());
        let loss = tape.l1_loss(xv, &x);
        prop_assert_eq!(tape.value(loss).get(0, 0), 0.0);
        let shifted = x.map(|v| v + 0.5);
        let mut tape2 = Tape::new();
        let xv2 = tape2.input(x.clone());
        let loss2 = tape2.l1_loss(xv2, &shifted);
        prop_assert!((tape2.value(loss2).get(0, 0) - 0.5).abs() < 1e-5);
    }

    #[test]
    fn adam_reduces_simple_loss(target in -2.0f32..2.0) {
        use deepseq_nn::Adam;
        let mut params = Params::new();
        let w = params.register("w", Matrix::zeros(1, 1));
        let t = Matrix::full(1, 1, target);
        let mut opt = Adam::new(0.05);
        let loss_of = |params: &Params| {
            let mut tape = Tape::new();
            let wv = tape.param(params, w);
            let loss = tape.l1_loss(wv, &t);
            (tape.value(loss).get(0, 0), tape, loss)
        };
        let (initial, _, _) = loss_of(&params);
        for _ in 0..100 {
            let (_, tape, loss) = loss_of(&params);
            let grads = tape.backward(loss);
            opt.step(&mut params, &grads);
        }
        let (final_loss, _, _) = loss_of(&params);
        prop_assert!(final_loss <= initial + 1e-6);
        prop_assert!(final_loss < 0.1 || initial < 0.1, "loss {initial} -> {final_loss}");
    }

    #[test]
    fn binary_checkpoint_roundtrips_bytes_exactly(store in arb_params()) {
        // bytes → values → bytes: a second serialization of the restored
        // store reproduces the first byte-for-byte.
        let bytes = store.save_binary();
        let mut restored = shapes_of(&store);
        restored.load_binary(&bytes).expect("load own checkpoint");
        for (_, name, value) in store.iter() {
            let id = restored.find(name).expect("name survives");
            prop_assert_eq!(value, restored.get(id), "{}", name);
        }
        prop_assert_eq!(restored.save_binary(), bytes);
    }

    #[test]
    fn binary_checkpoint_rejects_any_truncation(store in arb_params(), frac in 0.0f32..1.0) {
        let bytes = store.save_binary();
        let cut = ((bytes.len() as f32 * frac) as usize).min(bytes.len().saturating_sub(1));
        let mut target = shapes_of(&store);
        let err = target.load_binary(&bytes[..cut]);
        prop_assert!(err.is_err(), "truncation at {} accepted", cut);
        // The error is typed, not a panic, and names a decoding failure.
        prop_assert!(matches!(
            err.unwrap_err(),
            ParamsError::Truncated { .. }
                | ParamsError::BadMagic
                | ParamsError::Corrupt { .. }
                | ParamsError::ChecksumMismatch { .. }
        ));
    }

    #[test]
    fn text_and_binary_checkpoints_restore_identical_values(store in arb_params()) {
        let mut via_text = shapes_of(&store);
        via_text.load_from_string(&store.save_to_string()).expect("text load");
        let mut via_binary = shapes_of(&store);
        via_binary.load_binary(&store.save_binary()).expect("binary load");
        for (_, name, original) in store.iter() {
            let t = via_text.get(via_text.find(name).expect("text name"));
            let b = via_binary.get(via_binary.find(name).expect("binary name"));
            prop_assert_eq!(t, b, "{}: text and binary restores diverge", name);
            prop_assert_eq!(original, t, "{}: text restore is lossy", name);
        }
    }

    #[test]
    fn kernels_agree_with_naive_to_zero_ulp(seed in any::<u64>()) {
        // Every kernel variant must reproduce the naive kernel's exact
        // bit patterns — accumulation order is part of the kernel
        // contract, so a kernel switch may never change results. Shapes
        // sweep the degenerate cases (empty, 1×N, N×1) and blocked-aligned
        // sizes.
        let (a, b) = gemm_operands(seed);
        let reference = Kernel::Naive.matmul(&a, &b);
        for kernel in Kernel::ALL {
            let got = kernel.matmul(&a, &b);
            prop_assert_eq!(got.shape(), reference.shape());
            for (i, (x, y)) in got.data().iter().zip(reference.data()).enumerate() {
                prop_assert_eq!(
                    x.to_bits(), y.to_bits(),
                    "{} {}x{}x{} elem {}: {} vs {}",
                    kernel.name(), a.rows(), a.cols(), b.cols(), i, x, y
                );
            }
        }
    }

    #[test]
    fn transpose_kernels_agree_with_naive_to_zero_ulp(seed in any::<u64>()) {
        // t_matmul contracts over rows (`aᵀ·b` with matching row counts);
        // matmul_t over columns (`a·bᵀ` with matching column counts).
        let (a, t_b, bt_b) = transpose_operands(seed);
        let t_ref = Kernel::Naive.t_matmul(&a, &t_b);
        let bt_ref = Kernel::Naive.matmul_t(&a, &bt_b);
        for kernel in Kernel::ALL {
            let got = kernel.t_matmul(&a, &t_b);
            prop_assert_eq!(got.shape(), t_ref.shape());
            for (x, y) in got.data().iter().zip(t_ref.data()) {
                prop_assert_eq!(x.to_bits(), y.to_bits(), "t_matmul {}", kernel.name());
            }
            let got = kernel.matmul_t(&a, &bt_b);
            prop_assert_eq!(got.shape(), bt_ref.shape());
            for (x, y) in got.data().iter().zip(bt_ref.data()) {
                prop_assert_eq!(x.to_bits(), y.to_bits(), "matmul_t {}", kernel.name());
            }
        }
    }

    #[test]
    fn kernels_bitwise_identical_across_thread_counts(seed in any::<u64>()) {
        // The tentpole determinism contract: row-partitioned parallel GEMM
        // must reproduce the single-threaded bit patterns at every thread
        // count, for every kernel and every product family, across shapes
        // including the degenerate (empty, 1×N, N×1) and parallel-scale
        // cases of the shape generators.
        let (a, b) = gemm_operands(seed);
        let (ta, t_b, bt_b) = transpose_operands(seed.wrapping_mul(0x9E3779B97F4A7C15) | 1);
        let serial = Pool::new(1);
        for kernel in Kernel::ALL {
            let m_ref = kernel.matmul_on(&serial, &a, &b);
            let t_ref = kernel.t_matmul_on(&serial, &ta, &t_b);
            let bt_ref = kernel.matmul_t_on(&serial, &ta, &bt_b);
            for threads in [2usize, 4, 7] {
                let pool = Pool::new(threads);
                for (tag, got, want) in [
                    ("matmul", kernel.matmul_on(&pool, &a, &b), &m_ref),
                    ("t_matmul", kernel.t_matmul_on(&pool, &ta, &t_b), &t_ref),
                    ("matmul_t", kernel.matmul_t_on(&pool, &ta, &bt_b), &bt_ref),
                ] {
                    prop_assert_eq!(got.shape(), want.shape());
                    for (i, (x, y)) in got.data().iter().zip(want.data()).enumerate() {
                        prop_assert_eq!(
                            x.to_bits(), y.to_bits(),
                            "{} {} t{} elem {}: {} vs {}",
                            tag, kernel.name(), threads, i, x, y
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn fused_ops_match_unfused_within_1e5(seed in any::<u64>()) {
        // The fused gate `act(x·w + h·u + b)` must stay within 1e-5 relative
        // error of the unfused naive-kernel composition for every kernel and
        // activation (the implementation is in fact bitwise-equal; the spec
        // bound is what third-party kernels must meet).
        let (x, w, h, u, bias) = gate_operands(seed);
        for act in [Act::Identity, Act::Sigmoid, Act::Tanh, Act::Relu] {
            let mut reference = Kernel::Naive.matmul(&x, &w);
            reference.add_assign(&Kernel::Naive.matmul(&h, &u));
            reference.add_row_assign(&bias);
            act.apply(reference.data_mut());
            for kernel in Kernel::ALL {
                let mut out = Matrix::default();
                let mut tmp = Matrix::default();
                kernel.matmul_bias_act(
                    &x, &w, Some((&h, &u)), Some(&bias), act, &mut out, &mut tmp,
                );
                prop_assert_eq!(out.shape(), reference.shape());
                let res = close_rel(out.data(), reference.data(), 1e-5);
                prop_assert!(res.is_ok(), "{} {:?}: {:?}", kernel.name(), act, res);
            }
        }
    }

    #[test]
    fn fused_gate_tape_op_matches_unfused_ops(seed in any::<u64>()) {
        // The tape's fused node computes the same value the five unfused
        // nodes used to produce, bit for bit.
        let (x, w, h, u, bias) = gate_operands(seed);
        let mut tape = Tape::new();
        let xv = tape.input(x.clone());
        let wv = tape.input(w.clone());
        let hv = tape.input(h.clone());
        let uv = tape.input(u.clone());
        let bv = tape.input(bias.clone());
        let fused = tape.fused_gate(xv, wv, hv, uv, Some(bv), Act::Sigmoid);
        let xw = tape.matmul(xv, wv);
        let hu = tape.matmul(hv, uv);
        let s = tape.add(xw, hu);
        let s = tape.add_row(s, bv);
        let unfused = tape.sigmoid(s);
        let fv = tape.value(fused);
        let uv2 = tape.value(unfused);
        prop_assert_eq!(fv.shape(), uv2.shape());
        for (a, b) in fv.data().iter().zip(uv2.data()) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}

/// Strategy: a parameter store with 1–4 randomly-shaped, randomly-valued
/// matrices (values include exact and awkward floats).
fn arb_params() -> impl Strategy<Value = Params> {
    (1usize..5, any::<u64>()).prop_map(|(count, seed)| {
        let mut state = seed | 1;
        let mut next = move |bound: usize| -> usize {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            (state.wrapping_mul(0x2545F4914F6CDD1D) >> 33) as usize % bound.max(1)
        };
        let mut store = Params::new();
        for i in 0..count {
            let rows = 1 + next(5);
            let cols = 1 + next(5);
            let m = Matrix::from_fn(rows, cols, |r, c| {
                // Mix of exact, tiny, negative and subnormal-ish values.
                match next(5) {
                    0 => 0.0,
                    1 => -(r as f32) - c as f32,
                    2 => 1.0 / (1 + next(1000)) as f32,
                    3 => f32::from_bits(next(u32::MAX as usize) as u32 & 0x7F7F_FFFF),
                    _ => next(1000) as f32 * 1e-3,
                }
            });
            store.register(format!("p{i}.w"), m);
        }
        store
    })
}

/// A fresh store with the same names/shapes as `store` but zeroed values —
/// the "already registered model" a checkpoint loads into.
fn shapes_of(store: &Params) -> Params {
    let mut out = Params::new();
    for (_, name, value) in store.iter() {
        out.register(name.to_string(), Matrix::zeros(value.rows(), value.cols()));
    }
    out
}
