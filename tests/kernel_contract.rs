//! Smoke test of the GEMM kernel contract through the facade: the default
//! kernel `blocked` reproduces the reference `naive` kernel bit for bit on
//! the product shapes one `eco` edit runs and on the backward products
//! training runs (d = 32) in the forms the tape runs them (`g × (Wᵀ)` over
//! an explicit transpose, and every term added into a gradient in place),
//! on 1- and 2-thread pools; a tape-free forward
//! pass on it is bit-equal to the tape's `DeepSeq::predict` for every
//! configuration on 1-, 2- and 4-thread pools, including levels wide
//! enough to be split into chunks; and serving defaults to it.

use std::sync::Arc;

use deepseq::core::encoding::initial_states;
use deepseq::core::{Aggregator, CircuitGraph, DeepSeq, DeepSeqConfig, PropagationScheme};
use deepseq::nn::kernels::PAR_MIN_FLOPS;
use deepseq::nn::{Act, Kernel, Matrix, Pool};
use deepseq::serve::{InferenceModel, Workspace};
use deepseq::sim::Workload;

mod common;
use common::{and_not_pairs, two_ff_circuit};

fn filled(rows: usize, cols: usize, seed: f32) -> Matrix {
    Matrix::from_fn(rows, cols, |r, c| {
        ((r * cols + c) as f32 * 0.37 + seed).sin() * 0.8
    })
}

fn assert_bits_eq(got: &Matrix, want: &Matrix, ctx: &str) {
    assert_eq!(got.shape(), want.shape(), "{ctx}");
    let bits = |m: &Matrix| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(got), bits(want), "{ctx}");
}

/// `dest` with `a × b` added in place.
fn add_into(kernel: Kernel, pool: &Pool, a: &Matrix, b: &Matrix, dest: &Matrix) -> Matrix {
    let mut out = dest.clone();
    kernel.matmul_add_into_on(pool, a, b, &mut out);
    out
}

/// `dest` with `aᵀ × b` added in place.
fn t_add_into(kernel: Kernel, pool: &Pool, a: &Matrix, b: &Matrix, dest: &Matrix) -> Matrix {
    let mut out = dest.clone();
    kernel.t_matmul_add_into_on(pool, a, b, &mut out);
    out
}

/// `act(x·w + h·u [+ bias])` through the fused entry point.
#[allow(clippy::too_many_arguments)]
fn gate(
    kernel: Kernel,
    pool: &Pool,
    x: &Matrix,
    w: &Matrix,
    h: &Matrix,
    u: &Matrix,
    bias: Option<&Matrix>,
    act: Act,
) -> Matrix {
    let mut out = Matrix::default();
    kernel.matmul_bias_act_on(pool, x, w, Some((h, u)), bias, act, &mut out);
    out
}

#[test]
fn blocked_matches_naive_bitwise_on_eco_shapes() {
    let d = 32;
    let input_dim = 2 * d + 4;
    for threads in [1, 2] {
        let pool = Pool::new(threads);
        let run = |kernel: Kernel| {
            // GRU gate (Eq. 8) of a one-node level: 1×68·68×32 + 1×32·32×32.
            let gru = gate(
                kernel,
                &pool,
                &filled(1, input_dim, 0.1),
                &filled(input_dim, d, 0.2),
                &filled(1, d, 0.3),
                &filled(d, d, 0.4),
                Some(&filled(1, d, 0.5)),
                Act::Sigmoid,
            );
            // Additive attention score (Eq. 5) of a two-edge segment:
            // 2×32·32×1 + 2×32·32×1.
            let score = gate(
                kernel,
                &pool,
                &filled(2, d, 0.6),
                &filled(d, 1, 0.7),
                &filled(2, d, 0.8),
                &filled(d, 1, 0.9),
                None,
                Act::Identity,
            );
            // Readout head layer over all 416 nodes: 416×32·32×32.
            let mut head = Matrix::default();
            kernel.matmul_bias_act_on(
                &pool,
                &filled(416, d, 1.0),
                &filled(d, d, 1.1),
                None,
                Some(&filled(1, d, 1.2)),
                Act::Relu,
                &mut head,
            );
            [
                ("gru gate", gru),
                ("attention score", score),
                ("head", head),
            ]
        };
        let reference = run(Kernel::Naive);
        for ((what, got), (_, want)) in run(Kernel::Blocked).iter().zip(&reference) {
            assert_bits_eq(got, want, &format!("{what} on {threads} thread(s)"));
        }
    }
}

#[test]
fn blocked_matches_naive_bitwise_on_training_backward_shapes() {
    let d = 32;
    let input_dim = 2 * d + 4;
    // Levels of one node, a typical 8 and 33 (wide enough to fan out).
    for rows in [1, 8, 33] {
        for threads in [1, 2] {
            let pool = Pool::new(threads);
            let run = |kernel: Kernel| {
                // One GRU gate `x·W + h·U` with upstream gradient `g`.
                let (x, w) = (filled(rows, input_dim, 0.1), filled(input_dim, d, 0.2));
                let (h, u) = (filled(rows, d, 0.3), filled(d, d, 0.4));
                let g = filled(rows, d, 0.5);
                // One attention score `q·w1 + k·w2` (Eq. 5), gradient `gs`.
                let (q, w1) = (filled(rows, d, 0.6), filled(d, 1, 0.7));
                let (key, w2) = (filled(rows, d, 0.8), filled(d, 1, 0.9));
                let gs = filled(rows, 1, 1.0);
                // Gradients the backward pass adds into: values of both
                // signs, as after earlier terms.
                let (dx, dw, dh, du) = (
                    filled(rows, input_dim, 1.1),
                    filled(input_dim, d, 1.2),
                    filled(rows, d, 1.4),
                    filled(d, d, 1.3),
                );
                let (dq, dw1) = (filled(rows, d, 1.5), filled(d, 1, 1.6));
                let (dk, dw2) = (filled(rows, d, 1.7), filled(d, 1, 1.8));
                // The tape runs `g·Wᵀ` as `g × (Wᵀ)` over one transpose
                // per weight and pass, and adds every product term into
                // its gradient in place; every form must match naive.
                let (wt, ut) = (w.transpose(), u.transpose());
                let (w1t, w2t) = (w1.transpose(), w2.transpose());
                [
                    ("gate dx = g×(Wᵀ)", kernel.matmul_on(&pool, &g, &wt)),
                    ("gate dh = g×(Uᵀ)", kernel.matmul_on(&pool, &g, &ut)),
                    ("score dq = g×(w1ᵀ)", kernel.matmul_on(&pool, &gs, &w1t)),
                    ("gate dx += g×(Wᵀ)", add_into(kernel, &pool, &g, &wt, &dx)),
                    ("gate dW += xᵀ·g", t_add_into(kernel, &pool, &x, &g, &dw)),
                    ("gate dh += g×(Uᵀ)", add_into(kernel, &pool, &g, &ut, &dh)),
                    ("gate dU += hᵀ·g", t_add_into(kernel, &pool, &h, &g, &du)),
                    (
                        "score dq += g×(w1ᵀ)",
                        add_into(kernel, &pool, &gs, &w1t, &dq),
                    ),
                    (
                        "score dw1 += qᵀ·g",
                        t_add_into(kernel, &pool, &q, &gs, &dw1),
                    ),
                    (
                        "score dk += g×(w2ᵀ)",
                        add_into(kernel, &pool, &gs, &w2t, &dk),
                    ),
                    (
                        "score dw2 += kᵀ·g",
                        t_add_into(kernel, &pool, &key, &gs, &dw2),
                    ),
                ]
            };
            let reference = run(Kernel::Naive);
            for ((what, got), (_, want)) in run(Kernel::Blocked).iter().zip(&reference) {
                let ctx = format!("{what}, {rows} row(s) on {threads} thread(s)");
                assert_bits_eq(got, want, &ctx);
            }
        }
    }

    // A 96-row level: both add-into products fan out across the pool's
    // rows, so the row-partitioned add path runs.
    let (rows, pool) = (96, Pool::new(2));
    let (x, g, w) = (
        filled(rows, input_dim, 0.1),
        filled(rows, d, 0.5),
        filled(input_dim, d, 0.2),
    );
    assert!(
        rows * d * input_dim >= PAR_MIN_FLOPS,
        "the products must fan out"
    );
    let (dx, dw) = (filled(rows, input_dim, 1.1), filled(input_dim, d, 1.2));
    let wt = w.transpose();
    for (what, got, want) in [
        (
            "gate dx += g×(Wᵀ)",
            add_into(Kernel::Blocked, &pool, &g, &wt, &dx),
            add_into(Kernel::Naive, &pool, &g, &wt, &dx),
        ),
        (
            "gate dW += xᵀ·g",
            t_add_into(Kernel::Blocked, &pool, &x, &g, &dw),
            t_add_into(Kernel::Naive, &pool, &x, &g, &dw),
        ),
    ] {
        assert_bits_eq(&got, &want, &format!("{what}, {rows} rows on 2 threads"));
    }
}

#[test]
fn blocked_serving_forward_matches_tape_predict_bitwise() {
    let circuits = [two_ff_circuit(), and_not_pairs("wide", 40, 8, 4)];
    // Serving splits levels of at least 32 nodes into chunks on
    // multi-thread pools; the second circuit must have one.
    let widest = CircuitGraph::build(&circuits[1])
        .forward
        .iter()
        .map(|level| level.len())
        .max();
    assert!(widest >= Some(32), "widest level {widest:?}");
    let pools: Vec<Arc<Pool>> = [1, 2, 4].map(|t| Arc::new(Pool::new(t))).into();
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
            let config = DeepSeqConfig {
                hidden_dim: 16,
                iterations: 2,
                aggregator,
                scheme,
                ..DeepSeqConfig::default()
            };
            let model = DeepSeq::new(config);
            let frozen = InferenceModel::from_model(&model);
            for aig in &circuits {
                let graph = CircuitGraph::build(aig);
                let h0 = initial_states(aig, &Workload::uniform(aig.num_pis(), 0.4), 16, 3);
                let tape = model.predict(&graph, &h0);
                let embedding = model.embed_graph(&graph, &h0);
                for pool in &pools {
                    let mut ws = Workspace::with_pool(Kernel::Blocked, Arc::clone(pool));
                    let free = frozen.run(&graph, &h0, &mut ws);
                    let ctx = format!(
                        "{} with {aggregator:?}/{scheme:?} on {} thread(s)",
                        aig.name(),
                        pool.threads()
                    );
                    assert_bits_eq(&free.predictions.tr, &tape.tr, &format!("tr, {ctx}"));
                    assert_bits_eq(&free.predictions.lg, &tape.lg, &format!("lg, {ctx}"));
                    assert_bits_eq(&free.embedding, &embedding, &format!("embedding, {ctx}"));
                }
            }
        }
    }
}

#[test]
fn serving_defaults_to_blocked() {
    // An explicit `DEEPSEQ_KERNEL` wins (a CI leg sets `naive`), for
    // training and serving alike.
    let expected = Kernel::from_env().unwrap_or(Kernel::Blocked);
    assert_eq!(Kernel::global(), expected);
    assert_eq!(Workspace::new().kernel(), expected);
}
