//! Smoke test of the GEMM kernel contract through the facade: the serving
//! kernel `blocked` reproduces the reference `naive` kernel bit for bit on
//! the product shapes one `eco` edit runs (d = 32), on 1- and 2-thread
//! pools; a tape-free forward pass on it is bit-equal to the tape's
//! `DeepSeq::predict`; and serving defaults to it.

use deepseq::core::encoding::initial_states;
use deepseq::core::{CircuitGraph, DeepSeq, DeepSeqConfig};
use deepseq::netlist::SeqAig;
use deepseq::nn::{Act, Kernel, Matrix, Pool};
use deepseq::serve::{InferenceModel, Workspace};
use deepseq::sim::Workload;

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
    let (mut out, mut tmp) = (Matrix::default(), Matrix::default());
    kernel.matmul_bias_act_on(pool, x, w, Some((h, u)), bias, act, &mut out, &mut tmp);
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
            kernel.linear_act_on(
                &pool,
                &filled(416, d, 1.0),
                &filled(d, d, 1.1),
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
fn blocked_serving_forward_matches_tape_predict_bitwise() {
    // Two flip-flops behind one input: a small sequential circuit.
    let mut aig = SeqAig::new("pair");
    let en = aig.add_pi("en");
    let q0 = aig.add_ff("q0", false);
    let q1 = aig.add_ff("q1", false);
    let g0 = aig.add_and(en, q0);
    let d0 = aig.add_not(g0);
    let nq1 = aig.add_not(q1);
    let d1 = aig.add_and(q0, nq1);
    aig.connect_ff(q0, d0).expect("connect q0");
    aig.connect_ff(q1, d1).expect("connect q1");
    aig.set_output(q1, "y");

    let config = DeepSeqConfig {
        hidden_dim: 16,
        iterations: 2,
        ..DeepSeqConfig::default()
    };
    let model = DeepSeq::new(config);
    let frozen = InferenceModel::from_model(&model).expect("freeze model");
    let graph = CircuitGraph::build(&aig);
    let h0 = initial_states(&aig, &Workload::uniform(aig.num_pis(), 0.4), 16, 3);
    let tape = model.predict(&graph, &h0);
    let mut ws = Workspace::with_kernel(Kernel::Blocked);
    let free = frozen.run(&graph, &h0, &mut ws).predictions;
    assert_bits_eq(&free.tr, &tape.tr, "tr predictions");
    assert_bits_eq(&free.lg, &tape.lg, "lg predictions");
}

#[test]
fn serving_defaults_to_blocked() {
    // An explicit `DEEPSEQ_KERNEL` wins (the CI fast-mode leg sets `simd`).
    let expected = Kernel::from_env().unwrap_or(Kernel::Blocked);
    assert_eq!(Kernel::for_serve(), expected);
}
