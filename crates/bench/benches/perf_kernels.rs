//! Criterion benchmarks of the GEMM kernel variants (`deepseq_nn::Kernel`)
//! on the shapes the serving hot path actually sees: per-level gathers times
//! weight matrices, and the fused GRU gate `act(x·W + h·U + b)`.
//!
//! Bench ids carry the `serve_` prefix so `collect_bench` folds them into
//! the committed `BENCH_serve.json` perf trajectory; the PR-3 acceptance
//! criterion (blocked ≥ 1.5× naive on `256×256 · 256×64`) reads
//! `serve_kernel_blocked_256x256x64` against `serve_kernel_naive_256x256x64`
//! there.
//!
//! The training shapes time one level of the GRU gate at `d = 32` on the
//! bitwise kernels: the forward `x·W` of a 1- and an 8-row level, and the
//! two backward products of an 8-row level, `dW = xᵀ·g`
//! (`serve_kernel_<kernel>_tmatmul_8x68x32`) and `dx = g·Wᵀ`
//! (`serve_kernel_<kernel>_matmult_8x32x68`).
//!
//! All products are pinned to a 1-thread pool: these benches isolate
//! kernel arithmetic, so their trajectory must not depend on the
//! measurement host's core count (`perf_threads` owns the scaling story).
//!
//! Run: `cargo bench -p deepseq-bench --bench perf_kernels`

use criterion::{criterion_group, criterion_main, Criterion};
use deepseq_nn::{Act, Kernel, Matrix, Pool};

/// `(m, k, n)` product shapes from the serve path: the acceptance shape, a
/// level-batch × GRU-gate shape (`input_dim = 2d + 4` node types at
/// `d = 32`), and a wide-hidden shape.
const SHAPES: [(usize, usize, usize); 3] = [(256, 256, 64), (512, 68, 32), (128, 128, 128)];

/// `(m, k, n)` of one GRU gate product `x·W` at `d = 32` (`k = 2d + 4`)
/// on a one-node level and on an 8-node level, the shapes training and an
/// `eco` edit run level by level.
const MODEL_SHAPES: [(usize, usize, usize); 2] = [(1, 68, 32), (8, 68, 32)];

fn filled(rows: usize, cols: usize, seed: f32) -> Matrix {
    Matrix::from_fn(rows, cols, |r, c| {
        ((r * cols + c) as f32).sin() * seed + (r as f32 - c as f32) * 0.01
    })
}

fn bench_gemm(c: &mut Criterion) {
    eprintln!(
        "blocked kernel build: {}",
        if deepseq_nn::simd_accelerated() {
            "avx2"
        } else {
            "portable"
        }
    );
    let serial = Pool::new(1);
    for &(m, k, n) in &SHAPES {
        let a = filled(m, k, 0.6);
        let b = filled(k, n, -0.4);
        for kernel in Kernel::ALL {
            let mut out = Matrix::default();
            c.bench_function(
                &format!("serve_kernel_{}_{m}x{k}x{n}", kernel.name()),
                |bch| bch.iter(|| kernel.matmul_into_on(&serial, &a, &b, &mut out)),
            );
        }
    }
}

fn bench_model_shapes(c: &mut Criterion) {
    let serial = Pool::new(1);
    for &(m, k, n) in &MODEL_SHAPES {
        let a = filled(m, k, 0.6);
        let b = filled(k, n, -0.4);
        for kernel in Kernel::ALL {
            let mut out = Matrix::default();
            c.bench_function(
                &format!("serve_kernel_{}_{m}x{k}x{n}", kernel.name()),
                |bch| bch.iter(|| kernel.matmul_into_on(&serial, &a, &b, &mut out)),
            );
        }
    }
    // The backward pair of the 8-row gate: `x` is 8×68, `g` 8×32, `W` 68×32.
    let (x, g, w) = (filled(8, 68, 0.6), filled(8, 32, -0.4), filled(68, 32, 0.3));
    for kernel in Kernel::ALL {
        c.bench_function(
            &format!("serve_kernel_{}_tmatmul_8x68x32", kernel.name()),
            |bch| bch.iter(|| kernel.t_matmul_on(&serial, &x, &g)),
        );
        c.bench_function(
            &format!("serve_kernel_{}_matmult_8x32x68", kernel.name()),
            |bch| bch.iter(|| kernel.matmul_t_on(&serial, &g, &w)),
        );
    }
}

fn bench_fused_gate(c: &mut Criterion) {
    // One GRU gate at serve scale: 256-node level batch, d = 32,
    // input_dim = 2d + 4.
    let (batch, d) = (256, 32);
    let x = filled(batch, 2 * d + 4, 0.5);
    let w = filled(2 * d + 4, d, -0.3);
    let h = filled(batch, d, 0.8);
    let u = filled(d, d, 0.2);
    let bias = filled(1, d, 0.05);
    let serial = Pool::new(1);
    for kernel in Kernel::ALL {
        let mut out = Matrix::default();
        let mut tmp = Matrix::default();
        c.bench_function(&format!("serve_fused_gate_{}_d{d}", kernel.name()), |bch| {
            bch.iter(|| {
                kernel.matmul_bias_act_on(
                    &serial,
                    &x,
                    &w,
                    Some((&h, &u)),
                    Some(&bias),
                    Act::Sigmoid,
                    &mut out,
                    &mut tmp,
                )
            })
        });
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_gemm, bench_model_shapes, bench_fused_gate
}
criterion_main!(benches);
