//! Shared harness for the nn integration suites: the relative-error
//! comparison of the gradient checks (`deepseq_nn::numerics::close_rel`,
//! re-exported so test files have a single import point) and the
//! deterministic operand generators every kernel/gradcheck property draws
//! from. Each integration test binary compiles its own copy, so helpers
//! unused by one binary are expected.

#![allow(dead_code)]

use deepseq_nn::Matrix;

pub use deepseq_nn::numerics::close_rel;

/// Contraction and output widths of the model's products: the blocked
/// kernels' tile widths (32 at d = 32, 4 and 1 for narrow outputs) and
/// their tails (2, 33, and 68 = 2d + 4, the GRU input width).
const MODEL_DIMS: [usize; 6] = [1, 2, 4, 32, 33, 68];

/// Deterministic xorshift over a proptest-supplied seed, for deriving
/// random shapes *and* values from one input (the vendored proptest has no
/// `flat_map`).
pub struct SeedRng(pub u64);

impl SeedRng {
    pub fn next(&mut self, bound: usize) -> usize {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        (self.0.wrapping_mul(0x2545F4914F6CDD1D) >> 33) as usize % bound.max(1)
    }

    /// A dimension in `1..=4`.
    pub fn dim(&mut self) -> usize {
        1 + self.next(4)
    }

    /// A width from [`MODEL_DIMS`].
    pub fn model_dim(&mut self) -> usize {
        MODEL_DIMS[self.next(MODEL_DIMS.len())]
    }

    /// A level's row count, `1..=40`.
    pub fn level_rows(&mut self) -> usize {
        1 + self.next(40)
    }

    /// Mix exact zeros (exercising the naive kernel's zero-skip), exact
    /// small integers and awkward fractions.
    pub fn value(&mut self) -> f32 {
        match self.next(6) {
            0 => 0.0,
            1 => -(self.next(4) as f32),
            2 => 1.0 / (1 + self.next(100)) as f32,
            _ => (self.next(2001) as f32 - 1000.0) * 1e-3,
        }
    }

    /// A value in roughly `[-1, 1]` drawn uniformly (no exact-zero spikes)
    /// — for finite-difference gradient checks, where repeated exact
    /// values make the numeric derivative degenerate.
    pub fn smooth_value(&mut self) -> f32 {
        (self.next(2001) as f32 - 1000.0) * 1e-3
    }

    /// A value with `|v| ∈ [0.2, 1.2]` — bounded away from zero, for ops
    /// with a kink at the origin (`relu`).
    pub fn value_off_zero(&mut self) -> f32 {
        let v = 0.2 + self.next(1001) as f32 * 1e-3;
        if self.next(2) == 0 {
            v
        } else {
            -v
        }
    }

    /// A matrix of [`SeedRng::smooth_value`]s.
    pub fn matrix(&mut self, rows: usize, cols: usize) -> Matrix {
        Matrix::from_fn(rows, cols, |_, _| self.smooth_value())
    }

    /// Non-decreasing segment assignment of `len` rows into `num` segments,
    /// every segment nonempty (`len >= num`): row `i` lands in segment
    /// `i·num/len`, which covers uneven segment sizes deterministically.
    pub fn segments(&mut self, len: usize, num: usize) -> Vec<usize> {
        let _ = self.next(2); // advance the stream so shapes downstream vary
        (0..len).map(|i| i * num / len).collect()
    }
}

/// Random GEMM operand pair: degenerate shapes (empty, `1×N`, `N×1`),
/// blocked-tile-aligned shapes, arbitrary in-between sizes, shapes large
/// enough to clear the parallel fan-out threshold, and model shapes (a
/// level's rows against [`MODEL_DIMS`] widths).
pub fn gemm_operands(seed: u64) -> (Matrix, Matrix) {
    let mut rng = SeedRng(seed | 1);
    let (m, k, n) = match rng.next(7) {
        0 => (rng.next(3), rng.next(13), rng.next(13)), // may be empty
        1 => (1, 1 + rng.next(24), 1 + rng.next(24)),   // 1×N
        2 => (1 + rng.next(24), 1 + rng.next(24), 1),   // N×1
        3 => (
            8 * (1 + rng.next(4)),
            8 * (1 + rng.next(4)),
            8 * (1 + rng.next(4)),
        ), // aligned
        4 => (64 + rng.next(120), 24 + rng.next(40), 24 + rng.next(40)), // parallel-scale (≥ PAR_MIN_FLOPS)
        5 => (rng.level_rows(), rng.model_dim(), rng.model_dim()),       // model shapes
        _ => (1 + rng.next(40), 1 + rng.next(40), 1 + rng.next(40)),
    };
    let a = Matrix::from_fn(m, k, |_, _| rng.value());
    let b = Matrix::from_fn(k, n, |_, _| rng.value());
    (a, b)
}

/// Random operands for the transpose products: `a (m×k)`, `t_b (m×n)` for
/// `aᵀ·b`, and `bt_b (j×k)` for `a·bᵀ` — shapes include empty and 1-wide,
/// parallel-scale (see [`parallel_transpose_operands`]), and model shapes
/// (the backward products of a level of `m` rows).
pub fn transpose_operands(seed: u64) -> (Matrix, Matrix, Matrix) {
    let mut rng = SeedRng(seed | 1);
    let (m, k, n, j) = match rng.next(6) {
        0 => (rng.next(3), rng.next(8), rng.next(8), rng.next(8)),
        1 => (1, 1 + rng.next(16), 1 + rng.next(16), 1),
        2 => parallel_transpose_dims(&mut rng),
        3 => (
            rng.level_rows(),
            rng.model_dim(),
            rng.model_dim(),
            rng.model_dim(),
        ),
        _ => (
            1 + rng.next(24),
            1 + rng.next(24),
            1 + rng.next(24),
            1 + rng.next(24),
        ),
    };
    transpose_matrices(&mut rng, (m, k, n, j))
}

/// [`transpose_operands`] at parallel scale only: `aᵀ·b` has at least 48
/// output rows (`a`'s columns, ≥ 2·`PAR_MIN_ROWS`) and at least
/// 32·48·48 ≥ `PAR_MIN_FLOPS` multiply-adds, so every pool of 2 or more
/// threads splits it into at least two chunks.
pub fn parallel_transpose_operands(seed: u64) -> (Matrix, Matrix, Matrix) {
    let mut rng = SeedRng(seed | 1);
    let dims = parallel_transpose_dims(&mut rng);
    transpose_matrices(&mut rng, dims)
}

/// `(m, k, n, j)` large enough that both transpose products fan out.
fn parallel_transpose_dims(rng: &mut SeedRng) -> (usize, usize, usize, usize) {
    (
        32 + rng.next(64),
        48 + rng.next(64),
        48 + rng.next(64),
        48 + rng.next(64),
    )
}

fn transpose_matrices(
    rng: &mut SeedRng,
    (m, k, n, j): (usize, usize, usize, usize),
) -> (Matrix, Matrix, Matrix) {
    let a = Matrix::from_fn(m, k, |_, _| rng.value());
    let t_b = Matrix::from_fn(m, n, |_, _| rng.value());
    let bt_b = Matrix::from_fn(j, k, |_, _| rng.value());
    (a, t_b, bt_b)
}

/// Random fused-gate operands `x (m×k)`, `w (k×d)`, `h (m×e)`, `u (e×d)`,
/// `bias (1×d)`.
pub fn gate_operands(seed: u64) -> (Matrix, Matrix, Matrix, Matrix, Matrix) {
    let mut rng = SeedRng(seed | 1);
    let m = 1 + rng.next(20);
    let k = 1 + rng.next(20);
    let e = 1 + rng.next(12);
    let d = 1 + rng.next(20);
    let x = Matrix::from_fn(m, k, |_, _| rng.value());
    let w = Matrix::from_fn(k, d, |_, _| rng.value());
    let h = Matrix::from_fn(m, e, |_, _| rng.value());
    let u = Matrix::from_fn(e, d, |_, _| rng.value());
    let bias = Matrix::from_fn(1, d, |_, _| rng.value());
    (x, w, h, u, bias)
}
