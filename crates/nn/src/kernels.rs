//! Register-tiled, vectorizer-friendly `f32` GEMM kernels and the runtime
//! dispatcher selecting between them.
//!
//! DeepSeq's levelized propagation spends nearly all of its time in matrix
//! products (per-level message transforms and the GRU gates of the paper's
//! Combine function, Eq. 8). This module concentrates the hot inner loops in
//! one place, behind the [`Kernel`] dispatch enum:
//!
//! * [`Kernel::Naive`] — the reference `i-k-j` triple loop. Slowest, but the
//!   arithmetic every other variant is measured against; the tests compare
//!   against it, and `DEEPSEQ_KERNEL=naive` runs the whole process on it.
//! * [`Kernel::Blocked`] — the same arithmetic, restructured into register
//!   tiles: one output row, 32 columns wide (a whole row at d = 32),
//!   accumulates in registers over the whole contraction, so 32
//!   independent add chains run at once. `a × bᵀ` packs `bᵀ` first and
//!   runs the same tiles; outputs narrower than 8 columns tile over rows
//!   instead. On x86-64 CPUs with AVX2 the same body runs compiled for
//!   AVX2 (no fused multiply-add), with the same bits (see
//!   [`simd_accelerated`]). A finished tile is added to its destination:
//!   a product writes into a zeroed output, where `+0.0 + chain` is the
//!   chain, and the add mode below adds into an existing matrix. Default
//!   for training and serving.
//!
//! # The numerics contract
//!
//! Both variants accumulate each output element over `k` **in ascending
//! order**, from zero, without fused multiply-add, so for finite inputs
//! they produce bitwise-identical results (property-tested in
//! `crates/nn/tests/properties.rs`). Picking between them is purely a
//! performance decision, never a numerics decision, and every path of
//! the process, the tape and training included, runs under the same
//! contract. See docs/ARCHITECTURE.md, "Numerics contract".
//!
//! # Adding a product in place
//!
//! [`Kernel::matmul_add_into`] and [`Kernel::t_matmul_add_into`] add a
//! product to an existing matrix with the bits of
//! `dest.add_assign(&fresh_product)`: under `blocked`, each chain still
//! starts from zero in a register and the finished chain is added to its
//! destination element, so there is no temporary and no second pass over
//! it; under `naive` they are exactly that composition. The tape's
//! backward pass adds every product term of its gradients this way.
//!
//! The fused entry point [`Kernel::matmul_bias_act`] covers the GRU gate
//! pattern `act(x·W + h·U + b)` in one call, adding `h·U` into the output
//! in place; it performs the identical floating-point sequence as the
//! unfused ops it replaces (product, add of the second product, broadcast
//! bias, activation), so fusing is also numerics-neutral.
//!
//! # Threading
//!
//! Large products are row-partitioned across the worker [`Pool`]: each
//! output row is still accumulated in ascending-`k` order by exactly one
//! worker, so multi-threaded results are **bitwise equal to single-threaded
//! at any thread count** — the chunk boundary only decides *who* computes a
//! row, never *how*. The plain entry points ([`Kernel::matmul`],
//! [`Kernel::matmul_into`], …) use the process-wide [`Pool::global`]
//! (sized by `DEEPSEQ_THREADS`); the `*_on` twins
//! ([`Kernel::matmul_into_on`], …) take an explicit pool for engines,
//! benchmarks and tests that manage their own. Products below
//! [`PAR_MIN_FLOPS`] multiply-adds stay on the calling thread.
//!
//! # Selection
//!
//! The `DEEPSEQ_KERNEL` environment variable (`naive` | `blocked`, read
//! once per process; any other value warns once to stderr and keeps the
//! default) overrides the default of the whole process, training and
//! serving alike. `naive` is the reference run:
//!
//! ```text
//! DEEPSEQ_KERNEL=naive target/release/deepseq-serve predict design.aag
//! ```
//!
//! # Example
//!
//! ```
//! use deepseq_nn::{Kernel, Matrix};
//!
//! let a = Matrix::from_fn(64, 48, |r, c| (r + c) as f32 * 0.01);
//! let b = Matrix::from_fn(48, 32, |r, c| (r as f32 - c as f32) * 0.01);
//!
//! // The kernels agree bitwise on finite inputs.
//! let reference = Kernel::Naive.matmul(&a, &b);
//! assert_eq!(Kernel::Blocked.matmul(&a, &b), reference);
//!
//! // `Matrix::matmul` dispatches through the process-wide default, one of
//! // the two — bitwise in every environment.
//! assert_eq!(a.matmul(&b), reference);
//! ```

use std::cell::RefCell;
use std::ops::Range;
use std::sync::OnceLock;

use crate::matrix::Matrix;
use crate::pool::{chunk_ranges_or_whole, Pool};

/// True when the running CPU executes [`Kernel::Blocked`]'s AVX2 build;
/// false means the portable build runs, which computes the same bits.
/// Useful for benchmark and CI notices; never needed for correctness.
pub fn simd_accelerated() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Environment variable naming the kernel to use process-wide
/// (`naive` | `blocked`). Read once, on first dispatch; an unrecognized
/// value warns once to stderr and keeps the default, and an empty value
/// behaves like an unset variable.
pub const KERNEL_ENV: &str = "DEEPSEQ_KERNEL";

thread_local! {
    /// Reused packing scratch of blocked `a × bᵀ`, which transposes its
    /// right-hand operand first; grows to the largest operand seen on this
    /// thread and is then reused, mirroring the serve path's `Workspace`
    /// buffer discipline. Parallel products pack once on the calling
    /// thread and share the packed operand read-only with the workers.
    static PACK_SCRATCH: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` with the thread-local pack buffer *moved out* of its `RefCell`
/// for the duration. The buffer must not stay borrowed across a pool
/// fan-out: while parked in `Pool::run` this thread may help-execute
/// another task that itself packs an operand, and a live borrow would
/// panic (`BorrowMutError`). Taking the `Vec` out keeps the re-entrant
/// product on its own (freshly grown) buffer; ours is restored afterwards.
fn with_pack_scratch(f: impl FnOnce(&mut Vec<f32>)) {
    let mut pack = PACK_SCRATCH.with(|s| std::mem::take(&mut *s.borrow_mut()));
    f(&mut pack);
    PACK_SCRATCH.with(|s| *s.borrow_mut() = pack);
}

/// Minimum multiply-adds (`m·k·n`) before a product fans out across the
/// pool — below this, partitioning overhead outweighs the work.
pub const PAR_MIN_FLOPS: usize = 1 << 16;

/// Minimum output rows per parallel chunk.
const PAR_MIN_ROWS: usize = 8;

/// Element-wise activation applied by the fused kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Act {
    /// No activation.
    Identity,
    /// Logistic sigmoid `1 / (1 + e^(-x))`.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
    /// Rectified linear unit `max(x, 0)`.
    Relu,
}

impl Act {
    /// Applies the activation in place. The per-element expressions match
    /// [`Tape`](crate::Tape)'s `sigmoid`/`tanh`/`relu` ops exactly, so fused
    /// and unfused paths stay bitwise-equal.
    pub fn apply(self, data: &mut [f32]) {
        match self {
            Act::Identity => {}
            Act::Sigmoid => {
                for v in data {
                    *v = 1.0 / (1.0 + (-*v).exp());
                }
            }
            Act::Tanh => {
                for v in data {
                    *v = v.tanh();
                }
            }
            Act::Relu => {
                for v in data {
                    *v = v.max(0.0);
                }
            }
        }
    }
}

/// The GEMM variant used by the matrix-product entry points.
///
/// `Kernel` is a stateless `Copy` token: hold one wherever you do repeated
/// products (the serve `Workspace` does) and call its methods. See the
/// [module docs](self) for variant trade-offs and the `DEEPSEQ_KERNEL`
/// override.
///
/// # Example
/// ```
/// use deepseq_nn::{Kernel, Matrix};
///
/// let x = Matrix::from_fn(3, 5, |r, c| (r * 5 + c) as f32);
/// let w = Matrix::eye(5);
/// let mut out = Matrix::default();
/// Kernel::Blocked.matmul_into(&x, &w, &mut out);
/// assert_eq!(out, x);
/// assert_eq!(Kernel::parse("blocked"), Some(Kernel::Blocked));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Kernel {
    /// Reference `i-k-j` triple loop (skips zero left-hand entries).
    #[default]
    Naive,
    /// Register-tiled output rows: the default for training and serving.
    Blocked,
}

impl Kernel {
    /// Every variant, for iteration in tests and benchmarks.
    pub const ALL: [Kernel; 2] = [Kernel::Naive, Kernel::Blocked];

    /// Parses a kernel name (`naive` | `blocked`, case-insensitive).
    /// These are exactly the values accepted in `DEEPSEQ_KERNEL`.
    pub fn parse(name: &str) -> Option<Kernel> {
        match name.trim().to_ascii_lowercase().as_str() {
            "naive" => Some(Kernel::Naive),
            "blocked" => Some(Kernel::Blocked),
            _ => None,
        }
    }

    /// The kernel named by `DEEPSEQ_KERNEL`, if set to a recognized name.
    /// The variable is read once; later changes have no effect. An empty
    /// (or all-whitespace) value behaves like an unset variable; anything
    /// else [`Kernel::parse`] rejects warns once to stderr and behaves
    /// like an unset variable.
    pub fn from_env() -> Option<Kernel> {
        static FROM_ENV: OnceLock<Option<Kernel>> = OnceLock::new();
        *FROM_ENV.get_or_init(|| match std::env::var(KERNEL_ENV) {
            Ok(value) if value.trim().is_empty() => None,
            Ok(value) => {
                let parsed = Kernel::parse(&value);
                if parsed.is_none() {
                    crate::config::report_warning(format!(
                        "{KERNEL_ENV}={value:?} is not a recognized kernel \
                         (accepted: naive | blocked); using the default"
                    ));
                }
                parsed
            }
            Err(_) => None,
        })
    }

    /// The process-wide default kernel: `DEEPSEQ_KERNEL` if set to a
    /// recognized name, otherwise [`Kernel::Blocked`]. The [`Matrix`]
    /// product methods (and therefore the autograd tape and training) and
    /// the serve `Workspace` all dispatch through it;
    /// `DEEPSEQ_KERNEL=naive` puts the whole process on the reference
    /// loops, which compute the same bits.
    pub fn global() -> Kernel {
        Kernel::from_env().unwrap_or(Kernel::Blocked)
    }

    /// The serving default, which is [`Kernel::global`]: serving and
    /// training run the same kernel. Kept so that existing callers still
    /// compile; new code calls [`Kernel::global`].
    pub fn for_serve() -> Kernel {
        Kernel::global()
    }

    /// The lower-case name (`"naive"` | `"blocked"`).
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Naive => "naive",
            Kernel::Blocked => "blocked",
        }
    }

    /// The [`crate::trace::pack_gemm`] tag of a kernel, so GEMM spans
    /// name the kernel that ran them in `/debug/trace`.
    fn trace_tag(self) -> u8 {
        match self {
            Kernel::Naive => 1,
            Kernel::Blocked => 2,
        }
    }

    /// Matrix product `a × b` into a fresh matrix.
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn matmul(self, a: &Matrix, b: &Matrix) -> Matrix {
        self.matmul_on(Pool::global(), a, b)
    }

    /// [`Kernel::matmul`] on an explicit worker pool.
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn matmul_on(self, pool: &Pool, a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::default();
        self.matmul_into_on(pool, a, b, &mut out);
        out
    }

    /// Writes `a × b` into `out` (reshaped via [`Matrix::reset`]), reusing
    /// `out`'s allocation.
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn matmul_into(self, a: &Matrix, b: &Matrix, out: &mut Matrix) {
        self.matmul_into_on(Pool::global(), a, b, out);
    }

    /// [`Kernel::matmul_into`] on an explicit worker pool: rows of `out`
    /// are partitioned across the pool when the product is large enough
    /// (results are bitwise-identical at any thread count).
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn matmul_into_on(self, pool: &Pool, a: &Matrix, b: &Matrix, out: &mut Matrix) {
        assert_matmul_dims(a, b);
        out.reset(a.rows(), b.cols());
        self.gemm(pool, a, b, out.data_mut());
    }

    /// Adds `a × b` to `out` in place, with the bits of
    /// `out.add_assign(&self.matmul(a, b))`: every output element's chain
    /// over `k` starts from zero, and the finished chain is added to its
    /// destination element. Under [`Kernel::Naive`], the reference, it is
    /// that composition, so it allocates the product.
    ///
    /// # Panics
    /// Panics on dimension mismatch, or if `out` is not `a.rows()×b.cols()`.
    pub fn matmul_add_into(self, a: &Matrix, b: &Matrix, out: &mut Matrix) {
        self.matmul_add_into_on(Pool::global(), a, b, out);
    }

    /// [`Kernel::matmul_add_into`] on an explicit worker pool (rows
    /// partitioned as in [`Kernel::matmul_into_on`]).
    ///
    /// # Panics
    /// Panics on dimension mismatch, or if `out` is not `a.rows()×b.cols()`.
    pub fn matmul_add_into_on(self, pool: &Pool, a: &Matrix, b: &Matrix, out: &mut Matrix) {
        assert_matmul_dims(a, b);
        assert_eq!(
            out.shape(),
            (a.rows(), b.cols()),
            "matmul_add_into destination"
        );
        match self {
            // The reference: a fresh product, then one add per element.
            Kernel::Naive => out.add_assign(&self.matmul_on(pool, a, b)),
            Kernel::Blocked => self.gemm(pool, a, b, out.data_mut()),
        }
    }

    /// `aᵀ × b` without materializing the transpose (tape backward pass).
    ///
    /// # Panics
    /// Panics if row counts differ.
    pub fn t_matmul(self, a: &Matrix, b: &Matrix) -> Matrix {
        self.t_matmul_on(Pool::global(), a, b)
    }

    /// [`Kernel::t_matmul`] on an explicit worker pool. Output rows
    /// (columns of `a`) are partitioned across the pool for large products;
    /// per output element the contraction stays in ascending row order, so
    /// results are bitwise-identical at any thread count.
    ///
    /// # Panics
    /// Panics if row counts differ.
    pub fn t_matmul_on(self, pool: &Pool, a: &Matrix, b: &Matrix) -> Matrix {
        assert_eq!(a.rows(), b.rows(), "t_matmul row mismatch");
        let mut out = Matrix::zeros(a.cols(), b.cols());
        self.t_gemm(pool, a, b, out.data_mut());
        out
    }

    /// Adds `aᵀ × b` to `out` in place, with the bits of
    /// `out.add_assign(&self.t_matmul(a, b))` (see
    /// [`Kernel::matmul_add_into`]). The tape's weight gradients `xᵀ·g`
    /// take this path.
    ///
    /// # Panics
    /// Panics if row counts differ, or if `out` is not `a.cols()×b.cols()`.
    pub fn t_matmul_add_into(self, a: &Matrix, b: &Matrix, out: &mut Matrix) {
        self.t_matmul_add_into_on(Pool::global(), a, b, out);
    }

    /// [`Kernel::t_matmul_add_into`] on an explicit worker pool (output
    /// rows partitioned as in [`Kernel::t_matmul_on`]).
    ///
    /// # Panics
    /// Panics if row counts differ, or if `out` is not `a.cols()×b.cols()`.
    pub fn t_matmul_add_into_on(self, pool: &Pool, a: &Matrix, b: &Matrix, out: &mut Matrix) {
        assert_eq!(a.rows(), b.rows(), "t_matmul row mismatch");
        assert_eq!(
            out.shape(),
            (a.cols(), b.cols()),
            "t_matmul_add_into destination"
        );
        match self {
            // The reference: a fresh product, then one add per element.
            Kernel::Naive => out.add_assign(&self.t_matmul_on(pool, a, b)),
            Kernel::Blocked => self.t_gemm(pool, a, b, out.data_mut()),
        }
    }

    /// `a × bᵀ` without materializing the transpose (tape backward pass).
    ///
    /// # Panics
    /// Panics if column counts differ.
    pub fn matmul_t(self, a: &Matrix, b: &Matrix) -> Matrix {
        self.matmul_t_on(Pool::global(), a, b)
    }

    /// [`Kernel::matmul_t`] on an explicit worker pool. Rows of `a` are
    /// partitioned across the pool for large products; every output element
    /// is one ascending-`k` dot product regardless of partitioning, so
    /// results are bitwise-identical at any thread count.
    ///
    /// # Panics
    /// Panics if column counts differ.
    pub fn matmul_t_on(self, pool: &Pool, a: &Matrix, b: &Matrix) -> Matrix {
        assert_eq!(a.cols(), b.cols(), "matmul_t col mismatch");
        let (m, k, nb) = (a.rows(), a.cols(), b.rows());
        let mut out = Matrix::zeros(m, nb);
        if m == 0 || nb == 0 {
            return out;
        }
        let _span = crate::trace::span_with(
            crate::trace::SpanKind::Gemm,
            crate::trace::pack_gemm(m, k, nb, self.trace_tag()),
        );
        let (a, b, o) = (a.data(), b.data(), out.data_mut());
        match self {
            Kernel::Naive => run_row_tasks(pool, a, b, o, m, k, nb, gemm_bt_naive_rows),
            // Packed bᵀ turns `a × bᵀ` into the plain blocked product.
            Kernel::Blocked => with_pack_scratch(|pack| {
                pack_transpose(b, nb, k, pack);
                run_row_tasks(pool, a, pack, o, m, k, nb, gemm_blocked);
            }),
        }
        out
    }

    /// Fused `out = act(x·w [+ h·u] [+ bias])` — the GRU gate pattern of the
    /// Combine function (Eq. 8), the additive-attention score (Eq. 5/6)
    /// and, with `second = None`, a dense layer of the readout heads, in
    /// one call.
    ///
    /// The optional second product is added into `out` in place
    /// ([`Kernel::matmul_add_into`]), so the call needs no scratch. The
    /// floating-point sequence is exactly the unfused one — product, add of
    /// the fully formed second product, broadcast bias, activation — so
    /// results are bitwise-identical to composing [`Kernel::matmul_into`],
    /// [`Matrix::add_assign`], [`Matrix::add_row_assign`] and
    /// [`Act::apply`] by hand.
    ///
    /// # Panics
    /// Panics on any operand dimension mismatch.
    pub fn matmul_bias_act(
        self,
        x: &Matrix,
        w: &Matrix,
        second: Option<(&Matrix, &Matrix)>,
        bias: Option<&Matrix>,
        act: Act,
        out: &mut Matrix,
    ) {
        self.matmul_bias_act_on(Pool::global(), x, w, second, bias, act, out);
    }

    /// [`Kernel::matmul_bias_act`] on an explicit worker pool (the products
    /// row-partition; the element-wise tail stays on the caller).
    ///
    /// # Panics
    /// Panics on any operand dimension mismatch.
    #[allow(clippy::too_many_arguments)]
    pub fn matmul_bias_act_on(
        self,
        pool: &Pool,
        x: &Matrix,
        w: &Matrix,
        second: Option<(&Matrix, &Matrix)>,
        bias: Option<&Matrix>,
        act: Act,
        out: &mut Matrix,
    ) {
        self.matmul_into_on(pool, x, w, out);
        if let Some((h, u)) = second {
            self.matmul_add_into_on(pool, h, u, out);
        }
        if let Some(b) = bias {
            out.add_row_assign(b);
        }
        act.apply(out.data_mut());
    }

    /// Accumulates `a × b` into `out` (`a.rows()×b.cols()`), row-partitioned
    /// across the pool when large enough. `Blocked` adds each finished
    /// chain to its `out` element; `Naive` runs its chains from the `out`
    /// values, which matches that only on a zeroed `out`, so its add mode
    /// is the composition in [`Kernel::matmul_add_into_on`].
    fn gemm(self, pool: &Pool, a: &Matrix, b: &Matrix, out: &mut [f32]) {
        let (m, k, n) = (a.rows(), a.cols(), b.cols());
        if m == 0 || n == 0 {
            return;
        }
        let _span = crate::trace::span_with(
            crate::trace::SpanKind::Gemm,
            crate::trace::pack_gemm(m, k, n, self.trace_tag()),
        );
        let (a, b) = (a.data(), b.data());
        match self {
            Kernel::Naive => run_row_tasks(pool, a, b, out, m, k, n, gemm_naive),
            Kernel::Blocked => run_row_tasks(pool, a, b, out, m, k, n, gemm_blocked),
        }
    }

    /// Accumulates `aᵀ × b` into `out` (`a.cols()×b.cols()`), output rows
    /// partitioned across the pool when large enough; `out` as in
    /// [`Kernel::gemm`].
    fn t_gemm(self, pool: &Pool, a: &Matrix, b: &Matrix, out: &mut [f32]) {
        let (m, ka, n) = (a.rows(), a.cols(), b.cols());
        if ka == 0 || n == 0 {
            return;
        }
        let _span = crate::trace::span_with(
            crate::trace::SpanKind::Gemm,
            crate::trace::pack_gemm(ka, m, n, self.trace_tag()),
        );
        let (a, b) = (a.data(), b.data());
        match self {
            Kernel::Naive => run_trow_tasks(pool, a, b, out, m, ka, n, t_gemm_naive_rows),
            Kernel::Blocked => run_trow_tasks(pool, a, b, out, m, ka, n, t_gemm_blocked_rows),
        }
    }
}

/// Panics unless `a × b` is defined.
fn assert_matmul_dims(a: &Matrix, b: &Matrix) {
    assert_eq!(
        a.cols(),
        b.rows(),
        "matmul {}x{} × {}x{}",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
}

/// The output-row chunks one product fans out over: `None` when it stays
/// on the calling thread, because it is below [`PAR_MIN_FLOPS`], the pool
/// has one thread or the rows make a single chunk; otherwise up to
/// `pool.threads()` chunks of at least [`PAR_MIN_ROWS`] rows. Most of the
/// model's products are small, so this decides before it allocates.
fn par_ranges(pool: &Pool, rows: usize, k: usize, n: usize) -> Option<Vec<Range<usize>>> {
    let flops = rows.saturating_mul(k).saturating_mul(n);
    if flops < PAR_MIN_FLOPS || pool.threads() == 1 {
        return None;
    }
    let ranges = chunk_ranges_or_whole(rows, pool.threads(), PAR_MIN_ROWS);
    (ranges.len() > 1).then_some(ranges)
}

/// Runs a row kernel over the `rows` rows of `a` and `out`, sharing `b`
/// read-only: straight on the caller, or split by rows across the pool
/// when [`par_ranges`] fans the product out. The kernel signature is
/// `(a_rows, b, out_rows, rows, k, n)` where `a_rows`/`out_rows` hold
/// exactly `rows` rows.
#[allow(clippy::too_many_arguments)]
fn run_row_tasks<F>(
    pool: &Pool,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    rows: usize,
    k: usize,
    n: usize,
    f: F,
) where
    F: Fn(&[f32], &[f32], &mut [f32], usize, usize, usize) + Copy + Send + Sync,
{
    let Some(ranges) = par_ranges(pool, rows, k, n) else {
        f(a, b, out, rows, k, n);
        return;
    };
    let mut tasks: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::with_capacity(ranges.len());
    let mut rest = out;
    for r in ranges {
        let rows = r.len();
        let (chunk, tail) = rest.split_at_mut(rows * n);
        rest = tail;
        let a_rows = &a[r.start * k..r.end * k];
        tasks.push(Box::new(move || f(a_rows, b, chunk, rows, k, n)));
    }
    pool.run(tasks);
}

/// Runs a transpose row kernel over the `ka` output rows (columns of `a`),
/// straight on the caller or split across the pool as in
/// [`run_row_tasks`]; `a` and `b` are shared read-only, `out` split by
/// rows. The kernel signature is `(a, b, out_rows, m, ka, n, i0, i1)` —
/// computes output rows `i0..i1` (columns of `a`) into `out_rows`.
#[allow(clippy::too_many_arguments)]
fn run_trow_tasks<F>(
    pool: &Pool,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    ka: usize,
    n: usize,
    f: F,
) where
    F: Fn(&[f32], &[f32], &mut [f32], usize, usize, usize, usize, usize) + Copy + Send + Sync,
{
    let Some(ranges) = par_ranges(pool, ka, m, n) else {
        f(a, b, out, m, ka, n, 0, ka);
        return;
    };
    let mut tasks: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::with_capacity(ranges.len());
    let mut rest = out;
    for r in ranges {
        let (chunk, tail) = rest.split_at_mut(r.len() * n);
        rest = tail;
        tasks.push(Box::new(move || f(a, b, chunk, m, ka, n, r.start, r.end)));
    }
    pool.run(tasks);
}

/// Reference `i-k-j` loop; skips zero left-hand entries. This is the
/// arithmetic contract every other kernel reproduces bit-for-bit.
fn gemm_naive(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    for i in 0..m {
        for p in 0..k {
            let av = a[i * k + p];
            if av == 0.0 {
                continue;
            }
            let brow = &b[p * n..(p + 1) * n];
            let orow = &mut out[i * n..(i + 1) * n];
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o += av * bv;
            }
        }
    }
}

/// Blocked `a × b` added into a row chunk: the register-tiled
/// [`blocked_rows`] body with `a`'s rows as the tile rows.
fn gemm_blocked(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    blocked_rows(a, k, 1, b, out, m, k, n);
}

/// Reference `aᵀ × b` over output rows `i0..i1`: accumulates row `r` of `a`
/// against row `r` of `b`, `r` ascending per output element — identical
/// order at any partitioning.
#[allow(clippy::too_many_arguments)]
fn t_gemm_naive_rows(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    ka: usize,
    n: usize,
    i0: usize,
    i1: usize,
) {
    for r in 0..m {
        let arow = &a[r * ka..(r + 1) * ka];
        let brow = &b[r * n..(r + 1) * n];
        for i in i0..i1 {
            let av = arow[i];
            if av == 0.0 {
                continue;
            }
            let orow = &mut out[(i - i0) * n..(i - i0 + 1) * n];
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o += av * bv;
            }
        }
    }
}

/// Blocked `aᵀ × b` added into output rows `i0..i1`: the register-tiled
/// [`blocked_rows`] body with `a`'s columns `i0..i1` as the tile rows and
/// the `m` rows of `a` and `b` as the contraction.
#[allow(clippy::too_many_arguments)]
fn t_gemm_blocked_rows(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    ka: usize,
    n: usize,
    i0: usize,
    i1: usize,
) {
    blocked_rows(&a[i0..], 1, ka, b, out, i1 - i0, m, n);
}

/// Reference `a × bᵀ` over a row chunk of `a`: one dot product per output
/// element, `k` ascending.
fn gemm_bt_naive_rows(a: &[f32], b: &[f32], out: &mut [f32], rows: usize, k: usize, nb: usize) {
    for i in 0..rows {
        let arow = &a[i * k..(i + 1) * k];
        for j in 0..nb {
            let brow = &b[j * k..(j + 1) * k];
            let mut acc = out[i * nb + j];
            for (&av, &bv) in arow.iter().zip(brow) {
                acc += av * bv;
            }
            out[i * nb + j] = acc;
        }
    }
}

/// Writes `bᵀ` of a row-major `nb × k` matrix `b` into `pack` as a
/// row-major `k × nb` matrix, so the blocked kernel runs `a × bᵀ` as the
/// plain product `a × pack`.
fn pack_transpose(b: &[f32], nb: usize, k: usize, pack: &mut Vec<f32>) {
    pack.clear();
    pack.resize(k * nb, 0.0);
    for (p, prow) in pack.chunks_exact_mut(nb).enumerate() {
        for (j, o) in prow.iter_mut().enumerate() {
            *o = b[j * k + p];
        }
    }
}

/// The blocked kernels' body: adds `A × b` into `rows` output rows.
/// Element `(i, p)` of `A` is `a[i·rs + p·ps]` (`rs = k, ps = 1` for `a`'s
/// rows, `rs = 1, ps = ka` for its columns), `b` is row-major `k × n` and
/// `out` holds exactly `rows` rows of `n`.
///
/// Each output element is one chain over ascending `p` that starts from
/// zero in a register and takes a separate multiply and add per step — the
/// reference kernels' arithmetic, so the bits match theirs on finite
/// inputs. The finished chain is then added to its `out` element. A
/// product writes into a zeroed output, and a chain that starts at `+0.0`
/// never ends at `-0.0`, so `+0.0 + chain` is the chain itself; into an
/// existing matrix the add gives the bits of adding a fresh product with
/// [`Matrix::add_assign`].
/// The tiles only decide how many such chains run at once, each with all
/// its accumulators in registers for the whole contraction: one-row tiles
/// 32, 16 and 8 columns wide cover each row from the left (at d = 32 one
/// tile is a whole output row, 32 independent chains); the last
/// `n mod 8` columns, and so every output narrower than 8 columns, tile
/// over rows instead — 4 rows × 4 columns, then 8 rows × 1 column.
///
/// On x86-64 CPUs with AVX2 the same body runs compiled for AVX2 (wider
/// vectors, still no fused multiply-add), which computes the same bits.
#[allow(clippy::too_many_arguments)]
fn blocked_rows(
    a: &[f32],
    rs: usize,
    ps: usize,
    b: &[f32],
    out: &mut [f32],
    rows: usize,
    k: usize,
    n: usize,
) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: `blocked_rows_avx2` is `blocked_body` compiled for AVX2;
        // its only requirement is a CPU that executes AVX2, which the
        // runtime check above just confirmed. Edge test:
        // `avx2_blocked_body_matches_portable_bits`.
        #[allow(unsafe_code)]
        unsafe {
            blocked_rows_avx2(a, rs, ps, b, out, rows, k, n)
        };
        return;
    }
    blocked_body(a, rs, ps, b, out, rows, k, n);
}

/// [`blocked_body`] compiled for AVX2. The feature adds 256-bit vectors
/// only: no fused multiply-add, so the bits are the portable body's.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
fn blocked_rows_avx2(
    a: &[f32],
    rs: usize,
    ps: usize,
    b: &[f32],
    out: &mut [f32],
    rows: usize,
    k: usize,
    n: usize,
) {
    blocked_body(a, rs, ps, b, out, rows, k, n);
}

/// See [`blocked_rows`].
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn blocked_body(
    a: &[f32],
    rs: usize,
    ps: usize,
    b: &[f32],
    out: &mut [f32],
    rows: usize,
    k: usize,
    n: usize,
) {
    if rows == 0 || n == 0 {
        return;
    }
    let (b, out) = (&b[..k * n], &mut out[..rows * n]);
    let mut j = 0;
    j = band::<1, 32>(a, rs, ps, b, out, rows, n, j);
    j = band::<1, 16>(a, rs, ps, b, out, rows, n, j);
    j = band::<1, 8>(a, rs, ps, b, out, rows, n, j);
    j = band::<4, 4>(a, rs, ps, b, out, rows, n, j);
    band::<8, 1>(a, rs, ps, b, out, rows, n, j);
}

/// Covers `W`-column bands of the output from column `j` while they fit,
/// each with `R × W` tiles down the rows (and `1 × W` tiles for the last
/// `rows mod R`); returns the first column left over.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn band<const R: usize, const W: usize>(
    a: &[f32],
    rs: usize,
    ps: usize,
    b: &[f32],
    out: &mut [f32],
    rows: usize,
    n: usize,
    mut j: usize,
) -> usize {
    while j + W <= n {
        let mut i = 0;
        while i + R <= rows {
            tile::<R, W>(a, rs, ps, b, out, n, i, j);
            i += R;
        }
        while i < rows {
            tile::<1, W>(a, rs, ps, b, out, n, i, j);
            i += 1;
        }
        j += W;
    }
    j
}

/// The `R × W` output tile at rows `i..i + R`, columns `j..j + W`, with
/// its `R·W` accumulators in registers for the whole contraction; each
/// starts from zero and is added to its `out` element at the end.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn tile<const R: usize, const W: usize>(
    a: &[f32],
    rs: usize,
    ps: usize,
    b: &[f32],
    out: &mut [f32],
    n: usize,
    i: usize,
    j: usize,
) {
    let mut acc = [[0.0f32; W]; R];
    // Index loops over fixed-size arrays rather than iterator chains:
    // optimized, both compile to the same register tile (no bounds check
    // in the inner loop); unoptimized, as in test builds, these make fewer
    // calls per step.
    for (p, brow) in b.chunks_exact(n).enumerate() {
        let brow: &[f32; W] = brow[j..].first_chunk().expect("tile in b");
        for r in 0..R {
            let av = a[(i + r) * rs + p * ps];
            let accr = &mut acc[r];
            for t in 0..W {
                accr[t] += av * brow[t];
            }
        }
    }
    for (r, acc) in acc.iter().enumerate() {
        let dest: &mut [f32; W] = out[(i + r) * n + j..]
            .first_chunk_mut()
            .expect("tile in out");
        for t in 0..W {
            dest[t] += acc[t];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(rows: usize, cols: usize, seed: f32) -> Matrix {
        Matrix::from_fn(rows, cols, |r, c| {
            ((r * cols + c) as f32).sin() * seed + (r as f32 - c as f32) * 0.01
        })
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.data().iter().map(|v| v.to_bits()).collect()
    }

    /// `dest` plus `product`, through [`Matrix::add_assign`].
    fn added(dest: &Matrix, product: &Matrix) -> Matrix {
        let mut sum = dest.clone();
        sum.add_assign(product);
        sum
    }

    #[test]
    fn all_kernels_agree_bitwise() {
        // The small widths run every mix of the blocked kernel's 32-, 16-,
        // 8-, 4-wide and one-column tiles, the row counts every 4- and
        // 8-row tail; then a few larger shapes.
        let widths = [
            1, 2, 3, 4, 5, 7, 8, 9, 12, 16, 17, 24, 31, 32, 33, 47, 68, 70,
        ];
        let grid = widths.into_iter().flat_map(|n| {
            [1, 2, 3, 4, 5, 7, 8, 9, 12, 17]
                .into_iter()
                .flat_map(move |m| [0, 1, 3, 33].map(|k| (m, k, n)))
        });
        let more = [
            (3, 5, 7),
            (8, 8, 8),
            (17, 33, 9),
            (64, 96, 40),
            (5, 1, 5),
            (1, 12, 1),
        ];
        for (m, k, n) in grid.chain(more) {
            let a = filled(m, k, 0.7);
            let b = filled(k, n, -0.4);
            let t_a = filled(k, m, 0.3);
            let bt_b = filled(n, k, -0.9);
            // Destinations of the add mode, with values of both signs.
            let dest = filled(m, n, 1.3);
            for kernel in Kernel::ALL {
                let shape = format!("{} {m}x{k}x{n}", kernel.name());
                let naive = Kernel::Naive;
                let product = kernel.matmul(&a, &b);
                assert_eq!(bits(&product), bits(&naive.matmul(&a, &b)), "{shape}");
                let t_product = kernel.t_matmul(&t_a, &b);
                let want = naive.t_matmul(&t_a, &b);
                assert_eq!(bits(&t_product), bits(&want), "t_matmul {shape}");
                let (got, want) = (kernel.matmul_t(&a, &bt_b), naive.matmul_t(&a, &bt_b));
                assert_eq!(bits(&got), bits(&want), "matmul_t {shape}");

                // The add mode gives the bits of the fresh product added
                // with `add_assign`, and `Blocked` those of `Naive`.
                let mut got = dest.clone();
                kernel.matmul_add_into(&a, &b, &mut got);
                assert_eq!(bits(&got), bits(&added(&dest, &product)), "add {shape}");
                let mut want = dest.clone();
                naive.matmul_add_into(&a, &b, &mut want);
                assert_eq!(bits(&got), bits(&want), "add vs naive {shape}");
                let mut got = dest.clone();
                kernel.t_matmul_add_into(&t_a, &b, &mut got);
                let t_want = added(&dest, &t_product);
                assert_eq!(bits(&got), bits(&t_want), "t_matmul add {shape}");
                let mut want = dest.clone();
                naive.t_matmul_add_into(&t_a, &b, &mut want);
                assert_eq!(bits(&got), bits(&want), "t_matmul add vs naive {shape}");
            }
        }
    }

    #[test]
    fn parallel_matches_serial_bitwise() {
        // Big enough to clear PAR_MIN_FLOPS so the pools genuinely fan out.
        let a = filled(96, 40, 0.7);
        let b = filled(40, 48, -0.4);
        let t_b = filled(96, 33, 0.2);
        let bt_b = filled(56, 40, -0.8);
        let serial = Pool::new(1);
        for threads in [2, 4, 7] {
            let pool = Pool::new(threads);
            for kernel in Kernel::ALL {
                assert_eq!(
                    kernel.matmul_on(&pool, &a, &b),
                    kernel.matmul_on(&serial, &a, &b),
                    "matmul {} t{threads}",
                    kernel.name()
                );
                assert_eq!(
                    kernel.t_matmul_on(&pool, &a, &t_b),
                    kernel.t_matmul_on(&serial, &a, &t_b),
                    "t_matmul {} t{threads}",
                    kernel.name()
                );
                assert_eq!(
                    kernel.matmul_t_on(&pool, &a, &bt_b),
                    kernel.matmul_t_on(&serial, &a, &bt_b),
                    "matmul_t {} t{threads}",
                    kernel.name()
                );
            }
        }
    }

    #[test]
    fn transpose_variants_agree_bitwise() {
        let a = filled(13, 6, 0.3);
        let b = filled(13, 11, -0.9);
        let reference = Kernel::Naive.t_matmul(&a, &b);
        let bt_a = filled(9, 14, 0.5);
        let bt_b = filled(7, 14, 0.2);
        let bt_reference = Kernel::Naive.matmul_t(&bt_a, &bt_b);
        for kernel in Kernel::ALL {
            assert_eq!(kernel.t_matmul(&a, &b), reference, "{}", kernel.name());
            assert_eq!(
                kernel.matmul_t(&bt_a, &bt_b),
                bt_reference,
                "{}",
                kernel.name()
            );
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_blocked_body_matches_portable_bits() {
        if !std::arch::is_x86_feature_detected!("avx2") {
            eprintln!("skipped: no avx2 here, the portable body is the only path");
            return;
        }
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for n in [1, 3, 4, 8, 17, 32, 68] {
            for m in [1, 5, 8, 9] {
                for k in [0, 1, 33] {
                    let b = filled(k, n, -0.4);
                    // Into a destination of both signs.
                    let dest = filled(m, n, 1.3);
                    // `a`'s rows (`a × b`) and its columns (`aᵀ × b`).
                    for (a, rs, ps) in [(filled(m, k, 0.7), k, 1), (filled(k, m, 0.3), 1, m)] {
                        let (a, b) = (a.data(), b.data());
                        let mut want = dest.data().to_vec();
                        blocked_body(a, rs, ps, b, &mut want, m, k, n);
                        let mut got = dest.data().to_vec();
                        // SAFETY: the CPU executes AVX2, checked above.
                        // Edge test: `avx2_blocked_body_matches_portable_bits`
                        // (this one).
                        #[allow(unsafe_code)]
                        unsafe {
                            blocked_rows_avx2(a, rs, ps, b, &mut got, m, k, n)
                        };
                        assert_eq!(bits(&got), bits(&want), "{m}x{k}x{n} rs={rs}");
                    }
                }
            }
        }
    }

    #[test]
    fn empty_shapes_are_handled() {
        for kernel in Kernel::ALL {
            let a = Matrix::zeros(0, 4);
            let b = Matrix::zeros(4, 3);
            assert_eq!(kernel.matmul(&a, &b).shape(), (0, 3));
            let a = Matrix::zeros(3, 0);
            let b = Matrix::zeros(0, 2);
            assert_eq!(kernel.matmul(&a, &b), Matrix::zeros(3, 2));
            assert_eq!(
                kernel.t_matmul(&Matrix::zeros(0, 4), &Matrix::zeros(0, 2)),
                Matrix::zeros(4, 2)
            );
            assert_eq!(
                kernel.matmul_t(&Matrix::zeros(2, 0), &Matrix::zeros(3, 0)),
                Matrix::zeros(2, 3)
            );
        }
    }

    #[test]
    fn fused_matches_unfused_sequence() {
        let x = filled(10, 6, 0.4);
        let w = filled(6, 4, -0.3);
        let h = filled(10, 3, 0.9);
        let u = filled(3, 4, 0.6);
        let bias = filled(1, 4, 0.1);
        for kernel in Kernel::ALL {
            let mut out = Matrix::default();
            kernel.matmul_bias_act(&x, &w, Some((&h, &u)), Some(&bias), Act::Sigmoid, &mut out);
            let mut expect = kernel.matmul(&x, &w);
            expect.add_assign(&kernel.matmul(&h, &u));
            expect.add_row_assign(&bias);
            Act::Sigmoid.apply(expect.data_mut());
            assert_eq!(out, expect, "{}", kernel.name());
        }
    }

    #[test]
    fn parse_and_names_roundtrip() {
        for kernel in Kernel::ALL {
            assert_eq!(Kernel::parse(kernel.name()), Some(kernel));
            assert_eq!(Kernel::parse(&kernel.name().to_uppercase()), Some(kernel));
        }
        for retired in ["simd", "simd9000", "packed", "auto"] {
            assert_eq!(Kernel::parse(retired), None, "{retired}");
        }
    }

    #[test]
    fn trace_tags_are_distinct_and_fit_four_bits() {
        let tags = Kernel::ALL.map(Kernel::trace_tag);
        for (i, &t) in tags.iter().enumerate() {
            assert!(t > 0 && t <= 0xF);
            assert!(!tags[..i].contains(&t), "duplicate tag {t}");
        }
    }

    #[test]
    fn concurrent_packed_products_survive_help_stealing() {
        // While a blocked `a × bᵀ` is parked in `Pool::run`, the same
        // thread may help-execute another task that also packs its `bᵀ`.
        // The pack scratch must not stay borrowed across the fan-out
        // (regression: `BorrowMutError` at the second borrow).
        let serial = Pool::new(1);
        let a = filled(64, 128, 0.4);
        let b = filled(256, 128, -0.2);
        let flops = a.rows() * a.cols() * b.rows();
        assert!(flops >= PAR_MIN_FLOPS, "the product must fan out");
        let reference = Kernel::Blocked.matmul_t_on(&serial, &a, &b);
        let pool = std::sync::Arc::new(Pool::new(2));
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..4)
            .map(|_| {
                let pool = std::sync::Arc::clone(&pool);
                let (a, b, reference) = (&a, &b, &reference);
                Box::new(move || {
                    assert_eq!(&Kernel::Blocked.matmul_t_on(&pool, a, b), reference);
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        pool.run(tasks);
    }

    #[test]
    fn activations_apply_expected_maps() {
        let mut v = [-1.0f32, 0.0, 2.0];
        Act::Relu.apply(&mut v);
        assert_eq!(v, [0.0, 0.0, 2.0]);
        let mut v = [0.0f32];
        Act::Sigmoid.apply(&mut v);
        assert!((v[0] - 0.5).abs() < 1e-6);
        let mut v = [0.0f32];
        Act::Tanh.apply(&mut v);
        assert_eq!(v[0], 0.0);
        let mut v = [3.0f32];
        Act::Identity.apply(&mut v);
        assert_eq!(v[0], 3.0);
    }
}
