//! Cache-blocked, vectorizer-friendly `f32` GEMM kernels and the runtime
//! dispatcher selecting between them.
//!
//! DeepSeq's levelized propagation spends nearly all of its time in matrix
//! products (per-level message transforms and the GRU gates of the paper's
//! Combine function, Eq. 8). This module concentrates the hot inner loops in
//! one place, behind the [`Kernel`] dispatch enum:
//!
//! * [`Kernel::Naive`] — the reference `i-k-j` triple loop. Slowest, but the
//!   arithmetic every other variant is measured against. Default for
//!   training so tape results stay bit-for-bit stable across releases.
//! * [`Kernel::Blocked`] — the same accumulation order, restructured into
//!   cache-sized `k`-panels and register-tiled output columns so the
//!   autovectorizer emits wide mul-add loops and each output element stays
//!   in a register across a whole panel. Default for serving.
//! * [`Kernel::Simd`] — explicit **fast mode**: AVX2/FMA micro-kernels
//!   over contiguous B panels (runtime feature detection; hosts without
//!   AVX2 run a bitwise-identical portable fused fallback — see the
//!   `simd` module's docs via [`simd_accelerated`]). Opt-in only, never a
//!   default.
//!
//! # The two-mode numerics contract
//!
//! **Bitwise mode** (`naive` | `blocked`): both variants accumulate each
//! output element over `k` **in ascending order**, without fused
//! multiply-add, so for finite inputs they produce bitwise-identical
//! results (property-tested in `crates/nn/tests/properties.rs`). Picking
//! between them is purely a performance decision, never a numerics
//! decision. This mode is the default everywhere and the *only* mode the
//! tape/training path will run: [`Kernel::global`] maps `simd` back to
//! the reference kernel.
//!
//! **Fast mode** (`simd`): fused multiply-add accumulation, still
//! ascending-`k` per element, so results are *self*-deterministic —
//! bitwise-identical across runs, thread counts and hosts (the portable
//! fallback computes the same bits as the AVX2 path) — but not bitwise
//! equal to the reference. The divergence is property-tested against
//! naive in `crates/nn/tests/kernel_numerics.rs` (relative error ≤ 1e-5
//! in the backward-error sense, bounded ULP distance on well-conditioned
//! elements). See docs/ARCHITECTURE.md, "Numerics contract", for when
//! each mode is safe. [`Kernel::is_bitwise`] answers the question
//! programmatically.
//!
//! The fused entry point [`Kernel::matmul_bias_act`] covers the GRU gate
//! pattern `act(x·W + h·U + b)` in one call; it performs the identical
//! floating-point sequence as the unfused ops it replaces (product, zip-add,
//! broadcast bias, activation), so fusing is also numerics-neutral.
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
//! The `DEEPSEQ_KERNEL` environment variable (`naive` | `blocked` |
//! `simd`, read once per process; unrecognized values warn once to
//! stderr and keep the default) overrides the serving default, and the
//! training default for the bitwise names:
//!
//! ```text
//! DEEPSEQ_KERNEL=simd target/release/deepseq-serve predict design.aag
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
//! // The bitwise kernels agree bitwise on finite inputs.
//! let reference = Kernel::Naive.matmul(&a, &b);
//! assert_eq!(Kernel::Blocked.matmul(&a, &b), reference);
//!
//! // `Matrix::matmul` dispatches through the process-wide *training*
//! // default, which refuses fast mode — bitwise in every environment.
//! assert_eq!(a.matmul(&b), reference);
//! ```

use std::ops::Range;
use std::sync::OnceLock;

use crate::matrix::Matrix;
use crate::pool::{chunk_ranges_or_whole, Pool};

mod simd;

/// True when the running CPU executes [`Kernel::Simd`]'s AVX2/FMA paths;
/// false means simd products run the portable fused fallback, which is
/// slower but produces the same bits. Useful for benchmarks and CI
/// notices; never needed for correctness.
pub fn simd_accelerated() -> bool {
    simd::accelerated()
}

/// Environment variable naming the kernel to use process-wide
/// (`naive` | `blocked` | `simd`). Read once, on first dispatch; an
/// unrecognized value warns once to stderr and keeps the default, and an
/// empty value behaves like an unset variable.
pub const KERNEL_ENV: &str = "DEEPSEQ_KERNEL";

/// Output-column register tile width of the blocked and simd kernels
/// (one AVX2 `__m256` of f32s — the width of simd's packed B panels).
const NR: usize = 8;

/// Reference `k`-panel height of the blocked kernels: [`kc_for`] clamps
/// the panel to `KC / 2 ..= 4 · KC` rows of the right-hand operand (or
/// the whole contraction, when that is shorter).
const KC: usize = 128;

/// Row tile height of the portable simd panel kernels and of the blocked
/// `a × bᵀ` kernel's `b` tile.
const MR: usize = 4;

/// Minimum multiply-adds (`m·k·n`) before a product fans out across the
/// pool — below this, partitioning overhead outweighs the work.
pub const PAR_MIN_FLOPS: usize = 1 << 16;

/// Minimum output rows per parallel chunk.
const PAR_MIN_ROWS: usize = 8;

/// The blocked kernels' `k`-panel height for a product contracting over
/// `k` into `n` output columns: size the `kc × n` panel of `b` to roughly
/// 32 KiB of L1, clamped to sane tiles. A pure locality knob — the panels
/// run in ascending order, so it never changes the bits.
fn kc_for(k: usize, n: usize) -> usize {
    ((32 * 1024 / 4) / n.max(1))
        .clamp(KC / 2, KC * 4)
        .min(k.max(1))
}

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
    /// Cache-blocked `k`-panels with register-tiled output columns.
    Blocked,
    /// **Fast mode**: AVX2/FMA micro-kernels over contiguous B panels
    /// (portable fused fallback off-x86). Self-deterministic but *not*
    /// bitwise-equal to the bitwise variants; see the
    /// [module docs](self) for the numerics contract. Opt-in only.
    Simd,
}

impl Kernel {
    /// The **bitwise** variants, for iteration in tests and benchmarks.
    /// [`Kernel::Simd`] is excluded because it is a different arithmetic
    /// under a different (bounded, not bitwise) contract — suites iterate
    /// it explicitly.
    pub const ALL: [Kernel; 2] = [Kernel::Naive, Kernel::Blocked];

    /// Parses a kernel name (`naive` | `blocked` | `simd`,
    /// case-insensitive). These are exactly the values accepted in
    /// `DEEPSEQ_KERNEL`.
    pub fn parse(name: &str) -> Option<Kernel> {
        match name.trim().to_ascii_lowercase().as_str() {
            "naive" => Some(Kernel::Naive),
            "blocked" => Some(Kernel::Blocked),
            "simd" => Some(Kernel::Simd),
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
                         (accepted: naive | blocked | simd); using the default"
                    ));
                }
                parsed
            }
            Err(_) => None,
        })
    }

    /// Is the process in fast mode (`DEEPSEQ_KERNEL=simd`)? In fast mode
    /// the *serving* path runs the simd kernels while the tape/training
    /// path stays on the bitwise reference — see [`Kernel::global`].
    pub fn fast_mode() -> bool {
        Kernel::from_env() == Some(Kernel::Simd)
    }

    /// Does this kernel participate in the bitwise contract (results
    /// bit-for-bit equal to [`Kernel::Naive`])? True for every variant
    /// but [`Kernel::Simd`].
    pub fn is_bitwise(self) -> bool {
        self != Kernel::Simd
    }

    /// The process-wide default kernel used by the [`Matrix`] product
    /// methods (and therefore the autograd tape): `DEEPSEQ_KERNEL` if set
    /// to a bitwise kernel, otherwise [`Kernel::Naive`]. `simd`
    /// deliberately maps to the reference loops here — fast mode is a
    /// serving contract, and training/gradchecks/determinism suites must
    /// stay bitwise no matter what the environment says (pinned by
    /// `crates/core/tests/simd_guard.rs`).
    pub fn global() -> Kernel {
        match Kernel::from_env() {
            Some(Kernel::Simd) | None => Kernel::Naive,
            Some(kernel) => kernel,
        }
    }

    /// The serving default: `DEEPSEQ_KERNEL` if set (including `simd` —
    /// this is the entry point that honors fast mode), otherwise
    /// [`Kernel::Blocked`], the fastest bitwise kernel on the tape-free
    /// inference path (`deepseq-serve`).
    pub fn for_serve() -> Kernel {
        Kernel::from_env().unwrap_or(Kernel::Blocked)
    }

    /// The lower-case name (`"naive"` | `"blocked"` | `"simd"`).
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Naive => "naive",
            Kernel::Blocked => "blocked",
            Kernel::Simd => "simd",
        }
    }

    /// The [`crate::trace::pack_gemm`] tag of a kernel, so GEMM spans
    /// distinguish simd from scalar work in `/debug/trace`.
    fn trace_tag(self) -> u8 {
        match self {
            Kernel::Naive => 1,
            Kernel::Blocked => 2,
            Kernel::Simd => 4,
        }
    }

    /// The kernel that runs a product whose right-hand operand is
    /// `k×n`: `self`, except that simd hands small right-hand operands to
    /// the reference loops — the fused path packs `b` (`k·n` panel
    /// writes) before any arithmetic, which those products never earn
    /// back. Deliberately independent of the row count: higher layers
    /// (the serve forward pass) partition *rows* of one logical product
    /// across scratch chunks, and the kernel choice, and therefore the
    /// bits, must not change with that partitioning (fast mode's
    /// self-determinism contract).
    fn dispatched(self, k: usize, n: usize) -> Kernel {
        match self {
            Kernel::Simd if k.saturating_mul(n) < 256 => Kernel::Naive,
            other => other,
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
        assert_eq!(
            a.cols(),
            b.rows(),
            "matmul {}x{} × {}x{}",
            a.rows(),
            a.cols(),
            b.rows(),
            b.cols()
        );
        out.reset(a.rows(), b.cols());
        self.gemm_acc(
            pool,
            a.data(),
            b.data(),
            out.data_mut(),
            a.rows(),
            a.cols(),
            b.cols(),
        );
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
        let (m, ka, n) = (a.rows(), a.cols(), b.cols());
        let mut out = Matrix::zeros(ka, n);
        if ka == 0 || n == 0 {
            return out;
        }
        let kernel = self.dispatched(m, n);
        let _span = crate::trace::span_with(
            crate::trace::SpanKind::Gemm,
            crate::trace::pack_gemm(ka, m, n, kernel.trace_tag()),
        );
        let ranges = par_ranges(pool, ka, m, n);
        let (a, b, o) = (a.data(), b.data(), out.data_mut());
        match kernel {
            Kernel::Naive => run_trow_tasks(pool, ranges, a, b, o, m, ka, n, t_gemm_naive_rows),
            Kernel::Blocked => run_trow_tasks(pool, ranges, a, b, o, m, ka, n, t_gemm_blocked_rows),
            Kernel::Simd => simd::with_pack_scratch(|pack| {
                simd::pack_b(b, m, n, pack);
                run_trow_tasks(pool, ranges, a, pack, o, m, ka, n, simd::t_gemm_fused_rows);
            }),
        }
        out
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
        let kernel = self.dispatched(k, nb);
        let _span = crate::trace::span_with(
            crate::trace::SpanKind::Gemm,
            crate::trace::pack_gemm(m, k, nb, kernel.trace_tag()),
        );
        let ranges = par_ranges(pool, m, k, nb);
        let (a, b, o) = (a.data(), b.data(), out.data_mut());
        match kernel {
            Kernel::Naive => run_row_tasks(pool, ranges, a, b, o, k, nb, gemm_bt_naive_rows),
            Kernel::Blocked => run_row_tasks(pool, ranges, a, b, o, k, nb, gemm_bt_blocked_rows),
            // Panelized bᵀ turns `a × bᵀ` into the plain fused micro-kernel.
            Kernel::Simd => simd::with_pack_scratch(|pack| {
                simd::pack_bt(b, k, nb, pack);
                run_row_tasks(pool, ranges, a, pack, o, k, nb, simd::gemm_fused_rows);
            }),
        }
        out
    }

    /// Fused `out = act(x·w [+ h·u] [+ bias])` — the GRU gate pattern of the
    /// Combine function (Eq. 8) and the additive-attention score (Eq. 5/6)
    /// in one call.
    ///
    /// `tmp` is caller-owned scratch for the optional second product (the
    /// serve `Workspace` threads its own buffer through); it is only touched
    /// when `second` is `Some`. The floating-point sequence is exactly the
    /// unfused one — product, zip-add of the fully formed second product,
    /// broadcast bias, activation — so results are bitwise-identical to
    /// composing [`Kernel::matmul_into`], [`Matrix::add_assign`],
    /// [`Matrix::add_row_assign`] and [`Act::apply`] by hand.
    ///
    /// # Panics
    /// Panics on any operand dimension mismatch.
    #[allow(clippy::too_many_arguments)]
    pub fn matmul_bias_act(
        self,
        x: &Matrix,
        w: &Matrix,
        second: Option<(&Matrix, &Matrix)>,
        bias: Option<&Matrix>,
        act: Act,
        out: &mut Matrix,
        tmp: &mut Matrix,
    ) {
        self.matmul_bias_act_on(Pool::global(), x, w, second, bias, act, out, tmp);
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
        tmp: &mut Matrix,
    ) {
        self.matmul_into_on(pool, x, w, out);
        if let Some((h, u)) = second {
            self.matmul_into_on(pool, h, u, tmp);
            out.add_assign(tmp);
        }
        if let Some(b) = bias {
            out.add_row_assign(b);
        }
        act.apply(out.data_mut());
    }

    /// Fused `out = act(x·w [+ bias])` — the dense-layer pattern of the
    /// regressor heads (single product, no scratch needed). Identical to
    /// [`Kernel::matmul_bias_act`] with `second = None`.
    ///
    /// # Panics
    /// Panics on operand dimension mismatch.
    pub fn linear_act(
        self,
        x: &Matrix,
        w: &Matrix,
        bias: Option<&Matrix>,
        act: Act,
        out: &mut Matrix,
    ) {
        self.linear_act_on(Pool::global(), x, w, bias, act, out);
    }

    /// [`Kernel::linear_act`] on an explicit worker pool.
    ///
    /// # Panics
    /// Panics on operand dimension mismatch.
    pub fn linear_act_on(
        self,
        pool: &Pool,
        x: &Matrix,
        w: &Matrix,
        bias: Option<&Matrix>,
        act: Act,
        out: &mut Matrix,
    ) {
        self.matmul_into_on(pool, x, w, out);
        if let Some(b) = bias {
            out.add_row_assign(b);
        }
        act.apply(out.data_mut());
    }

    /// `out += a × b` on raw row-major slices, row-partitioned across the
    /// pool when large enough.
    #[allow(clippy::too_many_arguments)]
    fn gemm_acc(
        self,
        pool: &Pool,
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
    ) {
        if m == 0 || n == 0 {
            return;
        }
        let kernel = self.dispatched(k, n);
        let _span = crate::trace::span_with(
            crate::trace::SpanKind::Gemm,
            crate::trace::pack_gemm(m, k, n, kernel.trace_tag()),
        );
        let ranges = par_ranges(pool, m, k, n);
        match kernel {
            Kernel::Naive => run_row_tasks(pool, ranges, a, b, out, k, n, gemm_naive),
            Kernel::Blocked => run_row_tasks(pool, ranges, a, b, out, k, n, gemm_blocked),
            Kernel::Simd => simd::with_pack_scratch(|pack| {
                simd::pack_b(b, k, n, pack);
                run_row_tasks(pool, ranges, a, pack, out, k, n, simd::gemm_fused_rows);
            }),
        }
    }
}

/// Contiguous output-row ranges for one product: one `0..rows` range when
/// the product is too small to pay for fan-out (or the pool has no
/// workers), otherwise up to `pool.threads()` chunks of at least
/// [`PAR_MIN_ROWS`] rows.
fn par_ranges(pool: &Pool, rows: usize, k: usize, n: usize) -> Vec<Range<usize>> {
    let flops = rows.saturating_mul(k).saturating_mul(n);
    let max_chunks = if flops >= PAR_MIN_FLOPS {
        pool.threads()
    } else {
        1
    };
    chunk_ranges_or_whole(rows, max_chunks, PAR_MIN_ROWS)
}

/// Runs a row kernel over `ranges`, splitting `a` and `out` by rows and
/// sharing `b` read-only. Single range → straight call on the caller.
/// The kernel signature is `(a_rows, b_or_panels, out_rows, rows, k, n)`
/// where `a_rows`/`out_rows` hold exactly `rows` rows.
#[allow(clippy::too_many_arguments)]
fn run_row_tasks<F>(
    pool: &Pool,
    ranges: Vec<Range<usize>>,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    k: usize,
    n: usize,
    f: F,
) where
    F: Fn(&[f32], &[f32], &mut [f32], usize, usize, usize) + Copy + Send + Sync,
{
    if ranges.len() == 1 {
        let r = ranges.into_iter().next().expect("one range");
        f(&a[r.start * k..r.end * k], b, out, r.len(), k, n);
        return;
    }
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

/// Runs a transpose row kernel over `ranges` of output rows (columns of
/// `a`); `a` and `b` are shared read-only, `out` split by rows. The
/// kernel signature is `(a, b_or_panels, out_rows, m, ka, n, i0, i1)` —
/// computes output rows `i0..i1` (columns of `a`) into `out_rows`.
#[allow(clippy::too_many_arguments)]
fn run_trow_tasks<F>(
    pool: &Pool,
    ranges: Vec<Range<usize>>,
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
    if ranges.len() == 1 {
        let r = ranges.into_iter().next().expect("one range");
        f(a, b, out, m, ka, n, r.start, r.end);
        return;
    }
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

/// Cache-blocked GEMM: `k` is split into [`kc_for`]-row panels of `b`
/// (processed in ascending order, preserving per-element accumulation
/// order); within a panel each output row is walked in `NR`-wide register
/// tiles so the accumulators never round-trip through memory per `k` step.
fn gemm_blocked(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    let n_main = n - n % NR;
    let kc = kc_for(k, n);
    let mut kk = 0;
    while kk < k {
        let kc = kc.min(k - kk);
        let bpanel = &b[kk * n..(kk + kc) * n];
        // Two output rows at a time: every loaded `b` tile is used twice.
        // `chunks_exact` + `first_chunk` keep the inner loops free of bounds
        // checks, so they compile to straight-line vector mul-adds over the
        // register accumulators.
        let m_main = m - m % 2;
        let mut i = 0;
        while i < m_main {
            let arow0 = &a[i * k + kk..i * k + kk + kc];
            let arow1 = &a[(i + 1) * k + kk..(i + 1) * k + kk + kc];
            let (orow0, orow1) = out[i * n..(i + 2) * n].split_at_mut(n);
            let mut j = 0;
            while j < n_main {
                let mut acc0 = [0.0f32; NR];
                let mut acc1 = [0.0f32; NR];
                acc0.copy_from_slice(&orow0[j..j + NR]);
                acc1.copy_from_slice(&orow1[j..j + NR]);
                for ((&av0, &av1), brow_full) in arow0.iter().zip(arow1).zip(bpanel.chunks_exact(n))
                {
                    let brow: &[f32; NR] = brow_full[j..].first_chunk().expect("j + NR <= n");
                    for t in 0..NR {
                        acc0[t] += av0 * brow[t];
                        acc1[t] += av1 * brow[t];
                    }
                }
                orow0[j..j + NR].copy_from_slice(&acc0);
                orow1[j..j + NR].copy_from_slice(&acc1);
                j += NR;
            }
            for j in n_main..n {
                let mut acc0 = orow0[j];
                let mut acc1 = orow1[j];
                for ((&av0, &av1), brow_full) in arow0.iter().zip(arow1).zip(bpanel.chunks_exact(n))
                {
                    acc0 += av0 * brow_full[j];
                    acc1 += av1 * brow_full[j];
                }
                orow0[j] = acc0;
                orow1[j] = acc1;
            }
            i += 2;
        }
        if i < m {
            let arow = &a[i * k + kk..i * k + kk + kc];
            let orow = &mut out[i * n..(i + 1) * n];
            let mut j = 0;
            while j < n_main {
                let mut acc = [0.0f32; NR];
                acc.copy_from_slice(&orow[j..j + NR]);
                for (&av, brow_full) in arow.iter().zip(bpanel.chunks_exact(n)) {
                    let brow: &[f32; NR] = brow_full[j..].first_chunk().expect("j + NR <= n");
                    for t in 0..NR {
                        acc[t] += av * brow[t];
                    }
                }
                orow[j..j + NR].copy_from_slice(&acc);
                j += NR;
            }
            for j in n_main..n {
                let mut acc = orow[j];
                for (&av, brow_full) in arow.iter().zip(bpanel.chunks_exact(n)) {
                    acc += av * brow_full[j];
                }
                orow[j] = acc;
            }
        }
        kk += kc;
    }
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

/// Blocked `aᵀ × b` over output rows `i0..i1`: `r` is split into
/// [`kc_for`]-row panels (ascending, preserving accumulation order); each
/// output row is walked in `NR` register tiles.
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
    let n_main = n - n % NR;
    let kc = kc_for(m, n);
    let mut rr = 0;
    while rr < m {
        let rc = kc.min(m - rr);
        for i in i0..i1 {
            let orow = &mut out[(i - i0) * n..(i - i0 + 1) * n];
            let mut j = 0;
            while j < n_main {
                let mut acc = [0.0f32; NR];
                acc.copy_from_slice(&orow[j..j + NR]);
                for p in rr..rr + rc {
                    let av = a[p * ka + i];
                    let brow = &b[p * n + j..p * n + j + NR];
                    for t in 0..NR {
                        acc[t] += av * brow[t];
                    }
                }
                orow[j..j + NR].copy_from_slice(&acc);
                j += NR;
            }
            for j in n_main..n {
                let mut acc = orow[j];
                for p in rr..rr + rc {
                    acc += a[p * ka + i] * b[p * n + j];
                }
                orow[j] = acc;
            }
        }
        rr += rc;
    }
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

/// Blocked `a × bᵀ` over a row chunk of `a`: four simultaneous dot products
/// per `a` row, reusing each loaded `a` element across a 4-row `b` tile.
fn gemm_bt_blocked_rows(a: &[f32], b: &[f32], out: &mut [f32], rows: usize, k: usize, nb: usize) {
    let nb_main = nb - nb % MR;
    for i in 0..rows {
        let arow = &a[i * k..(i + 1) * k];
        let mut j = 0;
        while j < nb_main {
            let mut acc = [0.0f32; MR];
            for (t, accv) in acc.iter_mut().enumerate() {
                *accv = out[i * nb + j + t];
            }
            for (p, &av) in arow.iter().enumerate() {
                for (t, accv) in acc.iter_mut().enumerate() {
                    *accv += av * b[(j + t) * k + p];
                }
            }
            out[i * nb + j..i * nb + j + MR].copy_from_slice(&acc);
            j += MR;
        }
        while j < nb {
            let brow = &b[j * k..(j + 1) * k];
            let mut acc = out[i * nb + j];
            for (&av, &bv) in arow.iter().zip(brow) {
                acc += av * bv;
            }
            out[i * nb + j] = acc;
            j += 1;
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

    #[test]
    fn all_kernels_agree_bitwise() {
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 5, 7),
            (8, 8, 8),
            (17, 33, 9),
            (64, 96, 40),
            (5, 1, 5),
            (1, 12, 1),
        ] {
            let a = filled(m, k, 0.7);
            let b = filled(k, n, -0.4);
            let reference = Kernel::Naive.matmul(&a, &b);
            for kernel in Kernel::ALL {
                let got = kernel.matmul(&a, &b);
                assert_eq!(
                    got.data(),
                    reference.data(),
                    "{} {m}x{k}x{n}",
                    kernel.name()
                );
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
            // Simd belongs here too: fast mode is self-deterministic, so
            // parallel must match serial bitwise for it as well.
            for kernel in Kernel::ALL.into_iter().chain([Kernel::Simd]) {
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

    #[test]
    fn empty_shapes_are_handled() {
        for kernel in Kernel::ALL.into_iter().chain([Kernel::Simd]) {
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
        // Fused vs unfused is a *same-kernel* identity, so it must hold
        // for simd too.
        for kernel in Kernel::ALL.into_iter().chain([Kernel::Simd]) {
            let mut out = Matrix::default();
            let mut tmp = Matrix::default();
            kernel.matmul_bias_act(
                &x,
                &w,
                Some((&h, &u)),
                Some(&bias),
                Act::Sigmoid,
                &mut out,
                &mut tmp,
            );
            let mut expect = kernel.matmul(&x, &w);
            expect.add_assign(&kernel.matmul(&h, &u));
            expect.add_row_assign(&bias);
            Act::Sigmoid.apply(expect.data_mut());
            assert_eq!(out, expect, "{}", kernel.name());
        }
    }

    #[test]
    fn parse_and_names_roundtrip() {
        for kernel in Kernel::ALL.into_iter().chain([Kernel::Simd]) {
            assert_eq!(Kernel::parse(kernel.name()), Some(kernel));
            assert_eq!(Kernel::parse(&kernel.name().to_uppercase()), Some(kernel));
        }
        for retired in ["simd9000", "packed", "auto"] {
            assert_eq!(Kernel::parse(retired), None, "{retired}");
        }
    }

    #[test]
    fn bitwise_classification_matches_contract() {
        for kernel in Kernel::ALL {
            assert!(kernel.is_bitwise(), "{}", kernel.name());
        }
        assert!(!Kernel::Simd.is_bitwise());
        // Trace tags are distinct per concrete kernel and fit pack_gemm's
        // four bits.
        let tags: Vec<u8> = Kernel::ALL
            .into_iter()
            .chain([Kernel::Simd])
            .map(|k| k.trace_tag())
            .collect();
        for (i, &t) in tags.iter().enumerate() {
            assert!(t > 0 && t <= 0xF);
            assert!(!tags[..i].contains(&t), "duplicate tag {t}");
        }
    }

    #[test]
    fn concurrent_packed_products_survive_help_stealing() {
        // While a simd product is parked in `Pool::run`, the same thread
        // may help-execute another task that also packs B panels. The
        // pack scratch must not stay borrowed across the fan-out
        // (regression: `BorrowMutError` at the second borrow).
        use crate::pool::Pool;
        use std::sync::Arc;
        let serial = Pool::new(1);
        let a = filled(64, 128, 0.4);
        let b = filled(128, 256, -0.2);
        let reference = Kernel::Simd.matmul_on(&serial, &a, &b);
        let pool = Arc::new(Pool::new(2));
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..4)
            .map(|_| {
                let pool = Arc::clone(&pool);
                let (a, b, reference) = (&a, &b, &reference);
                Box::new(move || {
                    assert_eq!(&Kernel::Simd.matmul_on(&pool, a, b), reference);
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        pool.run(tasks);
    }

    #[test]
    fn simd_cutoff_ignores_the_row_count() {
        // Small right-hand operands stay on the reference loops whatever
        // `m` is, so row partitioning at any layer cannot change the bits.
        for m in [1, 4, 4096] {
            let a = filled(m, 4, 0.3);
            let b = filled(4, 4, -0.7);
            assert_eq!(
                Kernel::Simd.matmul(&a, &b),
                Kernel::Naive.matmul(&a, &b),
                "m={m}"
            );
        }
        assert_eq!(Kernel::Simd.dispatched(4, 4), Kernel::Naive);
        assert_eq!(Kernel::Simd.dispatched(16, 16), Kernel::Simd);
        for kernel in Kernel::ALL {
            assert_eq!(kernel.dispatched(1, 1), kernel);
            assert_eq!(kernel.dispatched(512, 512), kernel);
        }
    }

    #[test]
    fn simd_is_exact_on_identity_products() {
        // a × I touches every simd path (full panels, tail panels, row
        // tails) with arithmetic that is exact under FMA too, so the
        // result must be bitwise-equal to the reference even in fast
        // mode.
        for &(m, k) in &[(9, 12), (16, 16), (3, 40), (33, 7)] {
            let a = filled(m, k, 0.9);
            let eye = Matrix::eye(k);
            assert_eq!(Kernel::Simd.matmul(&a, &eye), a, "{m}x{k}");
        }
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
