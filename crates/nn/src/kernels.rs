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
//!   independent add chains run at once. `aᵀ × b` runs the same tiles,
//!   reading `a`'s columns in place as the tile rows; outputs narrower
//!   than 8 columns tile over rows instead. On x86-64 CPUs with AVX2 the
//!   same body runs compiled for AVX2 (no fused multiply-add), with the
//!   same bits (see [`simd_accelerated`]). A finished tile is added to its
//!   destination: a product writes into a zeroed output, where
//!   `+0.0 + chain` is the chain, and the add mode below adds into an
//!   existing matrix. Default for training and serving.
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
//! it; under `naive` they are exactly that composition, and `aᵀ × b` is a
//! plain product of an explicit [`Matrix::transpose`]. The tape's backward
//! pass adds every product term of its gradients this way, `g·Wᵀ` as
//! `g × (Wᵀ)` over one transpose per weight and pass.
//!
//! The fused entry point [`Kernel::matmul_bias_act`] covers the GRU gate
//! pattern `act(x·W + h·U + b)` in one call, adding `h·U` into the output
//! in place; it performs the identical floating-point sequence as the
//! unfused ops it replaces (product, add of the second product, broadcast
//! bias, activation), so fusing is also numerics-neutral.
//!
//! # Threading
//!
//! Large products are row-partitioned across the worker [`Pool`], `a × b`
//! and `aᵀ × b` by one fan-out (the output rows of `aᵀ × b` are `a`'s
//! columns): each output row is still accumulated in ascending-`k` order
//! by exactly one worker, so multi-threaded results are **bitwise equal to
//! single-threaded at any thread count** — the chunk boundary only decides
//! *who* computes a row, never *how*. The plain entry points
//! ([`Kernel::matmul`], [`Kernel::matmul_add_into`], …) use the
//! process-wide [`Pool::global`] (sized by `DEEPSEQ_THREADS`); the `*_on`
//! twins ([`Kernel::matmul_on`], …) take an explicit pool for engines,
//! benchmarks and tests that manage their own, and
//! [`Kernel::matmul_into_on`], which reuses its output's allocation, has
//! only that form. Products below [`PAR_MIN_FLOPS`] multiply-adds stay on
//! the calling thread.
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
/// use deepseq_nn::{Kernel, Matrix, Pool};
///
/// let x = Matrix::from_fn(3, 5, |r, c| (r * 5 + c) as f32);
/// let w = Matrix::eye(5);
/// let mut out = Matrix::default();
/// Kernel::Blocked.matmul_into_on(Pool::global(), &x, &w, &mut out);
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
    /// `out`'s allocation. Rows of `out` are partitioned across the pool
    /// when the product is large enough (results are bitwise-identical at
    /// any thread count).
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn matmul_into_on(self, pool: &Pool, a: &Matrix, b: &Matrix, out: &mut Matrix) {
        assert_matmul_dims(a, b);
        out.reset(a.rows(), b.cols());
        self.gemm(pool, a.data(), a.cols(), 1, a.rows(), b, out.data_mut());
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
            Kernel::Blocked => self.gemm(pool, a.data(), a.cols(), 1, a.rows(), b, out.data_mut()),
        }
    }

    /// Adds `aᵀ × b` to `out` in place, with the bits of
    /// `out.add_assign(&self.matmul(&a.transpose(), b))` (see
    /// [`Kernel::matmul_add_into`]). [`Kernel::Blocked`] reads `a`'s
    /// columns in place as the rows of `aᵀ`; under [`Kernel::Naive`], the
    /// reference, it is that composition. The tape's weight gradients
    /// `xᵀ·g` take this path.
    ///
    /// # Panics
    /// Panics if row counts differ, or if `out` is not `a.cols()×b.cols()`.
    pub fn t_matmul_add_into(self, a: &Matrix, b: &Matrix, out: &mut Matrix) {
        self.t_matmul_add_into_on(Pool::global(), a, b, out);
    }

    /// [`Kernel::t_matmul_add_into`] on an explicit worker pool. Output
    /// rows (columns of `a`) are partitioned as in
    /// [`Kernel::matmul_into_on`]; per output element the contraction
    /// stays in ascending row order, so results are bitwise-identical at
    /// any thread count.
    ///
    /// # Panics
    /// Panics if row counts differ, or if `out` is not `a.cols()×b.cols()`.
    pub fn t_matmul_add_into_on(self, pool: &Pool, a: &Matrix, b: &Matrix, out: &mut Matrix) {
        assert_eq!(a.rows(), b.rows(), "t_matmul_add_into row mismatch");
        assert_eq!(
            out.shape(),
            (a.cols(), b.cols()),
            "t_matmul_add_into destination"
        );
        match self {
            // The reference: an explicit transpose, a fresh product, then
            // one add per element.
            Kernel::Naive => out.add_assign(&self.matmul_on(pool, &a.transpose(), b)),
            // Row `i` of `aᵀ` is column `i` of `a`: stride 1 between rows,
            // `a.cols()` along each.
            Kernel::Blocked => self.gemm(pool, a.data(), 1, a.cols(), a.cols(), b, out.data_mut()),
        }
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
    /// results are bitwise-identical to composing [`Kernel::matmul_into_on`],
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

    /// Accumulates `A × b` into `out` (`rows × b.cols()`), where element
    /// `(i, p)` of `A` is `a[i·rs + p·ps]` for `p` over `b`'s rows: `a`'s
    /// rows (`rs = a.cols(), ps = 1`) for `a × b`, its columns
    /// (`rs = 1, ps = a.cols()`) for `aᵀ × b`. Output rows are partitioned
    /// across the pool when [`par_ranges`] fans the product out; chunk `r`
    /// reads `A` from `a[r.start·rs..]`. `Blocked` adds each finished chain
    /// to its `out` element. `Naive` reads `a`'s rows only
    /// (`rs = a.cols(), ps = 1`) and runs its chains from the `out` values,
    /// which matches that only on a zeroed `out`, so its add modes are the
    /// compositions in [`Kernel::matmul_add_into_on`] and
    /// [`Kernel::t_matmul_add_into_on`].
    #[allow(clippy::too_many_arguments)]
    fn gemm(
        self,
        pool: &Pool,
        a: &[f32],
        rs: usize,
        ps: usize,
        rows: usize,
        b: &Matrix,
        out: &mut [f32],
    ) {
        let (k, n) = b.shape();
        if rows == 0 || n == 0 {
            return;
        }
        let _span = crate::trace::span_with(
            crate::trace::SpanKind::Gemm,
            crate::trace::pack_gemm(rows, k, n, self.trace_tag()),
        );
        let b = b.data();
        let Some(ranges) = par_ranges(pool, rows, k, n) else {
            self.gemm_rows(a, rs, ps, b, out, rows, k, n);
            return;
        };
        let mut tasks: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::with_capacity(ranges.len());
        let mut rest = out;
        for r in ranges {
            let (chunk, tail) = rest.split_at_mut(r.len() * n);
            rest = tail;
            let a = &a[r.start * rs..];
            tasks.push(Box::new(move || {
                self.gemm_rows(a, rs, ps, b, chunk, r.len(), k, n)
            }));
        }
        pool.run(tasks);
    }

    /// One chunk of [`Kernel::gemm`], on the calling thread.
    #[allow(clippy::too_many_arguments)]
    fn gemm_rows(
        self,
        a: &[f32],
        rs: usize,
        ps: usize,
        b: &[f32],
        out: &mut [f32],
        rows: usize,
        k: usize,
        n: usize,
    ) {
        match self {
            Kernel::Naive => gemm_naive(a, b, out, rows, k, n),
            Kernel::Blocked => blocked_rows(a, rs, ps, b, out, rows, k, n),
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
            // `aᵀ × b` by an explicit transpose and the plain naive loop.
            let t_product = Kernel::Naive.matmul(&t_a.transpose(), &b);
            // Destinations of the add mode, with values of both signs.
            let dest = filled(m, n, 1.3);
            for kernel in Kernel::ALL {
                let shape = format!("{} {m}x{k}x{n}", kernel.name());
                let naive = Kernel::Naive;
                let product = kernel.matmul(&a, &b);
                assert_eq!(bits(&product), bits(&naive.matmul(&a, &b)), "{shape}");

                // The add mode gives the bits of the fresh product added
                // with `add_assign`, and `Blocked` those of `Naive`.
                let mut got = dest.clone();
                kernel.matmul_add_into(&a, &b, &mut got);
                assert_eq!(bits(&got), bits(&added(&dest, &product)), "add {shape}");
                let mut want = dest.clone();
                naive.matmul_add_into(&a, &b, &mut want);
                assert_eq!(bits(&got), bits(&want), "add vs naive {shape}");
                let mut got = Matrix::zeros(m, n);
                kernel.t_matmul_add_into(&t_a, &b, &mut got);
                assert_eq!(bits(&got), bits(&t_product), "aᵀb into zeros {shape}");
                let mut got = dest.clone();
                kernel.t_matmul_add_into(&t_a, &b, &mut got);
                let t_want = added(&dest, &t_product);
                assert_eq!(bits(&got), bits(&t_want), "aᵀb add {shape}");
            }
        }
    }

    #[test]
    fn parallel_matches_serial_bitwise() {
        // Big enough to clear PAR_MIN_FLOPS so the pools genuinely fan out:
        // `a × b` over 96 rows, `aᵀ × t_b` over 40 (`a`'s columns).
        let a = filled(96, 40, 0.7);
        let b = filled(40, 48, -0.4);
        let t_b = filled(96, 33, 0.2);
        let (dest, t_dest) = (filled(96, 48, 1.3), filled(40, 33, -1.1));
        let serial = Pool::new(1);
        let add_on = |kernel: Kernel, pool: &Pool| {
            let (mut out, mut t_out) = (dest.clone(), t_dest.clone());
            kernel.matmul_add_into_on(pool, &a, &b, &mut out);
            kernel.t_matmul_add_into_on(pool, &a, &t_b, &mut t_out);
            (out, t_out)
        };
        for threads in [2, 4, 7] {
            let pool = Pool::new(threads);
            for kernel in Kernel::ALL {
                assert_eq!(
                    kernel.matmul_on(&pool, &a, &b),
                    kernel.matmul_on(&serial, &a, &b),
                    "matmul {} t{threads}",
                    kernel.name()
                );
                let ((got, t_got), (want, t_want)) =
                    (add_on(kernel, &pool), add_on(kernel, &serial));
                let name = kernel.name();
                assert_eq!(bits(&got), bits(&want), "add {name} t{threads}");
                assert_eq!(bits(&t_got), bits(&t_want), "aᵀb add {name} t{threads}");
            }
        }
    }

    #[test]
    fn transpose_variants_agree_bitwise() {
        // The two transposed products the tape runs: `aᵀ × b` added in
        // place, and `a × bᵀ` as a plain product of an explicit transpose.
        let a = filled(13, 6, 0.3);
        let b = filled(13, 11, -0.9);
        let reference = Kernel::Naive.matmul(&a.transpose(), &b);
        let bt_a = filled(9, 14, 0.5);
        let bt = filled(7, 14, 0.2).transpose();
        let bt_reference = Kernel::Naive.matmul(&bt_a, &bt);
        for kernel in Kernel::ALL {
            let mut got = Matrix::zeros(6, 11);
            kernel.t_matmul_add_into(&a, &b, &mut got);
            assert_eq!(bits(&got), bits(&reference), "{}", kernel.name());
            let got = kernel.matmul(&bt_a, &bt);
            assert_eq!(bits(&got), bits(&bt_reference), "{}", kernel.name());
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
            // An empty contraction adds nothing; an empty output is a no-op.
            let dest = filled(4, 2, 1.3);
            let mut got = dest.clone();
            kernel.t_matmul_add_into(&Matrix::zeros(0, 4), &Matrix::zeros(0, 2), &mut got);
            assert_eq!(got, dest);
            let mut got = Matrix::zeros(0, 2);
            kernel.t_matmul_add_into(&Matrix::zeros(3, 0), &Matrix::zeros(3, 2), &mut got);
            assert_eq!(got.shape(), (0, 2));
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
