//! AVX2/FMA micro-kernels — the arithmetic behind [`Kernel::Simd`]
//! (fast mode).
//!
//! Every kernel here accumulates each output element with **fused**
//! multiply-adds over the contraction index in ascending order, starting
//! from the (zeroed) output value. That single design choice buys three
//! properties at once:
//!
//! * **Speed** — one rounding per multiply-add instead of two, and on
//!   AVX2 hardware eight f32 lanes per instruction, which is exactly why
//!   fast mode exists (the bitwise kernels deliberately avoid FMA to stay
//!   0-ULP-equal to the naive reference; see the module docs of
//!   [`crate::kernels`]).
//! * **Self-determinism** — the per-element operation sequence depends
//!   only on the operand shapes, never on row blocking, panel tails,
//!   thread count or tuning state, so simd results are bitwise-identical
//!   across runs and across `DEEPSEQ_THREADS` settings.
//! * **Portability of bits** — `_mm256_fmadd_ps` and scalar
//!   [`f32::mul_add`] are both correctly-rounded IEEE-754 fused
//!   multiply-adds, so the portable fallback below produces **the same
//!   bits** as the AVX2 path (compared panel by panel in this module's
//!   tests). Hosts without AVX2 don't get a different numerics mode, just
//!   a slower one, and narrow panel tails can drop to the portable loops
//!   mid-product without affecting any full panel.
//!
//! What fast mode does *not* promise is bitwise equality with the
//! reference kernels: fusing changes rounding. The divergence is bounded
//! and property-tested in `crates/nn/tests/kernel_numerics.rs` (relative
//! error ≤ 1e-5 against the naive kernel in the backward-error sense,
//! plus a ULP-distance cap on well-conditioned elements); the full
//! contract is documented in docs/ARCHITECTURE.md ("Numerics contract").
//!
//! The kernels consume `NR`-wide contraction-major B panels, built by
//! [`pack_b`] / [`pack_bt`] into the kernels' reused thread-local pack
//! buffer: `NR` = 8 f32 lanes is exactly one `__m256`
//! vector, so a packed panel row is one aligned-enough (`loadu`) vector
//! load per contraction step.

use super::NR;

/// Row tile height of the portable panel kernels.
const MR: usize = 4;

/// Packs row-major `b` (`rows × cols`) into `NR`-wide column panels laid
/// out contraction-major (contiguous per contraction step): panel `jp`
/// is `pack[jp·rows·NR .. (jp+1)·rows·NR]`. Panel tails are zero-padded;
/// padded lanes are computed and discarded by the consumers.
pub(super) fn pack_b(b: &[f32], rows: usize, cols: usize, pack: &mut Vec<f32>) {
    let panels = cols.div_ceil(NR);
    pack.clear();
    pack.resize(panels * rows * NR, 0.0);
    for jp in 0..panels {
        let j0 = jp * NR;
        let w = NR.min(cols - j0);
        let dst = &mut pack[jp * rows * NR..(jp + 1) * rows * NR];
        for p in 0..rows {
            dst[p * NR..p * NR + w].copy_from_slice(&b[p * cols + j0..p * cols + j0 + w]);
        }
    }
}

/// Packs `bᵀ` of a row-major `b` (`nb × k`) into the same panel layout as
/// [`pack_b`] produces for a `k × nb` matrix, so `a × bᵀ` can run the
/// plain fused micro-kernel ([`gemm_fused_rows`]).
pub(super) fn pack_bt(b: &[f32], k: usize, nb: usize, pack: &mut Vec<f32>) {
    let panels = nb.div_ceil(NR);
    pack.clear();
    pack.resize(panels * k * NR, 0.0);
    for jp in 0..panels {
        let j0 = jp * NR;
        let w = NR.min(nb - j0);
        let dst = &mut pack[jp * k * NR..(jp + 1) * k * NR];
        for t in 0..w {
            let brow = &b[(j0 + t) * k..(j0 + t + 1) * k];
            for (p, &bv) in brow.iter().enumerate() {
                dst[p * NR + t] = bv;
            }
        }
    }
}

/// True when the running CPU executes the AVX2+FMA paths; false means
/// every product runs the bitwise-identical portable fused loops. Checked
/// per call via [`std::arch::is_x86_feature_detected!`], which caches
/// after the first probe.
#[inline]
pub fn accelerated() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Fused-FMA GEMM compute phase over pre-packed panels ([`pack_b`]):
/// computes `out += a × B` where the panels encode `B` (`k × n`). Expects
/// `a`/`out` to hold exactly `m` rows (the caller may pass a row chunk).
pub(super) fn gemm_fused_rows(
    a: &[f32],
    pack: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    let panels = n.div_ceil(NR);
    for jp in 0..panels {
        let j0 = jp * NR;
        let w = NR.min(n - j0);
        let panel = &pack[jp * k * NR..(jp + 1) * k * NR];
        #[cfg(target_arch = "x86_64")]
        if w == NR && accelerated() {
            // SAFETY: `gemm_panel`'s preconditions, each established here:
            // - avx2 and fma: `accelerated()` just returned true;
            // - `a.len() >= m*k` and `out.len() >= m*n`: `run_row_tasks`
            //   slices `a` and `out` by the same row range and passes its
            //   length as `m`, so both hold exactly `m` rows;
            // - `panel.len() >= k*NR`: `panel` is panel `jp` of `pack_b` /
            //   `pack_bt`, sliced above to exactly `k*NR` elements;
            // - `j0 + NR <= n`: `w == NR` means the panel is full width.
            unsafe { avx2::gemm_panel(a, panel, out, m, k, n, j0) };
            continue;
        }
        gemm_panel_portable(a, panel, out, m, k, n, j0, w);
    }
}

/// Fused-FMA `aᵀ × b` over output rows `i0..i1` (columns of `a`), against
/// [`pack_b`] panels of `b` (`m × n`); `a` is the whole `m × ka` operand
/// and `out` holds exactly rows `i0..i1`.
#[allow(clippy::too_many_arguments)]
pub(super) fn t_gemm_fused_rows(
    a: &[f32],
    pack: &[f32],
    out: &mut [f32],
    m: usize,
    ka: usize,
    n: usize,
    i0: usize,
    i1: usize,
) {
    let panels = n.div_ceil(NR);
    for jp in 0..panels {
        let j0 = jp * NR;
        let w = NR.min(n - j0);
        let panel = &pack[jp * m * NR..(jp + 1) * m * NR];
        #[cfg(target_arch = "x86_64")]
        if w == NR && accelerated() {
            // SAFETY: `t_gemm_panel`'s preconditions, each established here:
            // - avx2 and fma: `accelerated()` just returned true;
            // - `a.len() >= m*ka`: `run_trow_tasks` shares the whole
            //   `m × ka` operand unsliced;
            // - `out.len() >= (i1-i0)*n` and `i0 <= i1 <= ka`:
            //   `run_trow_tasks` splits `out` by the same `i0..i1` range it
            //   passes, and its ranges partition `0..ka`;
            // - `panel.len() >= m*NR`: `panel` is panel `jp` of `pack_b`,
            //   sliced above to exactly `m*NR` elements;
            // - `j0 + NR <= n`: `w == NR` means the panel is full width.
            unsafe { avx2::t_gemm_panel(a, panel, out, m, ka, n, i0, i1, j0) };
            continue;
        }
        t_gemm_panel_portable(a, panel, out, ka, n, i0, i1, j0, w);
    }
}

/// Portable fused panel kernel: scalar [`f32::mul_add`] in the exact
/// per-element order of the AVX2 path, so the bits match. Handles partial
/// panels (`w < NR`); padded lanes accumulate zeros and are discarded.
#[allow(clippy::too_many_arguments)]
fn gemm_panel_portable(
    a: &[f32],
    panel: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    j0: usize,
    w: usize,
) {
    let m_main = m - m % MR;
    let mut i = 0;
    while i < m_main {
        let mut acc = [[0.0f32; NR]; MR];
        for (r, accr) in acc.iter_mut().enumerate() {
            accr[..w].copy_from_slice(&out[(i + r) * n + j0..(i + r) * n + j0 + w]);
        }
        let a0 = &a[i * k..(i + 1) * k];
        let a1 = &a[(i + 1) * k..(i + 2) * k];
        let a2 = &a[(i + 2) * k..(i + 3) * k];
        let a3 = &a[(i + 3) * k..(i + 4) * k];
        let [mut c0, mut c1, mut c2, mut c3] = acc;
        for ((((&av0, &av1), &av2), &av3), brow) in a0
            .iter()
            .zip(a1)
            .zip(a2)
            .zip(a3)
            .zip(panel.chunks_exact(NR))
        {
            for t in 0..NR {
                c0[t] = av0.mul_add(brow[t], c0[t]);
                c1[t] = av1.mul_add(brow[t], c1[t]);
                c2[t] = av2.mul_add(brow[t], c2[t]);
                c3[t] = av3.mul_add(brow[t], c3[t]);
            }
        }
        for (r, accr) in [c0, c1, c2, c3].iter().enumerate() {
            out[(i + r) * n + j0..(i + r) * n + j0 + w].copy_from_slice(&accr[..w]);
        }
        i += MR;
    }
    while i < m {
        let mut acc = [0.0f32; NR];
        acc[..w].copy_from_slice(&out[i * n + j0..i * n + j0 + w]);
        let arow = &a[i * k..(i + 1) * k];
        for (&av, brow) in arow.iter().zip(panel.chunks_exact(NR)) {
            for t in 0..NR {
                acc[t] = av.mul_add(brow[t], acc[t]);
            }
        }
        out[i * n + j0..i * n + j0 + w].copy_from_slice(&acc[..w]);
        i += 1;
    }
}

/// Portable fused transpose-product panel kernel; same bit-for-bit
/// contract with its AVX2 twin as [`gemm_panel_portable`].
#[allow(clippy::too_many_arguments)]
fn t_gemm_panel_portable(
    a: &[f32],
    panel: &[f32],
    out: &mut [f32],
    ka: usize,
    n: usize,
    i0: usize,
    i1: usize,
    j0: usize,
    w: usize,
) {
    let rows = i1 - i0;
    let i_main = i0 + (rows - rows % MR);
    let mut i = i0;
    while i < i_main {
        let mut acc = [[0.0f32; NR]; MR];
        for (r, accr) in acc.iter_mut().enumerate() {
            let o = (i - i0 + r) * n + j0;
            accr[..w].copy_from_slice(&out[o..o + w]);
        }
        let [mut c0, mut c1, mut c2, mut c3] = acc;
        for (p, brow) in panel.chunks_exact(NR).enumerate() {
            let acol: &[f32; MR] = a[p * ka + i..].first_chunk().expect("i + MR <= ka");
            for t in 0..NR {
                c0[t] = acol[0].mul_add(brow[t], c0[t]);
                c1[t] = acol[1].mul_add(brow[t], c1[t]);
                c2[t] = acol[2].mul_add(brow[t], c2[t]);
                c3[t] = acol[3].mul_add(brow[t], c3[t]);
            }
        }
        for (r, accr) in [c0, c1, c2, c3].iter().enumerate() {
            let o = (i - i0 + r) * n + j0;
            out[o..o + w].copy_from_slice(&accr[..w]);
        }
        i += MR;
    }
    while i < i1 {
        let mut acc = [0.0f32; NR];
        let o = (i - i0) * n + j0;
        acc[..w].copy_from_slice(&out[o..o + w]);
        for (p, brow) in panel.chunks_exact(NR).enumerate() {
            let av = a[p * ka + i];
            for t in 0..NR {
                acc[t] = av.mul_add(brow[t], acc[t]);
            }
        }
        out[o..o + w].copy_from_slice(&acc[..w]);
        i += 1;
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::NR;
    use std::arch::x86_64::*;

    /// AVX2/FMA micro-kernel over one full-width (`w == NR`) packed
    /// panel: 8 output rows per block (amortizing each panel-row load
    /// over 8 FMAs), then 4-row and single-row tails. Per output element
    /// the accumulation is one fused multiply-add per contraction step,
    /// ascending — identical to the portable fallback's sequence.
    ///
    /// # Safety
    /// Caller must have verified `avx2` and `fma` CPU support, and the
    /// slices must satisfy `a.len() >= m*k`, `panel.len() >= k*NR`,
    /// `out.len() >= m*n`, `j0 + NR <= n`.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn gemm_panel(
        a: &[f32],
        panel: &[f32],
        out: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
        j0: usize,
    ) {
        debug_assert!(a.len() >= m * k && panel.len() >= k * NR);
        debug_assert!(j0 + NR <= n && out.len() >= m * n);
        let ap = a.as_ptr();
        let pp = panel.as_ptr();
        let op = out.as_mut_ptr();
        let mut i = 0usize;
        while i + 8 <= m {
            unsafe {
                let mut c0 = _mm256_loadu_ps(op.add(i * n + j0));
                let mut c1 = _mm256_loadu_ps(op.add((i + 1) * n + j0));
                let mut c2 = _mm256_loadu_ps(op.add((i + 2) * n + j0));
                let mut c3 = _mm256_loadu_ps(op.add((i + 3) * n + j0));
                let mut c4 = _mm256_loadu_ps(op.add((i + 4) * n + j0));
                let mut c5 = _mm256_loadu_ps(op.add((i + 5) * n + j0));
                let mut c6 = _mm256_loadu_ps(op.add((i + 6) * n + j0));
                let mut c7 = _mm256_loadu_ps(op.add((i + 7) * n + j0));
                for p in 0..k {
                    let b = _mm256_loadu_ps(pp.add(p * NR));
                    c0 = _mm256_fmadd_ps(_mm256_set1_ps(*ap.add(i * k + p)), b, c0);
                    c1 = _mm256_fmadd_ps(_mm256_set1_ps(*ap.add((i + 1) * k + p)), b, c1);
                    c2 = _mm256_fmadd_ps(_mm256_set1_ps(*ap.add((i + 2) * k + p)), b, c2);
                    c3 = _mm256_fmadd_ps(_mm256_set1_ps(*ap.add((i + 3) * k + p)), b, c3);
                    c4 = _mm256_fmadd_ps(_mm256_set1_ps(*ap.add((i + 4) * k + p)), b, c4);
                    c5 = _mm256_fmadd_ps(_mm256_set1_ps(*ap.add((i + 5) * k + p)), b, c5);
                    c6 = _mm256_fmadd_ps(_mm256_set1_ps(*ap.add((i + 6) * k + p)), b, c6);
                    c7 = _mm256_fmadd_ps(_mm256_set1_ps(*ap.add((i + 7) * k + p)), b, c7);
                }
                _mm256_storeu_ps(op.add(i * n + j0), c0);
                _mm256_storeu_ps(op.add((i + 1) * n + j0), c1);
                _mm256_storeu_ps(op.add((i + 2) * n + j0), c2);
                _mm256_storeu_ps(op.add((i + 3) * n + j0), c3);
                _mm256_storeu_ps(op.add((i + 4) * n + j0), c4);
                _mm256_storeu_ps(op.add((i + 5) * n + j0), c5);
                _mm256_storeu_ps(op.add((i + 6) * n + j0), c6);
                _mm256_storeu_ps(op.add((i + 7) * n + j0), c7);
            }
            i += 8;
        }
        while i + 4 <= m {
            unsafe {
                let mut c0 = _mm256_loadu_ps(op.add(i * n + j0));
                let mut c1 = _mm256_loadu_ps(op.add((i + 1) * n + j0));
                let mut c2 = _mm256_loadu_ps(op.add((i + 2) * n + j0));
                let mut c3 = _mm256_loadu_ps(op.add((i + 3) * n + j0));
                for p in 0..k {
                    let b = _mm256_loadu_ps(pp.add(p * NR));
                    c0 = _mm256_fmadd_ps(_mm256_set1_ps(*ap.add(i * k + p)), b, c0);
                    c1 = _mm256_fmadd_ps(_mm256_set1_ps(*ap.add((i + 1) * k + p)), b, c1);
                    c2 = _mm256_fmadd_ps(_mm256_set1_ps(*ap.add((i + 2) * k + p)), b, c2);
                    c3 = _mm256_fmadd_ps(_mm256_set1_ps(*ap.add((i + 3) * k + p)), b, c3);
                }
                _mm256_storeu_ps(op.add(i * n + j0), c0);
                _mm256_storeu_ps(op.add((i + 1) * n + j0), c1);
                _mm256_storeu_ps(op.add((i + 2) * n + j0), c2);
                _mm256_storeu_ps(op.add((i + 3) * n + j0), c3);
            }
            i += 4;
        }
        while i < m {
            unsafe {
                let mut c0 = _mm256_loadu_ps(op.add(i * n + j0));
                for p in 0..k {
                    let b = _mm256_loadu_ps(pp.add(p * NR));
                    c0 = _mm256_fmadd_ps(_mm256_set1_ps(*ap.add(i * k + p)), b, c0);
                }
                _mm256_storeu_ps(op.add(i * n + j0), c0);
            }
            i += 1;
        }
    }

    /// AVX2/FMA transpose-product micro-kernel over one full-width packed
    /// panel: output rows `i0..i1` are columns of `a`, read contiguously
    /// (`a[p*ka + i .. i+4]`) per contraction step.
    ///
    /// # Safety
    /// Caller must have verified `avx2` and `fma` CPU support, and:
    /// `a.len() >= m*ka`, `panel.len() >= m*NR`, `out.len() >=
    /// (i1-i0)*n`, `i0 <= i1 <= ka`, `j0 + NR <= n`.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn t_gemm_panel(
        a: &[f32],
        panel: &[f32],
        out: &mut [f32],
        m: usize,
        ka: usize,
        n: usize,
        i0: usize,
        i1: usize,
        j0: usize,
    ) {
        debug_assert!(a.len() >= m * ka && panel.len() >= m * NR);
        debug_assert!(i1 <= ka && j0 + NR <= n && out.len() >= (i1 - i0) * n);
        let ap = a.as_ptr();
        let pp = panel.as_ptr();
        let op = out.as_mut_ptr();
        let mut i = i0;
        while i + 4 <= i1 {
            unsafe {
                let o = (i - i0) * n + j0;
                let mut c0 = _mm256_loadu_ps(op.add(o));
                let mut c1 = _mm256_loadu_ps(op.add(o + n));
                let mut c2 = _mm256_loadu_ps(op.add(o + 2 * n));
                let mut c3 = _mm256_loadu_ps(op.add(o + 3 * n));
                for p in 0..m {
                    let b = _mm256_loadu_ps(pp.add(p * NR));
                    let acol = ap.add(p * ka + i);
                    c0 = _mm256_fmadd_ps(_mm256_set1_ps(*acol), b, c0);
                    c1 = _mm256_fmadd_ps(_mm256_set1_ps(*acol.add(1)), b, c1);
                    c2 = _mm256_fmadd_ps(_mm256_set1_ps(*acol.add(2)), b, c2);
                    c3 = _mm256_fmadd_ps(_mm256_set1_ps(*acol.add(3)), b, c3);
                }
                _mm256_storeu_ps(op.add(o), c0);
                _mm256_storeu_ps(op.add(o + n), c1);
                _mm256_storeu_ps(op.add(o + 2 * n), c2);
                _mm256_storeu_ps(op.add(o + 3 * n), c3);
            }
            i += 4;
        }
        while i < i1 {
            unsafe {
                let o = (i - i0) * n + j0;
                let mut c0 = _mm256_loadu_ps(op.add(o));
                for p in 0..m {
                    let b = _mm256_loadu_ps(pp.add(p * NR));
                    c0 = _mm256_fmadd_ps(_mm256_set1_ps(*ap.add(p * ka + i)), b, c0);
                }
                _mm256_storeu_ps(op.add(o), c0);
            }
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn avx2_panels_are_bit_identical_to_portable_panels() {
        if !accelerated() {
            eprintln!("skipped: no avx2+fma here, the portable panels are the only path");
            return;
        }
        #[cfg(target_arch = "x86_64")]
        compare_full_panels();
    }

    /// Runs every AVX2 panel kernel and its portable twin on the same
    /// full-width panels, over row counts that hit each 8-, 4- and 1-row
    /// tail and contraction lengths including the empty one.
    #[cfg(target_arch = "x86_64")]
    fn compare_full_panels() {
        let values = |len: usize, seed: f32| -> Vec<f32> {
            (0..len)
                .map(|i| (i as f32 * 0.73 + seed).sin() * 1.7)
                .collect()
        };
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        // Two full panels, so the second runs at a nonzero column offset.
        let n = 2 * NR;
        let mut pack = Vec::new();
        for m in [0, 1, 3, 4, 5, 7, 8, 9, 12, 17] {
            for k in [0, 1, 5, 33] {
                // `a × B`: `m` rows of `a` against `k × n` panels.
                let a = values(m * k, 0.1);
                pack_b(&values(k * n, 0.2), k, n, &mut pack);
                for jp in 0..2 {
                    let (j0, panel) = (jp * NR, &pack[jp * k * NR..(jp + 1) * k * NR]);
                    let mut want = values(m * n, 0.3);
                    let mut got = want.clone();
                    gemm_panel_portable(&a, panel, &mut want, m, k, n, j0, NR);
                    // SAFETY: avx2+fma checked by the caller; `a` is
                    // `m*k`, `panel` is `k*NR`, `got` is `m*n`, and
                    // `j0 + NR <= 2*NR = n`.
                    unsafe { avx2::gemm_panel(&a, panel, &mut got, m, k, n, j0) };
                    assert_eq!(bits(&got), bits(&want), "gemm m={m} k={k} j0={j0}");
                }
                // `aᵀ × B`: output rows `1..1+m` (columns of a `k × ka`
                // operand) against the same `k × n` panels.
                let (ka, i0, i1) = (m + 2, 1, 1 + m);
                let a = values(k * ka, 0.4);
                for jp in 0..2 {
                    let (j0, panel) = (jp * NR, &pack[jp * k * NR..(jp + 1) * k * NR]);
                    let mut want = values(m * n, 0.5);
                    let mut got = want.clone();
                    t_gemm_panel_portable(&a, panel, &mut want, ka, n, i0, i1, j0, NR);
                    // SAFETY: avx2+fma checked by the caller; `a` is
                    // `k*ka`, `panel` is `k*NR`, `got` is `(i1-i0)*n`,
                    // `i0 <= i1 = m+1 <= ka`, and `j0 + NR <= n`.
                    unsafe { avx2::t_gemm_panel(&a, panel, &mut got, k, ka, n, i0, i1, j0) };
                    assert_eq!(bits(&got), bits(&want), "t_gemm rows={m} k={k} j0={j0}");
                }
            }
        }
    }
}
