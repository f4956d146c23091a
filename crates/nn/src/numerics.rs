//! Floating-point comparison primitives for checks against a numeric
//! reference rather than a bit pattern.
//!
//! The kernels need no tooling: every kernel computes the reference
//! kernel's exact bits, so `assert_eq!` is their whole contract (see
//! [`crate::kernels`]). What remains are comparisons against *different
//! arithmetic* — finite-difference gradient checks and algebraic
//! identities that reassociate a sum — and these primitives state their
//! tolerance as relative error against the reference. The shared test
//! harness in `crates/nn/tests/util` wraps them in assertion helpers.

/// Relative error of `got` against `want`, with the denominator clamped
/// to at least 1 so tiny references don't blow the ratio up:
/// `|got − want| / max(1, |want|)`. NaN propagates (and therefore fails
/// any `<= eps` comparison).
pub fn rel_err(got: f32, want: f32) -> f32 {
    (got - want).abs() / want.abs().max(1.0)
}

/// Is every element of `got` within relative error `eps` of `want`
/// (clamped denominator, see [`rel_err`])? `Err` carries the first
/// offending index with both values — ready to bubble into a proptest or
/// assertion message.
// `!(err <= eps)` rather than `err > eps`: NaN must fail the comparison.
#[allow(clippy::neg_cmp_op_on_partial_ord)]
pub fn close_rel(got: &[f32], want: &[f32], eps: f32) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!(
            "length mismatch: got {} vs want {}",
            got.len(),
            want.len()
        ));
    }
    for (i, (&g, &w)) in got.iter().zip(want).enumerate() {
        let err = rel_err(g, w);
        if !(err <= eps) {
            return Err(format!(
                "element {i}: got {g:e}, want {w:e} (rel err {err:e} > {eps:e})"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rel_err_clamps_denominator() {
        assert_eq!(rel_err(1.0, 1.0), 0.0);
        assert!((rel_err(1.1, 1.0) - 0.1).abs() < 1e-6);
        // |want| < 1 → absolute error.
        assert_eq!(rel_err(0.001, 0.0), 0.001);
        assert!((rel_err(101.0, 100.0) - 0.01).abs() < 1e-6);
    }

    #[test]
    fn close_rel_reports_first_offender() {
        assert!(close_rel(&[1.0, 2.0], &[1.0, 2.0], 0.0).is_ok());
        assert!(close_rel(&[1.0], &[1.0, 2.0], 0.5).is_err());
        let err = close_rel(&[1.0, 9.0], &[1.0, 2.0], 0.1).unwrap_err();
        assert!(err.contains("element 1"), "{err}");
        // NaN never passes.
        assert!(close_rel(&[f32::NAN], &[1.0], 1e9).is_err());
    }
}
