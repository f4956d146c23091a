//! Order statistics and the result line the benchmark prints last.

use std::fmt::Write;

/// Linear-interpolated quantile of `values` (`q` in `[0, 1]`); 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// `min … q1 … median … q3 … max …` of `values`, for diagnostic lines.
pub fn describe(values: &[f64]) -> String {
    format!(
        "min {:.1} q1 {:.1} median {:.1} q3 {:.1} max {:.1}",
        quantile(values, 0.0),
        quantile(values, 0.25),
        quantile(values, 0.5),
        quantile(values, 0.75),
        quantile(values, 1.0),
    )
}

/// Mean of `values` without the `trim` lowest and `trim` highest.
pub fn trimmed_mean(values: &[f64], trim: usize) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let kept = &sorted[trim.min(sorted.len())..sorted.len().saturating_sub(trim)];
    if kept.is_empty() {
        return median(values);
    }
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// `part / whole`, or 0 when `whole` is 0 (a ratio whose base is empty).
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

/// The metrics of one run plus its operation counts, printed as the final
/// JSON line of standard output.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub mismatches: u64,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        println!("metric {name:<26} {value:>14.6} {unit}");
        self.metrics.push((name.to_string(), value, unit));
    }

    /// A run is correct when every output check passed and no operation
    /// failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.mismatches == 0 && self.attempted > 0
    }

    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed + self.mismatches
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            // Non-finite values cannot be written as JSON numbers; they only
            // arise from an empty base, which a correct run never has.
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(trimmed_mean(&[9.0, 1.0, 2.0, 3.0, 100.0], 1), 14.0 / 3.0);
    }
}
