//! Regression quality metrics used throughout the paper.
//!
//! The paper reports three headline metrics (§III-C): the coefficient of
//! determination (R²), Mean Absolute Relative Error (MARE) and Mean Squared
//! Relative Error (MSRE). Relative metrics are preferred "to improve the
//! comparability of results across all experimental settings" — the SM and
//! XL datasets have output domains that differ by three orders of magnitude.

/// Relative error of a single prediction with respect to ground truth.
///
/// Defined as `|pred - truth| / |truth|`. Ground truths in this workspace are
/// strictly positive runtimes, but the function is defensive: a zero truth
/// with a zero prediction yields `0.0`, and a zero truth with a nonzero
/// prediction yields `f64::INFINITY`.
pub fn relative_error(pred: f64, truth: f64) -> f64 {
    let diff = (pred - truth).abs();
    if diff == 0.0 {
        0.0
    } else if truth == 0.0 {
        f64::INFINITY
    } else {
        diff / truth.abs()
    }
}

fn check_paired(pred: &[f64], truth: &[f64]) {
    assert_eq!(
        pred.len(),
        truth.len(),
        "prediction and ground-truth slices must be the same length"
    );
    assert!(!pred.is_empty(), "metrics require at least one observation");
}

/// Mean Absolute Relative Error.
///
/// `MARE = mean_i |pred_i - truth_i| / |truth_i|`
///
/// # Panics
/// Panics if the slices differ in length or are empty.
pub fn mare(pred: &[f64], truth: &[f64]) -> f64 {
    check_paired(pred, truth);
    let sum: f64 = pred
        .iter()
        .zip(truth)
        .map(|(&p, &t)| relative_error(p, t))
        .sum();
    sum / pred.len() as f64
}

/// Mean Squared Relative Error.
///
/// `MSRE = mean_i ((pred_i - truth_i) / truth_i)^2`
///
/// # Panics
/// Panics if the slices differ in length or are empty.
pub fn msre(pred: &[f64], truth: &[f64]) -> f64 {
    check_paired(pred, truth);
    let sum: f64 = pred
        .iter()
        .zip(truth)
        .map(|(&p, &t)| {
            let r = relative_error(p, t);
            r * r
        })
        .sum();
    sum / pred.len() as f64
}

/// Coefficient of determination (R² score).
///
/// `R² = 1 - SS_res / SS_tot` where `SS_tot` is measured around the mean of
/// the ground truth. A model that always predicts the ground-truth mean
/// scores 0; worse-than-mean predictors score negative (the paper observes a
/// *mean* LLM R² of −6.643, so negative values are first-class here). If the
/// ground truth is constant (`SS_tot == 0`), returns 1.0 for exact
/// predictions and `f64::NEG_INFINITY` otherwise, mirroring scikit-learn's
/// convention closely enough for our use.
///
/// # Panics
/// Panics if the slices differ in length or are empty.
pub fn r2_score(pred: &[f64], truth: &[f64]) -> f64 {
    check_paired(pred, truth);
    let mean_t: f64 = truth.iter().sum::<f64>() / truth.len() as f64;
    let ss_tot: f64 = truth.iter().map(|&t| (t - mean_t) * (t - mean_t)).sum();
    let ss_res: f64 = pred
        .iter()
        .zip(truth)
        .map(|(&p, &t)| (p - t) * (p - t))
        .sum();
    if ss_tot == 0.0 {
        if ss_res == 0.0 {
            1.0
        } else {
            f64::NEG_INFINITY
        }
    } else {
        1.0 - ss_res / ss_tot
    }
}

/// Bundle of the three paper metrics for one evaluation setting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegressionReport {
    /// Coefficient of determination.
    pub r2: f64,
    /// Mean Absolute Relative Error.
    pub mare: f64,
    /// Mean Squared Relative Error.
    pub msre: f64,
    /// Number of (prediction, truth) pairs scored.
    pub n: usize,
}

impl RegressionReport {
    /// Score a batch of predictions against ground truth.
    ///
    /// # Panics
    /// Panics if the slices differ in length or are empty.
    pub fn score(pred: &[f64], truth: &[f64]) -> Self {
        Self {
            r2: r2_score(pred, truth),
            mare: mare(pred, truth),
            msre: msre(pred, truth),
            n: pred.len(),
        }
    }
}

impl std::fmt::Display for RegressionReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "R2={:+.4} MARE={:.4} MSRE={:.4} (n={})",
            self.r2, self.mare, self.msre, self.n
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-12;

    #[test]
    fn relative_error_basics() {
        assert_eq!(relative_error(1.0, 1.0), 0.0);
        assert!((relative_error(1.5, 1.0) - 0.5).abs() < EPS);
        assert!((relative_error(0.5, 1.0) - 0.5).abs() < EPS);
        assert_eq!(relative_error(0.0, 0.0), 0.0);
        assert!(relative_error(1.0, 0.0).is_infinite());
    }

    #[test]
    fn relative_error_is_symmetric_in_sign_of_residual() {
        let up = relative_error(2.2, 2.0);
        let down = relative_error(1.8, 2.0);
        assert!((up - down).abs() < EPS);
    }

    #[test]
    fn perfect_predictions() {
        let t = [0.1, 0.2, 0.3, 4.0];
        assert_eq!(r2_score(&t, &t), 1.0);
        assert_eq!(mare(&t, &t), 0.0);
        assert_eq!(msre(&t, &t), 0.0);
    }

    #[test]
    fn mean_predictor_has_zero_r2() {
        let truth = [1.0, 2.0, 3.0, 4.0];
        let mean = 2.5;
        let pred = [mean; 4];
        assert!(r2_score(&pred, &truth).abs() < EPS);
    }

    #[test]
    fn bad_predictor_has_negative_r2() {
        let truth = [1.0, 2.0, 3.0, 4.0];
        let pred = [4.0, 3.0, 2.0, 1.0];
        assert!(r2_score(&pred, &truth) < 0.0);
        // A scale error is punished even when the ranking is perfect.
        let scaled: Vec<f64> = truth.iter().map(|t| t * 100.0).collect();
        assert!(r2_score(&scaled, &truth) < 0.0);
    }

    #[test]
    fn constant_truth_conventions() {
        let truth = [2.0, 2.0];
        assert_eq!(r2_score(&[2.0, 2.0], &truth), 1.0);
        assert_eq!(r2_score(&[2.0, 3.0], &truth), f64::NEG_INFINITY);
    }

    #[test]
    fn mare_and_msre_known_values() {
        let truth = [1.0, 2.0];
        let pred = [1.5, 1.0]; // rel errs: 0.5, 0.5
        assert!((mare(&pred, &truth) - 0.5).abs() < EPS);
        assert!((msre(&pred, &truth) - 0.25).abs() < EPS);
    }

    #[test]
    fn msre_penalizes_outliers_harder_than_mare() {
        let truth = [1.0, 1.0, 1.0, 1.0];
        let pred = [1.0, 1.0, 1.0, 5.0]; // one 400% outlier
        let a = mare(&pred, &truth);
        let s = msre(&pred, &truth);
        assert!(s > a, "msre {s} should exceed mare {a} with an outlier");
    }

    #[test]
    fn report_display_is_stable() {
        let r = RegressionReport::score(&[1.0, 2.0], &[1.0, 4.0]);
        let s = format!("{r}");
        assert!(s.contains("MARE"), "display should label metrics: {s}");
        assert!(s.contains("n=2"));
    }

    #[test]
    #[should_panic(expected = "same length")]
    fn mismatched_lengths_panic() {
        let _ = mare(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn empty_slices_panic() {
        let _ = r2_score(&[], &[]);
    }
}
