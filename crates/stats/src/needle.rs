//! "Needles in a haystack" error-bound analysis (§IV-C.1).
//!
//! The paper treats the distribution of LLM-generable values as a haystack
//! and asks what fraction of values ("needles") fall within a given relative
//! error bound of the ground truth — a ceiling on what any hypothetical
//! post-hoc decoder could achieve. The same computation applied to a
//! point-predictor's test outputs gives the comparison column for XGBoost
//! (95% / 52% / 6% at the 50% / 10% / 1% bounds with 100 training examples).

use crate::metrics::relative_error;

/// The paper's three headline relative-error thresholds.
pub const PAPER_THRESHOLDS: [f64; 3] = [0.50, 0.10, 0.01];

/// Fraction of `(prediction, truth)` pairs whose relative error is at most
/// `bound`.
///
/// # Panics
/// Panics if the slices differ in length or are empty.
fn needle_fraction(pred: &[f64], truth: &[f64], bound: f64) -> f64 {
    assert_eq!(pred.len(), truth.len(), "paired slices required");
    assert!(!pred.is_empty(), "needle fraction requires observations");
    let hits = pred
        .iter()
        .zip(truth)
        .filter(|&(&p, &t)| relative_error(p, t) <= bound)
        .count();
    hits as f64 / pred.len() as f64
}

/// Weighted variant: each candidate value carries a probability weight, and
/// the result is the probability mass within the bound. Used on the
/// generable-value distributions where each alternative decoding has a joint
/// decode probability.
///
/// Returns 0.0 when total weight is zero.
pub fn weighted_needle_mass(candidates: &[(f64, f64)], truth: f64, bound: f64) -> f64 {
    let total: f64 = candidates.iter().map(|&(_, w)| w).sum();
    if total <= 0.0 {
        return 0.0;
    }
    let hit: f64 = candidates
        .iter()
        .filter(|&&(v, _)| relative_error(v, truth) <= bound)
        .map(|&(_, w)| w)
        .sum();
    hit / total
}

/// Existence variant: does *any* candidate fall within the bound? This is
/// the paper's oracle notion — a perfect post-hoc decoder that can pick any
/// generable value.
pub fn any_needle(candidates: &[(f64, f64)], truth: f64, bound: f64) -> bool {
    candidates
        .iter()
        .any(|&(v, w)| w > 0.0 && relative_error(v, truth) <= bound)
}

/// Needle fractions at each of the paper's thresholds for one predictor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NeedleReport {
    /// Fraction within 50% relative error.
    pub within_50pct: f64,
    /// Fraction within 10% relative error.
    pub within_10pct: f64,
    /// Fraction within 1% relative error.
    pub within_1pct: f64,
}

impl NeedleReport {
    /// Score a point predictor at the paper's three thresholds.
    ///
    /// # Panics
    /// Panics if the slices differ in length or are empty.
    pub fn score(pred: &[f64], truth: &[f64]) -> Self {
        Self {
            within_50pct: needle_fraction(pred, truth, PAPER_THRESHOLDS[0]),
            within_10pct: needle_fraction(pred, truth, PAPER_THRESHOLDS[1]),
            within_1pct: needle_fraction(pred, truth, PAPER_THRESHOLDS[2]),
        }
    }

    /// True when `self` is at least as good as `other` at every threshold.
    pub fn dominates(&self, other: &NeedleReport) -> bool {
        self.within_50pct >= other.within_50pct
            && self.within_10pct >= other.within_10pct
            && self.within_1pct >= other.within_1pct
    }
}

impl std::fmt::Display for NeedleReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "<=50%: {:5.1}%  <=10%: {:5.1}%  <=1%: {:5.1}%",
            self.within_50pct * 100.0,
            self.within_10pct * 100.0,
            self.within_1pct * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_predictions_hit_every_bound() {
        let t = [1.0, 2.0, 3.0];
        let r = NeedleReport::score(&t, &t);
        assert_eq!(r.within_50pct, 1.0);
        assert_eq!(r.within_1pct, 1.0);
    }

    #[test]
    fn fractions_are_monotone_in_bound() {
        let truth = [1.0, 1.0, 1.0, 1.0];
        let pred = [1.005, 1.05, 1.3, 2.5];
        let r = NeedleReport::score(&pred, &truth);
        assert!(r.within_50pct >= r.within_10pct);
        assert!(r.within_10pct >= r.within_1pct);
        assert_eq!(r.within_50pct, 0.75);
        assert_eq!(r.within_10pct, 0.5);
        assert_eq!(r.within_1pct, 0.25);
    }

    #[test]
    fn boundary_is_inclusive() {
        assert_eq!(needle_fraction(&[1.5], &[1.0], 0.5), 1.0);
        assert_eq!(needle_fraction(&[1.5000001], &[1.0], 0.5), 0.0);
    }

    #[test]
    fn weighted_mass_normalizes() {
        let cands = [(1.0, 3.0), (2.0, 1.0)];
        // truth 1.0, bound 10% -> only first candidate hits -> 3/4 of mass
        assert!((weighted_needle_mass(&cands, 1.0, 0.1) - 0.75).abs() < 1e-12);
        assert_eq!(weighted_needle_mass(&[], 1.0, 0.1), 0.0);
    }

    #[test]
    fn oracle_any_needle() {
        let cands = [(5.0, 0.9), (1.01, 0.1)];
        assert!(any_needle(&cands, 1.0, 0.05));
        assert!(!any_needle(&cands, 1.0, 0.001));
        // zero-weight candidates don't count
        assert!(!any_needle(&[(1.0, 0.0)], 1.0, 0.5));
    }

    #[test]
    fn dominance_matches_paper_claim_shape() {
        // XGBoost(100): 95 / 52 / 6; LLM oracle: ~50 / 20 / 3 (paper values)
        let xgb = NeedleReport {
            within_50pct: 0.95,
            within_10pct: 0.52,
            within_1pct: 0.06,
        };
        let llm = NeedleReport {
            within_50pct: 0.50,
            within_10pct: 0.20,
            within_1pct: 0.03,
        };
        assert!(xgb.dominates(&llm));
        assert!(!llm.dominates(&xgb));
    }
}
