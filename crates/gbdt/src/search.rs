//! Randomized hyperparameter search (the paper uses 1000 iterations).
//!
//! Candidates are drawn log-uniformly / uniformly from a [`SearchSpace`],
//! fitted on the training split and scored (R²) on a validation split.
//! Deterministic per seed: draws are generated up front from one stream,
//! and candidate `i` fits with seed `seed ^ i`.

use crate::boost::{Gbdt, GbdtParams};
use crate::tree::TreeParams;
use lmpeel_stats::{r2_score, seeded_rng, SeedDomain};
use rand::RngExt;

/// Ranges for the randomized search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchSpace {
    /// Inclusive range of boosting rounds.
    pub n_estimators: (usize, usize),
    /// Log-uniform range of learning rates.
    pub learning_rate: (f64, f64),
    /// Inclusive range of maximum depths.
    pub max_depth: (usize, usize),
    /// Inclusive range of minimum samples per leaf.
    pub min_samples_leaf: (usize, usize),
    /// Uniform range of row subsample fractions.
    pub subsample: (f64, f64),
    /// Uniform range of feature subsample fractions.
    pub colsample: (f64, f64),
}

impl Default for SearchSpace {
    fn default() -> Self {
        Self {
            n_estimators: (50, 600),
            learning_rate: (0.01, 0.3),
            max_depth: (3, 12),
            min_samples_leaf: (1, 16),
            subsample: (0.5, 1.0),
            colsample: (0.5, 1.0),
        }
    }
}

impl SearchSpace {
    /// Draw one candidate parameter set.
    pub fn draw<R: RngExt + ?Sized>(&self, rng: &mut R) -> GbdtParams {
        let log_uniform =
            |rng: &mut R, (lo, hi): (f64, f64)| (rng.random_range(lo.ln()..=hi.ln())).exp();
        GbdtParams {
            n_estimators: rng.random_range(self.n_estimators.0..=self.n_estimators.1),
            learning_rate: log_uniform(rng, self.learning_rate),
            tree: TreeParams {
                max_depth: rng.random_range(self.max_depth.0..=self.max_depth.1),
                min_samples_leaf: rng
                    .random_range(self.min_samples_leaf.0..=self.min_samples_leaf.1),
                min_gain: 1e-12,
            },
            subsample: rng.random_range(self.subsample.0..=self.subsample.1),
            colsample: rng.random_range(self.colsample.0..=self.colsample.1),
        }
    }
}

/// Outcome of a randomized search.
#[derive(Debug, Clone)]
pub struct SearchResult {
    /// The best model, refitted on the full training set.
    pub model: Gbdt,
    /// Validation R² of the winning candidate.
    pub val_r2: f64,
    /// Number of candidates evaluated.
    pub iterations: usize,
}

/// Run a randomized search: draw `iterations` candidates, fit each on
/// `(train_x, train_y)`, score on `(val_x, val_y)`, refit the winner on
/// train+validation combined.
///
/// # Panics
/// Panics if any split is empty or `iterations == 0`.
pub fn random_search(
    train_x: &[Vec<f64>],
    train_y: &[f64],
    val_x: &[Vec<f64>],
    val_y: &[f64],
    space: SearchSpace,
    iterations: usize,
    seed: u64,
) -> SearchResult {
    assert!(iterations > 0, "need at least one search iteration");
    assert!(!train_x.is_empty() && !val_x.is_empty(), "empty split");
    let mut rng = seeded_rng(seed, SeedDomain::HyperSearch(0));
    let candidates: Vec<GbdtParams> = (0..iterations).map(|_| space.draw(&mut rng)).collect();

    let scored: Vec<(usize, f64)> = candidates
        .iter()
        .enumerate()
        .map(|(i, params)| {
            let model = Gbdt::fit(train_x, train_y, *params, seed ^ (i as u64));
            let pred = model.predict(val_x);
            (i, r2_score(&pred, val_y))
        })
        .collect();
    let &(best_idx, val_r2) = scored
        .iter()
        .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap().then(b.0.cmp(&a.0)))
        .expect("iterations > 0");

    // Refit the winner on all available data.
    let mut full_x: Vec<Vec<f64>> = train_x.to_vec();
    full_x.extend_from_slice(val_x);
    let mut full_y: Vec<f64> = train_y.to_vec();
    full_y.extend_from_slice(val_y);
    let model = Gbdt::fit(
        &full_x,
        &full_y,
        candidates[best_idx],
        seed ^ (best_idx as u64),
    );
    SearchResult {
        model,
        val_r2,
        iterations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy(n: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| vec![(i % 23) as f64 / 23.0, ((i / 23) % 19) as f64 / 19.0])
            .collect();
        let y: Vec<f64> = rows
            .iter()
            .map(|r| (6.0 * r[0]).sin() + r[1] * r[1])
            .collect();
        (rows, y)
    }

    #[test]
    fn draw_respects_ranges() {
        let space = SearchSpace::default();
        let mut rng = seeded_rng(0, SeedDomain::HyperSearch(9));
        for _ in 0..200 {
            let p = space.draw(&mut rng);
            assert!((space.n_estimators.0..=space.n_estimators.1).contains(&p.n_estimators));
            assert!(p.learning_rate >= space.learning_rate.0 * 0.999);
            assert!(p.learning_rate <= space.learning_rate.1 * 1.001);
            assert!((space.max_depth.0..=space.max_depth.1).contains(&p.tree.max_depth));
            assert!(p.subsample >= 0.5 && p.subsample <= 1.0);
            assert!(p.colsample >= 0.5 && p.colsample <= 1.0);
        }
    }

    #[test]
    fn search_beats_a_bad_default() {
        let (x, y) = toy(600);
        let (tx, vx) = (&x[..400], &x[400..]);
        let (ty, vy) = (&y[..400], &y[400..]);
        // A deliberately poor baseline: depth 1, 5 rounds.
        let bad = Gbdt::fit(
            tx,
            ty,
            GbdtParams {
                n_estimators: 5,
                tree: TreeParams {
                    max_depth: 1,
                    ..Default::default()
                },
                ..Default::default()
            },
            0,
        );
        let bad_r2 = r2_score(&bad.predict(vx), vy);
        let result = random_search(tx, ty, vx, vy, SearchSpace::default(), 12, 0);
        assert!(
            result.val_r2 > bad_r2,
            "search ({}) should beat bad default ({bad_r2})",
            result.val_r2
        );
        assert_eq!(result.iterations, 12);
    }

    #[test]
    fn search_is_deterministic_per_seed() {
        let (x, y) = toy(300);
        let (tx, vx) = (&x[..200], &x[200..]);
        let (ty, vy) = (&y[..200], &y[200..]);
        let a = random_search(tx, ty, vx, vy, SearchSpace::default(), 6, 5);
        let b = random_search(tx, ty, vx, vy, SearchSpace::default(), 6, 5);
        assert_eq!(a.val_r2, b.val_r2);
        assert_eq!(a.model.predict(vx), b.model.predict(vx));
    }

    #[test]
    fn winner_is_refit_on_all_data() {
        let (x, y) = toy(300);
        let (tx, vx) = (&x[..200], &x[200..]);
        let (ty, vy) = (&y[..200], &y[200..]);
        let result = random_search(tx, ty, vx, vy, SearchSpace::default(), 4, 1);
        // The refit model should fit the validation set better than chance.
        let r2 = r2_score(&result.model.predict(vx), vy);
        assert!(r2 > 0.5, "refit model R2 {r2}");
    }

    #[test]
    #[should_panic(expected = "at least one search iteration")]
    fn zero_iterations_rejected() {
        let (x, y) = toy(20);
        let _ = random_search(&x, &y, &x, &y, SearchSpace::default(), 0, 0);
    }
}
