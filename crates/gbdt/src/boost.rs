//! Squared-error gradient boosting with shrinkage and stochastic sampling.

use crate::data::DMatrix;
use crate::tree::{Tree, TreeParams};
use lmpeel_stats::{seeded_rng, SeedDomain};
use rand::seq::SliceRandom;

/// Boosting hyperparameters — the set the paper's randomized search tunes
/// ("the number of estimators, learning rate, maximum tree depth and
/// minimum number of samples per leaf node") plus the standard stochastic
/// sampling knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GbdtParams {
    /// Number of boosting rounds.
    pub n_estimators: usize,
    /// Shrinkage applied to each tree's contribution.
    pub learning_rate: f64,
    /// Per-tree growth constraints.
    pub tree: TreeParams,
    /// Fraction of rows sampled (without replacement) per round.
    pub subsample: f64,
    /// Fraction of features sampled per round.
    pub colsample: f64,
}

impl Default for GbdtParams {
    fn default() -> Self {
        Self {
            n_estimators: 200,
            learning_rate: 0.1,
            tree: TreeParams::default(),
            subsample: 1.0,
            colsample: 1.0,
        }
    }
}

/// A fitted boosted ensemble.
#[derive(Debug, Clone)]
pub struct Gbdt {
    params: GbdtParams,
    base: f64,
    trees: Vec<Tree>,
}

impl Gbdt {
    /// Fit on row-major features and targets. `seed` drives the stochastic
    /// row/column sampling (deterministic per seed).
    ///
    /// # Panics
    /// Panics on empty data, length mismatch, or sampling fractions
    /// outside `(0, 1]`.
    pub fn fit(features: &[Vec<f64>], targets: &[f64], params: GbdtParams, seed: u64) -> Self {
        assert_eq!(
            features.len(),
            targets.len(),
            "features/targets length mismatch"
        );
        assert!(!features.is_empty(), "cannot fit on empty data");
        assert!(
            params.subsample > 0.0 && params.subsample <= 1.0,
            "subsample must be in (0,1]"
        );
        assert!(
            params.colsample > 0.0 && params.colsample <= 1.0,
            "colsample must be in (0,1]"
        );
        let data = DMatrix::from_rows(features);
        let n = data.n_rows();
        let n_features = data.n_features();
        let base = targets.iter().sum::<f64>() / n as f64;
        let mut pred = vec![base; n];
        let mut residual = vec![0.0; n];
        let mut trees = Vec::with_capacity(params.n_estimators);
        let mut rng = seeded_rng(seed, SeedDomain::GbdtTraining(0));
        let all_rows: Vec<usize> = (0..n).collect();
        let all_feats: Vec<usize> = (0..n_features).collect();
        let n_sub = ((n as f64 * params.subsample).round() as usize).clamp(1, n);
        let n_col = ((n_features as f64 * params.colsample).round() as usize).clamp(1, n_features);

        // Per-tree subsamples, reshuffled from the full sets each round.
        let mut sub_rows = Vec::new();
        let mut sub_feats = Vec::new();

        for _ in 0..params.n_estimators {
            for i in 0..n {
                residual[i] = targets[i] - pred[i];
            }
            let rows: &[usize] = if n_sub < n {
                sub_rows.clone_from(&all_rows);
                let _ = sub_rows.partial_shuffle(&mut rng, n_sub);
                &sub_rows[..n_sub]
            } else {
                &all_rows
            };
            let feats: &[usize] = if n_col < n_features {
                sub_feats.clone_from(&all_feats);
                let _ = sub_feats.partial_shuffle(&mut rng, n_col);
                sub_feats[..n_col].sort_unstable();
                &sub_feats[..n_col]
            } else {
                &all_feats
            };
            let tree = Tree::fit(&data, &residual, rows, feats, params.tree);
            for (i, row) in features.iter().enumerate() {
                pred[i] += params.learning_rate * tree.predict_row(row);
            }
            trees.push(tree);
        }
        Self {
            params,
            base,
            trees,
        }
    }

    /// Predict one feature row.
    pub fn predict_row(&self, row: &[f64]) -> f64 {
        self.base
            + self.params.learning_rate * self.trees.iter().map(|t| t.predict_row(row)).sum::<f64>()
    }

    /// Predict a batch of rows.
    pub fn predict(&self, rows: &[Vec<f64>]) -> Vec<f64> {
        rows.iter().map(|r| self.predict_row(r)).collect()
    }

    /// The hyperparameters used for fitting.
    pub fn params(&self) -> GbdtParams {
        self.params
    }

    /// Gain-based feature importance, normalized to sum to 1 (all zeros if
    /// the ensemble never split).
    pub fn feature_importance(&self, n_features: usize) -> Vec<f64> {
        let mut acc = vec![0.0; n_features];
        for t in &self.trees {
            t.accumulate_importance(&mut acc);
        }
        let total: f64 = acc.iter().sum();
        if total > 0.0 {
            for a in &mut acc {
                *a /= total;
            }
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmpeel_stats::r2_score;

    fn toy_nonlinear(n: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
        // y = x0^2 + 3*[x1>0.5] - x0*x2, deterministic grid
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                let a = (i % 17) as f64 / 17.0;
                let b = ((i / 17) % 13) as f64 / 13.0;
                let c = ((i / 221) % 7) as f64 / 7.0;
                vec![a, b, c]
            })
            .collect();
        let y: Vec<f64> = rows
            .iter()
            .map(|r| r[0] * r[0] + 3.0 * f64::from(r[1] > 0.5) - r[0] * r[2])
            .collect();
        (rows, y)
    }

    #[test]
    fn fits_nonlinear_function_well() {
        let (x, y) = toy_nonlinear(1500);
        let model = Gbdt::fit(&x, &y, GbdtParams::default(), 0);
        let pred = model.predict(&x);
        let r2 = r2_score(&pred, &y);
        assert!(r2 > 0.99, "training R2 {r2} too low");
    }

    #[test]
    fn generalizes_on_held_out_grid_points() {
        let (x, y) = toy_nonlinear(2000);
        let (train_x, test_x) = (&x[..1500], &x[1500..]);
        let (train_y, test_y) = (&y[..1500], &y[1500..]);
        let model = Gbdt::fit(train_x, train_y, GbdtParams::default(), 1);
        let pred = model.predict(test_x);
        let r2 = r2_score(&pred, test_y);
        assert!(r2 > 0.9, "test R2 {r2} too low");
    }

    #[test]
    fn zero_trees_predicts_the_mean() {
        let (x, y) = toy_nonlinear(100);
        let model = Gbdt::fit(
            &x,
            &y,
            GbdtParams {
                n_estimators: 0,
                ..Default::default()
            },
            0,
        );
        let mean = y.iter().sum::<f64>() / y.len() as f64;
        assert_eq!(model.trees.len(), 0);
        assert!((model.predict_row(&x[0]) - mean).abs() < 1e-12);
    }

    #[test]
    fn more_rounds_reduce_training_error() {
        let (x, y) = toy_nonlinear(800);
        let fit_err = |rounds: usize| {
            let m = Gbdt::fit(
                &x,
                &y,
                GbdtParams {
                    n_estimators: rounds,
                    learning_rate: 0.1,
                    ..Default::default()
                },
                0,
            );
            let pred = m.predict(&x);
            pred.iter()
                .zip(&y)
                .map(|(p, t)| (p - t) * (p - t))
                .sum::<f64>()
        };
        let few = fit_err(5);
        let many = fit_err(100);
        assert!(
            many < few * 0.5,
            "boosting should reduce error: {few} -> {many}"
        );
    }

    #[test]
    fn stochastic_fit_is_deterministic_per_seed() {
        let (x, y) = toy_nonlinear(300);
        let params = GbdtParams {
            subsample: 0.7,
            colsample: 0.67,
            ..Default::default()
        };
        let a = Gbdt::fit(&x, &y, params, 42);
        let b = Gbdt::fit(&x, &y, params, 42);
        let c = Gbdt::fit(&x, &y, params, 43);
        assert_eq!(a.predict(&x), b.predict(&x));
        assert_ne!(a.predict(&x), c.predict(&x));
    }

    #[test]
    fn subsampled_fit_still_learns() {
        let (x, y) = toy_nonlinear(1200);
        let params = GbdtParams {
            subsample: 0.5,
            colsample: 0.67,
            ..Default::default()
        };
        let m = Gbdt::fit(&x, &y, params, 7);
        let r2 = r2_score(&m.predict(&x), &y);
        assert!(r2 > 0.95, "stochastic R2 {r2}");
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_inputs_rejected() {
        let _ = Gbdt::fit(&[vec![1.0]], &[1.0, 2.0], GbdtParams::default(), 0);
    }
}
