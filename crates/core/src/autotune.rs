//! Surrogate-driven autotuners.
//!
//! The paper's framing: "Autotuning provides a systematic approach to
//! optimizing performance by evaluating a small subset of configurations on
//! the target platform." This module provides the search loop those
//! surrogates plug into. Each strategy runs against an abstract
//! [`Objective`] — the analytic [`PerfDataset`] (via [`DatasetObjective`])
//! in experiments, the real journaled kernel in the tune service:
//!
//! * [`RandomSearch`] — the no-model baseline;
//! * [`pool_search`] — the Bayesian-optimization-style loop every
//!   surrogate shares: a few random evaluations, then rank a random
//!   candidate pool with the surrogate and evaluate the most promising
//!   candidate;
//! * [`GbdtSearch`] — that loop with the boosted-tree surrogate, refit on
//!   the observations at every step.
//!
//! The LLM discriminative surrogate (the LLAMBO recipe applied to HPC
//! autotuning: observations become in-context examples, each candidate is
//! scored by a generated runtime prediction) is the same loop with another
//! scorer; it is `lmpeel_tune::ServiceLlmSearch`, which decodes through
//! the serving layer.

use lmpeel_configspace::{ArraySize, Config, ConfigSpace};
use lmpeel_gbdt::{Gbdt, GbdtParams};
use lmpeel_perfdata::PerfDataset;
use lmpeel_stats::{seeded_rng, SeedDomain};
use rand::RngExt;
use std::collections::HashSet;

/// Why an [`Objective`] could not produce a measurement: a journal commit
/// failed, the deterministic crash hook fired, a kernel run was refused.
/// Boxed so journaled objectives can surface their own error types intact
/// (callers may downcast, e.g. to `lmpeel_recover::JournalError`).
pub type ObjectiveError = Box<dyn std::error::Error + Send + Sync + 'static>;

/// What a tuner optimizes: a configuration space plus a way to measure one
/// configuration's runtime. The analytic [`PerfDataset`] implements this
/// via [`DatasetObjective`]; the tune service wraps the real kernel (and a
/// write-ahead journal) behind the same interface, so every search
/// strategy runs unchanged against either.
pub trait Objective {
    /// The space being searched.
    fn space(&self) -> &ConfigSpace;

    /// Array size of the underlying problem (prompts mention it).
    fn size(&self) -> ArraySize;

    /// Measure one configuration's runtime in seconds. `&mut` because
    /// measuring may append to a journal or consume a fault budget.
    fn measure(&mut self, config: &Config) -> Result<f64, ObjectiveError>;
}

/// The infallible [`Objective`] over an analytic [`PerfDataset`]: every
/// measurement is a cost-model lookup.
pub struct DatasetObjective<'a> {
    dataset: &'a PerfDataset,
}

impl<'a> DatasetObjective<'a> {
    /// Wrap a dataset as a tuning objective.
    pub fn new(dataset: &'a PerfDataset) -> Self {
        Self { dataset }
    }
}

impl Objective for DatasetObjective<'_> {
    fn space(&self) -> &ConfigSpace {
        self.dataset.space()
    }

    fn size(&self) -> ArraySize {
        self.dataset.size()
    }

    fn measure(&mut self, config: &Config) -> Result<f64, ObjectiveError> {
        Ok(self.dataset.runtime_of(config))
    }
}

/// One tuning run: every evaluated configuration in order.
#[derive(Debug, Clone, PartialEq)]
pub struct TuningTrajectory {
    /// `(configuration, measured runtime)` in evaluation order.
    pub evaluated: Vec<(Config, f64)>,
}

impl TuningTrajectory {
    /// Best runtime found within the first `k` evaluations. `k` is clamped
    /// to the trajectory length; `None` when `k == 0` or nothing was
    /// evaluated (there is no best of zero measurements).
    pub fn best_after(&self, k: usize) -> Option<f64> {
        let k = k.min(self.evaluated.len());
        if k == 0 {
            return None;
        }
        Some(
            self.evaluated[..k]
                .iter()
                .map(|&(_, r)| r)
                .fold(f64::INFINITY, f64::min),
        )
    }

    /// Best-so-far curve (length = number of evaluations).
    pub fn best_curve(&self) -> Vec<f64> {
        let mut best = f64::INFINITY;
        self.evaluated
            .iter()
            .map(|&(_, r)| {
                best = best.min(r);
                best
            })
            .collect()
    }

    /// The best configuration and runtime found.
    ///
    /// # Panics
    /// Panics on an empty trajectory.
    pub fn best(&self) -> (&Config, f64) {
        self.evaluated
            .iter()
            .map(|(c, r)| (c, *r))
            .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            .expect("non-empty trajectory")
    }
}

/// A search strategy over a tuning [`Objective`].
pub trait Tuner {
    /// Strategy name for reports.
    fn name(&self) -> String;

    /// Evaluate up to `budget` configurations against `objective`,
    /// returning the trajectory. Errors surface the objective's failure
    /// (e.g. a journal commit refused mid-search); measurements taken
    /// before the failure are lost to the caller but — for journaled
    /// objectives — not to the journal.
    fn run(
        &self,
        objective: &mut dyn Objective,
        budget: usize,
        seed: u64,
    ) -> Result<TuningTrajectory, ObjectiveError>;

    /// Convenience: run against the infallible analytic dataset.
    fn run_dataset(&self, dataset: &PerfDataset, budget: usize, seed: u64) -> TuningTrajectory {
        self.run(&mut DatasetObjective::new(dataset), budget, seed)
            .expect("dataset objective cannot fail")
    }
}

/// Uniform random search.
#[derive(Debug, Clone, Copy, Default)]
pub struct RandomSearch;

impl Tuner for RandomSearch {
    fn name(&self) -> String {
        "random-search".into()
    }

    fn run(
        &self,
        objective: &mut dyn Objective,
        budget: usize,
        seed: u64,
    ) -> Result<TuningTrajectory, ObjectiveError> {
        let mut rng = seeded_rng(seed, SeedDomain::Custom(0x7A11));
        let configs = objective.space().sample_distinct(budget, &mut rng);
        let mut evaluated = Vec::with_capacity(configs.len());
        for c in configs {
            let r = objective.measure(&c)?;
            evaluated.push((c, r));
        }
        Ok(TuningTrajectory { evaluated })
    }
}

/// The surrogate-search loop every model-guided [`Tuner`] shares: measure
/// `init_random` distinct random configurations, then repeatedly sample a
/// pool of `pool` configurations, drop the ones already measured, score
/// the rest once with `score(evaluated, candidates)` (one score per
/// candidate, lower is better) and measure the lowest-scoring candidate,
/// the first one on ties. Stops at `budget` measurements, or early when a
/// pool holds nothing new.
pub fn pool_search<R: RngExt + ?Sized>(
    objective: &mut dyn Objective,
    budget: usize,
    rng: &mut R,
    init_random: usize,
    pool: usize,
    mut score: impl FnMut(&[(Config, f64)], &[Config]) -> Vec<f64>,
) -> Result<TuningTrajectory, ObjectiveError> {
    // Clone the space once so measuring (which needs `&mut objective`)
    // does not fight the space borrow.
    let space = objective.space().clone();
    let mut evaluated: Vec<(Config, f64)> = Vec::with_capacity(budget);
    let mut seen = HashSet::new();
    for c in space.sample_distinct(init_random.min(budget), rng) {
        seen.insert(space.index_of(&c));
        let r = objective.measure(&c)?;
        evaluated.push((c, r));
    }
    while evaluated.len() < budget {
        let mut candidates = space.sample_distinct(pool, rng);
        candidates.retain(|c| !seen.contains(&space.index_of(c)));
        if candidates.is_empty() {
            break;
        }
        let scores = score(&evaluated, &candidates);
        assert_eq!(scores.len(), candidates.len(), "one score per candidate");
        let best = scores
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .map(|(i, _)| i)
            .expect("pool checked non-empty");
        let c = candidates.swap_remove(best);
        seen.insert(space.index_of(&c));
        let r = objective.measure(&c)?;
        evaluated.push((c, r));
    }
    Ok(TuningTrajectory { evaluated })
}

/// Boosted-tree surrogate search: seed with random evaluations, then
/// repeatedly fit the surrogate and evaluate the pool candidate with the
/// best predicted runtime.
#[derive(Debug, Clone, Copy)]
pub struct GbdtSearch {
    /// Random evaluations before the surrogate activates.
    pub init_random: usize,
    /// Candidate pool size per iteration.
    pub pool: usize,
}

impl Default for GbdtSearch {
    fn default() -> Self {
        Self {
            init_random: 8,
            pool: 256,
        }
    }
}

impl Tuner for GbdtSearch {
    fn name(&self) -> String {
        format!(
            "gbdt-surrogate(init={}, pool={})",
            self.init_random, self.pool
        )
    }

    fn run(
        &self,
        objective: &mut dyn Objective,
        budget: usize,
        seed: u64,
    ) -> Result<TuningTrajectory, ObjectiveError> {
        let space = objective.space().clone();
        let mut rng = seeded_rng(seed, SeedDomain::Custom(0x6BD7));
        let params = GbdtParams {
            n_estimators: 120,
            learning_rate: 0.1,
            ..Default::default()
        };
        pool_search(
            objective,
            budget,
            &mut rng,
            self.init_random,
            self.pool,
            |evaluated, candidates| {
                let xs: Vec<Vec<f64>> = evaluated.iter().map(|(c, _)| space.featurize(c)).collect();
                let ys: Vec<f64> = evaluated.iter().map(|&(_, r)| r).collect();
                let model = Gbdt::fit(&xs, &ys, params, seed);
                candidates
                    .iter()
                    .map(|c| model.predict_row(&space.featurize(c)))
                    .collect()
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmpeel_configspace::ArraySize;
    use lmpeel_perfdata::CostModel;
    use std::sync::OnceLock;

    fn sm() -> &'static PerfDataset {
        static DS: OnceLock<PerfDataset> = OnceLock::new();
        DS.get_or_init(|| PerfDataset::generate(&CostModel::paper(), ArraySize::SM))
    }

    #[test]
    fn trajectory_accounting() {
        let t = TuningTrajectory {
            evaluated: vec![
                (sm().space().config_at(0), 3.0),
                (sm().space().config_at(1), 1.0),
                (sm().space().config_at(2), 2.0),
            ],
        };
        assert_eq!(t.best_after(1), Some(3.0));
        assert_eq!(t.best_after(3), Some(1.0));
        // k past the end clamps; k == 0 has no best.
        assert_eq!(t.best_after(100), Some(1.0));
        assert_eq!(t.best_after(0), None);
        assert_eq!(t.best_curve(), vec![3.0, 1.0, 1.0]);
        assert_eq!(t.best().1, 1.0);
    }

    #[test]
    fn empty_trajectory_has_no_best() {
        let t = TuningTrajectory { evaluated: vec![] };
        assert_eq!(t.best_after(0), None);
        assert_eq!(t.best_after(5), None);
        assert!(t.best_curve().is_empty());
    }

    #[test]
    fn random_search_is_seeded_and_budgeted() {
        let d = sm();
        let a = RandomSearch.run_dataset(d, 20, 1);
        let b = RandomSearch.run_dataset(d, 20, 1);
        let c = RandomSearch.run_dataset(d, 20, 2);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.evaluated.len(), 20);
        for (cfg, r) in &a.evaluated {
            assert_eq!(*r, d.runtime_of(cfg), "measurements come from the dataset");
        }
    }

    #[test]
    fn gbdt_search_beats_random_on_average() {
        let d = sm();
        let budget = 40;
        let mut wins = 0;
        for seed in 0..5 {
            let g = GbdtSearch::default().run_dataset(d, budget, seed);
            let r = RandomSearch.run_dataset(d, budget, seed);
            if g.best_after(budget) <= r.best_after(budget) {
                wins += 1;
            }
        }
        assert!(wins >= 3, "surrogate should usually win, got {wins}/5");
    }

    #[test]
    fn gbdt_search_never_reevaluates() {
        let d = sm();
        let t = GbdtSearch::default().run_dataset(d, 30, 3);
        let uniq: std::collections::HashSet<_> = t
            .evaluated
            .iter()
            .map(|(c, _)| d.space().index_of(c))
            .collect();
        assert_eq!(uniq.len(), t.evaluated.len());
    }

    /// Pins every step of the shared pool loop under the GBDT scorer:
    /// the evaluated config indices for two seeds.
    #[test]
    fn gbdt_search_trajectory_is_pinned() {
        let d = sm();
        let pinned: [(u64, [u64; 24]); 2] = [
            (
                0,
                [
                    4806, 5888, 5479, 8030, 5564, 6050, 10261, 10544, 5579, 7184, 5876, 6251, 7579,
                    6249, 8672, 153, 6813, 807, 285, 5631, 5586, 5653, 2100, 2225,
                ],
            ),
            (
                7,
                [
                    2825, 7136, 318, 6550, 1647, 5375, 1274, 7138, 6980, 6994, 1481, 9338, 1580,
                    1604, 7, 271, 6849, 9446, 4550, 1536, 1624, 1559, 2735, 128,
                ],
            ),
        ];
        for (seed, expected) in pinned {
            let t = GbdtSearch::default().run_dataset(d, 24, seed);
            let got: Vec<u64> = t
                .evaluated
                .iter()
                .map(|(c, _)| d.space().index_of(c))
                .collect();
            assert_eq!(got, expected, "seed {seed}");
        }
    }

    /// An eight-point space whose runtime is the config index.
    struct Ladder(ConfigSpace);

    impl Objective for Ladder {
        fn space(&self) -> &ConfigSpace {
            &self.0
        }

        fn size(&self) -> ArraySize {
            ArraySize::SM
        }

        fn measure(&mut self, config: &Config) -> Result<f64, ObjectiveError> {
            Ok(self.0.index_of(config) as f64)
        }
    }

    #[test]
    fn pool_search_measures_each_pools_lowest_score_until_nothing_is_new() {
        let space = ConfigSpace::new(vec![lmpeel_configspace::ParamDef::ordinal(
            "p",
            &[1, 2, 3, 4, 5, 6, 7, 8],
        )]);
        let mut objective = Ladder(space.clone());
        let mut rng = seeded_rng(3, SeedDomain::Custom(0x6BD7));
        let mut pools: Vec<(usize, Vec<u64>)> = Vec::new();
        // Budget past the space's size: the loop must stop on its own.
        let t = pool_search(
            &mut objective,
            20,
            &mut rng,
            2,
            4,
            |evaluated, candidates| {
                let ix: Vec<u64> = candidates.iter().map(|c| space.index_of(c)).collect();
                pools.push((evaluated.len(), ix.clone()));
                // Reverse the index so the loop must pick the pool's maximum.
                ix.iter().map(|&i| -(i as f64)).collect()
            },
        )
        .unwrap();
        let got: Vec<u64> = t.evaluated.iter().map(|(c, _)| space.index_of(c)).collect();
        assert!(got.len() <= 8);
        let uniq: HashSet<_> = got.iter().collect();
        assert_eq!(uniq.len(), got.len(), "no configuration measured twice");
        assert_eq!(pools.len(), got.len() - 2, "one scoring call per step");
        for (k, (seen, pool)) in pools.iter().enumerate() {
            assert_eq!(*seen, 2 + k, "the scorer sees every measurement so far");
            assert!(
                pool.iter().all(|i| !got[..*seen].contains(i)),
                "pool is unseen"
            );
            assert_eq!(got[*seen], *pool.iter().max().unwrap());
        }
    }
}
