//! Materialized performance datasets over the full configuration lattice.
//!
//! A [`PerfDataset`] is the Rust analogue of the CSV files the paper loads:
//! every one of the 10,648 configurations paired with its measured runtime
//! at one array size. A [`DatasetBundle`] holds the two paper sizes.

use crate::costmodel::CostModel;
use lmpeel_configspace::{syr2k_space, ArraySize, Config, ConfigSpace, Syr2kConfig};
use lmpeel_stats::{seeded_rng, SeedDomain, Summary};
use rand::seq::SliceRandom;

/// One `(configuration, runtime)` observation.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// The configuration.
    pub config: Config,
    /// Measured runtime in seconds.
    pub runtime: f64,
}

/// A fully-enumerated performance dataset at one array size.
#[derive(Debug, Clone)]
pub struct PerfDataset {
    space: ConfigSpace,
    size: ArraySize,
    /// Runtime of configuration `i` (flat index order).
    runtimes: Vec<f64>,
}

impl PerfDataset {
    /// Generate the full-lattice dataset for a size with the given cost
    /// model, one evaluation per lattice point in flat index order.
    pub fn generate(model: &CostModel, size: ArraySize) -> Self {
        let space = syr2k_space();
        let card = space.cardinality();
        let runtimes: Vec<f64> = (0..card)
            .map(|i| {
                let cfg = Syr2kConfig::from_config(&space, &space.config_at(i));
                model.runtime_measured(cfg, size)
            })
            .collect();
        Self {
            space,
            size,
            runtimes,
        }
    }

    /// The configuration space shared by all samples.
    pub fn space(&self) -> &ConfigSpace {
        &self.space
    }

    /// Array size of this dataset.
    pub fn size(&self) -> ArraySize {
        self.size
    }

    /// Number of observations (always the full lattice).
    pub fn len(&self) -> usize {
        self.runtimes.len()
    }

    /// Whether the dataset is empty (never true for generated data).
    pub fn is_empty(&self) -> bool {
        self.runtimes.is_empty()
    }

    /// Runtime of a configuration.
    pub fn runtime_of(&self, config: &Config) -> f64 {
        self.runtimes[self.space.index_of(config) as usize]
    }

    /// Runtime by flat configuration index.
    pub fn runtime_at(&self, index: u64) -> f64 {
        self.runtimes[index as usize]
    }

    /// All runtimes in flat index order.
    pub fn runtimes(&self) -> &[f64] {
        &self.runtimes
    }

    /// Iterate over all samples in flat index order.
    pub fn iter(&self) -> impl Iterator<Item = Sample> + '_ {
        self.runtimes.iter().enumerate().map(move |(i, &r)| Sample {
            config: self.space.config_at(i as u64),
            runtime: r,
        })
    }

    /// The globally best (minimum-runtime) sample.
    pub fn best(&self) -> Sample {
        let (i, &r) = self
            .runtimes
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .expect("dataset is never empty");
        Sample {
            config: self.space.config_at(i as u64),
            runtime: r,
        }
    }

    /// Summary statistics of the runtimes.
    pub fn summary(&self) -> Summary {
        Summary::of(&self.runtimes)
    }

    /// Shuffle all flat indices with a seeded RNG and split into
    /// `(train, test)` index sets with `train_frac` going to train.
    ///
    /// # Panics
    /// Panics unless `0 < train_frac < 1`.
    pub fn train_test_split(&self, train_frac: f64, seed: u64) -> (Vec<u64>, Vec<u64>) {
        assert!(
            train_frac > 0.0 && train_frac < 1.0,
            "train fraction must be in (0,1), got {train_frac}"
        );
        let mut idx: Vec<u64> = (0..self.len() as u64).collect();
        let mut rng = seeded_rng(seed, SeedDomain::Split(self.size.tag()));
        idx.shuffle(&mut rng);
        let cut = ((self.len() as f64) * train_frac).round() as usize;
        let test = idx.split_off(cut);
        (idx, test)
    }

    /// Feature matrix and target vector for the given flat indices, for
    /// surrogate-model training. Features follow
    /// [`ConfigSpace::featurize`].
    pub fn features_for(&self, indices: &[u64]) -> (Vec<Vec<f64>>, Vec<f64>) {
        let xs = indices
            .iter()
            .map(|&i| self.space.featurize(&self.space.config_at(i)))
            .collect();
        let ys = indices.iter().map(|&i| self.runtimes[i as usize]).collect();
        (xs, ys)
    }

    /// Parse a full-lattice dataset back from CSV produced by
    /// [`PerfDataset::to_csv`]. Every one of the lattice's configurations
    /// must appear exactly once; rows may come in any order.
    ///
    /// # Errors
    /// Returns a description of the first malformed, duplicate, missing or
    /// size-inconsistent row.
    pub fn from_csv(csv: &str) -> Result<Self, String> {
        let space = syr2k_space();
        let mut lines = csv.lines();
        let header = lines.next().ok_or("empty CSV")?;
        let expected = lmpeel_configspace::text::csv_header(&space);
        if header.trim() != expected {
            return Err(format!("unexpected header {header:?}"));
        }
        let card = space.cardinality() as usize;
        let mut runtimes: Vec<Option<f64>> = vec![None; card];
        let mut size: Option<ArraySize> = None;
        for (lineno, line) in lines.enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let cols: Vec<&str> = line.split(',').collect();
            if cols.len() != space.num_params() + 2 {
                return Err(format!("row {lineno}: wrong column count"));
            }
            let row_size = ArraySize::parse(cols[0])
                .ok_or_else(|| format!("row {lineno}: bad size {:?}", cols[0]))?;
            match size {
                None => size = Some(row_size),
                Some(s) if s == row_size => {}
                Some(s) => return Err(format!("row {lineno}: mixed sizes {s} and {row_size}")),
            }
            // Reconstruct the configuration via the NL parser's value logic:
            // build a pseudo NL line from the CSV columns.
            let mut parts = vec![format!("size is {}", cols[0])];
            for (p, v) in space.params().iter().zip(&cols[1..cols.len() - 1]) {
                parts.push(format!("{} is {}", p.name(), v));
            }
            let nl = format!("Hyperparameter configuration: {}", parts.join(", "));
            let (_, config) = lmpeel_configspace::text::parse_nl_config(&space, &nl)
                .ok_or_else(|| format!("row {lineno}: unparseable configuration"))?;
            let runtime: f64 = cols[cols.len() - 1]
                .parse()
                .map_err(|_| format!("row {lineno}: bad runtime {:?}", cols[cols.len() - 1]))?;
            let idx = space.index_of(&config) as usize;
            if runtimes[idx].is_some() {
                return Err(format!("row {lineno}: duplicate configuration"));
            }
            runtimes[idx] = Some(runtime);
        }
        let size = size.ok_or("CSV has no data rows")?;
        let missing = runtimes.iter().filter(|r| r.is_none()).count();
        if missing > 0 {
            return Err(format!("{missing} lattice configurations missing"));
        }
        Ok(Self {
            space,
            size,
            runtimes: runtimes.into_iter().map(Option::unwrap).collect(),
        })
    }

    /// Render the dataset (or a prefix of it) as CSV, matching the paper's
    /// "feature-rich text-based CSV format".
    pub fn to_csv(&self, limit: Option<usize>) -> String {
        let n = limit.unwrap_or(self.len()).min(self.len());
        let mut out = lmpeel_configspace::text::csv_header(&self.space);
        out.push('\n');
        for i in 0..n {
            out.push_str(&lmpeel_configspace::text::csv_row(
                &self.space,
                &self.space.config_at(i as u64),
                self.size,
                self.runtimes[i],
            ));
            out.push('\n');
        }
        out
    }
}

/// The two paper datasets (SM and XL) generated from one cost model.
#[derive(Debug, Clone)]
pub struct DatasetBundle {
    /// SM-size dataset.
    pub sm: PerfDataset,
    /// XL-size dataset.
    pub xl: PerfDataset,
}

impl DatasetBundle {
    /// Generate both paper datasets with the paper-calibrated cost model.
    pub fn paper() -> Self {
        let model = CostModel::paper();
        Self {
            sm: PerfDataset::generate(&model, ArraySize::SM),
            xl: PerfDataset::generate(&model, ArraySize::XL),
        }
    }

    /// Dataset for one of the two paper sizes.
    ///
    /// # Panics
    /// Panics for sizes outside `{SM, XL}`.
    pub fn for_size(&self, size: ArraySize) -> &PerfDataset {
        match size {
            ArraySize::SM => &self.sm,
            ArraySize::XL => &self.xl,
            other => panic!("bundle holds only the paper sizes, not {other}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sm() -> PerfDataset {
        PerfDataset::generate(&CostModel::paper(), ArraySize::SM)
    }

    #[test]
    fn full_lattice_cardinality() {
        let d = sm();
        assert_eq!(d.len(), 10_648);
        assert!(!d.is_empty());
    }

    #[test]
    fn lookup_by_config_matches_flat_order() {
        let d = sm();
        for i in (0..d.len() as u64).step_by(503) {
            let c = d.space().config_at(i);
            assert_eq!(d.runtime_of(&c), d.runtime_at(i));
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = sm();
        let b = sm();
        assert_eq!(a.runtimes(), b.runtimes());
    }

    #[test]
    fn best_is_the_minimum() {
        let d = sm();
        let best = d.best();
        assert!(d.runtimes().iter().all(|&r| r >= best.runtime));
        assert_eq!(d.runtime_of(&best.config), best.runtime);
    }

    #[test]
    fn split_is_a_partition() {
        let d = sm();
        let (train, test) = d.train_test_split(0.8, 42);
        assert_eq!(train.len() + test.len(), d.len());
        assert_eq!(train.len(), 8_518, "80% of 10648 rounds to 8518");
        let mut all: Vec<u64> = train.iter().chain(&test).copied().collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), d.len(), "no index appears twice");
    }

    #[test]
    fn split_depends_on_seed_but_not_call_order() {
        let d = sm();
        let (a1, _) = d.train_test_split(0.8, 1);
        let (a2, _) = d.train_test_split(0.8, 1);
        let (b, _) = d.train_test_split(0.8, 2);
        assert_eq!(a1, a2);
        assert_ne!(a1, b);
    }

    #[test]
    fn features_align_with_targets() {
        let d = sm();
        let idx = [0u64, 5, 10_000];
        let (xs, ys) = d.features_for(&idx);
        assert_eq!(xs.len(), 3);
        assert_eq!(ys.len(), 3);
        assert_eq!(xs[0].len(), 6, "six syr2k features");
        assert_eq!(ys[2], d.runtime_at(10_000));
    }

    #[test]
    fn csv_has_header_and_rows() {
        let d = sm();
        let csv = d.to_csv(Some(3));
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("size,"));
        assert!(lines[1].starts_with("SM,"));
    }

    #[test]
    fn csv_roundtrips_the_full_lattice() {
        let d = PerfDataset::generate(&CostModel::paper(), ArraySize::XL);
        let csv = d.to_csv(None);
        let back = PerfDataset::from_csv(&csv).expect("roundtrip parse");
        assert_eq!(back.size(), ArraySize::XL);
        // CSV carries 7-decimal precision; values match at that resolution.
        for i in (0..d.len() as u64).step_by(977) {
            assert!((back.runtime_at(i) - d.runtime_at(i)).abs() < 5e-8);
        }
    }

    #[test]
    fn csv_rejects_malformed_inputs() {
        let d = sm();
        let csv = d.to_csv(None);
        assert!(PerfDataset::from_csv("").is_err(), "empty");
        assert!(
            PerfDataset::from_csv(
                "bad,header
"
            )
            .is_err(),
            "wrong header"
        );
        // chop off a row -> missing configurations
        let truncated: String = csv.lines().take(d.len()).collect::<Vec<_>>().join(
            "
",
        );
        let err = PerfDataset::from_csv(&truncated).unwrap_err();
        assert!(err.contains("missing"), "{err}");
        // duplicate a row
        let mut dup = csv.clone();
        let second_line = csv.lines().nth(1).unwrap();
        dup.push_str(second_line);
        dup.push('\n');
        let err = PerfDataset::from_csv(&dup).unwrap_err();
        assert!(err.contains("duplicate"), "{err}");
    }

    #[test]
    fn bundle_serves_both_paper_sizes() {
        let bundle = DatasetBundle::paper();
        assert_eq!(bundle.for_size(ArraySize::SM).size(), ArraySize::SM);
        assert_eq!(bundle.for_size(ArraySize::XL).size(), ArraySize::XL);
        // XL runtimes dominate SM runtimes by orders of magnitude.
        assert!(bundle.xl.summary().mean > 100.0 * bundle.sm.summary().mean);
    }

    #[test]
    #[should_panic(expected = "paper sizes")]
    fn bundle_rejects_other_sizes() {
        let bundle = DatasetBundle::paper();
        let _ = bundle.for_size(ArraySize::M);
    }
}
