//! Shared experiment execution for the reproduction binaries.

use crate::cli::{crash_from_env, force_flag, journal_flag};
use lmpeel_configspace::ArraySize;
use lmpeel_core::experiment::{run_plan, ExperimentPlan, PredictionRecord};
use lmpeel_core::journal::{run_plan_journaled_with_crash, size_ordinal};
use lmpeel_core::run_plan_journaled;
use lmpeel_gbdt::{random_search, SearchResult, SearchSpace};
use lmpeel_lm::InductionLm;
use lmpeel_perfdata::{DatasetBundle, PerfDataset};
use lmpeel_recover::wire::{self, Reader};
use lmpeel_recover::{atomic_write, fnv1a64, JournalRecord, Recovery, RunJournal};
use std::path::Path;

/// Run the paper's full experiment plan (285 generations) against the
/// calibrated induction surrogate.
pub fn paper_records(bundle: &DatasetBundle) -> Vec<PredictionRecord> {
    run_plan(bundle, &ExperimentPlan::paper(), InductionLm::paper)
}

/// [`paper_records`] with an optional write-ahead journal (see
/// [`run_plan_at`]): pass the path from [`journal_flag`] to make the
/// 285-generation grid resumable after a kill.
pub fn paper_records_at(bundle: &DatasetBundle, journal: Option<&Path>) -> Vec<PredictionRecord> {
    run_plan_at(bundle, &ExperimentPlan::paper(), journal)
}

/// Run `plan`, optionally journaling each completed cell at `journal`.
///
/// With a journal, previously committed cells are answered from disk and
/// only the remainder is generated; the returned records are byte-identical
/// to an uninterrupted run. `LMPEEL_CRASH_AFTER=<k>` (see
/// [`crash_from_env`]) arms the deterministic kill hook for the CI
/// crash-and-resume smoke test.
pub fn run_plan_at(
    bundle: &DatasetBundle,
    plan: &ExperimentPlan,
    journal: Option<&Path>,
) -> Vec<PredictionRecord> {
    let Some(path) = journal else {
        return run_plan(bundle, plan, InductionLm::paper);
    };
    let result = match crash_from_env() {
        Some(crash) => run_plan_journaled_with_crash(
            bundle,
            plan,
            InductionLm::paper,
            path,
            "induction",
            crash,
        ),
        None => run_plan_journaled(bundle, plan, InductionLm::paper, path, "induction"),
    };
    let (records, recovery) = match result {
        Ok(x) => x,
        Err(e) => refuse_journal(path, &e),
    };
    report_recovery(path, &recovery);
    records
}

/// A journal the run cannot use (wrong plan fingerprint, I/O failure) is a
/// refusal, not a crash: report it and exit nonzero.
fn refuse_journal(path: &Path, e: &lmpeel_recover::JournalError) -> ! {
    eprintln!("cannot use journal {}: {e}", path.display());
    std::process::exit(2);
}

/// Note on stderr what a journal salvaged, so resumed runs are auditable.
fn report_recovery(path: &Path, recovery: &Recovery) {
    if recovery.reset {
        eprintln!(
            "journal {}: unreadable header, restarted empty",
            path.display()
        );
    } else if recovery.records > 0 {
        eprintln!(
            "journal {}: resumed {} committed cells ({} torn bytes dropped)",
            path.display(),
            recovery.records,
            recovery.dropped_bytes
        );
    }
}

/// Train/test protocol of Table I: 80/20 split (seed 42), the first
/// `n_train` shuffled training rows, randomized hyperparameter search with
/// an internal 80/20 train/validation split, scored on the held-out test
/// rows. Returns `(search result, test predictions, test truths)`.
pub fn table1_fit(
    dataset: &PerfDataset,
    n_train: usize,
    search_iters: usize,
) -> (SearchResult, Vec<f64>, Vec<f64>) {
    let (train_idx, test_idx) = dataset.train_test_split(0.8, 42);
    let n = n_train.min(train_idx.len());
    let subset = &train_idx[..n];
    let (xs, ys) = dataset.features_for(subset);
    let cut = (n * 4) / 5;
    let result = random_search(
        &xs[..cut],
        &ys[..cut],
        &xs[cut..],
        &ys[cut..],
        SearchSpace {
            n_estimators: (50, 400),
            ..Default::default()
        },
        search_iters,
        7,
    );
    let (test_x, test_y) = dataset.features_for(&test_idx);
    let pred = result.model.predict(&test_x);
    (result, pred, test_y)
}

/// Paper-reported Table I reference values: `(train, size, r2, mare, msre)`.
pub const TABLE1_PAPER: [(usize, ArraySize, f64, f64, f64); 10] = [
    (100, ArraySize::SM, 0.44, 0.17, 0.073),
    (100, ArraySize::XL, 0.69, 0.13, 0.058),
    (500, ArraySize::SM, 0.67, 0.12, 0.038),
    (500, ArraySize::XL, 0.87, 0.09, 0.036),
    (1000, ArraySize::SM, 0.72, 0.11, 0.025),
    (1000, ArraySize::XL, 0.88, 0.07, 0.027),
    (5000, ArraySize::SM, 0.80, 0.09, 0.015),
    (5000, ArraySize::XL, 0.97, 0.04, 0.007),
    (8519, ArraySize::SM, 0.80, 0.08, 0.013),
    (8519, ArraySize::XL, 0.98, 0.04, 0.003),
];

/// Output directory for CSV artifacts, created on demand.
pub fn out_dir() -> std::path::PathBuf {
    let dir = std::path::PathBuf::from("bench_out");
    std::fs::create_dir_all(&dir).expect("create bench_out/");
    dir
}

/// Durably publish a golden artifact (temp file + fsync + rename — a
/// reader never observes a half-written golden).
///
/// On a *resumed* run (a `--journal`/`--resume` flag is present) an
/// existing golden with different bytes is treated as the contract of the
/// original run: it is left untouched and reported unless `--force` is
/// passed. Returns whether `path` now holds `bytes`.
pub fn write_golden(path: &Path, bytes: &[u8]) -> bool {
    if journal_flag().is_some() && !force_flag() {
        if let Ok(existing) = std::fs::read(path) {
            if existing != bytes {
                eprintln!(
                    "refusing to overwrite {}: the existing golden differs from this \
                     resumed run (pass --force to replace it)",
                    path.display()
                );
                return false;
            }
        }
    }
    atomic_write(path, bytes).expect("write golden artifact");
    true
}

/// One journaled boosted-tree fit: the held-out predictions and truths
/// that [`table1_fit`] produced for a `(train budget, size)` cell. The
/// search itself is deterministic, so replaying these is byte-identical
/// to refitting.
#[derive(Debug, Clone)]
pub struct FitRecord {
    /// Training budget of the fit.
    pub n_train: u64,
    /// [`size_ordinal`] of the dataset's array size.
    pub size_ord: u8,
    /// Held-out test predictions of the searched winner.
    pub pred: Vec<f64>,
    /// Held-out ground truths, aligned with `pred`.
    pub truth: Vec<f64>,
}

impl JournalRecord for FitRecord {
    type Key = (u64, u8);

    fn key(&self) -> (u64, u8) {
        (self.n_train, self.size_ord)
    }

    fn encode(&self, buf: &mut Vec<u8>) {
        wire::put_u64(buf, self.n_train);
        wire::put_u8(buf, self.size_ord);
        wire::put_seq(buf, &self.pred, |b, &p| wire::put_f64(b, p));
        wire::put_seq(buf, &self.truth, |b, &t| wire::put_f64(b, t));
    }

    fn decode(bytes: &[u8]) -> Option<Self> {
        let mut r = Reader::new(bytes);
        let record = FitRecord {
            n_train: r.u64()?,
            size_ord: r.u8()?,
            pred: r.seq(Reader::f64)?,
            truth: r.seq(Reader::f64)?,
        };
        r.is_done().then_some(record)
    }
}

/// Fingerprint binding a fit journal to the hyperparameter-search budget:
/// fits from different `--iters` runs must never mix in one journal.
pub fn fit_fingerprint(search_iters: usize) -> u64 {
    let mut buf = Vec::new();
    wire::put_str(&mut buf, "lmpeel-gbdt-fit");
    wire::put_u32(&mut buf, 1);
    wire::put_usize(&mut buf, search_iters);
    fnv1a64(&buf)
}

/// Open (or create) the fit journal named by [`journal_flag`], arming the
/// env kill hook. `None` when the caller did not ask for a resumable run.
pub fn open_fit_journal(search_iters: usize) -> Option<RunJournal<FitRecord>> {
    let path = journal_flag()?;
    let (mut journal, recovery) = match RunJournal::open(&path, fit_fingerprint(search_iters)) {
        Ok(x) => x,
        Err(e) => refuse_journal(&path, &e),
    };
    report_recovery(&path, &recovery);
    if let Some(crash) = crash_from_env() {
        journal.crash_after(crash);
    }
    Some(journal)
}

/// [`table1_fit`] answered from — and committed to — an optional fit
/// journal, keyed by `(n_train, size)`. Returns `(test predictions, test
/// truths)`.
pub fn table1_fit_at(
    dataset: &PerfDataset,
    size: ArraySize,
    n_train: usize,
    search_iters: usize,
    journal: Option<&mut RunJournal<FitRecord>>,
) -> (Vec<f64>, Vec<f64>) {
    let key = (n_train as u64, size_ordinal(size));
    if let Some(rec) = journal.as_ref().and_then(|j| j.get(&key)) {
        return (rec.pred.clone(), rec.truth.clone());
    }
    let (_result, pred, truth) = table1_fit(dataset, n_train, search_iters);
    if let Some(j) = journal {
        j.commit(&FitRecord {
            n_train: key.0,
            size_ord: key.1,
            pred: pred.clone(),
            truth: truth.clone(),
        })
        .expect("commit fit record");
    }
    (pred, truth)
}
