//! The per-run step journal: crash-safe resumable searches.
//!
//! A tune run is a sequence of objective measurements driven by
//! deterministic search strategies. [`StepMeasurer`] wraps any
//! [`Objective`] in a write-ahead [`RunJournal`] of [`StepRecord`]s keyed
//! by `(strategy ordinal, step counter)`: each measurement is durably
//! committed before the search continues, and on resume the committed
//! prefix is *replayed* — answered from the journal without touching the
//! underlying objective. Because every strategy is a deterministic
//! function of its seed and the measurements it has seen, a resumed
//! search walks the exact same configurations and the tune completes as
//! if it had never been killed, down to the bytes of the published cache
//! file. Replay is keyed, not ordered, so a journal resumes whatever order
//! the arms' steps were committed in.
//!
//! The journal is bound to its run by [`run_fingerprint`] — kernel, size,
//! hardware, budget, seed and codec all participate, so a journal from a
//! different request is refused instead of silently replayed into the
//! wrong search.

use lmpeel_configspace::{ArraySize, Config, ConfigSpace};
use lmpeel_core::autotune::{Objective, ObjectiveError};
use lmpeel_core::journal::size_ordinal;
use lmpeel_recover::wire::{self, Reader};
use lmpeel_recover::{fnv1a64, JournalError, JournalRecord, RunJournal};
use std::collections::BTreeMap;

/// Version of the [`StepRecord`] encoding; folded into the run
/// fingerprint so an old-codec journal is refused instead of misparsed.
pub const STEP_CODEC_VERSION: u32 = 1;

/// One committed search step: strategy `strategy_ord` measured the
/// configuration at `config_index` as its `step`-th evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct StepRecord {
    /// Which strategy in the ablation took the step.
    pub strategy_ord: u8,
    /// Zero-based measurement counter within that strategy.
    pub step: u64,
    /// The measured configuration, as its index in the config space.
    pub config_index: u64,
    /// The measured runtime in seconds.
    pub runtime: f64,
}

impl JournalRecord for StepRecord {
    type Key = (u8, u64);

    fn key(&self) -> (u8, u64) {
        (self.strategy_ord, self.step)
    }

    fn encode(&self, buf: &mut Vec<u8>) {
        wire::put_u8(buf, self.strategy_ord);
        wire::put_u64(buf, self.step);
        wire::put_u64(buf, self.config_index);
        wire::put_f64(buf, self.runtime);
    }

    /// Refuses trailing bytes and a runtime no measurement yields (NaN,
    /// ±inf or negative), so [`RunJournal::open`] truncates at such a frame
    /// and the step is measured again instead of replayed.
    fn decode(bytes: &[u8]) -> Option<Self> {
        let mut r = Reader::new(bytes);
        let rec = StepRecord {
            strategy_ord: r.u8()?,
            step: r.u64()?,
            config_index: r.u64()?,
            runtime: r.f64()?,
        };
        let measurable = rec.runtime.is_finite() && rec.runtime >= 0.0;
        (r.is_done() && measurable).then_some(rec)
    }
}

/// Fingerprint binding a step journal to one tune request: steps from a
/// different kernel, size, hardware, budget or seed must never replay
/// into this search.
pub fn run_fingerprint(
    kernel: &str,
    size: ArraySize,
    hw_fingerprint: u64,
    budget: usize,
    seed: u64,
) -> u64 {
    let mut buf = Vec::new();
    wire::put_str(&mut buf, "lmpeel-tune-run");
    wire::put_u32(&mut buf, STEP_CODEC_VERSION);
    wire::put_str(&mut buf, kernel);
    wire::put_u8(&mut buf, size_ordinal(size));
    wire::put_u64(&mut buf, hw_fingerprint);
    wire::put_usize(&mut buf, budget);
    wire::put_u64(&mut buf, seed);
    fnv1a64(&buf)
}

/// The journal replayed a step whose configuration differs from what the
/// live search asked to measure — the search is not walking the journaled
/// trajectory (wrong seed, wrong strategy order, or a non-deterministic
/// objective), and mixing the two would corrupt the result.
#[derive(Debug)]
pub struct ReplayDiverged {
    /// Strategy ordinal of the diverging step.
    pub strategy_ord: u8,
    /// Step counter at which the divergence appeared.
    pub step: u64,
    /// Configuration index the journal committed.
    pub journaled: u64,
    /// Configuration index the live search asked for.
    pub requested: u64,
}

impl std::fmt::Display for ReplayDiverged {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "step journal diverged at strategy {} step {}: journal committed config {}, \
             search requested config {} — the journal belongs to a different search",
            self.strategy_ord, self.step, self.journaled, self.requested
        )
    }
}

impl std::error::Error for ReplayDiverged {}

/// A step's committed runtime differs from the runtime the arm's own walk
/// measured for the same configuration. The tune's GBDT arm walks on a
/// helper thread against its own lookup of the dataset; the step the tune
/// thread then commits, or replays from the journal, must carry the same
/// runtime bit for bit, or the arm's trajectory would rest on a
/// measurement the journal does not hold.
#[derive(Debug)]
pub struct RuntimeDiverged {
    /// Strategy ordinal of the diverging step.
    pub strategy_ord: u8,
    /// Step counter at which the divergence appeared.
    pub step: u64,
    /// The runtime the step measurer committed or replayed.
    pub committed: f64,
    /// The runtime the arm's walk measured.
    pub walked: f64,
}

impl std::fmt::Display for RuntimeDiverged {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "step runtime diverged at strategy {} step {}: committed {:e} s, \
             the arm's walk measured {:e} s",
            self.strategy_ord, self.step, self.committed, self.walked
        )
    }
}

impl std::error::Error for RuntimeDiverged {}

/// Measures configurations for every arm of one tune, through an optional
/// write-ahead step journal. Each call names its arm's strategy ordinal,
/// and a step counter per ordinal keys the measurement, so the arms may
/// take their steps in any interleaving: replay looks each step up by
/// `(strategy_ord, step)`, never by commit order. With a journal, each
/// fresh measurement is committed before it is returned and a committed
/// step is answered from the journal without touching the objective.
pub struct StepMeasurer<'a> {
    inner: &'a mut dyn Objective,
    journal: Option<&'a mut RunJournal<StepRecord>>,
    next_step: BTreeMap<u8, u64>,
    replayed: usize,
    fresh: usize,
}

impl<'a> StepMeasurer<'a> {
    /// Measure on `inner`, journaling through `journal` when there is one.
    pub fn new(
        inner: &'a mut dyn Objective,
        journal: Option<&'a mut RunJournal<StepRecord>>,
    ) -> Self {
        Self {
            inner,
            journal,
            next_step: BTreeMap::new(),
            replayed: 0,
            fresh: 0,
        }
    }

    /// Strategy `strategy_ord`'s view of the objective: every measurement
    /// through it is that arm's next step.
    pub fn arm(&mut self, strategy_ord: u8) -> JournaledObjective<'_, 'a> {
        JournaledObjective {
            measurer: self,
            strategy_ord,
        }
    }

    /// Measurements answered from the journal (no objective work done).
    pub fn replayed(&self) -> usize {
        self.replayed
    }

    /// Measurements taken fresh (and committed, when journaled).
    pub fn fresh(&self) -> usize {
        self.fresh
    }

    fn measure(&mut self, strategy_ord: u8, config: &Config) -> Result<f64, ObjectiveError> {
        let step = self.next_step.entry(strategy_ord).or_insert(0);
        let key = (strategy_ord, *step);
        *step += 1;
        let config_index = self.inner.space().index_of(config);
        if let Some(rec) = self.journal.as_deref().and_then(|j| j.get(&key)) {
            if rec.config_index != config_index {
                return Err(Box::new(ReplayDiverged {
                    strategy_ord: key.0,
                    step: key.1,
                    journaled: rec.config_index,
                    requested: config_index,
                }));
            }
            self.replayed += 1;
            return Ok(rec.runtime);
        }
        let runtime = self.inner.measure(config)?;
        if let Some(journal) = self.journal.as_deref_mut() {
            journal
                .commit(&StepRecord {
                    strategy_ord: key.0,
                    step: key.1,
                    config_index,
                    runtime,
                })
                .map_err(|e: JournalError| -> ObjectiveError { Box::new(e) })?;
        }
        self.fresh += 1;
        Ok(runtime)
    }
}

/// One arm's [`Objective`]: measures through its [`StepMeasurer`] under
/// the arm's strategy ordinal ([`StepMeasurer::arm`]).
pub struct JournaledObjective<'m, 'a> {
    measurer: &'m mut StepMeasurer<'a>,
    strategy_ord: u8,
}

impl Objective for JournaledObjective<'_, '_> {
    fn space(&self) -> &ConfigSpace {
        self.measurer.inner.space()
    }

    fn size(&self) -> ArraySize {
        self.measurer.inner.size()
    }

    fn measure(&mut self, config: &Config) -> Result<f64, ObjectiveError> {
        self.measurer.measure(self.strategy_ord, config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmpeel_core::autotune::{DatasetObjective, RandomSearch, Tuner};
    use lmpeel_perfdata::{CostModel, PerfDataset};
    use lmpeel_recover::{CrashAfter, CrashMode};
    use std::sync::OnceLock;

    fn sm() -> &'static PerfDataset {
        static DS: OnceLock<PerfDataset> = OnceLock::new();
        DS.get_or_init(|| PerfDataset::generate(&CostModel::paper(), ArraySize::SM))
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("lmpeel-tune-steps-{}-{name}", std::process::id()))
    }

    fn fp() -> u64 {
        run_fingerprint("syr2k", ArraySize::SM, 1, 12, 5)
    }

    #[test]
    fn run_fingerprint_separates_requests() {
        let base = run_fingerprint("syr2k", ArraySize::SM, 1, 12, 5);
        assert_ne!(base, run_fingerprint("syr2k", ArraySize::XL, 1, 12, 5));
        assert_ne!(base, run_fingerprint("syr2k", ArraySize::SM, 2, 12, 5));
        assert_ne!(base, run_fingerprint("syr2k", ArraySize::SM, 1, 13, 5));
        assert_ne!(base, run_fingerprint("syr2k", ArraySize::SM, 1, 12, 6));
        assert_ne!(base, run_fingerprint("gemm", ArraySize::SM, 1, 12, 5));
    }

    #[test]
    fn journaled_search_replays_to_the_same_trajectory() {
        let path = tmp("replay");
        let _ = std::fs::remove_file(&path);
        let d = sm();
        let first = {
            let (mut journal, _) = RunJournal::open(&path, fp()).unwrap();
            let mut inner = DatasetObjective::new(d);
            let mut obj = StepMeasurer::new(&mut inner, Some(&mut journal));
            let t = RandomSearch.run(&mut obj.arm(0), 12, 5).unwrap();
            assert_eq!(obj.fresh(), 12);
            assert_eq!(obj.replayed(), 0);
            t
        };
        // Re-run against the same journal: everything replays, nothing
        // fresh, identical trajectory.
        let (mut journal, rc) = RunJournal::open(&path, fp()).unwrap();
        assert_eq!(rc.records, 12);
        let mut inner = DatasetObjective::new(d);
        let mut obj = StepMeasurer::new(&mut inner, Some(&mut journal));
        let second = RandomSearch.run(&mut obj.arm(0), 12, 5).unwrap();
        assert_eq!(obj.fresh(), 0);
        assert_eq!(obj.replayed(), 12);
        assert_eq!(first, second);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn crash_mid_search_resumes_where_it_stopped() {
        let path = tmp("crash");
        let _ = std::fs::remove_file(&path);
        let d = sm();
        {
            let (mut journal, _) = RunJournal::open(&path, fp()).unwrap();
            journal.crash_after(CrashAfter {
                commits: 5,
                mode: CrashMode::Error,
            });
            let mut inner = DatasetObjective::new(d);
            let mut obj = StepMeasurer::new(&mut inner, Some(&mut journal));
            let err = RandomSearch.run(&mut obj.arm(0), 12, 5).unwrap_err();
            assert!(
                err.downcast_ref::<JournalError>()
                    .is_some_and(|e| matches!(e, JournalError::InjectedCrash)),
                "crash surfaces as the journal error, got: {err}"
            );
        }
        let (mut journal, rc) = RunJournal::open(&path, fp()).unwrap();
        assert_eq!(rc.records, 5, "exactly the pre-crash commits survive");
        let mut inner = DatasetObjective::new(d);
        let mut obj = StepMeasurer::new(&mut inner, Some(&mut journal));
        let resumed = RandomSearch.run(&mut obj.arm(0), 12, 5).unwrap();
        assert_eq!(obj.replayed(), 5);
        assert_eq!(obj.fresh(), 7);
        // And matches an uninterrupted run exactly.
        let uninterrupted = RandomSearch.run_dataset(d, 12, 5);
        assert_eq!(resumed, uninterrupted);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn divergent_replay_is_refused() {
        let path = tmp("diverge");
        let _ = std::fs::remove_file(&path);
        let d = sm();
        {
            let (mut journal, _) = RunJournal::open(&path, fp()).unwrap();
            let mut inner = DatasetObjective::new(d);
            let mut obj = StepMeasurer::new(&mut inner, Some(&mut journal));
            RandomSearch.run(&mut obj.arm(0), 4, 5).unwrap();
        }
        // A different seed walks different configurations; replaying the
        // journal into it must error rather than mix trajectories.
        let (mut journal, _) = RunJournal::open(&path, fp()).unwrap();
        let mut inner = DatasetObjective::new(d);
        let mut obj = StepMeasurer::new(&mut inner, Some(&mut journal));
        let err = RandomSearch.run(&mut obj.arm(0), 4, 6).unwrap_err();
        assert!(err.downcast_ref::<ReplayDiverged>().is_some(), "{err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn strategies_keep_disjoint_step_ranges() {
        let path = tmp("disjoint");
        let _ = std::fs::remove_file(&path);
        let d = sm();
        let (mut journal, _) = RunJournal::open(&path, fp()).unwrap();
        let mut inner = DatasetObjective::new(d);
        let mut obj = StepMeasurer::new(&mut inner, Some(&mut journal));
        for ord in 0..3u8 {
            RandomSearch.run(&mut obj.arm(ord), 4, 5).unwrap();
        }
        assert_eq!(obj.fresh(), 12);
        assert_eq!(journal.len(), 12, "3 strategies x 4 steps, no collisions");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn replay_does_not_depend_on_commit_order() {
        let path = tmp("order");
        let _ = std::fs::remove_file(&path);
        let d = sm();
        let arm_configs = |ord: u8| -> Vec<Config> {
            (0..4)
                .map(|i| d.space().config_at(100 * ord as u64 + i))
                .collect()
        };
        // Commit two arms' steps alternately...
        {
            let (mut journal, _) = RunJournal::open(&path, fp()).unwrap();
            let mut inner = DatasetObjective::new(d);
            let mut obj = StepMeasurer::new(&mut inner, Some(&mut journal));
            for (a, b) in arm_configs(1).iter().zip(&arm_configs(2)) {
                obj.arm(1).measure(a).unwrap();
                obj.arm(2).measure(b).unwrap();
            }
        }
        // ...and replay them one arm after the other, in reverse arm order.
        let (mut journal, _) = RunJournal::open(&path, fp()).unwrap();
        let mut inner = DatasetObjective::new(d);
        let mut obj = StepMeasurer::new(&mut inner, Some(&mut journal));
        for ord in [2, 1] {
            for c in arm_configs(ord) {
                assert_eq!(obj.arm(ord).measure(&c).unwrap(), d.runtime_of(&c));
            }
        }
        assert_eq!((obj.replayed(), obj.fresh()), (8, 0));
        std::fs::remove_file(&path).unwrap();
    }
}
