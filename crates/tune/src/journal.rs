//! The per-run step journal: crash-safe resumable searches.
//!
//! A tune run is a sequence of objective measurements driven by
//! deterministic search strategies. [`JournaledObjective`] wraps any
//! [`Objective`] in a write-ahead [`RunJournal`] of [`StepRecord`]s keyed
//! by `(strategy ordinal, step counter)`: each measurement is durably
//! committed before the search continues, and on resume the committed
//! prefix is *replayed* — answered from the journal without touching the
//! underlying objective. Because every strategy is a deterministic
//! function of its seed and the measurements it has seen, a resumed
//! search walks the exact same configurations and the tune completes as
//! if it had never been killed, down to the bytes of the published cache
//! file.
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

    fn decode(bytes: &[u8]) -> Option<Self> {
        let mut r = Reader::new(bytes);
        let rec = StepRecord {
            strategy_ord: r.u8()?,
            step: r.u64()?,
            config_index: r.u64()?,
            runtime: r.f64()?,
        };
        r.is_done().then_some(rec)
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

/// An [`Objective`] wrapper that journals every measurement and answers
/// already-committed steps from the journal. One wrapper per strategy;
/// the step counter starts at zero for each.
pub struct JournaledObjective<'a> {
    inner: &'a mut dyn Objective,
    journal: &'a mut RunJournal<StepRecord>,
    strategy_ord: u8,
    step: u64,
    replayed: usize,
    fresh: usize,
}

impl<'a> JournaledObjective<'a> {
    /// Wrap `inner` so strategy `strategy_ord`'s measurements flow
    /// through `journal`.
    pub fn new(
        inner: &'a mut dyn Objective,
        journal: &'a mut RunJournal<StepRecord>,
        strategy_ord: u8,
    ) -> Self {
        Self {
            inner,
            journal,
            strategy_ord,
            step: 0,
            replayed: 0,
            fresh: 0,
        }
    }

    /// Measurements answered from the journal (no objective work done).
    pub fn replayed(&self) -> usize {
        self.replayed
    }

    /// Measurements taken fresh (and committed).
    pub fn fresh(&self) -> usize {
        self.fresh
    }
}

impl Objective for JournaledObjective<'_> {
    fn space(&self) -> &ConfigSpace {
        self.inner.space()
    }

    fn size(&self) -> ArraySize {
        self.inner.size()
    }

    fn measure(&mut self, config: &Config) -> Result<f64, ObjectiveError> {
        let key = (self.strategy_ord, self.step);
        let config_index = self.inner.space().index_of(config);
        self.step += 1;
        if let Some(rec) = self.journal.get(&key) {
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
        self.journal
            .commit(&StepRecord {
                strategy_ord: key.0,
                step: key.1,
                config_index,
                runtime,
            })
            .map_err(|e: JournalError| -> ObjectiveError { Box::new(e) })?;
        self.fresh += 1;
        Ok(runtime)
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
            let mut obj = JournaledObjective::new(&mut inner, &mut journal, 0);
            let t = RandomSearch.run(&mut obj, 12, 5).unwrap();
            assert_eq!(obj.fresh(), 12);
            assert_eq!(obj.replayed(), 0);
            t
        };
        // Re-run against the same journal: everything replays, nothing
        // fresh, identical trajectory.
        let (mut journal, rc) = RunJournal::open(&path, fp()).unwrap();
        assert_eq!(rc.records, 12);
        let mut inner = DatasetObjective::new(d);
        let mut obj = JournaledObjective::new(&mut inner, &mut journal, 0);
        let second = RandomSearch.run(&mut obj, 12, 5).unwrap();
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
            let mut obj = JournaledObjective::new(&mut inner, &mut journal, 0);
            let err = RandomSearch.run(&mut obj, 12, 5).unwrap_err();
            assert!(
                err.downcast_ref::<JournalError>()
                    .is_some_and(|e| matches!(e, JournalError::InjectedCrash)),
                "crash surfaces as the journal error, got: {err}"
            );
        }
        let (mut journal, rc) = RunJournal::open(&path, fp()).unwrap();
        assert_eq!(rc.records, 5, "exactly the pre-crash commits survive");
        let mut inner = DatasetObjective::new(d);
        let mut obj = JournaledObjective::new(&mut inner, &mut journal, 0);
        let resumed = RandomSearch.run(&mut obj, 12, 5).unwrap();
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
            let mut obj = JournaledObjective::new(&mut inner, &mut journal, 0);
            RandomSearch.run(&mut obj, 4, 5).unwrap();
        }
        // A different seed walks different configurations; replaying the
        // journal into it must error rather than mix trajectories.
        let (mut journal, _) = RunJournal::open(&path, fp()).unwrap();
        let mut inner = DatasetObjective::new(d);
        let mut obj = JournaledObjective::new(&mut inner, &mut journal, 0);
        let err = RandomSearch.run(&mut obj, 4, 6).unwrap_err();
        assert!(err.downcast_ref::<ReplayDiverged>().is_some(), "{err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn strategies_keep_disjoint_step_ranges() {
        let path = tmp("disjoint");
        let _ = std::fs::remove_file(&path);
        let d = sm();
        let (mut journal, _) = RunJournal::open(&path, fp()).unwrap();
        for ord in 0..3u8 {
            let mut inner = DatasetObjective::new(d);
            let mut obj = JournaledObjective::new(&mut inner, &mut journal, ord);
            RandomSearch.run(&mut obj, 4, 5).unwrap();
        }
        assert_eq!(journal.len(), 12, "3 strategies x 4 steps, no collisions");
        std::fs::remove_file(&path).unwrap();
    }
}
