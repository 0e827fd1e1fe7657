//! Crash-safe, resumable experiment runs.
//!
//! The §IV-A grid is the longest-running thing in this workspace; this
//! module makes it restartable. [`run_plan_journaled`] runs the same grid
//! as [`run_plan`](crate::experiment::run_plan), but durably commits each
//! completed [`PredictionRecord`] to a [`RunJournal`] before the next cell
//! is awaited; on restart, committed cells are answered from the journal
//! and only the remainder is generated. The returned records — and
//! therefore every figure CSV derived from them — are byte-identical
//! whether the run was killed zero, one, or N times, because:
//!
//! * each grid cell's generation is independent of scheduler interleaving
//!   (the serve-layer determinism property), so skipping journaled cells
//!   does not perturb the rest, and
//! * the record codec here round-trips every field bit-exactly (floats as
//!   IEEE-754 bit patterns — see [`lmpeel_recover::wire`]).
//!
//! A journal is bound to its plan: `plan_fingerprint` hashes every
//! grid-shaping field plus the substrate name and the codec version, and
//! [`RunJournal::open`] refuses a journal whose header names a different
//! fingerprint rather than silently mixing incompatible results.

use crate::experiment::{run_plan_inner, ExperimentPlan, PredictionRecord, SettingKey};
use crate::extract::Extraction;
use lmpeel_configspace::ArraySize;
use lmpeel_lm::{GenStep, GenerationTrace, LanguageModel, TokenAlt};
use lmpeel_perfdata::DatasetBundle;
use lmpeel_recover::wire::{self, Reader};
use lmpeel_recover::{fnv1a64, JournalError, JournalRecord, Recovery, RunJournal};
use std::path::Path;

#[cfg(any(test, feature = "fault-inject"))]
use lmpeel_recover::CrashAfter;

/// Version of the [`PredictionRecord`] encoding below; folded into the
/// plan fingerprint so a journal written by an older codec is refused
/// instead of misparsed.
pub const CODEC_VERSION: u32 = 1;

/// Stable on-disk ordinal for an [`ArraySize`]. An explicit match (not
/// `as u8`) so reordering the enum cannot silently renumber journals.
pub fn size_ordinal(size: ArraySize) -> u8 {
    match size {
        ArraySize::S => 0,
        ArraySize::SM => 1,
        ArraySize::M => 2,
        ArraySize::ML => 3,
        ArraySize::L => 4,
        ArraySize::XL => 5,
    }
}

/// Inverse of [`size_ordinal`].
pub fn size_from_ordinal(ord: u8) -> Option<ArraySize> {
    Some(match ord {
        0 => ArraySize::S,
        1 => ArraySize::SM,
        2 => ArraySize::M,
        3 => ArraySize::ML,
        4 => ArraySize::L,
        5 => ArraySize::XL,
        _ => return None,
    })
}

/// Journal key of one grid cell:
/// `(size ordinal, icl_count, curated, replica, seed)`.
pub type TaskKey = (u8, u64, u8, u64, u64);

/// The journal key for a cell of the grid.
pub fn task_key(key: &SettingKey, replica: usize, seed: u64) -> TaskKey {
    (
        size_ordinal(key.size),
        key.icl_count as u64,
        u8::from(key.curated),
        replica as u64,
        seed,
    )
}

impl JournalRecord for PredictionRecord {
    type Key = TaskKey;

    fn key(&self) -> TaskKey {
        task_key(&self.key, self.replica, self.seed)
    }

    fn encode(&self, buf: &mut Vec<u8>) {
        wire::put_u8(buf, size_ordinal(self.key.size));
        wire::put_usize(buf, self.key.icl_count);
        wire::put_bool(buf, self.key.curated);
        wire::put_usize(buf, self.replica);
        wire::put_u64(buf, self.seed);
        wire::put_f64(buf, self.truth);
        wire::put_seq(buf, &self.icl_values, |b, &v| wire::put_f64(b, v));
        wire::put_str(buf, &self.response);
        wire::put_opt(buf, self.predicted, wire::put_f64);
        wire::put_u8(
            buf,
            match self.extraction {
                None => 0,
                Some(Extraction::Direct) => 1,
                Some(Extraction::AfterMarker) => 2,
                Some(Extraction::Scavenged) => 3,
            },
        );
        wire::put_bool(buf, self.copied_from_icl);
        wire::put_usize(buf, self.trace.prompt_len);
        wire::put_bool(buf, self.trace.stopped_naturally);
        wire::put_seq(buf, &self.trace.steps, |b, step| {
            wire::put_u32(b, step.chosen);
            wire::put_f32(b, step.chosen_prob);
            wire::put_seq(b, &step.alternatives, |b, alt| {
                wire::put_u32(b, alt.id);
                wire::put_f32(b, alt.prob);
            });
        });
        wire::put_opt(buf, self.value_span.as_ref(), |b, span| {
            wire::put_usize(b, span.start);
            wire::put_usize(b, span.end);
        });
    }

    fn decode(bytes: &[u8]) -> Option<Self> {
        let mut r = Reader::new(bytes);
        let size = size_from_ordinal(r.u8()?)?;
        let icl_count = r.usize()?;
        let curated = r.bool()?;
        let replica = r.usize()?;
        let seed = r.u64()?;
        let truth = r.f64()?;
        let icl_values = r.seq(Reader::f64)?;
        let response = r.str()?;
        let predicted = r.opt(Reader::f64)?;
        let extraction = match r.u8()? {
            0 => None,
            1 => Some(Extraction::Direct),
            2 => Some(Extraction::AfterMarker),
            3 => Some(Extraction::Scavenged),
            _ => return None,
        };
        let copied_from_icl = r.bool()?;
        let prompt_len = r.usize()?;
        let stopped_naturally = r.bool()?;
        let steps = r.seq(|r| {
            Some(GenStep {
                chosen: r.u32()?,
                chosen_prob: r.f32()?,
                alternatives: r.seq(|r| {
                    Some(TokenAlt {
                        id: r.u32()?,
                        prob: r.f32()?,
                    })
                })?,
            })
        })?;
        let value_span = r.opt(|r| Some(r.usize()?..r.usize()?))?;
        r.is_done().then_some(PredictionRecord {
            key: SettingKey {
                size,
                icl_count,
                curated,
            },
            replica,
            seed,
            truth,
            icl_values,
            response,
            predicted,
            extraction,
            copied_from_icl,
            trace: GenerationTrace {
                prompt_len,
                steps,
                stopped_naturally,
            },
            value_span,
        })
    }
}

/// Fingerprint identifying what a journal holds: every grid-shaping plan
/// field, the substrate name, and the record codec version. Two runs may
/// share a journal iff their fingerprints match.
fn plan_fingerprint(plan: &ExperimentPlan, substrate: &str) -> u64 {
    let mut buf = Vec::new();
    wire::put_str(&mut buf, "lmpeel-run-plan");
    wire::put_u32(&mut buf, CODEC_VERSION);
    wire::put_str(&mut buf, substrate);
    let put_size = |b: &mut Vec<u8>, &s: &ArraySize| wire::put_u8(b, size_ordinal(s));
    let put_count = |b: &mut Vec<u8>, &c: &usize| wire::put_usize(b, c);
    wire::put_seq(&mut buf, &plan.sizes, put_size);
    wire::put_seq(&mut buf, &plan.icl_counts, put_count);
    wire::put_usize(&mut buf, plan.replicas);
    wire::put_seq(&mut buf, &plan.seeds, |b, &s| wire::put_u64(b, s));
    wire::put_seq(&mut buf, &plan.curated_sizes, put_size);
    wire::put_seq(&mut buf, &plan.curated_counts, put_count);
    wire::put_u64(&mut buf, plan.selection_seed);
    wire::put_usize(&mut buf, plan.max_tokens);
    wire::put_f32(&mut buf, plan.trace_min_prob);
    wire::put_bool(&mut buf, plan.stop_at_newline);
    fnv1a64(&buf)
}

/// [`run_plan`](crate::experiment::run_plan) with a durable journal at
/// `journal_path`: previously committed cells are loaded instead of
/// regenerated, each fresh cell is committed (write → flush → fsync)
/// before the next is awaited, and the output is byte-identical to a
/// never-interrupted run. `substrate` names the model family and is part
/// of the journal's fingerprint — resuming with a different substrate (or
/// plan) is refused with [`JournalError::FingerprintMismatch`].
pub fn run_plan_journaled<M, F>(
    bundle: &DatasetBundle,
    plan: &ExperimentPlan,
    model_factory: F,
    journal_path: impl AsRef<Path>,
    substrate: &str,
) -> Result<(Vec<PredictionRecord>, Recovery), JournalError>
where
    M: LanguageModel,
    F: Fn(u64) -> M + Sync,
{
    let (mut journal, recovery) =
        RunJournal::open(journal_path, plan_fingerprint(plan, substrate))?;
    let records = run_plan_inner(bundle, plan, model_factory, Some(&mut journal))?;
    Ok((records, recovery))
}

/// [`run_plan_journaled`] with the deterministic kill-point hook armed:
/// after `crash.commits` more commits land, the next one fires. Drives
/// the kill-and-resume suites and the CI crash smoke test.
#[cfg(any(test, feature = "fault-inject"))]
pub fn run_plan_journaled_with_crash<M, F>(
    bundle: &DatasetBundle,
    plan: &ExperimentPlan,
    model_factory: F,
    journal_path: impl AsRef<Path>,
    substrate: &str,
    crash: CrashAfter,
) -> Result<(Vec<PredictionRecord>, Recovery), JournalError>
where
    M: LanguageModel,
    F: Fn(u64) -> M + Sync,
{
    let (mut journal, recovery) =
        RunJournal::open(journal_path, plan_fingerprint(plan, substrate))?;
    journal.crash_after(crash);
    let records = run_plan_inner(bundle, plan, model_factory, Some(&mut journal))?;
    Ok((records, recovery))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::run_plan;
    use lmpeel_lm::InductionLm;
    use lmpeel_recover::CrashMode;
    use std::path::PathBuf;
    use std::sync::OnceLock;

    fn bundle() -> &'static DatasetBundle {
        static BUNDLE: OnceLock<DatasetBundle> = OnceLock::new();
        BUNDLE.get_or_init(DatasetBundle::paper)
    }

    fn baseline() -> &'static Vec<PredictionRecord> {
        static RECORDS: OnceLock<Vec<PredictionRecord>> = OnceLock::new();
        RECORDS.get_or_init(|| run_plan(bundle(), &ExperimentPlan::smoke(), InductionLm::paper))
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("lmpeel-core-journal-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}.journal", std::process::id()))
    }

    fn encode_all(records: &[PredictionRecord]) -> Vec<u8> {
        let mut buf = Vec::new();
        for r in records {
            r.encode(&mut buf);
        }
        buf
    }

    #[test]
    fn kill_and_resume_at_every_commit_boundary_is_byte_identical() {
        let plan = ExperimentPlan::smoke();
        let want = encode_all(baseline());
        let n = plan.num_tasks();
        for k in 0..n {
            let path = tmp(&format!("kill-{k}"));
            let _ = std::fs::remove_file(&path);
            let crashed = run_plan_journaled_with_crash(
                bundle(),
                &plan,
                InductionLm::paper,
                &path,
                "induction",
                CrashAfter {
                    commits: k as u32,
                    mode: CrashMode::Error,
                },
            );
            assert!(
                matches!(crashed, Err(JournalError::InjectedCrash)),
                "kill point {k} must crash"
            );
            let (records, recovery) =
                run_plan_journaled(bundle(), &plan, InductionLm::paper, &path, "induction")
                    .expect("resume succeeds");
            assert_eq!(recovery.records, k, "kill point {k} salvages k records");
            assert_eq!(
                encode_all(&records),
                want,
                "kill point {k}: resume must be byte-identical"
            );
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn repeated_kills_still_converge_to_the_baseline() {
        let plan = ExperimentPlan::smoke();
        let want = encode_all(baseline());
        let path = tmp("multikill");
        let _ = std::fs::remove_file(&path);
        // Die three times at successively later points, then finish.
        for commits in [3u32, 4, 2] {
            let crashed = run_plan_journaled_with_crash(
                bundle(),
                &plan,
                InductionLm::paper,
                &path,
                "induction",
                CrashAfter {
                    commits,
                    mode: CrashMode::Error,
                },
            );
            assert!(matches!(crashed, Err(JournalError::InjectedCrash)));
        }
        let (records, recovery) =
            run_plan_journaled(bundle(), &plan, InductionLm::paper, &path, "induction").unwrap();
        assert_eq!(recovery.records, 3 + 4 + 2);
        assert_eq!(encode_all(&records), want);
        // A further resume finds everything journaled and regenerates
        // nothing (no service is even built).
        let (records, recovery) =
            run_plan_journaled(bundle(), &plan, InductionLm::paper, &path, "induction").unwrap();
        assert_eq!(recovery.records, plan.num_tasks());
        assert_eq!(encode_all(&records), want);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tails_of_real_journals_salvage_and_resume_identically() {
        let plan = ExperimentPlan::smoke();
        let want = encode_all(baseline());
        let path = tmp("torn");
        let _ = std::fs::remove_file(&path);
        let _ = run_plan_journaled(bundle(), &plan, InductionLm::paper, &path, "induction")
            .expect("full run");
        let pristine = std::fs::read(&path).unwrap();
        // A spread of cuts: mid-frame, frame boundaries, deep truncation.
        let cuts = [
            16,
            17,
            pristine.len() / 7,
            pristine.len() / 3,
            pristine.len() / 2,
            pristine.len() - 1,
        ];
        for &cut in &cuts {
            std::fs::write(&path, &pristine[..cut]).unwrap();
            let (records, recovery) =
                run_plan_journaled(bundle(), &plan, InductionLm::paper, &path, "induction")
                    .expect("salvage and resume");
            assert!(recovery.records < plan.num_tasks() || cut == pristine.len());
            assert_eq!(encode_all(&records), want, "cut at {cut}");
        }
        // Bit flip inside the last frame: everything before it survives.
        let mut flipped = pristine.clone();
        let last = flipped.len() - 5;
        flipped[last] ^= 0x10;
        std::fs::write(&path, &flipped).unwrap();
        let (records, recovery) =
            run_plan_journaled(bundle(), &plan, InductionLm::paper, &path, "induction").unwrap();
        assert!(recovery.dropped_bytes > 0);
        assert_eq!(encode_all(&records), want);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn mismatched_plan_or_substrate_is_refused() {
        let plan = ExperimentPlan::smoke();
        let path = tmp("mismatch");
        let _ = std::fs::remove_file(&path);
        run_plan_journaled(bundle(), &plan, InductionLm::paper, &path, "induction").unwrap();
        // Different substrate name.
        let err = run_plan_journaled(bundle(), &plan, InductionLm::paper, &path, "transformer");
        assert!(matches!(err, Err(JournalError::FingerprintMismatch { .. })));
        // Different plan shape.
        let mut other = plan.clone();
        other.max_tokens += 1;
        let err = run_plan_journaled(bundle(), &other, InductionLm::paper, &path, "induction");
        assert!(matches!(err, Err(JournalError::FingerprintMismatch { .. })));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn fingerprints_separate_plans_substrates_and_codec_fields() {
        let plan = ExperimentPlan::smoke();
        let base = plan_fingerprint(&plan, "induction");
        assert_eq!(base, plan_fingerprint(&plan, "induction"));
        assert_ne!(base, plan_fingerprint(&plan, "transformer"));
        let mut p = plan.clone();
        p.stop_at_newline = true;
        assert_ne!(base, plan_fingerprint(&p, "induction"));
        let mut p = plan.clone();
        p.seeds.push(9);
        assert_ne!(base, plan_fingerprint(&p, "induction"));
    }

    #[test]
    fn size_ordinals_round_trip() {
        for size in ArraySize::ALL {
            assert_eq!(size_from_ordinal(size_ordinal(size)), Some(size));
        }
        assert_eq!(size_from_ordinal(6), None);
    }
}
