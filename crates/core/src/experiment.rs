//! The §IV-A experiment driver.
//!
//! "We provide the LLM with increasing amounts of configuration-runtime
//! pairs, ranging from one to one hundred examples... We form five disjoint
//! datasets with the same number of in-context learning examples... We
//! evaluate each prompt with three random seeds... we repeat the above with
//! two distinct array sizes." Plus the curated minimal-edit-distance
//! variant. Each task is one generation; per-setting metrics pool the
//! replicas × seeds predictions, and the overall report applies the CLT
//! aggregation of §IV-A.

use crate::decoding::{is_exact_icl_copy, value_span};
use crate::extract::{extract_value, Extraction};
use crate::prompt::PromptBuilder;
use lmpeel_configspace::ArraySize;
use lmpeel_lm::{generate, GenerateSpec, GenerationTrace, LanguageModel, Sampler};
use lmpeel_perfdata::{curated_icl_replicas, icl_replicas, DatasetBundle, IclSet};
use lmpeel_recover::{JournalError, RunJournal};
use lmpeel_serve::prelude::*;
use lmpeel_stats::{RegressionReport, Summary, Welford};
use lmpeel_tokenizer::EOS;
use std::ops::Range;
use std::sync::Arc;

/// Which experiments to run.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentPlan {
    /// Array sizes for the random-selection experiments.
    pub sizes: Vec<ArraySize>,
    /// ICL example counts for the random-selection experiments.
    pub icl_counts: Vec<usize>,
    /// Disjoint dataset replicas per (size, count).
    pub replicas: usize,
    /// Sampling seeds per prompt.
    pub seeds: Vec<u64>,
    /// Sizes for the curated (minimal-edit-distance) experiments.
    pub curated_sizes: Vec<ArraySize>,
    /// ICL counts for the curated experiments.
    pub curated_counts: Vec<usize>,
    /// Root seed for data selection.
    pub selection_seed: u64,
    /// Generation cap per response.
    pub max_tokens: usize,
    /// Trace recording threshold (the "nonzero logit" cutoff).
    pub trace_min_prob: f32,
    /// Also stop at the first newline (the Figure 3/4 single-line value
    /// setting). The paper grid keeps this off: a drifted generation that
    /// restarts the example scaffold crosses line breaks before reaching
    /// its value.
    pub stop_at_newline: bool,
}

impl ExperimentPlan {
    /// The paper's full grid: counts {1,2,5,10,20,50,100} × 5 replicas ×
    /// 3 seeds × {SM, XL} randomly selected (210 generations), plus curated
    /// counts {5,10,20,50,100} × 5 replicas × 3 seeds on SM (75
    /// generations) — 285 total, matching the paper's ~284 samples.
    pub fn paper() -> Self {
        Self {
            sizes: vec![ArraySize::SM, ArraySize::XL],
            icl_counts: vec![1, 2, 5, 10, 20, 50, 100],
            replicas: 5,
            seeds: vec![0, 1, 2],
            curated_sizes: vec![ArraySize::SM],
            curated_counts: vec![5, 10, 20, 50, 100],
            // Selection seed 3 is the canonical run; see EXPERIMENTS.md for
            // the seed-sensitivity scan (the paper's "best R2" is itself a
            // max over a heavy-tailed family of settings).
            selection_seed: 3,
            // Long enough for a drifted generation that restarts the
            // example scaffold to still reach its Performance value.
            max_tokens: 96,
            trace_min_prob: 1e-3,
            stop_at_newline: false,
        }
    }

    /// A fast plan for tests.
    pub fn smoke() -> Self {
        Self {
            sizes: vec![ArraySize::SM],
            icl_counts: vec![2, 5],
            replicas: 2,
            seeds: vec![0, 1],
            curated_sizes: vec![ArraySize::SM],
            curated_counts: vec![3],
            selection_seed: 1,
            max_tokens: 16,
            trace_min_prob: 1e-3,
            stop_at_newline: false,
        }
    }

    /// Total number of generations the plan will run.
    pub fn num_tasks(&self) -> usize {
        (self.sizes.len() * self.icl_counts.len()
            + self.curated_sizes.len() * self.curated_counts.len())
            * self.replicas
            * self.seeds.len()
    }
}

/// Identifies one experimental setting (a pool of replicas × seeds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SettingKey {
    /// Array size.
    pub size: ArraySize,
    /// Number of in-context examples.
    pub icl_count: usize,
    /// Whether examples were curated by minimal edit distance.
    pub curated: bool,
}

impl std::fmt::Display for SettingKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}/{} icl={}",
            self.size,
            if self.curated { "curated" } else { "random" },
            self.icl_count
        )
    }
}

/// One generation and everything derived from it.
#[derive(Debug, Clone)]
pub struct PredictionRecord {
    /// Experimental setting.
    pub key: SettingKey,
    /// Replica index within the setting.
    pub replica: usize,
    /// Sampling/model seed.
    pub seed: u64,
    /// Ground-truth runtime of the query.
    pub truth: f64,
    /// In-context example runtimes (for copy detection and Figure 3).
    pub icl_values: Vec<f64>,
    /// Raw generated text.
    pub response: String,
    /// Extracted prediction, if any.
    pub predicted: Option<f64>,
    /// How the prediction was recovered.
    pub extraction: Option<Extraction>,
    /// Whether the prediction exactly copies an ICL value.
    pub copied_from_icl: bool,
    /// Full generation trace (for decoding analyses).
    pub trace: GenerationTrace,
    /// Token range of the value within the trace.
    pub value_span: Option<Range<usize>>,
}

/// Run every task in a plan against models produced by `model_factory`
/// (one model per sampling seed, matching the paper's per-seed reruns).
/// Output order is deterministic: tasks in grid order, seeds within a task.
///
/// The whole grid is submitted to a continuous-batching
/// [`InferenceService`] up front: the scheduler interleaves decodes across
/// tasks, and its prefix cache pays each distinct prompt's prefill once —
/// the per-seed requests over one prompt fork the cached session instead of
/// re-prefilling. Each request asks the service to re-key the session to its
/// seed ([`DecodeSession::rekey`](lmpeel_lm::DecodeSession::rekey));
/// substrates whose seed is baked into weights refuse, and those seeds fall
/// back to a fresh `model_factory(seed)` generation. `model_factory` must
/// produce models sharing one vocabulary across seeds — only logit
/// behaviour may vary with the seed.
pub fn run_plan<M, F>(
    bundle: &DatasetBundle,
    plan: &ExperimentPlan,
    model_factory: F,
) -> Vec<PredictionRecord>
where
    M: LanguageModel,
    F: Fn(u64) -> M + Sync,
{
    run_plan_inner(bundle, plan, model_factory, None)
        .expect("a journal-free run has no journal to fail")
}

/// Materialize a plan's (key, replica, icl_set) tuples in grid order:
/// random settings first, then curated, replicas within a setting.
pub(crate) fn materialize_tasks(
    bundle: &DatasetBundle,
    plan: &ExperimentPlan,
) -> Vec<(SettingKey, usize, IclSet)> {
    let mut tasks: Vec<(SettingKey, usize, IclSet)> = Vec::new();
    for &size in &plan.sizes {
        let ds = bundle.for_size(size);
        for &count in &plan.icl_counts {
            let sets = icl_replicas(ds, count, plan.replicas, plan.selection_seed);
            for (r, set) in sets.into_iter().enumerate() {
                tasks.push((
                    SettingKey {
                        size,
                        icl_count: count,
                        curated: false,
                    },
                    r,
                    set,
                ));
            }
        }
    }
    for &size in &plan.curated_sizes {
        let ds = bundle.for_size(size);
        for &count in &plan.curated_counts {
            let sets = curated_icl_replicas(ds, count, plan.replicas, plan.selection_seed);
            for (r, set) in sets.into_iter().enumerate() {
                tasks.push((
                    SettingKey {
                        size,
                        icl_count: count,
                        curated: true,
                    },
                    r,
                    set,
                ));
            }
        }
    }
    tasks
}

/// What one grid cell still needs: nothing (journaled on a prior run) or a
/// submitted in-flight request.
enum CellWork {
    Cached(PredictionRecord),
    Pending {
        ids: Vec<lmpeel_tokenizer::TokenId>,
        spec: GenerateSpec,
        handle: lmpeel_serve::ResponseHandle,
    },
}

/// The shared engine behind [`run_plan`] and the journaled entry points in
/// [`crate::journal`]. With a journal, cells whose key is already committed
/// are answered from it (no generation, no submission) and each freshly
/// completed cell is durably committed before the next is awaited — so a
/// crash between commits loses at most the cell in flight, and the returned
/// records are byte-identical whether the grid ran once or across N
/// resumes (the service's traces are interleaving-independent; see
/// `forked_seed_generations_match_fresh_per_seed_models`).
pub(crate) fn run_plan_inner<M, F>(
    bundle: &DatasetBundle,
    plan: &ExperimentPlan,
    model_factory: F,
    mut journal: Option<&mut RunJournal<PredictionRecord>>,
) -> Result<Vec<PredictionRecord>, JournalError>
where
    M: LanguageModel,
    F: Fn(u64) -> M + Sync,
{
    if plan.seeds.is_empty() {
        return Ok(Vec::new());
    }
    let tasks = materialize_tasks(bundle, plan);

    let base_model = Arc::new(model_factory(plan.seeds[0]));
    let tokenizer = base_model.tokenizer();
    let mut stop_tokens = Vec::new();
    if plan.stop_at_newline {
        stop_tokens.push(
            tokenizer
                .vocab()
                .token_id("\n")
                .expect("vocabulary includes a newline token"),
        );
    }
    // EOS last: a drifted generation that restarts the example scaffold
    // crosses line breaks before it reaches a value, exactly as the
    // paper's deviant outputs did — only single-line plans stop earlier.
    stop_tokens.push(tokenizer.special(EOS));

    let pending = tasks.len() * plan.seeds.len()
        - journal.as_deref().map_or(0, |j| {
            tasks
                .iter()
                .flat_map(|(key, replica, _)| {
                    plan.seeds
                        .iter()
                        .map(|&seed| crate::journal::task_key(key, *replica, seed))
                })
                .filter(|k| j.contains(k))
                .count()
        });
    // A fully journaled grid needs no service (and an empty queue would be
    // rejected by the builder).
    let service = (pending > 0).then(|| {
        InferenceService::builder()
            .model("default", base_model.clone())
            // Room for the remaining grid: submission never blocks, the
            // scheduler drains at its own pace.
            .queue_capacity(pending)
            .build()
    });

    // Submit every non-journaled cell before waiting on anything so the
    // scheduler can batch across tasks and seeds.
    let submissions: Vec<_> = tasks
        .iter()
        .flat_map(|(key, replica, set)| {
            let builder = PromptBuilder::new(bundle.for_size(key.size).space().clone(), key.size);
            let prompt = builder.for_icl_set(set);
            let mut ids: Option<Vec<_>> = None;
            plan.seeds
                .iter()
                .map(|&seed| {
                    let task_key = crate::journal::task_key(key, *replica, seed);
                    if let Some(rec) = journal.as_deref().and_then(|j| j.get(&task_key)).cloned() {
                        return (key, *replica, set, seed, CellWork::Cached(rec));
                    }
                    let ids = ids
                        .get_or_insert_with(|| prompt.to_tokens(tokenizer))
                        .clone();
                    let spec = GenerateSpec::builder()
                        .sampler(Sampler::paper())
                        .max_tokens(plan.max_tokens)
                        .stop_tokens(stop_tokens.clone())
                        .trace_min_prob(plan.trace_min_prob)
                        .seed(seed)
                        .build()
                        .expect("plan yields a valid generation spec");
                    let handle = service
                        .as_ref()
                        .expect("a pending cell implies a live service")
                        .submit(
                            GenerateRequest::new("default", ids.clone(), spec.clone())
                                .with_model_seed(seed),
                        )
                        .expect("service accepts while running");
                    (
                        key,
                        *replica,
                        set,
                        seed,
                        CellWork::Pending { ids, spec, handle },
                    )
                })
                .collect::<Vec<_>>()
        })
        .collect();

    submissions
        .into_iter()
        .map(|(key, replica, set, seed, work)| {
            let (ids, spec, handle) = match work {
                CellWork::Cached(rec) => return Ok(rec),
                CellWork::Pending { ids, spec, handle } => (ids, spec, handle),
            };
            let trace = match handle.wait() {
                Ok(response) => response.trace,
                Err(RequestError::RekeyUnsupported(_)) => {
                    // Seed is baked into this substrate's weights: rebuild
                    // the model and pay the full prefill.
                    let model = Arc::new(model_factory(seed));
                    generate(&model, &ids, &spec).expect("per-seed fallback decodes")
                }
                Err(e) => panic!("inference service failed a grid task: {e}"),
            };
            let response = trace.decode(tokenizer);
            let extracted = extract_value(&response);
            let icl_values: Vec<f64> = set.examples.iter().map(|&(_, r)| r).collect();
            let predicted = extracted.map(|(v, _)| v);
            let record = PredictionRecord {
                key: *key,
                replica,
                seed,
                truth: set.truth,
                copied_from_icl: predicted
                    .map(|v| is_exact_icl_copy(v, &icl_values))
                    .unwrap_or(false),
                icl_values,
                predicted,
                extraction: extracted.map(|(_, e)| e),
                value_span: value_span(&trace, tokenizer),
                response,
                trace,
            };
            if let Some(j) = journal.as_deref_mut() {
                // Durable before the next cell is awaited: this is the
                // commit boundary the kill-and-resume suites exercise.
                j.commit(&record)?;
            }
            Ok(record)
        })
        .collect()
}

/// Per-setting regression metrics pooled over replicas × seeds.
#[derive(Debug, Clone)]
pub struct SettingReport {
    /// The setting.
    pub key: SettingKey,
    /// R²/MARE/MSRE over the setting's extracted predictions.
    pub report: RegressionReport,
    /// Number of generations with no extractable prediction.
    pub n_missing: usize,
}

/// Group records into per-setting reports (insertion order of first
/// occurrence). Settings with fewer than two extracted predictions are
/// dropped (R² undefined).
pub fn setting_reports(records: &[PredictionRecord]) -> Vec<SettingReport> {
    let mut order: Vec<SettingKey> = Vec::new();
    let mut groups: std::collections::HashMap<SettingKey, (Vec<f64>, Vec<f64>, usize)> =
        std::collections::HashMap::new();
    for r in records {
        let e = groups.entry(r.key).or_insert_with(|| {
            order.push(r.key);
            (Vec::new(), Vec::new(), 0)
        });
        match r.predicted {
            Some(p) => {
                e.0.push(p);
                e.1.push(r.truth);
            }
            None => e.2 += 1,
        }
    }
    order
        .into_iter()
        .filter_map(|key| {
            let (pred, truth, missing) = groups.remove(&key)?;
            if pred.len() < 2 {
                return None;
            }
            Some(SettingReport {
                key,
                report: RegressionReport::score(&pred, &truth),
                n_missing: missing,
            })
        })
        .collect()
}

/// The §IV-A overall aggregation.
#[derive(Debug, Clone)]
pub struct OverallReport {
    /// Per-prediction absolute relative errors, CLT-aggregated.
    pub mare: Summary,
    /// Per-prediction squared relative errors, CLT-aggregated.
    pub msre: Summary,
    /// Per-setting R² scores, aggregated (finite values only).
    pub r2: Summary,
    /// Fraction of settings with non-negative R².
    pub frac_nonneg_r2: f64,
    /// The best setting and its R².
    pub best: (SettingKey, f64),
    /// Fraction of extracted predictions that exactly copy an ICL value.
    pub copy_fraction: f64,
    /// `[direct, after-marker, scavenged, none]` extraction outcome counts.
    pub extraction_counts: [usize; 4],
    /// Total predictions with an extracted value.
    pub n_extracted: usize,
}

/// Aggregate records and setting reports into the overall report.
///
/// # Panics
/// Panics if no predictions were extracted or no settings qualified.
pub fn overall_report(records: &[PredictionRecord], settings: &[SettingReport]) -> OverallReport {
    assert!(!settings.is_empty(), "no settings with enough predictions");
    let mut mare = Welford::new();
    let mut msre = Welford::new();
    let mut copies = 0usize;
    let mut extracted = 0usize;
    let mut counts = [0usize; 4];
    for r in records {
        match (r.predicted, r.extraction) {
            (Some(p), Some(e)) => {
                extracted += 1;
                counts[match e {
                    Extraction::Direct => 0,
                    Extraction::AfterMarker => 1,
                    Extraction::Scavenged => 2,
                }] += 1;
                if r.copied_from_icl {
                    copies += 1;
                }
                let rel = lmpeel_stats::relative_error(p, r.truth);
                mare.push(rel);
                msre.push(rel * rel);
            }
            _ => counts[3] += 1,
        }
    }
    assert!(extracted > 0, "no predictions extracted");
    let mut r2 = Welford::new();
    let mut nonneg = 0usize;
    let mut best: Option<(SettingKey, f64)> = None;
    for s in settings {
        if s.report.r2.is_finite() {
            r2.push(s.report.r2);
            if s.report.r2 >= 0.0 {
                nonneg += 1;
            }
            if best.as_ref().is_none_or(|b| s.report.r2 > b.1) {
                best = Some((s.key, s.report.r2));
            }
        }
    }
    OverallReport {
        mare: mare.finish(),
        msre: msre.finish(),
        r2: r2.finish(),
        frac_nonneg_r2: nonneg as f64 / settings.len() as f64,
        best: best.expect("at least one finite R2"),
        copy_fraction: copies as f64 / extracted as f64,
        extraction_counts: counts,
        n_extracted: extracted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmpeel_lm::InductionLm;
    use std::sync::OnceLock;

    fn bundle() -> &'static DatasetBundle {
        static BUNDLE: OnceLock<DatasetBundle> = OnceLock::new();
        BUNDLE.get_or_init(DatasetBundle::paper)
    }

    fn smoke_records() -> &'static Vec<PredictionRecord> {
        static RECORDS: OnceLock<Vec<PredictionRecord>> = OnceLock::new();
        RECORDS.get_or_init(|| run_plan(bundle(), &ExperimentPlan::smoke(), InductionLm::paper))
    }

    #[test]
    fn plan_task_counts() {
        assert_eq!(ExperimentPlan::paper().num_tasks(), 285);
        assert_eq!(ExperimentPlan::smoke().num_tasks(), (2 + 1) * 2 * 2);
    }

    #[test]
    fn run_produces_all_tasks_with_valid_records() {
        let records = smoke_records();
        assert_eq!(records.len(), ExperimentPlan::smoke().num_tasks());
        for r in records {
            assert!(r.truth > 0.0);
            assert_eq!(r.icl_values.len(), r.key.icl_count);
            if let Some(p) = r.predicted {
                assert!(p >= 0.0, "negative runtime prediction");
            }
            assert!(!r.trace.steps.is_empty());
        }
    }

    #[test]
    fn most_smoke_predictions_extract_directly() {
        let records = smoke_records();
        let direct = records
            .iter()
            .filter(|r| r.extraction == Some(Extraction::Direct))
            .count();
        assert!(
            direct * 2 > records.len(),
            "expected mostly clean extractions, got {direct}/{}",
            records.len()
        );
    }

    #[test]
    fn runs_are_reproducible() {
        let a = run_plan(bundle(), &ExperimentPlan::smoke(), InductionLm::paper);
        let b = smoke_records();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.response, y.response);
            assert_eq!(x.predicted, y.predicted);
        }
    }

    #[test]
    fn setting_reports_group_correctly() {
        let records = smoke_records();
        let settings = setting_reports(records);
        // 3 settings (2 random counts + 1 curated), each with 4 records
        assert_eq!(settings.len(), 3);
        for s in &settings {
            assert!(s.report.n + s.n_missing == 4);
        }
        let curated: Vec<_> = settings.iter().filter(|s| s.key.curated).collect();
        assert_eq!(curated.len(), 1);
        assert_eq!(curated[0].key.icl_count, 3);
    }

    #[test]
    fn overall_report_is_consistent() {
        let records = smoke_records();
        let settings = setting_reports(records);
        let overall = overall_report(records, &settings);
        assert!(overall.n_extracted > 0);
        assert!(overall.mare.mean >= 0.0);
        assert!(overall.msre.mean >= 0.0);
        assert!((0.0..=1.0).contains(&overall.copy_fraction));
        assert!((0.0..=1.0).contains(&overall.frac_nonneg_r2));
        let total: usize = overall.extraction_counts.iter().sum();
        assert_eq!(total, records.len());
        assert!(overall.best.1.is_finite());
    }

    #[test]
    fn seeds_vary_generations_within_a_replica() {
        let records = smoke_records();
        // Find two records of the same setting+replica with different seeds.
        let mut varied = false;
        for a in records.iter() {
            for b in records.iter() {
                if a.key == b.key && a.replica == b.replica && a.seed != b.seed {
                    assert_eq!(a.truth, b.truth, "same query per replica");
                    if a.response != b.response {
                        varied = true;
                    }
                }
            }
        }
        assert!(
            varied,
            "different seeds should sometimes sample differently"
        );
    }

    /// What a fresh per-seed `model` decodes for one grid cell.
    fn fresh_trace<M: LanguageModel>(
        model: &Arc<M>,
        plan: &ExperimentPlan,
        key: &SettingKey,
        set: &IclSet,
        seed: u64,
    ) -> GenerationTrace {
        let builder = PromptBuilder::new(bundle().for_size(key.size).space().clone(), key.size);
        let ids = builder.for_icl_set(set).to_tokens(model.tokenizer());
        let spec = GenerateSpec::builder()
            .sampler(Sampler::paper())
            .max_tokens(plan.max_tokens)
            .stop_tokens(vec![model.tokenizer().special(EOS)])
            .trace_min_prob(plan.trace_min_prob)
            .seed(seed)
            .build()
            .unwrap();
        generate(model, &ids, &spec).unwrap()
    }

    #[test]
    fn forked_seed_generations_match_fresh_per_seed_models() {
        // The service path (prefix-cached prefill, fork + rekey per seed)
        // must reproduce what a per-seed model built from scratch decodes.
        let plan = ExperimentPlan::smoke();
        let records = smoke_records();
        let ds = bundle().for_size(ArraySize::SM);
        let sets = icl_replicas(ds, 2, plan.replicas, plan.selection_seed);
        let key = SettingKey {
            size: ArraySize::SM,
            icl_count: 2,
            curated: false,
        };
        for (replica, set) in sets.iter().enumerate() {
            for &seed in &plan.seeds {
                let rec = records
                    .iter()
                    .find(|r| r.key == key && r.replica == replica && r.seed == seed)
                    .expect("record exists");
                let model = Arc::new(InductionLm::paper(seed));
                let trace = fresh_trace(&model, &plan, &key, set, seed);
                assert_eq!(
                    trace.decode(model.tokenizer()),
                    rec.response,
                    "replica {replica} seed {seed}"
                );
            }
        }
    }

    #[test]
    fn substrates_that_cannot_rekey_fall_back_to_per_seed_models() {
        // Keeps the default `FallbackSession`, whose `rekey` refuses, so
        // every cell takes the `RekeyUnsupported` arm.
        struct NoRekey(InductionLm);
        impl LanguageModel for NoRekey {
            fn tokenizer(&self) -> &lmpeel_tokenizer::Tokenizer {
                self.0.tokenizer()
            }
            fn logits(&self, context: &[lmpeel_tokenizer::TokenId]) -> Vec<f32> {
                self.0.logits(context)
            }
            fn name(&self) -> String {
                "no-rekey".into()
            }
        }
        let plan = ExperimentPlan {
            icl_counts: vec![2],
            replicas: 1,
            curated_sizes: vec![],
            max_tokens: 8,
            ..ExperimentPlan::smoke()
        };
        let factory = |seed| NoRekey(InductionLm::paper(seed));
        let mut records = run_plan(bundle(), &plan, factory).into_iter();
        for (key, _, set) in materialize_tasks(bundle(), &plan) {
            for &seed in &plan.seeds {
                let record = records.next().expect("one record per cell");
                assert_eq!((record.key, record.seed), (key, seed));
                let model = Arc::new(factory(seed));
                let want = fresh_trace(&model, &plan, &key, &set, seed);
                assert_eq!(record.trace, want, "seed {seed}");
            }
        }
        assert!(records.next().is_none());
    }

    #[test]
    fn setting_key_display() {
        let k = SettingKey {
            size: ArraySize::SM,
            icl_count: 50,
            curated: true,
        };
        assert_eq!(k.to_string(), "SM/curated icl=50");
    }
}
