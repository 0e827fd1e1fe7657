//! `lmpeel-tune`: a journaled autotuning service with a persistent,
//! shippable tune cache.
//!
//! The paper frames autotuning as "evaluating a small subset of
//! configurations on the target platform"; this crate closes that loop as
//! a service. Submit a `(kernel, size, budget)` request and
//! [`TuneService::tune`]:
//!
//! 1. answers from the persistent [`TuneCache`] if this exact
//!    `(kernel, size, hardware fingerprint)` has been tuned before — a
//!    repeat query runs **zero** kernel measurements;
//! 2. otherwise runs the surrogate-guided search as a reportable
//!    ablation — GBDT surrogate vs LLM surrogate (scored through the
//!    existing [`InferenceService`] serving layer) vs random search, each
//!    at the same budget against the same deterministic objective. Each
//!    arm is one plain [`Tuner::run`] with its own RNG, so its trajectory
//!    is the one it walks alone. Random search runs first. One helper
//!    thread then walks the GBDT arm against its own lookup of the dataset
//!    while the calling thread runs the LLM arm; the calling thread then
//!    commits the GBDT walk's steps. Steps commit arm by arm — random, LLM,
//!    GBDT — whatever the threads' timing;
//! 3. validates the winning configuration on the real
//!    [`lmpeel_kernel`] syr2k nest (max |Δ| ÷ max(‖ref‖_F, 1) against
//!    the untransformed reference must stay below 1e-9; wall-clock medians
//!    are reported but never cached). The helper runs the reference nest
//!    once its walk is done, then validates the better of the random and
//!    GBDT winners while the LLM arm still decodes; only an LLM winner
//!    strictly better than both is validated after the search;
//! 4. durably commits the result and republishes the cache file in its
//!    canonical byte-stable form ([`TuneCache::publish`]).
//!
//! Every search step can be write-ahead journaled
//! ([`journal::StepMeasurer`]): a tune killed at an arbitrary commit
//! boundary resumes by replaying the committed steps, whatever order the
//! arms committed them in, and produces a byte-identical cache file. The
//! service is also exposed over the TCP front-end as a framed extension
//! request ([`wire`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod journal;
pub mod wire;

pub use cache::{machine_fingerprint, TuneCache, TuneEntry, TuneKey, CACHE_CODEC_VERSION};
pub use journal::{run_fingerprint, JournaledObjective, StepMeasurer, StepRecord};
pub use wire::{TuneWireRequest, TuneWireResponse, TUNE_EXT_KIND};

use journal::RuntimeDiverged;
use lmpeel_configspace::{syr2k_space, ArraySize, Config, ConfigSpace, Syr2kConfig};
use lmpeel_core::autotune::{
    pool_search, DatasetObjective, GbdtSearch, Objective, ObjectiveError, RandomSearch, Tuner,
    TuningTrajectory,
};
use lmpeel_core::extract::extract_value;
use lmpeel_core::journal::size_ordinal;
use lmpeel_core::prompt::PromptBuilder;
use lmpeel_kernel::{measure, Matrix, MeasureSpec, Syr2kProblem};
use lmpeel_lm::{InductionLm, LanguageModel, Sampler};
use lmpeel_perfdata::{CostModel, MachineModel, PerfDataset};
use lmpeel_recover::{JournalError, Recovery, RunJournal};
use lmpeel_serve::sync::RankedMutex;
use lmpeel_serve::{GenerateRequest, InferenceService};
use lmpeel_stats::{seeded_rng, SeedDomain};
use lmpeel_tokenizer::EOS;
use std::path::Path;
use std::sync::Arc;

/// The one kernel the service currently tunes.
pub const KERNEL_SYR2K: &str = "syr2k";

/// Why a tune request could not be answered.
#[derive(Debug)]
pub enum TuneError {
    /// The request named a kernel the service has no substrate for.
    UnsupportedKernel(String),
    /// The cache or step journal refused an operation.
    Journal(JournalError),
    /// A search strategy's objective failed (journal commit refused,
    /// injected crash, replay divergence).
    Search(ObjectiveError),
    /// The budget was zero: no measurement, no winner, nothing to cache.
    EmptyBudget,
    /// The budget exceeds the configuration space: no arm can measure
    /// that many distinct configurations.
    BudgetExceedsSpace {
        /// The requested budget.
        budget: usize,
        /// How many configurations the space holds.
        space: u64,
    },
}

impl std::fmt::Display for TuneError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TuneError::UnsupportedKernel(k) => {
                write!(f, "unsupported kernel {k:?} (this service tunes \"syr2k\")")
            }
            TuneError::Journal(e) => write!(f, "tune cache refused: {e}"),
            TuneError::Search(e) => write!(f, "search failed: {e}"),
            TuneError::EmptyBudget => write!(f, "tune budget must be at least 1"),
            TuneError::BudgetExceedsSpace { budget, space } => write!(
                f,
                "tune budget {budget} exceeds the {space} configurations of the space"
            ),
        }
    }
}

impl std::error::Error for TuneError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TuneError::Journal(e) => Some(e),
            TuneError::Search(e) => Some(e.as_ref()),
            _ => None,
        }
    }
}

impl From<JournalError> for TuneError {
    fn from(e: JournalError) -> Self {
        TuneError::Journal(e)
    }
}

/// One tuning request: which kernel, at which size, with how many
/// surrogate evaluations per strategy, under which search seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TuneRequest {
    /// Kernel name ([`KERNEL_SYR2K`]).
    pub kernel: String,
    /// Problem size to tune for.
    pub size: ArraySize,
    /// Evaluation budget per strategy.
    pub budget: usize,
    /// Search seed (shared by all strategies).
    pub seed: u64,
}

/// One strategy's result in the ablation.
#[derive(Debug, Clone, PartialEq)]
pub struct StrategyOutcome {
    /// Stable ordinal (also the step-journal namespace).
    pub ord: u8,
    /// Strategy name, from [`Tuner::name`].
    pub strategy: String,
    /// Best surrogate runtime found (seconds).
    pub best_runtime: f64,
    /// The best configuration, as its config-space index.
    pub best_index: u64,
    /// Configurations evaluated (≤ budget).
    pub evaluations: usize,
}

impl StrategyOutcome {
    /// Summarize strategy `ord`'s trajectory over `space`.
    fn of(ord: u8, strategy: String, trajectory: &TuningTrajectory, space: &ConfigSpace) -> Self {
        let (best_config, best_runtime) = trajectory.best();
        Self {
            ord,
            strategy,
            best_runtime,
            best_index: space.index_of(best_config),
            evaluations: trajectory.evaluated.len(),
        }
    }
}

/// What validating the winner on the real kernel nest observed. Only
/// `checksum_ok` (deterministic) flows into the cache; the wall-clock
/// median is for the caller's report.
#[derive(Debug, Clone, PartialEq)]
pub struct ValidationReport {
    /// Whether the configured nest matched the reference nest:
    /// `max_rel_diff < 1e-9`.
    pub checksum_ok: bool,
    /// `max |diff| / max(frobenius(reference), 1)` between the two
    /// results.
    pub max_rel_diff: f64,
    /// Median wall-clock of the configured nest, in seconds.
    pub wallclock_median: f64,
}

/// The answer to one tune request.
#[derive(Debug, Clone, PartialEq)]
pub struct TuneReport {
    /// The committed (or cached) result.
    pub entry: TuneEntry,
    /// Whether the persistent cache answered without any search.
    pub cache_hit: bool,
    /// Objective measurements actually taken this call (0 on a hit).
    pub fresh_measurements: usize,
    /// Measurements answered from a resumed step journal.
    pub replayed_measurements: usize,
    /// Per-strategy results; empty on a cache hit.
    pub ablation: Vec<StrategyOutcome>,
    /// Real-kernel validation; `None` on a cache hit (nothing ran).
    pub validation: Option<ValidationReport>,
}

/// LLM discriminative surrogate scored **through the serving layer**: each
/// candidate's runtime prediction is generated by submitting a request to
/// an [`InferenceService`] hosting the model, so tune-time LLM traffic exercises
/// the same admission/batching path as the experiments. Its prefix cache
/// is off: each candidate's prompt ends with its own query line, so no
/// prompt in a pool is a prefix of another and a snapshot would never be
/// forked. The search itself is [`pool_search`]; this type only supplies
/// the scorer.
pub struct ServiceLlmSearch<M> {
    /// The surrogate model served behind the [`InferenceService`].
    pub model: Arc<M>,
    /// Random evaluations before the surrogate activates.
    pub init_random: usize,
    /// Candidates scored per iteration.
    pub pool: usize,
    /// Most recent observations used as in-context examples.
    pub max_icl: usize,
}

impl<M: LanguageModel + 'static> Tuner for ServiceLlmSearch<M> {
    fn name(&self) -> String {
        format!("llm-service-surrogate({})", self.model.name())
    }

    fn run(
        &self,
        objective: &mut dyn Objective,
        budget: usize,
        seed: u64,
    ) -> Result<TuningTrajectory, ObjectiveError> {
        let builder = PromptBuilder::new(objective.space().clone(), objective.size());
        let service = InferenceService::builder()
            .model("tune", self.model.clone())
            .prefix_cache_capacity(0)
            .queue_capacity(self.pool.max(1))
            .max_batch(self.pool.max(1))
            .build();
        let t = self.model.tokenizer();
        let stop = vec![t.vocab().token_id("\n").expect("newline"), t.special(EOS)];
        let mut step = 0u64;
        // Score a pool by submitting one generation per candidate, each
        // prompted with the last `max_icl` observations and seeded from the
        // step counter; a response with no value scores `INFINITY`.
        let score = |evaluated: &[(Config, f64)], candidates: &[Config]| {
            step += 1;
            let step_seed = seed ^ step;
            let examples = &evaluated[evaluated.len().saturating_sub(self.max_icl)..];
            let handles: Vec<_> = candidates
                .iter()
                .enumerate()
                .map(|(i, cand)| {
                    let ids = builder.discriminative(examples, cand).to_tokens(t);
                    let request = GenerateRequest::builder("tune", ids)
                        .sampler(Sampler::paper())
                        .max_tokens(16)
                        .stop_tokens(stop.clone())
                        // Only the decoded text is read, so record no
                        // alternatives: a floor above 1 makes each decode
                        // step draw-only, with the same tokens.
                        .trace_min_prob(2.0)
                        .seed(step_seed ^ (i as u64 + 1))
                        .build()
                        .expect("valid surrogate request");
                    service
                        .submit(request)
                        .expect("service accepts while running")
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    let trace = h.wait().expect("surrogate decode").trace;
                    extract_value(&trace.decode(t))
                        .map(|(v, _)| v)
                        .unwrap_or(f64::INFINITY)
                })
                .collect()
        };
        let rng = seeded_rng(seed, SeedDomain::Custom(0x7E5E));
        pool_search(objective, budget, rng, self.init_random, self.pool, score)
    }
}

/// Stable ordinals for the ablation's strategies — also the step-journal
/// key namespace, so reordering the ablation cannot scramble resumes.
pub const STRATEGY_RANDOM: u8 = 0;
/// GBDT surrogate strategy ordinal.
pub const STRATEGY_GBDT: u8 = 1;
/// LLM (service-scored) surrogate strategy ordinal.
pub const STRATEGY_LLM: u8 = 2;

/// The autotuning service: a persistent [`TuneCache`] plus the machinery
/// to run, journal, validate and commit a search when the cache misses.
///
/// Thread-safe (`&self` methods, cache behind a mutex) so one service
/// can sit behind the TCP front-end's extension handler. Concurrent
/// same-key misses race benignly: both searches are deterministic, both
/// commit the identical entry, and keyed commits are idempotent.
pub struct TuneService {
    cache: RankedMutex<TuneCache>,
    hw_fingerprint: u64,
    machine: MachineModel,
}

impl TuneService {
    /// Open the service over the cache file at `path`, fingerprinting the
    /// default machine model.
    pub fn open(path: impl AsRef<Path>) -> Result<(Self, Recovery), TuneError> {
        Self::open_for_machine(path, MachineModel::default())
    }

    /// Open the service for an explicit machine description (the cache
    /// key's hardware component comes from it).
    fn open_for_machine(
        path: impl AsRef<Path>,
        machine: MachineModel,
    ) -> Result<(Self, Recovery), TuneError> {
        let (cache, recovery) = TuneCache::open(path)?;
        Ok((
            Self {
                cache: RankedMutex::new("cache", cache),
                hw_fingerprint: machine_fingerprint(&machine),
                machine,
            },
            recovery,
        ))
    }

    /// The hardware fingerprint requests are keyed under.
    pub fn hw_fingerprint(&self) -> u64 {
        self.hw_fingerprint
    }

    /// The step-journal fingerprint for `request` under this service's
    /// hardware (callers opening a `--journal`/`--resume` file use this).
    pub fn request_fingerprint(&self, request: &TuneRequest) -> u64 {
        run_fingerprint(
            &request.kernel,
            request.size,
            self.hw_fingerprint,
            request.budget,
            request.seed,
        )
    }

    /// The analytic objective a miss at `size` searches.
    fn dataset(&self, size: ArraySize) -> PerfDataset {
        let model = CostModel {
            machine: self.machine,
            ..CostModel::paper()
        };
        PerfDataset::generate(&model, size)
    }

    /// Answer a tune request: from the cache when possible, otherwise by
    /// running the full ablation, validating the winner on the real
    /// kernel nest, committing and republishing the cache.
    ///
    /// `step_journal`, when supplied, write-ahead-journals every
    /// surrogate measurement so a killed tune resumes deterministically;
    /// open it with [`Self::request_fingerprint`].
    pub fn tune(
        &self,
        request: &TuneRequest,
        step_journal: Option<&mut RunJournal<StepRecord>>,
    ) -> Result<TuneReport, TuneError> {
        if request.kernel != KERNEL_SYR2K {
            return Err(TuneError::UnsupportedKernel(request.kernel.clone()));
        }
        if request.budget == 0 {
            return Err(TuneError::EmptyBudget);
        }
        let cardinality = syr2k_space().cardinality();
        if request.budget as u64 > cardinality {
            return Err(TuneError::BudgetExceedsSpace {
                budget: request.budget,
                space: cardinality,
            });
        }
        let key = TuneEntry::key_of(&request.kernel, request.size, self.hw_fingerprint);
        if let Some(entry) = self.cache.lock().lookup(&key) {
            return Ok(TuneReport {
                entry: entry.clone(),
                cache_hit: true,
                fresh_measurements: 0,
                replayed_measurements: 0,
                ablation: Vec::new(),
                validation: None,
            });
        }

        // Cache miss: run the ablation against the deterministic
        // analytic objective (the surrogate-search phase measures the
        // cost model, exactly as the paper's search experiments do; the
        // real nests run only to validate the winner).
        let dataset = self.dataset(request.size);
        let gbdt = GbdtSearch::default();
        let llm = llm_arm();
        let (m, n) = request.size.dims();
        let problem = Syr2kProblem::new(m, n);
        let space = dataset.space();
        let mut inner = DatasetObjective::new(&dataset);
        let mut steps = StepMeasurer::new(&mut inner, step_journal);
        let ([random, by_gbdt, by_llm], kernel) =
            search_arms(&mut steps, &dataset, &gbdt, &llm, request, &problem)
                .map_err(TuneError::Search)?;
        let ablation = vec![
            StrategyOutcome::of(STRATEGY_RANDOM, RandomSearch.name(), &random, space),
            StrategyOutcome::of(STRATEGY_GBDT, gbdt.name(), &by_gbdt, space),
            StrategyOutcome::of(STRATEGY_LLM, llm.name(), &by_llm, space),
        ];
        let winner = winner(&ablation).clone();

        // The helper validated the better of the random and GBDT winners;
        // an LLM winner strictly better than both runs here.
        let validation = if winner.best_index == kernel.validated_index {
            kernel.validation
        } else {
            let cfg = Syr2kConfig::from_config(space, &space.config_at(winner.best_index));
            validate_on_kernel(&problem, &kernel.reference, cfg)
        };

        let entry = TuneEntry {
            kernel: request.kernel.clone(),
            size_ord: size_ordinal(request.size),
            hw_fingerprint: self.hw_fingerprint,
            budget: request.budget as u64,
            seed: request.seed,
            strategy: winner.strategy.clone(),
            config_index: winner.best_index,
            surrogate_runtime: winner.best_runtime,
            validated: validation.checksum_ok,
        };
        {
            let mut cache = self.cache.lock();
            // The `cache` lock *is* the commit serializer: the journal append
            // and snapshot rewrite happen under it on purpose so concurrent
            // misses commit whole entries and readers never see a torn file.
            // lint: blocking-ok — journal append is the serialized commit itself
            cache.commit(&entry)?;
            // lint: blocking-ok — atomic snapshot rewrite, serialized by design
            cache.publish()?;
        }
        Ok(TuneReport {
            entry,
            cache_hit: false,
            fresh_measurements: steps.fresh(),
            replayed_measurements: steps.replayed(),
            ablation,
            validation: Some(validation),
        })
    }
}

/// The ablation's LLM arm: the paper's induction LM, four random
/// evaluations, a four-candidate pool, eight in-context examples.
fn llm_arm() -> ServiceLlmSearch<InductionLm> {
    ServiceLlmSearch {
        model: Arc::new(InductionLm::paper(0)),
        init_random: 4,
        pool: 4,
        max_icl: 8,
    }
}

/// The strategy with the lowest best runtime; ties go to the earlier
/// ordinal (stable, so resume cannot flip it).
fn winner(outcomes: &[StrategyOutcome]) -> &StrategyOutcome {
    outcomes
        .iter()
        .min_by(|a, b| {
            a.best_runtime
                .partial_cmp(&b.best_runtime)
                .unwrap()
                .then(a.ord.cmp(&b.ord))
        })
        .expect("at least one strategy")
}

/// The helper thread's kernel runs: the untransformed reference result,
/// and the validation of the better of the random and GBDT winners.
struct KernelRuns {
    reference: Matrix,
    /// The config index `validation` ran.
    validated_index: u64,
    validation: ValidationReport,
}

/// Run the three arms, each a [`Tuner::run`] measuring through `steps`
/// under its strategy ordinal, and commit them arm by arm: random, LLM,
/// GBDT. Random search runs first. Then one named helper thread walks the
/// GBDT arm against its own lookup of `dataset` (a pure function of the
/// config, so its runtimes are the ones `steps` commits), runs the
/// reference nest and validates the better of the random and GBDT
/// winners, while this thread runs the LLM arm. Once the helper is joined,
/// this thread commits the walk's steps in order; each committed or
/// replayed runtime must equal the walk's bit for bit. The commit order,
/// and with it every crash point, never depends on the helper's timing,
/// and each arm keeps its own RNG, so every trajectory is the one it
/// walks alone.
///
/// The scope joins the helper on every return, after an LLM-arm error
/// too; a panic on the helper panics here.
fn search_arms(
    steps: &mut StepMeasurer<'_>,
    dataset: &PerfDataset,
    gbdt: &GbdtSearch,
    llm: &ServiceLlmSearch<InductionLm>,
    request: &TuneRequest,
    problem: &Syr2kProblem,
) -> Result<([TuningTrajectory; 3], KernelRuns), ObjectiveError> {
    let (budget, seed) = (request.budget, request.seed);
    let space = dataset.space();
    let random = RandomSearch.run(&mut steps.arm(STRATEGY_RANDOM), budget, seed)?;
    let by_random = StrategyOutcome::of(STRATEGY_RANDOM, RandomSearch.name(), &random, space);
    std::thread::scope(|scope| -> Result<_, ObjectiveError> {
        let helper = std::thread::Builder::new()
            .name("tune-gbdt".into())
            .spawn_scoped(scope, move || {
                let walk = gbdt.run_dataset(dataset, budget, seed);
                let by_gbdt = StrategyOutcome::of(STRATEGY_GBDT, gbdt.name(), &walk, space);
                let provisional = winner(&[by_random, by_gbdt]).best_index;
                let reference = problem.run_reference();
                let cfg = Syr2kConfig::from_config(space, &space.config_at(provisional));
                let validation = validate_on_kernel(problem, &reference, cfg);
                let kernel = KernelRuns {
                    reference,
                    validated_index: provisional,
                    validation,
                };
                (walk, kernel)
            })
            .expect("spawn the tune's GBDT helper thread");
        let by_llm = llm.run(&mut steps.arm(STRATEGY_LLM), budget, seed)?;
        let (walk, kernel) = helper
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        let mut gbdt_arm = steps.arm(STRATEGY_GBDT);
        for (step, (config, walked)) in walk.evaluated.iter().enumerate() {
            let committed = gbdt_arm.measure(config)?;
            if committed.to_bits() != walked.to_bits() {
                return Err(Box::new(RuntimeDiverged {
                    strategy_ord: STRATEGY_GBDT,
                    step: step as u64,
                    committed,
                    walked: *walked,
                }));
            }
        }
        Ok(([random, walk, by_llm], kernel))
    })
}

/// Run the winning configuration on the real syr2k nest and check its
/// result against the untransformed `reference`: max |Δ| ÷ max(‖ref‖_F,
/// 1) must stay below 1e-9.
fn validate_on_kernel(
    problem: &Syr2kProblem,
    reference: &Matrix,
    cfg: Syr2kConfig,
) -> ValidationReport {
    let spec = MeasureSpec::new(1, 3).expect("nonzero repeats");
    let (timing, result) = measure(spec, || problem.run_configured(cfg));
    let max_rel_diff = reference.max_abs_diff(&result) / reference.frobenius().max(1.0);
    ValidationReport {
        checksum_ok: max_rel_diff < 1e-9,
        max_rel_diff,
        wallclock_median: timing.median().expect("repeats >= 1"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmpeel_recover::{CrashAfter, CrashMode, JournalRecord};

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("lmpeel-tune-svc-{}-{name}", std::process::id()))
    }

    fn small_request() -> TuneRequest {
        TuneRequest {
            kernel: KERNEL_SYR2K.into(),
            size: ArraySize::S,
            budget: 6,
            seed: 7,
        }
    }

    #[test]
    fn miss_then_hit_skips_all_measurement() {
        let path = tmp("miss-hit");
        let _ = std::fs::remove_file(&path);
        let (service, _) = TuneService::open(&path).unwrap();
        let req = small_request();
        let first = service.tune(&req, None).unwrap();
        assert!(!first.cache_hit);
        assert!(first.fresh_measurements > 0);
        assert_eq!(first.ablation.len(), 3, "random vs gbdt vs llm");
        assert!(first.validation.is_some());
        let snapshot = service.cache.lock().snapshot_bytes();

        let second = service.tune(&req, None).unwrap();
        assert!(second.cache_hit);
        assert_eq!(second.fresh_measurements, 0, "a hit measures nothing");
        assert!(second.ablation.is_empty());
        assert!(second.validation.is_none());
        assert_eq!(second.entry, first.entry);
        assert_eq!(
            service.cache.lock().snapshot_bytes(),
            snapshot,
            "hit leaves cache bytes"
        );

        // And the hit survives a service restart (the cache is the file).
        drop(service);
        let (service, rc) = TuneService::open(&path).unwrap();
        assert_eq!(rc.records, 1);
        let third = service.tune(&req, None).unwrap();
        assert!(third.cache_hit);
        assert_eq!(third.entry, first.entry);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn winner_beats_or_ties_every_strategy_and_validates() {
        let path = tmp("winner");
        let _ = std::fs::remove_file(&path);
        let (service, _) = TuneService::open(&path).unwrap();
        let report = service.tune(&small_request(), None).unwrap();
        for s in &report.ablation {
            assert!(
                report.entry.surrogate_runtime <= s.best_runtime,
                "winner {} must not lose to {}",
                report.entry.strategy,
                s.strategy
            );
        }
        assert!(
            report.entry.validated,
            "paper-space syr2k configs are semantics-preserving: {:?}",
            report.validation
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn unsupported_requests_are_refused() {
        let path = tmp("refuse");
        let _ = std::fs::remove_file(&path);
        let (service, _) = TuneService::open(&path).unwrap();
        let mut req = small_request();
        req.kernel = "gemm".into();
        assert!(matches!(
            service.tune(&req, None),
            Err(TuneError::UnsupportedKernel(_))
        ));
        let mut req = small_request();
        req.budget = 0;
        assert!(matches!(
            service.tune(&req, None),
            Err(TuneError::EmptyBudget)
        ));
        // One past the space's 10,648 configurations: refused before any
        // arm samples, so nothing panics.
        req.budget = 10_649;
        assert!(matches!(
            service.tune(&req, None),
            Err(TuneError::BudgetExceedsSpace {
                budget: 10_649,
                space: 10_648
            })
        ));
        assert_eq!(service.cache.lock().len(), 0, "nothing committed");
        std::fs::remove_file(&path).unwrap();
    }

    /// The ablation's strategies, each to be run alone.
    fn arms() -> [(u8, Box<dyn Tuner>); 3] {
        [
            (STRATEGY_RANDOM, Box::new(RandomSearch)),
            (STRATEGY_GBDT, Box::new(GbdtSearch::default())),
            (STRATEGY_LLM, Box::new(llm_arm())),
        ]
    }

    /// `record` as a step-journal frame: `len: u32 | fnv1a64: u64 |
    /// payload`.
    fn frame(record: &StepRecord) -> Vec<u8> {
        let mut payload = Vec::new();
        record.encode(&mut payload);
        let mut frame = Vec::new();
        lmpeel_recover::wire::put_u32(&mut frame, payload.len() as u32);
        lmpeel_recover::wire::put_u64(&mut frame, lmpeel_recover::fnv1a64(&payload));
        frame.extend(payload);
        frame
    }

    /// The length of every step-journal frame.
    fn frame_len() -> usize {
        frame(&StepRecord {
            strategy_ord: 0,
            step: 0,
            config_index: 0,
            runtime: 0.0,
        })
        .len()
    }

    /// The newest record in the step journal at `path`. Commits append
    /// frames in commit order, so the file's tail is the last committed
    /// step.
    fn last_committed(path: &Path) -> StepRecord {
        let bytes = std::fs::read(path).unwrap();
        let frame = &bytes[bytes.len() - frame_len()..];
        let mut r = lmpeel_recover::wire::Reader::new(frame);
        assert_eq!(r.u32(), Some(frame.len() as u32 - 12), "a whole last frame");
        r.u64().unwrap();
        StepRecord::decode(&frame[12..]).unwrap()
    }

    /// Crash a journaled tune of `req` on `cache` after `commits` commits
    /// through `steps`, check the crash committed nothing to the cache,
    /// resume, and return the resumed cache file's bytes.
    fn crash_then_resume(
        req: &TuneRequest,
        cache: &Path,
        steps: &Path,
        commits: u32,
        crash: impl FnOnce(&TuneService, &mut RunJournal<StepRecord>),
    ) -> Vec<u8> {
        for p in [cache, steps] {
            let _ = std::fs::remove_file(p);
        }
        let (service, _) = TuneService::open(cache).unwrap();
        let fp = service.request_fingerprint(req);
        {
            let (mut journal, _) = RunJournal::open(steps, fp).unwrap();
            journal.crash_after(CrashAfter {
                commits,
                mode: CrashMode::Error,
            });
            crash(&service, &mut journal);
        }
        assert_eq!(
            service.cache.lock().len(),
            0,
            "nothing committed before the crash"
        );
        let (mut journal, rc) = RunJournal::open(steps, fp).unwrap();
        assert_eq!(rc.records, commits as usize);
        let report = service.tune(req, Some(&mut journal)).unwrap();
        assert!(!report.cache_hit);
        assert_eq!(report.replayed_measurements, commits as usize);
        assert_eq!(report.fresh_measurements, 3 * req.budget - commits as usize);
        std::fs::read(cache).unwrap()
    }

    /// The cache file of one uninterrupted, unjournaled run of `req`.
    fn golden_cache(req: &TuneRequest, name: &str) -> Vec<u8> {
        let path = tmp(name);
        let _ = std::fs::remove_file(&path);
        let (service, _) = TuneService::open(&path).unwrap();
        let report = service.tune(req, None).unwrap();
        let evaluations: Vec<_> = report.ablation.iter().map(|a| a.evaluations).collect();
        assert_eq!(evaluations, [req.budget; 3], "no arm stops early");
        let golden = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        golden
    }

    #[test]
    fn crashed_tune_resumes_to_byte_identical_cache() {
        let (cache, steps) = (tmp("crash-cache"), tmp("crash-steps"));
        // Budget 10 per arm. Commits land arm by arm: random 1–10; LLM
        // init 11–14 and scored 15–20; GBDT init 21–28 and scored 29–30.
        let req = TuneRequest {
            budget: 10,
            ..small_request()
        };
        let golden = golden_cache(&req, "crash-golden");
        // (commits before the crash, the last committed step's arm and
        // step, its phase). The crash fires at the next commit: at 29 it
        // is the tune's last.
        let points = [
            (5, STRATEGY_RANDOM, 4, "random"),
            (12, STRATEGY_LLM, 1, "init"),
            (17, STRATEGY_LLM, 6, "scored"),
            (24, STRATEGY_GBDT, 3, "init"),
            (29, STRATEGY_GBDT, 8, "scored"),
        ];
        let init = |ord| match ord {
            STRATEGY_GBDT => GbdtSearch::default().init_random,
            STRATEGY_LLM => llm_arm().init_random,
            _ => usize::MAX,
        };
        for (commits, ord, step, phase) in points {
            let resumed = crash_then_resume(&req, &cache, &steps, commits, |service, journal| {
                let err = service.tune(&req, Some(journal)).unwrap_err();
                assert!(matches!(err, TuneError::Search(_)), "got: {err}");
                let last = last_committed(&steps);
                assert_eq!((last.strategy_ord, last.step), (ord, step), "{commits}");
                let got = match (last.strategy_ord, (last.step as usize) < init(ord)) {
                    (STRATEGY_RANDOM, _) => "random",
                    (_, true) => "init",
                    (_, false) => "scored",
                };
                assert_eq!(got, phase, "crash after {commits} commits");
            });
            assert_eq!(
                resumed, golden,
                "resumed cache file is byte-identical to the uninterrupted one \
                 (crash after {commits} commits)"
            );
        }
        for p in [&cache, &steps] {
            std::fs::remove_file(p).unwrap();
        }
    }

    /// A checksum-valid step frame holding a runtime no measurement yields
    /// ends the journal's salvage there: the resume replays the frames
    /// before it, measures the rest fresh and publishes the golden cache.
    #[test]
    fn a_journaled_unmeasurable_runtime_is_measured_again() {
        let (cache, steps) = (tmp("poison-cache"), tmp("poison-steps"));
        let req = small_request();
        let golden = golden_cache(&req, "poison-golden");
        for poison in [f64::NAN, f64::INFINITY, -1.0] {
            for p in [&cache, &steps] {
                let _ = std::fs::remove_file(p);
            }
            let (service, _) = TuneService::open(&cache).unwrap();
            let fp = service.request_fingerprint(&req);
            {
                let (mut journal, _) = RunJournal::open(&steps, fp).unwrap();
                journal.crash_after(CrashAfter {
                    commits: 5,
                    mode: CrashMode::Error,
                });
                assert!(service.tune(&req, Some(&mut journal)).is_err());
            }
            // Rewrite frame 2 of the 5 with the poisoned runtime.
            let mut bytes = std::fs::read(&steps).unwrap();
            let at = bytes.len() - 3 * frame_len();
            let mut record = StepRecord::decode(&bytes[at + 12..at + frame_len()]).unwrap();
            record.runtime = poison;
            bytes[at..at + frame_len()].copy_from_slice(&frame(&record));
            std::fs::write(&steps, bytes).unwrap();

            let (mut journal, rc) = RunJournal::open(&steps, fp).unwrap();
            assert_eq!(rc.records, 2, "salvage stops at the {poison} frame");
            let report = service.tune(&req, Some(&mut journal)).unwrap();
            assert_eq!(report.replayed_measurements, 2);
            assert_eq!(std::fs::read(&cache).unwrap(), golden, "{poison}");
        }
        for p in [&cache, &steps] {
            std::fs::remove_file(p).unwrap();
        }
    }

    /// A journal committed one arm after another in ordinal order (random,
    /// then GBDT, then LLM, each run alone) resumes through the tune, which
    /// commits random, LLM, GBDT, to the same cache bytes: replay is keyed
    /// by `(strategy_ord, step)`, not by commit order.
    #[test]
    fn a_journal_committed_arm_by_arm_resumes_to_byte_identical_cache() {
        let (cache, steps) = (tmp("order-cache"), tmp("order-steps"));
        let req = TuneRequest {
            budget: 10,
            ..small_request()
        };
        let golden = golden_cache(&req, "order-golden");
        // Crash inside the GBDT arm and inside the LLM's scored steps.
        for commits in [15, 27] {
            let resumed = crash_then_resume(&req, &cache, &steps, commits, |service, journal| {
                let dataset = service.dataset(req.size);
                let mut inner = DatasetObjective::new(&dataset);
                let mut measurer = StepMeasurer::new(&mut inner, Some(journal));
                let crashed = arms().iter().try_for_each(|(ord, tuner)| {
                    tuner
                        .run(&mut measurer.arm(*ord), req.budget, req.seed)
                        .map(drop)
                });
                assert!(crashed.is_err());
            });
            assert_eq!(resumed, golden, "crash after {commits} commits");
        }
        for p in [&cache, &steps] {
            std::fs::remove_file(p).unwrap();
        }
    }

    /// The tune's two threads change no arm: at SM and budget 40, each
    /// strategy's outcome in the tune equals that of the strategy run
    /// alone.
    #[test]
    fn interleaved_arms_match_the_arms_run_alone() {
        let path = tmp("arms");
        for seed in [1, 7, 12] {
            let _ = std::fs::remove_file(&path);
            let (service, _) = TuneService::open(&path).unwrap();
            let req = TuneRequest {
                kernel: KERNEL_SYR2K.into(),
                size: ArraySize::SM,
                budget: 40,
                seed,
            };
            let report = service.tune(&req, None).unwrap();
            let dataset = service.dataset(req.size);
            let alone: Vec<StrategyOutcome> = arms()
                .iter()
                .map(|(ord, tuner)| {
                    let t = tuner.run_dataset(&dataset, req.budget, seed);
                    StrategyOutcome::of(*ord, tuner.name(), &t, dataset.space())
                })
                .collect();
            assert_eq!(report.ablation, alone, "seed {seed}");
        }
        std::fs::remove_file(&path).unwrap();
    }

    /// The reported validation is the winner's, whichever thread ran it:
    /// at SM and budget 40, seed 0 is won by random search, seed 1 by the
    /// GBDT arm (both validated on the helper thread) and seed 6 by the
    /// LLM arm (validated after the search).
    #[test]
    fn reported_validation_is_the_winners() {
        let path = tmp("validation");
        let problem = Syr2kProblem::new(ArraySize::SM.dims().0, ArraySize::SM.dims().1);
        let reference = problem.run_reference();
        for (seed, ord) in [(0, STRATEGY_RANDOM), (1, STRATEGY_GBDT), (6, STRATEGY_LLM)] {
            let _ = std::fs::remove_file(&path);
            let (service, _) = TuneService::open(&path).unwrap();
            let req = TuneRequest {
                kernel: KERNEL_SYR2K.into(),
                size: ArraySize::SM,
                budget: 40,
                seed,
            };
            let report = service.tune(&req, None).unwrap();
            let entry = &report.entry;
            assert_eq!(entry.strategy, report.ablation[ord as usize].strategy);
            let space = service.dataset(req.size).space().clone();
            let cfg = Syr2kConfig::from_config(&space, &space.config_at(entry.config_index));
            let direct = validate_on_kernel(&problem, &reference, cfg);
            let got = report.validation.unwrap();
            assert_eq!(got.checksum_ok, direct.checksum_ok, "seed {seed}");
            assert_eq!(
                got.max_rel_diff.to_bits(),
                direct.max_rel_diff.to_bits(),
                "seed {seed}"
            );
            assert!(entry.validated, "seed {seed}");
        }
        std::fs::remove_file(&path).unwrap();
    }

    /// A journal that holds the GBDT arm's configuration at step `k` but a
    /// different runtime is refused on resume: the helper's walk measured
    /// the dataset's runtime, and the committed one must equal it bit for
    /// bit.
    #[test]
    fn a_journaled_gbdt_runtime_unlike_the_walk_is_refused() {
        let (cache, steps) = (tmp("runtime-cache"), tmp("runtime-steps"));
        let _ = std::fs::remove_file(&cache);
        let req = TuneRequest {
            budget: 10,
            ..small_request()
        };
        let (service, _) = TuneService::open(&cache).unwrap();
        let dataset = service.dataset(req.size);
        let space = dataset.space();
        let random = RandomSearch.run_dataset(&dataset, req.budget, req.seed);
        let gbdt = GbdtSearch::default().run_dataset(&dataset, req.budget, req.seed);
        // Step 3 is in the GBDT init, step 8 its first fitted step.
        for k in [3, 8] {
            let _ = std::fs::remove_file(&steps);
            let fp = service.request_fingerprint(&req);
            let (mut journal, _) = RunJournal::open(&steps, fp).unwrap();
            let arms = [(STRATEGY_RANDOM, &random), (STRATEGY_GBDT, &gbdt)];
            for (ord, trajectory) in arms {
                let last = if ord == STRATEGY_GBDT {
                    k
                } else {
                    req.budget - 1
                };
                for (step, (config, runtime)) in trajectory.evaluated[..=last].iter().enumerate() {
                    let runtime = if ord == STRATEGY_GBDT && step == k {
                        f64::from_bits(runtime.to_bits() + 1)
                    } else {
                        *runtime
                    };
                    journal
                        .commit(&StepRecord {
                            strategy_ord: ord,
                            step: step as u64,
                            config_index: space.index_of(config),
                            runtime,
                        })
                        .unwrap();
                }
            }
            let err = service.tune(&req, Some(&mut journal)).unwrap_err();
            let TuneError::Search(err) = err else {
                panic!("expected a search error, got {err}");
            };
            let diverged = err
                .downcast_ref::<RuntimeDiverged>()
                .expect("runtime divergence");
            assert_eq!(
                (diverged.strategy_ord, diverged.step),
                (STRATEGY_GBDT, k as u64)
            );
            assert_eq!(service.cache.lock().len(), 0, "nothing committed");
        }
        for p in [&cache, &steps] {
            let _ = std::fs::remove_file(p);
        }
    }

    /// Pins every step of the shared pool loop under the LLM scorer: the
    /// evaluated config indices of the ablation's LLM strategy at budget
    /// 12, for two seeds.
    #[test]
    fn service_llm_search_trajectory_is_pinned() {
        let d = PerfDataset::generate(&CostModel::paper(), ArraySize::SM);
        let search = ServiceLlmSearch {
            model: Arc::new(InductionLm::paper(0)),
            init_random: 4,
            pool: 4,
            max_icl: 8,
        };
        let pinned: [(u64, [u64; 12]); 2] = [
            (
                0,
                [
                    6969, 6017, 30, 2593, 10241, 8287, 6009, 953, 5234, 1193, 7114, 8448,
                ],
            ),
            (
                7,
                [
                    4367, 7720, 1859, 6812, 6789, 200, 4891, 3018, 10122, 6119, 4668, 892,
                ],
            ),
        ];
        for (seed, expected) in pinned {
            let t = search.run_dataset(&d, 12, seed);
            let got: Vec<u64> = t
                .evaluated
                .iter()
                .map(|(c, _)| d.space().index_of(c))
                .collect();
            assert_eq!(got, expected, "seed {seed}");
        }
    }
}
