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
//!    at the same budget against the same deterministic objective;
//! 3. validates the winning configuration on the real
//!    [`lmpeel_kernel`] syr2k nest (checksum against the untransformed
//!    reference; wall-clock medians are reported but never cached);
//! 4. durably commits the result and republishes the cache file in its
//!    canonical byte-stable form ([`TuneCache::publish`]).
//!
//! Every search step can be write-ahead journaled
//! ([`journal::JournaledObjective`]): a tune killed at an arbitrary
//! commit boundary resumes by replaying the committed prefix and produces
//! a byte-identical cache file. The service is also exposed over the TCP
//! front-end as a framed extension request ([`wire`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod journal;
pub mod wire;

pub use cache::{machine_fingerprint, TuneCache, TuneEntry, TuneKey, CACHE_CODEC_VERSION};
pub use journal::{run_fingerprint, JournaledObjective, StepRecord};
pub use wire::{TuneWireRequest, TuneWireResponse, TUNE_EXT_KIND};

use lmpeel_configspace::{ArraySize, Syr2kConfig};
use lmpeel_core::autotune::{
    DatasetObjective, GbdtSearch, Objective, ObjectiveError, RandomSearch, Tuner,
    TuningTrajectory,
};
use lmpeel_core::extract::extract_value;
use lmpeel_core::journal::size_ordinal;
use lmpeel_core::prompt::PromptBuilder;
use lmpeel_kernel::{measure, MeasureSpec, Syr2kProblem};
use lmpeel_lm::{InductionLm, LanguageModel, Sampler};
use lmpeel_perfdata::{CostModel, MachineModel, PerfDataset};
use lmpeel_recover::{JournalError, Recovery, RunJournal};
use lmpeel_serve::{shards_from_env, GenerateRequest, InferenceService};
use lmpeel_tokenizer::EOS;
use std::path::Path;
use lmpeel_serve::sync::RankedMutex;
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

/// What validating the winner on the real kernel nest observed. Only
/// `checksum_ok` (deterministic) flows into the cache; the wall-clock
/// median is for the caller's report.
#[derive(Debug, Clone, PartialEq)]
pub struct ValidationReport {
    /// Whether the configured nest matched the reference nest.
    pub checksum_ok: bool,
    /// `max |diff| / frobenius(reference)` between the two results.
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
/// the same admission/batching/prefix-cache path as the experiments (and
/// one iteration's pool scores share their prompt prefill).
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

impl<M: LanguageModel + 'static> ServiceLlmSearch<M> {
    /// Score `candidates` by submitting one generation per candidate to
    /// `service`, returning predicted runtimes (`INFINITY` where the
    /// response held no value).
    fn score_pool(
        &self,
        service: &InferenceService,
        builder: &PromptBuilder,
        examples: &[(lmpeel_configspace::Config, f64)],
        candidates: &[lmpeel_configspace::Config],
        seed: u64,
    ) -> Vec<f64> {
        let t = self.model.tokenizer();
        let stop = vec![t.vocab().token_id("\n").expect("newline"), t.special(EOS)];
        let handles: Vec<_> = candidates
            .iter()
            .enumerate()
            .map(|(i, cand)| {
                let ids = builder.discriminative(examples, cand).to_tokens(t);
                let request = GenerateRequest::builder("tune", ids)
                    .sampler(Sampler::paper())
                    .max_tokens(16)
                    .stop_tokens(stop.clone())
                    .trace_min_prob(1e-4)
                    .seed(seed ^ (i as u64 + 1))
                    .build()
                    .expect("valid surrogate request");
                service.submit(request).expect("service accepts while running")
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
    }
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
        use lmpeel_stats::{seeded_rng, SeedDomain};
        let space = objective.space().clone();
        let builder = PromptBuilder::new(space.clone(), objective.size());
        // Ephemeral service around the surrogate: one iteration's pool
        // shares its prompt prefill through the prefix cache.
        let service = InferenceService::builder()
            .model("tune", self.model.clone())
            .shards(shards_from_env())
            .queue_capacity(self.pool.max(1))
            .max_batch(self.pool.max(1))
            .build();
        let mut rng = seeded_rng(seed, SeedDomain::Custom(0x7E5E));
        let mut evaluated: Vec<(lmpeel_configspace::Config, f64)> = Vec::with_capacity(budget);
        let mut seen = std::collections::HashSet::new();
        for c in space.sample_distinct(self.init_random.min(budget), &mut rng) {
            seen.insert(space.index_of(&c));
            let r = objective.measure(&c)?;
            evaluated.push((c, r));
        }
        let mut step = 0u64;
        while evaluated.len() < budget {
            step += 1;
            let start = evaluated.len().saturating_sub(self.max_icl);
            let examples = evaluated[start..].to_vec();
            let pool: Vec<_> = space
                .sample_distinct(self.pool, &mut rng)
                .into_iter()
                .filter(|c| !seen.contains(&space.index_of(c)))
                .collect();
            if pool.is_empty() {
                break;
            }
            let scores = self.score_pool(&service, &builder, &examples, &pool, seed ^ step);
            let best = pool
                .into_iter()
                .zip(scores)
                .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
                .map(|(c, _)| c)
                .expect("pool checked non-empty");
            seen.insert(space.index_of(&best));
            let r = objective.measure(&best)?;
            evaluated.push((best, r));
        }
        Ok(TuningTrajectory { evaluated })
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
    pub fn open_for_machine(
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

    /// Number of committed cache entries.
    pub fn cache_len(&self) -> usize {
        self.cache.lock().len()
    }

    /// The canonical snapshot bytes the cache would publish.
    pub fn cache_snapshot(&self) -> Vec<u8> {
        self.cache.lock().snapshot_bytes()
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
        mut step_journal: Option<&mut RunJournal<StepRecord>>,
    ) -> Result<TuneReport, TuneError> {
        if request.kernel != KERNEL_SYR2K {
            return Err(TuneError::UnsupportedKernel(request.kernel.clone()));
        }
        if request.budget == 0 {
            return Err(TuneError::EmptyBudget);
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
        // real nest runs once, below, to validate the winner).
        let dataset = PerfDataset::generate(
            &CostModel {
                machine: self.machine,
                ..CostModel::paper()
            },
            request.size,
        );
        let strategies: [(u8, Box<dyn Tuner>); 3] = [
            (STRATEGY_RANDOM, Box::new(RandomSearch)),
            (STRATEGY_GBDT, Box::new(GbdtSearch::default())),
            (
                STRATEGY_LLM,
                Box::new(ServiceLlmSearch {
                    model: Arc::new(InductionLm::paper(0)),
                    init_random: 4,
                    pool: 4,
                    max_icl: 8,
                }),
            ),
        ];
        let mut ablation = Vec::with_capacity(strategies.len());
        let mut fresh = 0;
        let mut replayed = 0;
        for (ord, tuner) in &strategies {
            let mut inner = DatasetObjective::new(&dataset);
            let trajectory = match step_journal.as_deref_mut() {
                Some(journal) => {
                    let mut obj = JournaledObjective::new(&mut inner, journal, *ord);
                    let t = tuner
                        .run(&mut obj, request.budget, request.seed)
                        .map_err(TuneError::Search)?;
                    fresh += obj.fresh();
                    replayed += obj.replayed();
                    t
                }
                None => {
                    let t = tuner
                        .run(&mut inner, request.budget, request.seed)
                        .map_err(TuneError::Search)?;
                    fresh += t.evaluated.len();
                    t
                }
            };
            let (best_config, best_runtime) = trajectory.best();
            ablation.push(StrategyOutcome {
                ord: *ord,
                strategy: tuner.name(),
                best_runtime,
                best_index: dataset.space().index_of(best_config),
                evaluations: trajectory.evaluated.len(),
            });
        }

        // Winner: lowest surrogate runtime; ties go to the earlier
        // ordinal (stable, so resume cannot flip it).
        let winner = ablation
            .iter()
            .min_by(|a, b| {
                a.best_runtime
                    .partial_cmp(&b.best_runtime)
                    .unwrap()
                    .then(a.ord.cmp(&b.ord))
            })
            .expect("at least one strategy")
            .clone();

        // Validate the winning configuration on the real kernel nest.
        let config = dataset.space().config_at(winner.best_index);
        let cfg = Syr2kConfig::from_config(dataset.space(), &config);
        let validation = validate_on_kernel(request.size, cfg);

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
            fresh_measurements: fresh,
            replayed_measurements: replayed,
            ablation,
            validation: Some(validation),
        })
    }
}

/// Run the winning configuration on the real syr2k nest at `size`,
/// checking its result against the untransformed reference.
fn validate_on_kernel(size: ArraySize, cfg: Syr2kConfig) -> ValidationReport {
    let (m, n) = size.dims();
    let problem = Syr2kProblem::new(m, n);
    let reference = problem.run_reference();
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
    use lmpeel_recover::{CrashAfter, CrashMode};

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
        let snapshot = service.cache_snapshot();

        let second = service.tune(&req, None).unwrap();
        assert!(second.cache_hit);
        assert_eq!(second.fresh_measurements, 0, "a hit measures nothing");
        assert!(second.ablation.is_empty());
        assert!(second.validation.is_none());
        assert_eq!(second.entry, first.entry);
        assert_eq!(service.cache_snapshot(), snapshot, "hit leaves cache bytes");

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
        assert!(matches!(service.tune(&req, None), Err(TuneError::EmptyBudget)));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn crashed_tune_resumes_to_byte_identical_cache() {
        let (uninterrupted_cache, crashed_cache, steps) = (
            tmp("gold-cache"),
            tmp("crash-cache"),
            tmp("crash-steps"),
        );
        for p in [&uninterrupted_cache, &crashed_cache, &steps] {
            let _ = std::fs::remove_file(p);
        }
        let req = small_request();

        // Reference: one uninterrupted, unjournaled run.
        let (service, _) = TuneService::open(&uninterrupted_cache).unwrap();
        service.tune(&req, None).unwrap();
        let golden = std::fs::read(&uninterrupted_cache).unwrap();

        // Crash the journaled run at a mid-search commit boundary.
        let (service, _) = TuneService::open(&crashed_cache).unwrap();
        let fp = service.request_fingerprint(&req);
        {
            let (mut journal, _) = RunJournal::open(&steps, fp).unwrap();
            journal.crash_after(CrashAfter {
                commits: 7,
                mode: CrashMode::Error,
            });
            let err = service.tune(&req, Some(&mut journal)).unwrap_err();
            assert!(matches!(err, TuneError::Search(_)), "got: {err}");
        }
        assert_eq!(service.cache_len(), 0, "nothing committed before the crash");

        // Resume against the same journal: replays the prefix, finishes,
        // and the published cache matches the uninterrupted run exactly.
        let (mut journal, rc) = RunJournal::open(&steps, fp).unwrap();
        assert_eq!(rc.records, 7);
        let report = service.tune(&req, Some(&mut journal)).unwrap();
        assert!(!report.cache_hit);
        assert_eq!(report.replayed_measurements, 7);
        assert_eq!(
            std::fs::read(&crashed_cache).unwrap(),
            golden,
            "resumed cache file is byte-identical to the uninterrupted one"
        );
        for p in [&uninterrupted_cache, &crashed_cache, &steps] {
            std::fs::remove_file(p).unwrap();
        }
    }
}
