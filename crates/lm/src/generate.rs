//! The decoding loop.
//!
//! All loops here drive a [`DecodeSession`] rather than re-calling the
//! batch [`LanguageModel::logits`] per step: after the prompt prefill, each
//! generated token costs one incremental [`DecodeSession::logits`] call, so
//! substrates with native sessions decode in O(context) per step instead of
//! recomputing the whole context. Models without a native session fall back
//! to [`crate::session::FallbackSession`] and behave exactly as before.
//!
//! Every decode loop shares one sampling half, `decode_step_from` — the
//! only code that turns next-token logits into a [`GenStep`]:
//! [`generate_session`] runs a decode to completion; [`GenerationStepper`]
//! exposes the same loop one token at a time so the serve crate's
//! scheduler can interleave many in-flight generations (its
//! [`GenerationStepper::step_precomputed`] takes the logits the
//! scheduler's fused round computed for a whole group);
//! [`generate_with_number_hook`] splices provider values between steps;
//! and [`crate::constrain::generate_constrained`] masks the logits before
//! handing them over. Every loop keys its RNG by `(seed, prompt length)`,
//! so a stepped or fused generation is byte-identical to a sequential one
//! by construction, and so is a constrained one whose mask admits every
//! token.
//!
//! A step sorts the logits once: the finite logits are ranked into a
//! reusable `Ranking`, and the sampler's draw and the trace's raw
//! softmax both read that one order.

use crate::error::{LmError, MAX_TOKEN_BUDGET};
use crate::model::LanguageModel;
use crate::sampler::{Ranking, Sampler};
use crate::session::DecodeSession;
use crate::trace::{GenStep, GenerationTrace, TokenAlt};
use lmpeel_stats::{seeded_rng, SeedDomain};
use lmpeel_tokenizer::TokenId;
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

/// Generation parameters.
///
/// Construct via [`GenerateSpec::paper`] or [`GenerateSpec::builder`]; the
/// fields are private outside this crate so every externally-built spec has
/// passed [`GenerateSpecBuilder::build`] validation.
#[derive(Debug, Clone, PartialEq)]
pub struct GenerateSpec {
    /// Sampling policy.
    pub(crate) sampler: Sampler,
    /// Hard cap on generated tokens.
    pub(crate) max_tokens: usize,
    /// Tokens that end generation (sampled stop token is *not* included in
    /// the trace's steps).
    pub(crate) stop_tokens: Vec<TokenId>,
    /// Minimum probability for an alternative to be recorded in the trace
    /// (the "nonzero logit" cutoff of §III-C).
    pub(crate) trace_min_prob: f32,
    /// Sampling seed (the paper evaluates each prompt with three seeds).
    pub(crate) seed: u64,
}

impl GenerateSpec {
    /// Paper-style defaults with a given seed.
    pub fn paper(seed: u64) -> Self {
        Self {
            sampler: Sampler::paper(),
            max_tokens: 24,
            stop_tokens: vec![],
            trace_min_prob: 1e-3,
            seed,
        }
    }

    /// Start building a spec from neutral defaults (paper sampler, 24
    /// tokens, no stop tokens, 1e-3 trace floor, seed 0).
    pub fn builder() -> GenerateSpecBuilder {
        GenerateSpecBuilder {
            spec: GenerateSpec::paper(0),
        }
    }

    /// Re-open this spec as a builder to derive a modified copy.
    pub fn to_builder(&self) -> GenerateSpecBuilder {
        GenerateSpecBuilder { spec: self.clone() }
    }

    /// The sampling policy.
    pub fn sampler(&self) -> &Sampler {
        &self.sampler
    }

    /// Hard cap on generated tokens.
    pub fn max_tokens(&self) -> usize {
        self.max_tokens
    }

    /// Tokens that end generation early.
    pub fn stop_tokens(&self) -> &[TokenId] {
        &self.stop_tokens
    }

    /// Minimum probability for a trace alternative to be recorded.
    pub fn trace_min_prob(&self) -> f32 {
        self.trace_min_prob
    }

    /// The sampling seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The validation every decode entry point applies, shared with
    /// [`GenerateSpecBuilder::build`] so in-crate literal construction is
    /// held to the same rules as the builder.
    pub(crate) fn validate(&self) -> Result<(), LmError> {
        if self.max_tokens == 0 {
            return Err(LmError::ZeroMaxTokens);
        }
        if self.max_tokens > MAX_TOKEN_BUDGET {
            return Err(LmError::BudgetExhausted {
                requested: self.max_tokens,
                budget: MAX_TOKEN_BUDGET,
            });
        }
        if !self.trace_min_prob.is_finite() || self.trace_min_prob < 0.0 {
            return Err(LmError::InvalidSpec(format!(
                "trace_min_prob must be finite and non-negative, got {}",
                self.trace_min_prob
            )));
        }
        let s = &self.sampler;
        if !s.temperature.is_finite() || s.temperature < 0.0 {
            return Err(LmError::InvalidSpec(format!(
                "temperature must be finite and non-negative, got {}",
                s.temperature
            )));
        }
        if !s.top_p.is_finite() || s.top_p <= 0.0 || s.top_p > 1.0 {
            return Err(LmError::InvalidSpec(format!(
                "top_p must be in (0, 1], got {}",
                s.top_p
            )));
        }
        Ok(())
    }
}

/// Builder for [`GenerateSpec`]; the only way to assemble a custom spec
/// outside this crate. [`GenerateSpecBuilder::build`] validates the result.
#[derive(Debug, Clone)]
pub struct GenerateSpecBuilder {
    spec: GenerateSpec,
}

impl GenerateSpecBuilder {
    /// Set the sampling policy.
    pub fn sampler(mut self, sampler: Sampler) -> Self {
        self.spec.sampler = sampler;
        self
    }

    /// Set the hard cap on generated tokens.
    pub fn max_tokens(mut self, max_tokens: usize) -> Self {
        self.spec.max_tokens = max_tokens;
        self
    }

    /// Replace the stop-token set.
    pub fn stop_tokens(mut self, stop_tokens: Vec<TokenId>) -> Self {
        self.spec.stop_tokens = stop_tokens;
        self
    }

    /// Add one stop token.
    pub fn stop_token(mut self, token: TokenId) -> Self {
        self.spec.stop_tokens.push(token);
        self
    }

    /// Set the trace-recording probability floor.
    pub fn trace_min_prob(mut self, p: f32) -> Self {
        self.spec.trace_min_prob = p;
        self
    }

    /// Set the sampling seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.spec.seed = seed;
        self
    }

    /// Validate and return the spec.
    pub fn build(self) -> Result<GenerateSpec, LmError> {
        self.spec.validate()?;
        Ok(self.spec)
    }
}

/// One decode step over a session: record the raw distribution, sample,
/// honor stop tokens, append. Returns `Ok(Some(step))` when a token was
/// generated, `Ok(None)` when a stop token ended generation.
///
/// The trace records the *raw* softmax (temperature 1, no top-k/p) above
/// the `trace_min_prob` floor — the paper logs "all generated nonzero logit
/// values" before any sampling processors, and its central-decode analysis
/// (§IV-C) only comes out wrong-side-up if the rare off-magnitude
/// alternatives that sharpening and nucleus pruning would remove are kept
/// in the haystack.
fn decode_step(
    session: &mut dyn DecodeSession,
    spec: &GenerateSpec,
    rng: &mut ChaCha8Rng,
    scratch: &mut StepScratch,
) -> Result<Option<GenStep>, LmError> {
    session.logits_into(&mut scratch.logits);
    decode_step_from(session, &scratch.logits, spec, rng, &mut scratch.ranking)
}

/// The vocab-wide buffers one generation reuses across its decode steps:
/// the session's logits and the step's [`Ranking`].
#[derive(Debug, Default)]
pub(crate) struct StepScratch {
    pub(crate) logits: Vec<f32>,
    pub(crate) ranking: Ranking,
}

/// The sampling half of [`decode_step`], over logits the caller already
/// computed: the serve scheduler's fused round computes them for a whole
/// group in one forward pass, and [`crate::constrain::generate_constrained`]
/// masks them first. `logits` is what the step samples from and records,
/// so it must be the session's current next-token logits (masked or not).
/// Splitting here keeps every decode loop byte-identical by construction:
/// everything that consumes RNG state or mutates the session lives in this
/// one function.
///
/// The finite logits are ranked once per step, and that one order is
/// shared: the sampler's draw and the trace's raw softmax both read it
/// (`ranking` is the caller's reusable buffer). A stop token ends the step
/// before the trace half runs.
pub(crate) fn decode_step_from(
    session: &mut dyn DecodeSession,
    logits: &[f32],
    spec: &GenerateSpec,
    rng: &mut ChaCha8Rng,
    ranking: &mut Ranking,
) -> Result<Option<GenStep>, LmError> {
    if !ranking.rank(logits) {
        return Err(LmError::EmptyVocab);
    }
    let (chosen, chosen_prob) = spec.sampler.draw(ranking, logits, rng);
    if spec.stop_tokens.contains(&chosen) {
        return Ok(None);
    }
    let alternatives = ranking.alternatives(logits, spec.trace_min_prob);
    session.append(chosen);
    Ok(Some(GenStep {
        chosen,
        chosen_prob,
        alternatives,
    }))
}

/// Run the decoding loop: sample up to `max_tokens` tokens, recording the
/// full feasible distribution at every step.
///
/// The model is taken as `&Arc<M>` because the session it spins up co-owns
/// the model ([`LanguageModel::session`] takes `Arc<Self>`).
pub fn generate<M: LanguageModel + ?Sized>(
    model: &Arc<M>,
    prompt: &[TokenId],
    spec: &GenerateSpec,
) -> Result<GenerationTrace, LmError> {
    let mut session = Arc::clone(model).session();
    session.extend(prompt);
    generate_session(&mut *session, spec)
}

/// The decoding loop over an already-prefilled [`DecodeSession`]: the
/// session's current contents are the prompt, and up to `max_tokens`
/// further tokens are sampled and appended. This is the entry point for
/// prompt-prefix sharing — prefill one session, then [`DecodeSession::fork`]
/// it per sampling seed and hand each fork here.
///
/// Trace semantics are identical to [`generate`]: the sampling RNG is keyed
/// by `(spec.seed, prompt length)`, every step records the raw softmax above
/// `trace_min_prob`, and a sampled stop token ends generation without being
/// recorded.
pub fn generate_session(
    session: &mut dyn DecodeSession,
    spec: &GenerateSpec,
) -> Result<GenerationTrace, LmError> {
    spec.validate()?;
    let prompt_len = session.len();
    let mut rng = seeded_rng(spec.seed, SeedDomain::Sampling(prompt_len as u64));
    let mut steps = Vec::new();
    let mut stopped_naturally = false;
    let mut scratch = StepScratch::default();

    for _ in 0..spec.max_tokens {
        match decode_step(session, spec, &mut rng, &mut scratch)? {
            Some(step) => steps.push(step),
            None => {
                stopped_naturally = true;
                break;
            }
        }
    }

    Ok(GenerationTrace {
        prompt_len,
        steps,
        stopped_naturally,
    })
}

/// The decoding loop as an explicit state machine: one sampled token per
/// [`GenerationStepper::step`] call.
///
/// This is what lets a scheduler interleave many generations — it can hold
/// a `Vec<GenerationStepper>`, advance each in-flight request one token per
/// scheduling round, admit new requests between rounds, and retire finished
/// ones immediately. Stepping shares `decode_step` and the RNG keying with
/// [`generate_session`], so for any interleaving the finished trace is
/// byte-identical to running `generate_session` on the same session and
/// spec.
pub struct GenerationStepper {
    session: Box<dyn DecodeSession>,
    spec: GenerateSpec,
    rng: ChaCha8Rng,
    prompt_len: usize,
    steps: Vec<GenStep>,
    stopped_naturally: bool,
    finished: bool,
    errored: bool,
    /// Step buffers reused across tokens (no per-token allocation beyond
    /// the recorded trace).
    scratch: StepScratch,
}

impl GenerationStepper {
    /// Wrap an already-prefilled session (its current contents are the
    /// prompt). Validates the spec up front so a malformed request fails at
    /// admission, not mid-decode.
    pub fn new(session: Box<dyn DecodeSession>, spec: GenerateSpec) -> Result<Self, LmError> {
        spec.validate()?;
        let prompt_len = session.len();
        let rng = seeded_rng(spec.seed, SeedDomain::Sampling(prompt_len as u64));
        Ok(Self {
            session,
            spec,
            rng,
            prompt_len,
            steps: Vec::new(),
            stopped_naturally: false,
            finished: false,
            errored: false,
            scratch: StepScratch::default(),
        })
    }

    /// Advance one token. Returns `Ok(true)` while the generation can still
    /// make progress, `Ok(false)` once it finished (stop token or budget).
    /// After an error or completion, further calls return `Ok(false)`.
    pub fn step(&mut self) -> Result<bool, LmError> {
        if self.finished {
            return Ok(false);
        }
        let result = decode_step(
            self.session.as_mut(),
            &self.spec,
            &mut self.rng,
            &mut self.scratch,
        );
        self.settle(result)
    }

    /// Advance one token using logits the caller already computed for this
    /// session — the batched-decode entry point. `logits` **must** be
    /// bitwise what [`DecodeSession::logits`] would return right now (a
    /// fused [`crate::session::BatchDriver::logits_batch`] lane satisfies
    /// this by contract); everything downstream of the logits — trace
    /// recording, RNG consumption, stop handling, the append — is the very
    /// code [`step`] runs, so a precomputed step is byte-identical to a
    /// single-lane one.
    ///
    /// [`step`]: GenerationStepper::step
    pub fn step_precomputed(&mut self, logits: &[f32]) -> Result<bool, LmError> {
        if self.finished {
            return Ok(false);
        }
        let result = decode_step_from(
            self.session.as_mut(),
            logits,
            &self.spec,
            &mut self.rng,
            &mut self.scratch.ranking,
        );
        self.settle(result)
    }

    /// Shared bookkeeping tail of [`step`] / [`step_precomputed`].
    ///
    /// [`step`]: GenerationStepper::step
    /// [`step_precomputed`]: GenerationStepper::step_precomputed
    fn settle(&mut self, result: Result<Option<GenStep>, LmError>) -> Result<bool, LmError> {
        match result {
            Ok(Some(step)) => {
                self.steps.push(step);
                if self.steps.len() >= self.spec.max_tokens {
                    self.finished = true;
                }
                Ok(!self.finished)
            }
            Ok(None) => {
                self.stopped_naturally = true;
                self.finished = true;
                Ok(false)
            }
            Err(e) => {
                self.finished = true;
                self.errored = true;
                Err(e)
            }
        }
    }

    /// Read-only view of the underlying session, for batched-decode
    /// drivers that need the lane's state to compute its logits.
    pub fn session(&self) -> &dyn DecodeSession {
        self.session.as_ref()
    }

    /// The session's batch-group handle (see
    /// [`DecodeSession::batch_driver`]): `Some` when this lane's substrate
    /// can fuse it with same-key lanes into one forward pass.
    pub fn batch_driver(&self) -> Option<crate::session::BatchDriverRef<'_>> {
        self.session.batch_driver()
    }

    /// Re-arm a stepper frozen by a decode error so the next [`step`] call
    /// retries the failed token. Returns `true` iff the stepper was in the
    /// errored state (freshly constructed, finished, or aborted steppers
    /// are untouched and return `false`).
    ///
    /// The retried step is deterministic: `decode_step` reports an error
    /// *before* consuming RNG state or appending to the session, so a
    /// retry that succeeds produces the exact trace an error-free run
    /// would have — the basis of the serve layer's transient-error retry
    /// budget.
    ///
    /// [`step`]: GenerationStepper::step
    pub fn retry(&mut self) -> bool {
        if self.errored {
            self.errored = false;
            self.finished = false;
            true
        } else {
            false
        }
    }

    /// True once the generation cannot advance further.
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// Abandon the generation: mark it finished so further [`step`] calls
    /// are no-ops and [`into_trace`] returns the partial trace accumulated
    /// so far (with `stopped_naturally == false`). This is the cooperative
    /// cancellation point a scheduler uses when a request is cancelled or
    /// blows its deadline mid-decode — the session is simply never stepped
    /// again, so no model state is torn down mid-token.
    ///
    /// [`step`]: GenerationStepper::step
    /// [`into_trace`]: GenerationStepper::into_trace
    pub fn abort(&mut self) {
        self.finished = true;
    }

    /// Tokens this generation may still produce under the spec's
    /// `max_tokens` budget. Schedulers use this to bound how many more
    /// rounds a request can possibly occupy a batch slot.
    pub fn budget_remaining(&self) -> usize {
        if self.finished {
            0
        } else {
            self.spec.max_tokens.saturating_sub(self.steps.len())
        }
    }

    /// Tokens generated so far.
    pub fn tokens_generated(&self) -> usize {
        self.steps.len()
    }

    /// Prompt length captured at construction.
    pub fn prompt_len(&self) -> usize {
        self.prompt_len
    }

    /// Consume the stepper into the finished trace.
    pub fn into_trace(self) -> GenerationTrace {
        GenerationTrace {
            prompt_len: self.prompt_len,
            steps: self.steps,
            stopped_naturally: self.stopped_naturally,
        }
    }
}

/// §V-D future-work decoding: "an LLM can be given a unique token to signal
/// to a supporting model that a number should be generated at a particular
/// position within its response. This mimics modern LLM tool usage patterns
/// by providing a hook for any number-generating process to transparently
/// assist the LLM."
///
/// This loop runs exactly like [`generate`], but whenever the context sits
/// at the start of a numeric value (detected via
/// [`crate::induction::prior::value_state`]), the `number_provider` is
/// consulted. If it supplies a value, the formatted digits are spliced into
/// the stream verbatim (each spliced step records a single-possibility
/// alternative, like a tool-call result) and the LM resumes for the
/// surrounding scaffold.
pub fn generate_with_number_hook<M, F>(
    model: &Arc<M>,
    prompt: &[TokenId],
    spec: &GenerateSpec,
    mut number_provider: F,
) -> Result<GenerationTrace, LmError>
where
    M: LanguageModel + ?Sized,
    F: FnMut(&[TokenId]) -> Option<String>,
{
    use crate::induction::prior::{value_state, ValueState};
    spec.validate()?;
    let mut rng = seeded_rng(spec.seed, SeedDomain::Sampling(prompt.len() as u64));
    let mut session = Arc::clone(model).session();
    session.extend(prompt);
    let mut steps = Vec::new();
    let mut stopped_naturally = false;
    let mut scratch = StepScratch::default();
    let tokenizer = model.tokenizer();

    while steps.len() < spec.max_tokens {
        // Numeric hook: at a value onset, let the supporting model fill in
        // the number.
        if value_state(session.tokens(), tokenizer) == Some(ValueState::Start) {
            if let Some(text) = number_provider(session.tokens()) {
                for id in tokenizer.encode(&text) {
                    if steps.len() >= spec.max_tokens {
                        break;
                    }
                    steps.push(GenStep {
                        chosen: id,
                        chosen_prob: 1.0,
                        alternatives: vec![TokenAlt { id, prob: 1.0 }],
                    });
                    session.append(id);
                }
                // The number is complete; only scaffold remains.
                continue;
            }
        }
        match decode_step(&mut *session, spec, &mut rng, &mut scratch)? {
            Some(step) => steps.push(step),
            None => {
                stopped_naturally = true;
                break;
            }
        }
    }
    Ok(GenerationTrace {
        prompt_len: prompt.len(),
        steps,
        stopped_naturally,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::testutil::CycleLm;
    use lmpeel_tokenizer::Tokenizer;

    fn cycle_model() -> Arc<CycleLm> {
        let t = Tokenizer::paper();
        let cycle = vec![t.encode("a")[0], t.encode("b")[0], t.encode("c")[0]];
        Arc::new(CycleLm {
            tokenizer: t,
            cycle,
        })
    }

    #[test]
    fn greedy_follows_the_cycle() {
        let m = cycle_model();
        let prompt = m.tokenizer.encode("a");
        let spec = GenerateSpec {
            sampler: Sampler::greedy(),
            max_tokens: 5,
            stop_tokens: vec![],
            trace_min_prob: 0.0,
            seed: 0,
        };
        let trace = generate(&m, &prompt, &spec).unwrap();
        assert_eq!(trace.decode(&m.tokenizer), "bcabc");
        assert_eq!(trace.prompt_len, 1);
        assert!(!trace.stopped_naturally);
    }

    #[test]
    fn stop_token_ends_generation_early() {
        let m = cycle_model();
        let prompt = m.tokenizer.encode("a");
        let stop = m.tokenizer.encode("c")[0];
        let spec = GenerateSpec {
            sampler: Sampler::greedy(),
            max_tokens: 10,
            stop_tokens: vec![stop],
            trace_min_prob: 0.0,
            seed: 0,
        };
        let trace = generate(&m, &prompt, &spec).unwrap();
        assert_eq!(trace.decode(&m.tokenizer), "b");
        assert!(trace.stopped_naturally);
    }

    #[test]
    fn same_seed_reproduces_identical_traces() {
        let m = cycle_model();
        let prompt = m.tokenizer.encode("ab");
        let spec = GenerateSpec::paper(7);
        let a = generate(&m, &prompt, &spec).unwrap();
        let b = generate(&m, &prompt, &spec).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_can_sample_differently_but_share_token_sets() {
        let m = cycle_model();
        let prompt = m.tokenizer.encode("a");
        let mk = |seed| GenerateSpec {
            sampler: Sampler {
                temperature: 2.0,
                top_k: 0,
                top_p: 1.0,
            },
            max_tokens: 6,
            stop_tokens: vec![],
            trace_min_prob: 1e-6,
            seed,
        };
        let a = generate(&m, &prompt, &mk(1)).unwrap();
        let b = generate(&m, &prompt, &mk(2)).unwrap();
        // The *feasible sets* at step 0 are identical (model is
        // deterministic); only the draw may differ.
        let ids = |t: &GenerationTrace| {
            t.steps[0]
                .alternatives
                .iter()
                .map(|x| x.id)
                .collect::<Vec<_>>()
        };
        assert_eq!(ids(&a), ids(&b));
    }

    #[test]
    fn trace_threshold_prunes_rare_alternatives() {
        let m = cycle_model();
        let prompt = m.tokenizer.encode("a");
        let loose = GenerateSpec {
            sampler: Sampler {
                temperature: 1.0,
                top_k: 0,
                top_p: 1.0,
            },
            max_tokens: 1,
            stop_tokens: vec![],
            trace_min_prob: 0.0,
            seed: 3,
        };
        let tight = GenerateSpec {
            trace_min_prob: 0.5,
            ..loose.clone()
        };
        let full = generate(&m, &prompt, &loose).unwrap();
        let pruned = generate(&m, &prompt, &tight).unwrap();
        assert!(pruned.steps[0].num_possibilities() <= full.steps[0].num_possibilities());
        assert!(pruned.steps[0].num_possibilities() >= 1);
    }

    #[test]
    fn trace_alternatives_are_allocated_at_their_length() {
        // A step's alternatives outlive the step; a vocab-wide capacity
        // behind a handful of entries would be retained for every token.
        let m = Arc::new(crate::InductionLm::paper(0));
        let prompt = m.tokenizer().encode(
            "tile is 80\nPerformance: 0.0022155\n\
             tile is 16\nPerformance: 0.0051230\n\
             tile is 128\nPerformance: ",
        );
        for seed in 0..3 {
            let trace = generate(&m, &prompt, &GenerateSpec::paper(seed)).unwrap();
            assert!(!trace.steps.is_empty());
            for step in &trace.steps {
                let alts = &step.alternatives;
                assert!(
                    alts.capacity() <= alts.len().next_power_of_two(),
                    "{} alternatives held at capacity {}",
                    alts.len(),
                    alts.capacity()
                );
            }
        }
    }

    #[test]
    fn builder_round_trips_and_validates() {
        let spec = GenerateSpec::builder()
            .sampler(Sampler::greedy())
            .max_tokens(7)
            .stop_token(3)
            .trace_min_prob(0.25)
            .seed(42)
            .build()
            .unwrap();
        assert_eq!(spec.max_tokens(), 7);
        assert_eq!(spec.stop_tokens(), &[3]);
        assert_eq!(spec.seed(), 42);
        assert_eq!(spec.sampler(), &Sampler::greedy());
        assert_eq!(spec.trace_min_prob(), 0.25);

        // to_builder derives modified copies without mutating the source.
        let derived = spec.to_builder().seed(43).build().unwrap();
        assert_eq!(derived.seed(), 43);
        assert_eq!(derived.max_tokens(), spec.max_tokens());

        assert_eq!(
            GenerateSpec::builder().max_tokens(0).build().unwrap_err(),
            LmError::ZeroMaxTokens
        );
        assert_eq!(
            GenerateSpec::builder()
                .max_tokens(MAX_TOKEN_BUDGET + 1)
                .build()
                .unwrap_err(),
            LmError::BudgetExhausted {
                requested: MAX_TOKEN_BUDGET + 1,
                budget: MAX_TOKEN_BUDGET
            }
        );
        assert!(matches!(
            GenerateSpec::builder().trace_min_prob(f32::NAN).build(),
            Err(LmError::InvalidSpec(_))
        ));
        assert!(matches!(
            GenerateSpec::builder()
                .sampler(Sampler {
                    temperature: -1.0,
                    top_k: 0,
                    top_p: 1.0
                })
                .build(),
            Err(LmError::InvalidSpec(_))
        ));
        assert!(matches!(
            GenerateSpec::builder()
                .sampler(Sampler {
                    temperature: 1.0,
                    top_k: 0,
                    top_p: 0.0
                })
                .build(),
            Err(LmError::InvalidSpec(_))
        ));
    }

    #[test]
    fn invalid_specs_are_rejected_by_every_entry_point() {
        let m = cycle_model();
        let prompt = m.tokenizer.encode("a");
        let bad = GenerateSpec {
            max_tokens: 0,
            ..GenerateSpec::paper(0)
        };
        assert_eq!(
            generate(&m, &prompt, &bad).unwrap_err(),
            LmError::ZeroMaxTokens
        );
        let mut s = m.clone().session();
        s.extend(&prompt);
        assert_eq!(
            generate_session(&mut *s, &bad).unwrap_err(),
            LmError::ZeroMaxTokens
        );
        assert_eq!(
            GenerationStepper::new(m.clone().session(), bad)
                .err()
                .unwrap(),
            LmError::ZeroMaxTokens
        );
    }

    #[test]
    fn empty_vocab_is_an_error_not_a_panic() {
        struct Mute(Tokenizer);
        impl LanguageModel for Mute {
            fn tokenizer(&self) -> &Tokenizer {
                &self.0
            }
            fn logits(&self, _c: &[TokenId]) -> Vec<f32> {
                vec![f32::NEG_INFINITY; self.0.vocab().len()]
            }
            fn name(&self) -> String {
                "mute".into()
            }
        }
        let m = Arc::new(Mute(Tokenizer::paper()));
        let prompt = m.0.encode("a");
        let spec = GenerateSpec::paper(0);
        assert_eq!(
            generate(&m, &prompt, &spec).unwrap_err(),
            LmError::EmptyVocab
        );
    }

    #[test]
    fn stepper_matches_generate_session_exactly() {
        let m = cycle_model();
        let prompt = m.tokenizer.encode("ab");
        for seed in 0..4u64 {
            let spec = GenerateSpec::paper(seed);
            let mut s = m.clone().session();
            s.extend(&prompt);
            let sequential = generate_session(&mut *s, &spec).unwrap();

            let mut fresh = m.clone().session();
            fresh.extend(&prompt);
            let mut stepper = GenerationStepper::new(fresh, spec).unwrap();
            while stepper.step().unwrap() {}
            assert!(stepper.is_finished());
            assert_eq!(stepper.into_trace(), sequential);
        }
    }

    #[test]
    fn stepper_honors_stop_tokens_and_reports_progress() {
        let m = cycle_model();
        let prompt = m.tokenizer.encode("a");
        let stop = m.tokenizer.encode("c")[0];
        let spec = GenerateSpec {
            sampler: Sampler::greedy(),
            max_tokens: 10,
            stop_tokens: vec![stop],
            trace_min_prob: 0.0,
            seed: 0,
        };
        let mut s = m.clone().session();
        s.extend(&prompt);
        let mut stepper = GenerationStepper::new(s, spec).unwrap();
        assert_eq!(stepper.prompt_len(), 1);
        assert!(stepper.step().unwrap(), "first step generates 'b'");
        assert_eq!(stepper.tokens_generated(), 1);
        assert!(!stepper.step().unwrap(), "second step hits the stop token");
        assert!(stepper.is_finished());
        assert!(!stepper.step().unwrap(), "finished steppers stay finished");
        let trace = stepper.into_trace();
        assert_eq!(trace.decode(&m.tokenizer), "b");
        assert!(trace.stopped_naturally);
    }

    #[test]
    fn number_hook_splices_provider_values() {
        use lmpeel_tokenizer::Tokenizer;
        // A context that sits at a value onset: the hook must fire and the
        // provider's digits must appear verbatim with probability 1.
        struct Flat(Tokenizer);
        impl crate::model::LanguageModel for Flat {
            fn tokenizer(&self) -> &Tokenizer {
                &self.0
            }
            fn logits(&self, _c: &[lmpeel_tokenizer::TokenId]) -> Vec<f32> {
                let mut l = vec![f32::NEG_INFINITY; self.0.vocab().len()];
                l[self.0.vocab().token_id("\n").unwrap() as usize] = 0.0;
                l
            }
            fn name(&self) -> String {
                "flat".into()
            }
        }
        let m = Arc::new(Flat(Tokenizer::paper()));
        let prompt = m.0.encode("Performance: ");
        let spec = GenerateSpec {
            sampler: Sampler::greedy(),
            max_tokens: 10,
            stop_tokens: vec![m.0.vocab().token_id("\n").unwrap()],
            trace_min_prob: 0.0,
            seed: 0,
        };
        let mut calls = 0;
        let trace = generate_with_number_hook(&m, &prompt, &spec, |_ctx| {
            calls += 1;
            Some("0.0042000".to_string())
        })
        .unwrap();
        assert_eq!(calls, 1, "hook fires exactly once per value");
        let text = trace.decode(&m.0);
        assert!(text.starts_with("0.0042000"), "got {text:?}");
        // Spliced steps are certain.
        assert!(trace.steps[..5].iter().all(|s| s.chosen_prob == 1.0));
        assert!(trace.stopped_naturally);
    }

    #[test]
    fn number_hook_falls_back_to_the_lm_when_provider_declines() {
        let m = cycle_model();
        let prompt = m.tokenizer.encode("a");
        let spec = GenerateSpec {
            sampler: Sampler::greedy(),
            max_tokens: 3,
            stop_tokens: vec![],
            trace_min_prob: 0.0,
            seed: 0,
        };
        let plain = generate(&m, &prompt, &spec).unwrap();
        let hooked = generate_with_number_hook(&m, &prompt, &spec, |_| None).unwrap();
        assert_eq!(plain, hooked, "declining provider must be a no-op");
    }

    #[test]
    fn native_sessions_never_touch_the_batch_logits_path() {
        use crate::session::DecodeSession;
        use std::sync::atomic::{AtomicUsize, Ordering};

        // A model that counts batch `logits` calls and owns a native
        // session computing the same distribution without them. With such a
        // session, `generate` must perform zero full-context logit
        // recomputations — prefill included.
        struct CountingLm {
            tokenizer: Tokenizer,
            cycle: Vec<lmpeel_tokenizer::TokenId>,
            batch_calls: AtomicUsize,
        }

        impl CountingLm {
            fn next_logits(&self, last: Option<&lmpeel_tokenizer::TokenId>) -> Vec<f32> {
                let mut logits = vec![f32::NEG_INFINITY; self.tokenizer.vocab().len()];
                let next = match last {
                    Some(last) => {
                        let pos = self.cycle.iter().position(|t| t == last).unwrap_or(0);
                        self.cycle[(pos + 1) % self.cycle.len()]
                    }
                    None => self.cycle[0],
                };
                logits[next as usize] = 1.0;
                logits
            }
        }

        struct CountingSession {
            model: Arc<CountingLm>,
            tokens: Vec<lmpeel_tokenizer::TokenId>,
        }

        impl DecodeSession for CountingSession {
            fn tokens(&self) -> &[lmpeel_tokenizer::TokenId] {
                &self.tokens
            }
            fn append(&mut self, token: lmpeel_tokenizer::TokenId) {
                self.tokens.push(token);
            }
            fn logits(&self) -> Vec<f32> {
                self.model.next_logits(self.tokens.last())
            }
            fn fork(&self) -> Box<dyn DecodeSession> {
                Box::new(CountingSession {
                    model: Arc::clone(&self.model),
                    tokens: self.tokens.clone(),
                })
            }
        }

        impl LanguageModel for CountingLm {
            fn tokenizer(&self) -> &Tokenizer {
                &self.tokenizer
            }
            fn logits(&self, context: &[lmpeel_tokenizer::TokenId]) -> Vec<f32> {
                self.batch_calls.fetch_add(1, Ordering::SeqCst);
                self.next_logits(context.last())
            }
            fn name(&self) -> String {
                "counting-test-lm".into()
            }
            fn session(self: Arc<Self>) -> Box<dyn DecodeSession> {
                Box::new(CountingSession {
                    model: self,
                    tokens: Vec::new(),
                })
            }
        }

        let t = Tokenizer::paper();
        let cycle = vec![t.encode("a")[0], t.encode("b")[0], t.encode("c")[0]];
        let prompt = t.encode("abcab");
        let m = Arc::new(CountingLm {
            tokenizer: t,
            cycle,
            batch_calls: AtomicUsize::new(0),
        });
        let spec = GenerateSpec {
            sampler: Sampler::greedy(),
            max_tokens: 8,
            stop_tokens: vec![],
            trace_min_prob: 0.0,
            seed: 0,
        };
        let trace = generate(&m, &prompt, &spec).unwrap();
        assert_eq!(trace.decode(&m.tokenizer), "cabcabca");
        assert_eq!(
            m.batch_calls.load(Ordering::SeqCst),
            0,
            "a native session must fully bypass batch logits"
        );

        // Control: the same distribution through the default fallback
        // session pays one batch call per generated token.
        let mut s = crate::session::FallbackSession::new(Arc::clone(&m));
        s.extend(&prompt);
        let via_fallback = generate_session(&mut s, &spec).unwrap();
        assert_eq!(via_fallback.decode(&m.tokenizer), "cabcabca");
        assert_eq!(
            m.batch_calls.load(Ordering::SeqCst),
            spec.max_tokens,
            "one batch call per step"
        );
    }

    #[test]
    fn abort_freezes_the_stepper_and_keeps_the_partial_trace() {
        let m = cycle_model();
        let prompt = m.tokenizer.encode("a");
        let spec = GenerateSpec {
            sampler: Sampler::greedy(),
            max_tokens: 10,
            stop_tokens: vec![],
            trace_min_prob: 0.0,
            seed: 0,
        };
        let mut s = m.clone().session();
        s.extend(&prompt);
        let mut stepper = GenerationStepper::new(s, spec).unwrap();
        assert_eq!(stepper.budget_remaining(), 10);
        assert!(stepper.step().unwrap());
        assert_eq!(stepper.budget_remaining(), 9);
        stepper.abort();
        assert!(stepper.is_finished());
        assert_eq!(stepper.budget_remaining(), 0);
        assert!(!stepper.step().unwrap(), "aborted steppers never advance");
        let trace = stepper.into_trace();
        assert_eq!(trace.decode(&m.tokenizer), "b", "partial trace survives");
        assert!(!trace.stopped_naturally);
    }

    #[test]
    fn retry_after_transient_error_reproduces_the_healthy_trace() {
        use std::sync::atomic::{AtomicUsize, Ordering};

        // All-(-inf) logits on exactly the `fail_at`-th logits call, the
        // cycle distribution otherwise: one transient EmptyVocab.
        struct Flaky {
            tokenizer: Tokenizer,
            cycle: Vec<TokenId>,
            calls: AtomicUsize,
            fail_at: usize,
        }
        impl LanguageModel for Flaky {
            fn tokenizer(&self) -> &Tokenizer {
                &self.tokenizer
            }
            fn logits(&self, context: &[TokenId]) -> Vec<f32> {
                let call = self.calls.fetch_add(1, Ordering::SeqCst);
                let mut logits = vec![f32::NEG_INFINITY; self.tokenizer.vocab().len()];
                if call != self.fail_at {
                    let next = match context.last() {
                        Some(last) => {
                            let pos = self.cycle.iter().position(|t| t == last).unwrap_or(0);
                            self.cycle[(pos + 1) % self.cycle.len()]
                        }
                        None => self.cycle[0],
                    };
                    logits[next as usize] = 1.0;
                }
                logits
            }
            fn name(&self) -> String {
                "flaky-test-lm".into()
            }
        }

        let t = Tokenizer::paper();
        let cycle = vec![t.encode("a")[0], t.encode("b")[0], t.encode("c")[0]];
        let prompt = t.encode("a");
        let spec = GenerateSpec {
            sampler: Sampler::greedy(),
            max_tokens: 5,
            stop_tokens: vec![],
            trace_min_prob: 0.0,
            seed: 0,
        };
        let healthy = Arc::new(Flaky {
            tokenizer: t.clone(),
            cycle: cycle.clone(),
            calls: AtomicUsize::new(0),
            fail_at: usize::MAX,
        });
        let want = generate(&healthy, &prompt, &spec).unwrap();

        let flaky = Arc::new(Flaky {
            tokenizer: t,
            cycle,
            calls: AtomicUsize::new(0),
            // Fail the third logits call (mid-generation).
            fail_at: 2,
        });
        let mut s = flaky.clone().session();
        s.extend(&prompt);
        let mut stepper = GenerationStepper::new(s, spec.clone()).unwrap();
        let mut errors = 0;
        loop {
            match stepper.step() {
                Ok(true) => {}
                Ok(false) => break,
                Err(LmError::EmptyVocab) => {
                    errors += 1;
                    assert!(stepper.is_finished(), "errors freeze the stepper");
                    assert!(stepper.retry(), "an errored stepper re-arms");
                }
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert_eq!(errors, 1);
        assert_eq!(
            stepper.into_trace(),
            want,
            "a retried run is byte-identical to an error-free one"
        );

        // retry() is a no-op on steppers that did not error.
        let mut s = cycle_model().session();
        s.extend(&prompt);
        let mut fresh = GenerationStepper::new(s, spec).unwrap();
        assert!(!fresh.retry(), "fresh steppers are not retryable");
        fresh.abort();
        assert!(!fresh.retry(), "aborted steppers are not retryable");
    }

    #[test]
    fn logits_into_default_matches_logits() {
        let m = cycle_model();
        let ctx = m.tokenizer.encode("abcab");
        let mut s = m.clone().session();
        s.extend(&ctx);
        let mut buf = vec![9.0; 3];
        s.logits_into(&mut buf);
        assert_eq!(buf, s.logits());
        assert!(s.as_any().is_none(), "fallback sessions are opaque");
        assert!(s.batch_driver().is_none(), "fallback sessions fuse nothing");
    }

    #[test]
    fn max_tokens_caps_length() {
        let m = cycle_model();
        let prompt = m.tokenizer.encode("a");
        let spec = GenerateSpec {
            max_tokens: 3,
            ..GenerateSpec::paper(1)
        };
        let trace = generate(&m, &prompt, &spec).unwrap();
        assert!(trace.steps.len() <= 3);
    }
}
