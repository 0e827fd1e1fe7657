//! The decoding loop.
//!
//! All loops here drive a [`DecodeSession`] rather than re-calling the
//! batch [`LanguageModel::logits`] per step: after the prompt prefill, each
//! generated token costs one incremental [`DecodeSession::logits`] call, so
//! substrates with native sessions decode in O(context) per step instead of
//! recomputing the whole context. Models without a native session fall back
//! to [`crate::session::FallbackSession`] and behave exactly as before.
//!
//! A generation's decode state lives in one core, `Decode`: the spec, the
//! sampling RNG keyed by `(seed, prompt length)`, the recorded steps, the
//! stop and finished flags and the reused step buffers. Its `step` is the
//! only code that turns next-token logits into a [`GenStep`], and its
//! `into_trace` the only code that builds a [`GenerationTrace`]. Four
//! drivers run it: [`generate_session`] steps it to completion;
//! [`GenerationStepper`] owns a session beside it and advances one token
//! per [`GenerationStepper::step`], so the serve crate's scheduler can
//! interleave many in-flight generations and hand each lane the logits its
//! fused round computed for a whole group;
//! [`generate_with_number_hook`] splices provider values between steps;
//! and [`crate::constrain::generate_constrained`] masks the logits into a
//! buffer of its own and steps on those. A stepped, fused or hooked
//! generation is therefore byte-identical to a sequential one by
//! construction, and so is a constrained one whose mask admits every
//! token.
//!
//! A step that records a trace sorts the logits once: the finite logits
//! are ranked into a reusable `Ranking`, and the sampler's draw and the
//! trace's raw softmax both read that one order. A step whose
//! `trace_min_prob` is above 1 can record nothing, so it is draw-only: it
//! skips the raw softmax and ranks only the head of the order that its
//! draw can reach.

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
    /// (the "nonzero logit" cutoff of §III-C). Above 1 no alternative can
    /// be recorded: every step's `alternatives` is empty and the step skips
    /// the raw softmax and the full sort (a draw-only step).
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

    /// Set the trace-recording probability floor. A floor above 1 records
    /// no alternatives, and each step then skips the raw softmax and ranks
    /// only the logits its draw can reach; the drawn tokens and their
    /// probabilities are bitwise those of any lower floor.
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

/// One generation's decode state, the core every decode loop drives: the
/// spec, the sampling RNG keyed by `(seed, prompt length)`, the recorded
/// steps, the stop and finished flags, and the vocab-wide buffers (the
/// session's logits and the step's [`Ranking`]) reused across tokens. The
/// session stays with the driver and is lent to each call.
pub(crate) struct Decode {
    spec: GenerateSpec,
    rng: ChaCha8Rng,
    prompt_len: usize,
    steps: Vec<GenStep>,
    stopped_naturally: bool,
    finished: bool,
    logits: Vec<f32>,
    ranking: Ranking,
}

impl Decode {
    /// Validate `spec` and key the sampling RNG by `(spec.seed,
    /// prompt_len)`, so a malformed spec fails before any decode work.
    pub(crate) fn new(spec: GenerateSpec, prompt_len: usize) -> Result<Self, LmError> {
        spec.validate()?;
        Ok(Self {
            rng: seeded_rng(spec.seed, SeedDomain::Sampling(prompt_len as u64)),
            spec,
            prompt_len,
            steps: Vec::new(),
            stopped_naturally: false,
            finished: false,
            logits: Vec::new(),
            ranking: Ranking::default(),
        })
    }

    /// Advance one token: sample from `logits`, or from the session's own
    /// next-token logits when `None`, honor the stop set, record and
    /// append. Returns `Ok(true)` while the generation can still advance
    /// and `Ok(false)` once it finished (stop token or `max_tokens`); a
    /// finished core never steps again.
    ///
    /// `Some(logits)` must be what the step should sample from: the
    /// session's current next-token logits, bitwise (a fused
    /// [`crate::session::BatchDriver::logits_batch`] lane by contract), or
    /// a constraint's mask of them. Everything downstream of the logits is
    /// this one function, so every driver's trace is byte-identical by
    /// construction.
    ///
    /// The trace records the *raw* softmax (temperature 1, no top-k/p)
    /// above the `trace_min_prob` floor — the paper logs "all generated
    /// nonzero logit values" before any sampling processors, and its
    /// central-decode analysis (§IV-C) only comes out wrong-side-up if the
    /// rare off-magnitude alternatives that sharpening and nucleus pruning
    /// would remove are kept in the haystack. A `trace_min_prob` above 1
    /// skips that record (a draw-only step, see the module docs), and a
    /// stop token ends the step before it.
    ///
    /// An error ([`LmError::EmptyVocab`]) is reported before the RNG is
    /// drawn or anything is recorded or appended, so it leaves the core as
    /// it was: the next call retries the same token, and a retry that
    /// succeeds records exactly what an error-free run would have.
    pub(crate) fn step(
        &mut self,
        session: &mut dyn DecodeSession,
        logits: Option<&[f32]>,
    ) -> Result<bool, LmError> {
        if self.finished {
            return Ok(false);
        }
        let logits = match logits {
            Some(logits) => logits,
            None => {
                session.logits_into(&mut self.logits);
                &self.logits
            }
        };
        let spec = &self.spec;
        let trace = spec.trace_min_prob <= 1.0;
        let drawn = spec
            .sampler
            .draw(&mut self.ranking, logits, &mut self.rng, trace);
        let Some((chosen, chosen_prob)) = drawn else {
            return Err(LmError::EmptyVocab);
        };
        if spec.stop_tokens.contains(&chosen) {
            self.stopped_naturally = true;
            self.finished = true;
            return Ok(false);
        }
        let alternatives = if trace {
            self.ranking.alternatives(logits, spec.trace_min_prob)
        } else {
            Vec::new()
        };
        session.append(chosen);
        self.steps.push(GenStep {
            chosen,
            chosen_prob,
            alternatives,
        });
        self.finished = self.steps.len() >= spec.max_tokens;
        Ok(!self.finished)
    }

    /// Record `tokens` as certain steps (one single-possibility
    /// alternative each, like a tool-call result) and append them to the
    /// session, stopping at `max_tokens`. Draws nothing from the RNG.
    fn splice(&mut self, session: &mut dyn DecodeSession, tokens: &[TokenId]) {
        for &id in tokens {
            if self.finished {
                break;
            }
            self.steps.push(GenStep {
                chosen: id,
                chosen_prob: 1.0,
                alternatives: vec![TokenAlt { id, prob: 1.0 }],
            });
            session.append(id);
            self.finished = self.steps.len() >= self.spec.max_tokens;
        }
    }

    /// The trace recorded so far: the whole generation once finished, the
    /// partial one (with `stopped_naturally == false`) after an abort.
    pub(crate) fn into_trace(self) -> GenerationTrace {
        GenerationTrace {
            prompt_len: self.prompt_len,
            steps: self.steps,
            stopped_naturally: self.stopped_naturally,
        }
    }
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
    let mut decode = Decode::new(spec.clone(), session.len())?;
    while decode.step(session, None)? {}
    Ok(decode.into_trace())
}

/// The decoding loop as an explicit state machine: one sampled token per
/// [`GenerationStepper::step`] call.
///
/// This is what lets a scheduler interleave many generations — it can hold
/// a `Vec<GenerationStepper>`, advance each in-flight request one token per
/// scheduling round, admit new requests between rounds, and retire finished
/// ones immediately. A stepper is the decode core [`generate_session`]
/// runs plus the session it owns, so for any interleaving the finished
/// trace is byte-identical to running `generate_session` on the same
/// session and spec.
pub struct GenerationStepper {
    session: Box<dyn DecodeSession>,
    decode: Decode,
}

impl GenerationStepper {
    /// Wrap an already-prefilled session (its current contents are the
    /// prompt). Validates the spec up front so a malformed request fails at
    /// admission, not mid-decode.
    pub fn new(session: Box<dyn DecodeSession>, spec: GenerateSpec) -> Result<Self, LmError> {
        let decode = Decode::new(spec, session.len())?;
        Ok(Self { session, decode })
    }

    /// Advance one token. Returns `Ok(true)` while the generation can still
    /// make progress, `Ok(false)` once it finished (stop token, budget or
    /// [`abort`]); a finished stepper stays finished.
    ///
    /// With `None` the session computes its own logits. `Some(logits)` is
    /// the batched-decode entry point: the logits **must** be bitwise what
    /// [`DecodeSession::logits`] would return right now, which a fused
    /// [`crate::session::BatchDriver::logits_batch`] lane satisfies by
    /// contract. Either way the step after the logits is the same code, so
    /// a precomputed step is byte-identical to a self-computed one.
    ///
    /// An error leaves the stepper as it was (nothing drawn, recorded or
    /// appended), so stepping again retries the failed token; a retry that
    /// succeeds gives exactly the trace an error-free run would have.
    ///
    /// [`abort`]: GenerationStepper::abort
    pub fn step(&mut self, logits: Option<&[f32]>) -> Result<bool, LmError> {
        self.decode.step(self.session.as_mut(), logits)
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

    /// True once the generation cannot advance further.
    pub fn is_finished(&self) -> bool {
        self.decode.finished
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
        self.decode.finished = true;
    }

    /// Consume the stepper into the finished trace.
    pub fn into_trace(self) -> GenerationTrace {
        self.decode.into_trace()
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
/// surrounding scaffold. Text that encodes to no tokens counts as a
/// decline: splicing it would leave the context at the same onset.
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
    let mut decode = Decode::new(spec.clone(), prompt.len())?;
    let mut session = Arc::clone(model).session();
    session.extend(prompt);
    let tokenizer = model.tokenizer();

    while !decode.finished {
        // Numeric hook: at a value onset, let the supporting model fill in
        // the number.
        if value_state(session.tokens(), tokenizer) == Some(ValueState::Start) {
            let value = number_provider(session.tokens()).map(|text| tokenizer.encode(&text));
            if let Some(value) = value.filter(|ids| !ids.is_empty()) {
                decode.splice(&mut *session, &value);
                // The number is complete; only scaffold remains.
                continue;
            }
        }
        decode.step(&mut *session, None)?;
    }
    Ok(decode.into_trace())
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
            let mut stepper = GenerationStepper::new(fresh, spec.clone()).unwrap();
            while stepper.step(None).unwrap() {}
            assert!(stepper.is_finished());
            assert_eq!(stepper.into_trace(), sequential);

            // Handed its session's own logits every step, a stepper
            // records the same trace.
            let mut fresh = m.clone().session();
            fresh.extend(&prompt);
            let mut fed = GenerationStepper::new(fresh, spec).unwrap();
            let mut logits = Vec::new();
            loop {
                fed.session().logits_into(&mut logits);
                if !fed.step(Some(&logits)).unwrap() {
                    break;
                }
            }
            assert_eq!(fed.into_trace(), sequential, "seed {seed}");
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
        assert!(stepper.step(None).unwrap(), "first step generates 'b'");
        assert_eq!(stepper.decode.steps.len(), 1);
        assert!(
            !stepper.step(None).unwrap(),
            "second step hits the stop token"
        );
        assert!(stepper.is_finished());
        assert!(
            !stepper.step(None).unwrap(),
            "finished steppers stay finished"
        );
        let trace = stepper.into_trace();
        assert_eq!(trace.prompt_len, 1);
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
    fn number_hook_treats_text_that_encodes_to_nothing_as_a_decline() {
        let m = cycle_model();
        let prompt = m.tokenizer.encode("Performance: ");
        let spec = GenerateSpec {
            sampler: Sampler::greedy(),
            max_tokens: 4,
            stop_tokens: vec![],
            trace_min_prob: 0.0,
            seed: 0,
        };
        let plain = generate(&m, &prompt, &spec).unwrap();
        let mut calls = 0;
        let hooked = generate_with_number_hook(&m, &prompt, &spec, |_| {
            calls += 1;
            (calls <= 3).then(String::new)
        })
        .unwrap();
        // Declining lets the LM step off the onset, so the provider is not
        // asked again: the three empty answers are not spent in a loop.
        assert_eq!(calls, 1, "provider called {calls} times");
        assert_eq!(plain, hooked, "an empty value must be a no-op");
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
        assert!(stepper.step(None).unwrap());
        stepper.abort();
        assert!(stepper.is_finished());
        assert!(
            !stepper.step(None).unwrap(),
            "aborted steppers never advance"
        );
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
        let mut stepper = GenerationStepper::new(s, spec).unwrap();
        let mut errors = 0;
        loop {
            match stepper.step(None) {
                Ok(true) => {}
                Ok(false) => break,
                Err(LmError::EmptyVocab) => {
                    errors += 1;
                    // Nothing was recorded or appended: the next step is
                    // the retry.
                    assert!(!stepper.is_finished(), "an error finishes nothing");
                    assert_eq!(stepper.decode.steps.len(), 2);
                    assert_eq!(stepper.session().len(), prompt.len() + 2);
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
