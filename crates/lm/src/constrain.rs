//! Guidance-style constrained decoding (§V-B).
//!
//! The paper's discussion of output-format mitigation: "techniques such as
//! Langchain and Guidance... can be effective, \[but\] the former often limit
//! outputs in manners that may be destructive to task success". This module
//! implements the Guidance approach for the runtime-value grammar: a logit
//! mask that only admits tokens continuing a well-formed
//! `d.ddddddd`-shaped value, applied inside the decoding loop. Drift
//! becomes impossible — and so does any answer outside the grammar (e.g. a
//! two-digit integer part), which is exactly the destructiveness the paper
//! warns about.

use crate::error::LmError;
use crate::generate::{decode_step_from, GenerateSpec, StepScratch};
use crate::induction::prior::{value_state, ValueState};
use crate::model::LanguageModel;
use crate::trace::GenerationTrace;
use lmpeel_stats::{seeded_rng, SeedDomain};
use lmpeel_tokenizer::{TokenId, Tokenizer};
use std::sync::Arc;

/// A logit mask applied before sampling at each step.
pub trait LogitConstraint {
    /// Set the logits of disallowed tokens to `-inf`. The implementation
    /// must always leave at least one token allowed.
    fn mask(&self, context: &[TokenId], tokenizer: &Tokenizer, logits: &mut [f32]);
}

/// The runtime-value grammar: a single decimal value of
/// `int_digits.{target_decimals}` digits, then a stop token.
#[derive(Debug, Clone)]
pub struct ValueGrammar {
    /// Required fractional digits (7 in the paper's prompts).
    pub target_decimals: usize,
    /// Tokens that may terminate the response.
    pub stop_tokens: Vec<TokenId>,
}

impl ValueGrammar {
    /// Grammar with the paper's 7-decimal format.
    pub fn paper(stop_tokens: Vec<TokenId>) -> Self {
        Self {
            target_decimals: 7,
            stop_tokens,
        }
    }

    fn allow_only<F: Fn(TokenId, &str) -> bool>(
        &self,
        tokenizer: &Tokenizer,
        logits: &mut [f32],
        pred: F,
    ) {
        let vocab = tokenizer.vocab();
        for (i, l) in logits.iter_mut().enumerate() {
            let id = i as TokenId;
            if !pred(id, vocab.token_str(id)) {
                *l = f32::NEG_INFINITY;
            }
        }
    }
}

impl LogitConstraint for ValueGrammar {
    fn mask(&self, context: &[TokenId], tokenizer: &Tokenizer, logits: &mut [f32]) {
        let vocab = tokenizer.vocab();
        match value_state(context, tokenizer) {
            Some(ValueState::Start) => {
                // One single-digit integer token.
                self.allow_only(tokenizer, logits, |id, s| {
                    vocab.is_numeric(id) && s.len() == 1
                });
            }
            Some(ValueState::AfterInt { .. }) => {
                self.allow_only(tokenizer, logits, |_, s| s == ".");
            }
            Some(ValueState::InFraction { frac_digits }) => {
                let remaining = self.target_decimals.saturating_sub(frac_digits);
                if remaining == 0 {
                    let stops = &self.stop_tokens;
                    self.allow_only(tokenizer, logits, |id, _| stops.contains(&id));
                } else {
                    self.allow_only(tokenizer, logits, |id, s| {
                        vocab.is_numeric(id) && s.len() <= remaining
                    });
                }
            }
            None => {
                // Outside a value (should not happen when the prompt ends
                // with "Performance: "): force a stop.
                let stops = &self.stop_tokens;
                self.allow_only(tokenizer, logits, |id, _| stops.contains(&id));
            }
        }
    }
}

/// The decoding loop with a [`LogitConstraint`] applied at every step.
/// Identical trace semantics to [`crate::generate::generate`], over the
/// constrained distribution: each step masks the session's logits and
/// hands them to the same sampling half every other decode loop uses.
/// Drives an incremental [`DecodeSession`](crate::DecodeSession) and
/// reuses one set of step buffers, so the constraint's mask is the only
/// extra per-step full-vocabulary pass.
pub fn generate_constrained<M, C>(
    model: &Arc<M>,
    prompt: &[TokenId],
    spec: &GenerateSpec,
    constraint: &C,
) -> Result<GenerationTrace, LmError>
where
    M: LanguageModel + ?Sized,
    C: LogitConstraint,
{
    spec.validate()?;
    let mut rng = seeded_rng(spec.seed, SeedDomain::Sampling(prompt.len() as u64));
    let mut session = Arc::clone(model).session();
    session.extend(prompt);
    let mut steps = Vec::new();
    let mut stopped_naturally = false;
    let mut scratch = StepScratch::default();
    let tokenizer = model.tokenizer();

    for _ in 0..spec.max_tokens {
        let StepScratch { logits, ranking } = &mut scratch;
        session.logits_into(logits);
        constraint.mask(session.tokens(), tokenizer, logits);
        match decode_step_from(&mut *session, logits, spec, &mut rng, ranking)? {
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
    use crate::induction::InductionLm;
    use lmpeel_tokenizer::EOS;

    fn setup() -> (Arc<InductionLm>, Vec<TokenId>, ValueGrammar) {
        let model = Arc::new(InductionLm::paper(0));
        let tok = model.tokenizer();
        let stops = vec![tok.vocab().token_id("\n").unwrap(), tok.special(EOS)];
        let prompt = tok.encode(
            "tile is 80\nPerformance: 0.0022155\ntile is 16\nPerformance: 0.0051230\n\
             tile is 128\nPerformance: ",
        );
        (model, prompt, ValueGrammar::paper(stops.clone()))
    }

    #[test]
    fn constrained_output_is_always_wellformed() {
        let (model, prompt, grammar) = setup();
        for seed in 0..10 {
            let spec = GenerateSpec {
                stop_tokens: grammar.stop_tokens.clone(),
                ..GenerateSpec::paper(seed)
            };
            let trace = generate_constrained(&model, &prompt, &spec, &grammar).unwrap();
            let text = trace.decode(model.tokenizer());
            let text = text.trim();
            assert!(
                text.parse::<f64>().is_ok(),
                "seed {seed}: not a number: {text:?}"
            );
            let frac = text.split('.').nth(1).expect("has a fraction");
            assert_eq!(frac.len(), 7, "seed {seed}: exactly 7 decimals: {text:?}");
            assert!(
                trace.stopped_naturally,
                "seed {seed}: must stop on the grammar"
            );
        }
    }

    #[test]
    fn mask_always_leaves_an_option() {
        let (model, prompt, grammar) = setup();
        let tok = model.tokenizer();
        // Walk a full value, masking at every prefix.
        let mut ctx = prompt.clone();
        for piece in ["0", ".", "002", "215", "5"] {
            let mut logits = model.logits(&ctx);
            grammar.mask(&ctx, tok, &mut logits);
            assert!(
                logits.iter().any(|l| l.is_finite()),
                "mask starved the distribution before {piece:?}"
            );
            ctx.extend(tok.encode(piece));
        }
        // After 7 decimals only stops remain.
        let mut logits = model.logits(&ctx);
        grammar.mask(&ctx, tok, &mut logits);
        let allowed: Vec<TokenId> = logits
            .iter()
            .enumerate()
            .filter(|(_, l)| l.is_finite())
            .map(|(i, _)| i as TokenId)
            .collect();
        assert!(!allowed.is_empty());
        assert!(allowed.iter().all(|id| grammar.stop_tokens.contains(id)));
    }

    #[test]
    fn grammar_is_destructive_for_out_of_grammar_answers() {
        // §V-B's warning, demonstrated: a two-digit integer part (a >= 10s
        // runtime) is impossible under the grammar — after one digit the
        // only legal token is the period.
        let (model, prompt, grammar) = setup();
        let tok = model.tokenizer();
        let mut ctx = prompt.clone();
        ctx.extend(tok.encode("1"));
        let mut logits = model.logits(&ctx);
        grammar.mask(&ctx, tok, &mut logits);
        for (i, l) in logits.iter().enumerate() {
            if l.is_finite() {
                assert_eq!(tok.vocab().token_str(i as TokenId), ".");
            }
        }
    }

    #[test]
    fn a_constraint_that_masks_nothing_records_the_plain_trace() {
        // The whole trace — alternatives, probabilities, the stop flag —
        // must match `generate`, not just the decoded text.
        struct Unmasked;
        impl LogitConstraint for Unmasked {
            fn mask(&self, _: &[TokenId], _: &Tokenizer, _: &mut [f32]) {}
        }
        let (model, prompt, grammar) = setup();
        let mut stopped = 0;
        for seed in 0..4 {
            let paper = GenerateSpec::paper(seed);
            let stopping = GenerateSpec {
                stop_tokens: grammar.stop_tokens.clone(),
                ..paper.clone()
            };
            for spec in [paper, stopping] {
                let plain = crate::generate::generate(&model, &prompt, &spec).unwrap();
                let unmasked = generate_constrained(&model, &prompt, &spec, &Unmasked).unwrap();
                assert_eq!(unmasked, plain, "seed {seed}");
                stopped += usize::from(plain.stopped_naturally);
            }
        }
        assert!(stopped > 0, "the stop path must be exercised");
    }

    #[test]
    fn constrained_and_plain_agree_when_the_model_behaves() {
        // With drift disabled the plain model already emits well-formed
        // values, so the constraint must not change the greedy output.
        let (model, prompt, grammar) = setup();
        let spec = GenerateSpec {
            sampler: crate::sampler::Sampler::greedy(),
            stop_tokens: grammar.stop_tokens.clone(),
            ..GenerateSpec::paper(0)
        };
        let plain = crate::generate::generate(&model, &prompt, &spec).unwrap();
        let constrained = generate_constrained(&model, &prompt, &spec, &grammar).unwrap();
        assert_eq!(
            plain.decode(model.tokenizer()),
            constrained.decode(model.tokenizer())
        );
    }
}
