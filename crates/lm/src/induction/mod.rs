//! `InductionLm`: a mechanistic surrogate for an instruction-tuned LLM on
//! LLAMBO-style autotuning prompts.
//!
//! The paper's in-depth analysis concludes that "the model's output tends to
//! parrot traits taken from the prompt without insight into what traits
//! should be prioritized". Mechanistic-interpretability work attributes
//! exactly this in-context copying to *induction heads* — attention circuits
//! that find earlier occurrences of the current suffix and promote whatever
//! followed them. `InductionLm` implements that mechanism directly, plus the
//! secondary effects the paper documents, each tied to a paper observation:
//!
//! * **suffix-match copying** (`§IV-A`: "generated values strongly cluster
//!   around the most common ICL values... slightly over 10% of the
//!   generated values are directly copied"): candidates are tokens that
//!   followed earlier occurrences of the current context suffix, weighted
//!   exponentially in match length;
//! * **similarity-modulated attention** (`§IV-A`: the best R² of 0.4643
//!   shows the model is *weakly* better than parroting): each in-context
//!   example's votes are scaled by the Jaccard similarity between its
//!   configuration line and the query's, giving the surrogate a weak,
//!   attention-like sensitivity to the relevant traits;
//! * **numeric smearing** (`§IV-B`, Table II: hundreds of selectable tokens
//!   at value positions 3–4): within a decimal value the copy distribution
//!   is smeared over numerically nearby digit groups, reflecting an LLM's
//!   diffuse uncertainty inside numbers;
//! * **magnitude prior** (`§IV-A`: "all SM objective values are less than
//!   one, and the LLM appropriately reflects this"): a log-uniform
//!   world-knowledge belief over runtimes shapes the first digits;
//! * **format drift** (`§III-C`, `§V-B`: "we also observed many deviations
//!   from our prompt and example's imposed output format... especially with
//!   large amounts of in-context learning examples"): a small,
//!   example-count-dependent probability of leaving the numeric format;
//! * **seed-keyed logit jitter** (Figure 4: "different seeds often produce
//!   identical token sets with slightly altered logit probabilities"): a
//!   tiny deterministic perturbation keyed by the model's seed that changes
//!   probabilities but never the support.

pub mod blocks;
pub mod incremental;
pub mod prior;

use crate::model::LanguageModel;
use crate::session::DecodeSession;
use blocks::{AnchorIds, ContextMap};
use lmpeel_recover::{fnv1a64_extend, FNV1A64_OFFSET};
use lmpeel_stats::rng::hash_to_unit;
use lmpeel_tokenizer::{TokenId, Tokenizer, EOS};
use prior::{MagnitudePrior, ValueState};
use std::collections::BTreeMap;

/// Tunable parameters of the surrogate. Defaults reproduce the paper's
/// qualitative behaviour; the experiment calibration tests in
/// `lmpeel-core` pin the quantitative bands.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InductionConfig {
    /// Longest suffix match considered (tokens).
    pub max_match: usize,
    /// Shortest suffix match that contributes a vote.
    pub min_match: usize,
    /// Per-matched-token weight base (votes scale as `lambda^k`).
    pub lambda: f64,
    /// Sharpness of the similarity modulation, `exp(sharpness*(sim-1))`.
    pub sim_sharpness: f64,
    /// Vote weight for matches outside any example block.
    pub non_block_weight: f64,
    /// Discount on votes from within the query block itself (matches
    /// against the model's own just-generated text). Without it the
    /// surrogate falls into the degenerate repetition loops instruction
    /// tuning suppresses in real chat models.
    pub self_block_discount: f64,
    /// Saturation constant: copy weight is `total/(total+saturation)`.
    pub saturation: f64,
    /// Cap on the copy weight at the integer/first-digit positions.
    pub copy_cap_start: f64,
    /// Cap on the exact-copy weight inside the fraction.
    pub copy_cap_frac: f64,
    /// Weight of the numerically smeared copy component in the fraction.
    pub smear_weight: f64,
    /// Relative smearing length scale: the e-fold distance around a copy
    /// center `c` is `smear_tau_rel * c + smear_tau_min` digit-group units,
    /// so uncertainty is proportional to magnitude (a 10% wobble around
    /// `734`, a couple of counts around `002`).
    pub smear_tau_rel: f64,
    /// Minimum smearing length scale in digit-group units.
    pub smear_tau_min: f64,
    /// Baseline probability of leaving the output format.
    pub drift_base: f64,
    /// Additional drift per in-context example (saturates at 100 examples).
    pub drift_slope: f64,
    /// Probability that a *prompt* is "confusing" at 100 ICL examples
    /// (ramping from zero below ~20 examples). The paper observed "many
    /// deviations from our prompt and example's imposed output format...
    /// especially with large amounts of in-context learning examples" —
    /// in real chat models this failure is largely per-prompt, not
    /// per-token: a given long prompt either derails the model or not.
    pub confusion_at_100: f64,
    /// Drift mass given a confusing prompt (dominates the value onset).
    pub drift_confused: f64,
    /// Uniform background mass over non-special tokens.
    pub background: f64,
    /// Seed-keyed logit jitter amplitude.
    pub jitter_eps: f32,
    /// World-knowledge magnitude prior.
    pub prior: MagnitudePrior,
}

impl Default for InductionConfig {
    fn default() -> Self {
        Self {
            max_match: 12,
            min_match: 2,
            lambda: 2.2,
            sim_sharpness: 30.0,
            non_block_weight: 0.3,
            self_block_discount: 0.15,
            saturation: 1.0,
            copy_cap_start: 0.93,
            copy_cap_frac: 0.09,
            smear_weight: 0.72,
            smear_tau_rel: 0.07,
            smear_tau_min: 1.2,
            drift_base: 0.004,
            drift_slope: 0.05,
            confusion_at_100: 0.18,
            drift_confused: 0.80,
            background: 2.0e-4,
            jitter_eps: 0.02,
            prior: MagnitudePrior {
                lo_seconds: 1e-4,
                hi_seconds: 10.0,
                target_decimals: 7,
            },
        }
    }
}

impl InductionConfig {
    /// Ablation: disable the similarity-modulated attention (every example
    /// block votes at full strength). Tests the paper's implied mechanism
    /// behind the occasional positive R²: without similarity weighting the
    /// surrogate is a pure parrot of the ICL distribution.
    pub fn without_similarity(self) -> Self {
        Self {
            sim_sharpness: 0.0,
            ..self
        }
    }

    /// Ablation: disable the world-knowledge magnitude prior (value tokens
    /// come from copying and smearing alone). Tests the "all SM objective
    /// values are less than one, and the LLM appropriately reflects this"
    /// behaviour: with no prior and no examples the model has no idea of
    /// plausible magnitudes.
    pub fn without_prior(self) -> Self {
        Self {
            copy_cap_start: 0.999,
            copy_cap_frac: 0.95,
            smear_weight: 0.049,
            ..self
        }
    }

    /// Ablation: disable numeric smearing (fraction digits are either exact
    /// copies or prior draws). Tests the interpolation behaviour behind the
    /// Figure 3 clustering.
    pub fn without_smear(self) -> Self {
        Self {
            smear_weight: 0.0,
            ..self
        }
    }

    /// Ablation: disable format drift (the model never leaves the numeric
    /// format, regardless of context length).
    pub fn without_drift(self) -> Self {
        Self {
            drift_base: 0.0,
            drift_slope: 0.0,
            ..self
        }
    }

    /// Ablation: disable the seed-keyed logit jitter (all seeds produce
    /// bit-identical logits; only sampling differs).
    pub fn without_jitter(self) -> Self {
        Self {
            jitter_eps: 0.0,
            ..self
        }
    }
}

/// The surrogate language model. See the module docs for the mechanism.
#[derive(Debug, Clone)]
pub struct InductionLm {
    tokenizer: Tokenizer,
    cfg: InductionConfig,
    seed: u64,
    anchors: AnchorIds,
    newline: TokenId,
    eos: TokenId,
    drift_ids: Vec<(TokenId, f64)>,
    /// `(token, numeric value)` for every 3-digit token, for smearing.
    three_digit: Vec<(TokenId, u32)>,
    num_non_special: usize,
}

impl InductionLm {
    /// Build over a tokenizer with explicit parameters and a model seed
    /// (the seed only perturbs logit magnitudes, never the support).
    pub fn new(tokenizer: Tokenizer, cfg: InductionConfig, seed: u64) -> Self {
        let anchors = AnchorIds::resolve(&tokenizer);
        let vocab = tokenizer.vocab();
        let newline = vocab.token_id("\n").expect("newline token");
        let eos = vocab.token_id(EOS).expect("EOS token");
        // Weighted drift targets: restarting the example scaffold (the most
        // common real-LLM failure on these prompts — it just keeps listing
        // examples) dominates; prose lead-ins are rarer.
        let drift_ids = [
            ("Hyperparameter", 0.7),
            (" The", 0.1),
            (" Please", 0.1),
            (" Here", 0.1),
        ]
        .iter()
        .filter_map(|&(s, w)| vocab.token_id(s).map(|id| (id, w)))
        .collect();
        let three_digit = vocab
            .numeric_ids(3)
            .into_iter()
            .map(|id| {
                (
                    id,
                    vocab.token_str(id).parse::<u32>().expect("3-digit token"),
                )
            })
            .collect();
        let num_non_special = vocab.len() - vocab.num_specials();
        Self {
            tokenizer,
            cfg,
            seed,
            anchors,
            newline,
            eos,
            drift_ids,
            three_digit,
            num_non_special,
        }
    }

    /// Paper-calibrated surrogate with a given seed.
    pub fn paper(seed: u64) -> Self {
        Self::new(Tokenizer::paper(), InductionConfig::default(), seed)
    }

    /// The model seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The surrogate's tuning parameters.
    pub fn config(&self) -> &InductionConfig {
        &self.cfg
    }

    /// The segmentation anchor ids (shared with the incremental session).
    pub(crate) fn anchor_ids(&self) -> AnchorIds {
        self.anchors
    }

    /// Suffix-match votes: for every candidate position `t` whose preceding
    /// tokens match the context's trailing tokens for `k >= min_match`, the
    /// token at `t` receives weight `lambda^k * block_weight(t)`.
    /// Returns the similarity-weighted vote distribution plus the
    /// *unweighted* total match strength. The distribution decides *what*
    /// gets copied (similar examples count more); the unweighted total
    /// decides *how strongly* the model copies at all — otherwise a sharper
    /// similarity focus would also (wrongly) weaken format anchoring.
    ///
    /// `positions` must ascend within `1..context.len()` and include every
    /// `t` with `context[t - 1] == context[len - 1]` (positions with no
    /// match contribute nothing). The batch path passes all of `1..len`;
    /// the incremental session passes only the last token's earlier
    /// occurrences, plus one — the same votes summed in the same order.
    /// `sims` holds one similarity per block, the last being the query's;
    /// `block_of` maps a position to its block.
    fn induction_votes(
        &self,
        context: &[TokenId],
        positions: impl IntoIterator<Item = usize>,
        sims: &[f64],
        block_of: impl Fn(usize) -> Option<usize>,
    ) -> (BTreeMap<TokenId, f64>, f64) {
        let t_end = context.len();
        let mut votes: BTreeMap<TokenId, f64> = BTreeMap::new();
        let mut strength = 0.0f64;
        if t_end < self.cfg.min_match + 1 {
            return (votes, strength);
        }
        let query_block = sims.len().checked_sub(1);
        // Normalize similarities against the best example block, so the
        // most similar example always votes at full strength and the
        // sharpness only controls how quickly *less* similar examples fade.
        let best_sim = sims
            .iter()
            .take(sims.len().saturating_sub(1))
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max);
        let block_weight = |pos: usize| -> f64 {
            match block_of(pos) {
                Some(b) if Some(b) == query_block => self.cfg.self_block_discount,
                Some(b) if best_sim.is_finite() => {
                    (self.cfg.sim_sharpness * (sims[b] - best_sim)).exp()
                }
                Some(_) => 1.0,
                None => self.cfg.non_block_weight,
            }
        };
        let mut short_votes: BTreeMap<TokenId, f64> = BTreeMap::new();
        let mut short_strength = 0.0f64;
        for t in positions {
            // Match context[t-k..t] against context[t_end-k..t_end].
            let mut k = 0usize;
            while k < self.cfg.max_match && k < t {
                if context[t - 1 - k] != context[t_end - 1 - k] {
                    break;
                }
                k += 1;
            }
            if k >= self.cfg.min_match {
                let base = self.cfg.lambda.powi(k as i32);
                *votes.entry(context[t]).or_insert(0.0) += base * block_weight(t);
                strength += base;
            } else if k >= 1 {
                let base = self.cfg.lambda;
                *short_votes.entry(context[t]).or_insert(0.0) += base * block_weight(t);
                short_strength += base;
            }
        }
        if votes.is_empty() {
            // Attention falls back to single-token matches only when no
            // longer match exists anywhere — this is what lets a derailed
            // response find its way back onto the scaffold.
            return (short_votes, short_strength);
        }
        (votes, strength)
    }

    /// Numeric smearing of fraction votes over nearby 3-digit groups.
    fn smear(&self, votes: &BTreeMap<TokenId, f64>) -> Vec<(TokenId, f64)> {
        let centers: Vec<(u32, f64)> = votes
            .iter()
            .filter_map(|(&id, &w)| {
                self.three_digit
                    .iter()
                    .find(|&&(tid, _)| tid == id)
                    .map(|&(_, v)| (v, w))
            })
            .collect();
        if centers.is_empty() {
            return vec![];
        }
        let mut out = Vec::with_capacity(self.three_digit.len());
        let mut total = 0.0;
        for &(id, v) in &self.three_digit {
            let mut m = 0.0;
            for &(c, w) in &centers {
                let d = (v as f64 - c as f64).abs();
                let tau = self.cfg.smear_tau_rel * c as f64 + self.cfg.smear_tau_min;
                m += w * (-d / tau).exp();
            }
            total += m;
            out.push((id, m));
        }
        if total > 0.0 {
            for p in &mut out {
                p.1 /= total;
            }
        }
        out
    }

    /// Prompt-stable uniform draw in [0,1): hashes the tokens leading up to
    /// `end` (the query anchor, so the hash covers the prompt's examples
    /// and stays constant throughout one generation) — NOT the model seed,
    /// so all three sampling seeds agree on whether a prompt is confusing,
    /// as they did in the paper's manual inspection.
    fn prompt_hash_unit(&self, context: &[TokenId], end: usize, salt: u64) -> f64 {
        let end = end.min(context.len());
        let start = end.saturating_sub(64);
        let h = context[start..end]
            .iter()
            .fold(FNV1A64_OFFSET, |h, t| fnv1a64_extend(h, &t.to_le_bytes()));
        hash_to_unit(fnv1a64_extend(
            fnv1a64_extend(h, &salt.to_le_bytes()),
            &[0xDF],
        ))
    }

    fn add_weighted(p: &mut [f64], pairs: &[(TokenId, f64)], scale: f64) {
        for &(id, w) in pairs {
            p[id as usize] += scale * w;
        }
    }

    fn normalized(votes: &BTreeMap<TokenId, f64>) -> Vec<(TokenId, f64)> {
        let total: f64 = votes.values().sum();
        if total <= 0.0 {
            return vec![];
        }
        votes.iter().map(|(&id, &w)| (id, w / total)).collect()
    }
}

impl LanguageModel for InductionLm {
    fn tokenizer(&self) -> &Tokenizer {
        &self.tokenizer
    }

    fn logits(&self, context: &[TokenId]) -> Vec<f32> {
        let map = ContextMap::segment(context, self.anchors);
        let sims = map.config_similarities(context);
        let (votes, strength) =
            self.induction_votes(context, 1..context.len(), &sims, |pos| map.block_of(pos));
        let query_start = map.blocks.last().map(|b| b.span.start);
        self.finish_logits(
            context,
            map.blocks.len(),
            query_start,
            &votes,
            strength,
            self.seed,
        )
    }

    fn name(&self) -> String {
        format!("induction-lm(seed={})", self.seed)
    }

    fn session(self: std::sync::Arc<Self>) -> Box<dyn DecodeSession> {
        Box::new(incremental::InductionLmSession::new(self))
    }
}

impl InductionLm {
    /// Turn a vote distribution plus context geometry into logits: the
    /// shared tail of the batch [`LanguageModel::logits`] path and the
    /// incremental [`incremental::InductionLmSession`] path. `seed` keys
    /// only the logit jitter (sessions may re-key it; the batch path passes
    /// the model's own seed).
    fn finish_logits(
        &self,
        context: &[TokenId],
        n_blocks: usize,
        query_start: Option<usize>,
        votes: &BTreeMap<TokenId, f64>,
        strength: f64,
        seed: u64,
    ) -> Vec<f32> {
        let mut out = Vec::new();
        self.finish_logits_into(
            context,
            n_blocks,
            query_start,
            votes,
            strength,
            seed,
            &mut out,
        );
        out
    }

    /// [`InductionLm::finish_logits`] writing into a caller-owned buffer —
    /// the allocation-free tail behind [`DecodeSession::logits_into`] on
    /// [`incremental::InductionLmSession`] (decode on this substrate is
    /// dominated by this vocab-wide pass, so the per-step `Vec` it used to
    /// return was measurable at concurrency 1).
    #[allow(clippy::too_many_arguments)]
    fn finish_logits_into(
        &self,
        context: &[TokenId],
        n_blocks: usize,
        query_start: Option<usize>,
        votes: &BTreeMap<TokenId, f64>,
        strength: f64,
        seed: u64,
        out: &mut Vec<f32>,
    ) {
        let vocab = self.tokenizer.vocab();
        let n = vocab.len();
        let mut p = vec![0.0f64; n];

        let p_ind = Self::normalized(votes);
        let n_examples = n_blocks.saturating_sub(1);

        let state = prior::value_state(context, &self.tokenizer);
        match state {
            Some(s) => {
                let prior_pairs =
                    self.cfg
                        .prior
                        .next_token_weights(s, &self.tokenizer, self.newline, self.eos);
                let raw_w = strength / (strength + self.cfg.saturation);
                match s {
                    ValueState::Start | ValueState::AfterInt { .. } => {
                        let w_ind = raw_w.min(self.cfg.copy_cap_start);
                        Self::add_weighted(&mut p, &p_ind, w_ind);
                        Self::add_weighted(&mut p, &prior_pairs, 1.0 - w_ind);
                        // Format drift grows with the number of examples;
                        // additionally, some long prompts are outright
                        // "confusing" and reliably derail the response.
                        if matches!(s, ValueState::Start) && !self.drift_ids.is_empty() {
                            let ramp = ((n_examples as f64 - 20.0) / 80.0).clamp(0.0, 1.0);
                            let query_start = query_start.unwrap_or(context.len());
                            // Salting with the block count makes each value
                            // onset (the original query, and any restarted
                            // example after a derail) an independent draw —
                            // a derailed response usually recovers at its
                            // next Performance line, as the paper's deviant
                            // outputs did.
                            let confused =
                                self.prompt_hash_unit(context, query_start, n_blocks as u64)
                                    < self.cfg.confusion_at_100 * ramp;
                            let drift = if confused {
                                self.cfg.drift_confused
                            } else {
                                self.cfg.drift_base
                                    + self.cfg.drift_slope * (n_examples as f64 / 100.0).min(1.0)
                            };
                            for v in p.iter_mut() {
                                *v *= 1.0 - drift;
                            }
                            let total_w: f64 = self.drift_ids.iter().map(|&(_, w)| w).sum();
                            for &(d, w) in &self.drift_ids {
                                p[d as usize] += drift * w / total_w;
                            }
                        }
                    }
                    ValueState::InFraction { frac_digits } => {
                        let remaining = self.cfg.prior.target_decimals.saturating_sub(frac_digits);
                        if remaining >= 3 {
                            let w_exact = raw_w.min(self.cfg.copy_cap_frac);
                            let smeared = self.smear(votes);
                            let w_smear = if smeared.is_empty() {
                                0.0
                            } else {
                                self.cfg.smear_weight * raw_w
                            };
                            let w_prior = (1.0 - w_exact - w_smear).max(0.0);
                            Self::add_weighted(&mut p, &p_ind, w_exact);
                            Self::add_weighted(&mut p, &smeared, w_smear);
                            Self::add_weighted(&mut p, &prior_pairs, w_prior);
                        } else if remaining == 0 {
                            // End of the mantissa: what follows is format
                            // scaffold ("\n" in decimal prompts, "e" in
                            // scientific ones), copied as strongly as any
                            // other scaffold token.
                            let w_ind = raw_w.min(self.cfg.copy_cap_start);
                            Self::add_weighted(&mut p, &p_ind, w_ind);
                            Self::add_weighted(&mut p, &prior_pairs, 1.0 - w_ind);
                        } else {
                            let w_ind = raw_w.min(self.cfg.copy_cap_frac);
                            Self::add_weighted(&mut p, &p_ind, w_ind);
                            Self::add_weighted(&mut p, &prior_pairs, 1.0 - w_ind);
                        }
                    }
                }
            }
            None => {
                // Scaffold text: pure induction; an empty vote set falls
                // back to the background (plus a nudge toward stopping).
                if strength > 0.0 {
                    Self::add_weighted(&mut p, &p_ind, 0.97);
                    p[self.newline as usize] += 0.02;
                    p[self.eos as usize] += 0.01;
                } else {
                    p[self.newline as usize] += 0.5;
                    p[self.eos as usize] += 0.5;
                }
            }
        }

        // Uniform background over non-special tokens.
        let bg_each = self.cfg.background / self.num_non_special as f64;
        let specials = vocab.num_specials();
        for v in p.iter_mut().take(n).skip(specials) {
            *v = *v * (1.0 - self.cfg.background) + bg_each;
        }
        // EOS is special but must stay reachable where assigned above.

        // To logits with seed-keyed jitter (support never changes). Token
        // `i`'s jitter hashes the 24-byte key `seed ‖ len ‖ i` (little-endian
        // u64s); FNV-1a is sequential, so the `seed ‖ len` prefix is hashed
        // once and extended per token. Background-only tokens hold exactly
        // `bg_each` (`0.0 * (1 - bg) + bg_each`), so they share one `ln`.
        let prefix = fnv1a64_extend(
            fnv1a64_extend(FNV1A64_OFFSET, &seed.to_le_bytes()),
            &(context.len() as u64).to_le_bytes(),
        );
        let bg_ln = bg_each.ln();
        out.clear();
        out.extend(p.iter().enumerate().map(|(i, &prob)| {
            if prob <= 0.0 {
                f32::NEG_INFINITY
            } else {
                let ln = if prob == bg_each { bg_ln } else { prob.ln() };
                let u = hash_to_unit(fnv1a64_extend(prefix, &(i as u64).to_le_bytes())) as f32;
                (ln as f32) + self.cfg.jitter_eps * (u - 0.5)
            }
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{generate, GenerateSpec};
    use crate::sampler::Sampler;

    fn example(tiles: (i64, i64, i64), value: &str) -> String {
        format!(
            "Hyperparameter configuration: size is SM, first_array_packed is True, \
             second_array_packed is False, interchange_first_two_loops is False, \
             outer_loop_tiling_factor is {}, middle_loop_tiling_factor is {}, \
             inner_loop_tiling_factor is {}\nPerformance: {value}\n",
            tiles.0, tiles.1, tiles.2
        )
    }

    fn prompt(values: &[&str]) -> String {
        let tiles = [(80, 64, 100), (4, 8, 16), (32, 50, 96), (128, 20, 8)];
        let mut p = String::from("Here are the examples:\n");
        for (i, v) in values.iter().enumerate() {
            p.push_str(&example(tiles[i % tiles.len()], v));
        }
        p.push_str("Please complete the following:\n");
        p.push_str(
            "Hyperparameter configuration: size is SM, first_array_packed is True, \
             second_array_packed is False, interchange_first_two_loops is False, \
             outer_loop_tiling_factor is 80, middle_loop_tiling_factor is 64, \
             inner_loop_tiling_factor is 128\nPerformance: ",
        );
        p
    }

    fn gen(model: &InductionLm, text: &str, seed: u64) -> crate::trace::GenerationTrace {
        let ids = model.tokenizer().encode(text);
        let spec = GenerateSpec {
            sampler: Sampler::paper(),
            max_tokens: 12,
            stop_tokens: vec![
                model.tokenizer().vocab().token_id("\n").unwrap(),
                model.tokenizer().vocab().token_id(EOS).unwrap(),
            ],
            trace_min_prob: 1e-4,
            seed,
        };
        let model = std::sync::Arc::new(model.clone());
        generate(&model, &ids, &spec).unwrap()
    }

    #[test]
    fn generates_a_wellformed_decimal_value() {
        let m = InductionLm::paper(0);
        let trace = gen(&m, &prompt(&["0.0022155", "0.0051230"]), 1);
        let text = trace.decode(m.tokenizer());
        let text = text.trim();
        assert!(
            text.parse::<f64>().is_ok(),
            "expected a parseable decimal, got {text:?}"
        );
        assert!(text.starts_with("0."), "SM values start 0., got {text:?}");
    }

    #[test]
    fn second_token_is_always_the_period() {
        let m = InductionLm::paper(0);
        for seed in 0..5 {
            let trace = gen(&m, &prompt(&["0.0022155", "0.0051230", "0.0031999"]), seed);
            assert!(trace.steps.len() >= 2);
            assert_eq!(
                m.tokenizer().vocab().token_str(trace.steps[1].chosen),
                ".",
                "seed {seed}"
            );
            assert_eq!(
                trace.steps[1].num_possibilities(),
                1,
                "Table II row 2: exactly one choice"
            );
        }
    }

    #[test]
    fn fraction_positions_have_hundreds_of_possibilities() {
        let m = InductionLm::paper(0);
        let trace = gen(&m, &prompt(&["0.0022155", "0.0051230", "0.0031999"]), 2);
        // Paper Table II: means of 318/537 options at positions 3/4 with
        // stds above 300 — counts vary wildly with ICL value spread. Here
        // the first fraction groups are tightly clustered (002/005/003), so
        // position 3 offers few-but-multiple options, while the scattered
        // second groups (215/123/199) blow position 4 wide open.
        let c3 = trace.steps[2].num_possibilities();
        let c4 = trace.steps[3].num_possibilities();
        assert!(c3 >= 3, "3rd token should offer multiple options, got {c3}");
        assert!(
            (30..=1110).contains(&c4),
            "4th token should offer many options, got {c4}"
        );
    }

    #[test]
    fn values_cluster_on_icl_prefixes() {
        // All ICL values share the prefix 0.002 — the sampled third token
        // should usually be the shared group.
        let m = InductionLm::paper(0);
        let mut hits = 0;
        for seed in 0..20 {
            let trace = gen(&m, &prompt(&["0.0022155", "0.0024890", "0.0021003"]), seed);
            let text = trace.decode(m.tokenizer());
            if text.trim().starts_with("0.002") {
                hits += 1;
            }
        }
        assert!(
            hits >= 12,
            "expected clustering on the common prefix, got {hits}/20"
        );
    }

    #[test]
    fn seeds_share_token_sets_with_jittered_probs() {
        let a = InductionLm::paper(1);
        let b = InductionLm::paper(2);
        let ids = a.tokenizer().encode(&prompt(&["0.0022155", "0.0051230"]));
        let la = a.logits(&ids);
        let lb = b.logits(&ids);
        let support = |l: &[f32]| {
            l.iter()
                .enumerate()
                .filter(|(_, v)| v.is_finite())
                .map(|(i, _)| i)
                .collect::<Vec<_>>()
        };
        assert_eq!(support(&la), support(&lb), "identical token sets");
        let diff: f32 = la
            .iter()
            .zip(&lb)
            .filter(|(x, _)| x.is_finite())
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f32::max);
        assert!(diff > 0.0, "probabilities must differ across seeds");
        assert!(diff <= 2.0 * a.cfg.jitter_eps, "but only trivially: {diff}");
    }

    #[test]
    fn same_seed_logits_are_deterministic() {
        let m = InductionLm::paper(3);
        let ids = m.tokenizer().encode(&prompt(&["0.0022155"]));
        assert_eq!(m.logits(&ids), m.logits(&ids));
    }

    #[test]
    fn hoisted_jitter_matches_the_24_byte_key_oracle() {
        // Oracle: each token's jitter hashes the whole key `seed ‖ len ‖ id`
        // in one `fnv1a64` call. A jitter-free model gives the exact `f32`
        // log-probability the jittered logit is built from.
        fn oracle_u(seed: u64, len: usize, id: usize) -> f32 {
            let mut key = [0u8; 24];
            key[..8].copy_from_slice(&seed.to_le_bytes());
            key[8..16].copy_from_slice(&(len as u64).to_le_bytes());
            key[16..24].copy_from_slice(&(id as u64).to_le_bytes());
            hash_to_unit(lmpeel_recover::fnv1a64(&key)) as f32
        }
        let ids = InductionLm::paper(0)
            .tokenizer()
            .encode(&prompt(&["0.0022155", "0.0051230"]));
        for seed in [0, 1, 7, 0xDEAD_BEEF, u64::MAX] {
            let jittered = InductionLm::paper(seed);
            let plain = InductionLm::new(
                Tokenizer::paper(),
                InductionConfig::default().without_jitter(),
                seed,
            );
            let eps = jittered.cfg.jitter_eps;
            let bg_ln = (jittered.cfg.background / jittered.num_non_special as f64).ln() as f32;
            for len in [0, 1, 9, ids.len() / 2, ids.len()] {
                let (lj, lp) = (jittered.logits(&ids[..len]), plain.logits(&ids[..len]));
                assert_eq!(lj.len(), lp.len());
                assert!(lp.contains(&bg_ln), "len {len}: no background-only token");
                for (id, (&j, &l)) in lj.iter().zip(&lp).enumerate() {
                    let want = if l.is_finite() {
                        l + eps * (oracle_u(seed, len, id) - 0.5)
                    } else {
                        l
                    };
                    assert_eq!(
                        j.to_bits(),
                        want.to_bits(),
                        "seed {seed}, len {len}, id {id}"
                    );
                }
            }
        }
    }

    #[test]
    fn xl_style_values_produce_multiple_first_digit_options() {
        let m = InductionLm::paper(0);
        let ids = m
            .tokenizer()
            .encode(&prompt(&["1.7341093", "2.7012345", "2.8891234"]));
        let logits = m.logits(&ids);
        // Check the full (unfiltered) temperature distribution: nucleus
        // sampling may collapse onto the dominant mode, but the recorded
        // "nonzero logit" set of Figure 4 keeps both leading digits.
        let dist = Sampler {
            top_k: 0,
            top_p: 1.0,
            ..Sampler::paper()
        }
        .distribution(&logits);
        let digits: Vec<&str> = dist
            .iter()
            .filter(|&&(_, p)| p >= 1e-3)
            .map(|&(id, _)| m.tokenizer().vocab().token_str(id))
            .filter(|s| s.len() == 1 && s.chars().all(|c| c.is_ascii_digit()))
            .collect();
        assert!(
            digits.len() >= 2,
            "bimodal first digits expected, got {digits:?}"
        );
    }

    #[test]
    fn without_performance_marker_no_value_is_forced() {
        let m = InductionLm::paper(0);
        let ids = m.tokenizer().encode("just some text with no structure ");
        let logits = m.logits(&ids);
        // must still be a valid distribution over something
        assert!(logits.iter().any(|v| v.is_finite()));
    }

    #[test]
    fn empty_context_is_safe() {
        let m = InductionLm::paper(0);
        let logits = m.logits(&[]);
        assert_eq!(logits.len(), m.tokenizer().vocab().len());
        assert!(logits.iter().any(|v| v.is_finite()));
    }

    #[test]
    fn drift_probability_grows_with_examples() {
        let m = InductionLm::paper(0);
        let few = m.tokenizer().encode(&prompt(&["0.0022155"]));
        let values = vec!["0.0022155"; 40];
        let many = m.tokenizer().encode(&prompt(&values));
        let drift_mass = |ctx: &[TokenId]| {
            let l = m.logits(ctx);
            m.drift_ids
                .iter()
                .map(|&(d, _)| {
                    let v = l[d as usize];
                    if v.is_finite() {
                        (v as f64).exp()
                    } else {
                        0.0
                    }
                })
                .sum::<f64>()
        };
        assert!(
            drift_mass(&many) > drift_mass(&few),
            "drift should grow with ICL count"
        );
    }
}
