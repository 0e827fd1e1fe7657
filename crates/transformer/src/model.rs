//! The two-layer induction transformer.
//!
//! Residual stream layout (widths from [`TransformerConfig`]):
//!
//! ```text
//! [ S0: current-token signature | S1: previous-token signature |
//!   S2: copied-output signature | P: rotary position encoding ]
//! ```
//!
//! Forward pass:
//! 1. embed: `S0 = sig(tok_p)`, `P = pos(p)`;
//! 2. layer 1 (previous-token head): `q = rotate_back(P, 1)`, `k = P`,
//!    `v = S0` → writes each position's previous token signature into `S1`;
//! 3. layer 2 (induction head): `q = S0`, `k = S1`, `v = S0` → attends to
//!    positions whose *previous* token matches the current token and copies
//!    what followed into `S2`;
//! 4. unembed: `logit[t] = kappa * <sig(t), S2>` plus a tiny uniform floor
//!    so the distribution is proper even with no matches.
//!
//! The projections are structured (subspace selections and an exact rotary
//! rotation) — i.e. sparse, hand-set weight matrices — but the attention
//! arithmetic itself is the ordinary dense computation from
//! [`crate::attention`].

use crate::attention::causal_attention;
use crate::session::{fused_prefix_scores, TransformerSession};
use crate::signature::{position_encoding, rotate_back, token_signature};
use lmpeel_lm::{BatchDriver, DecodeSession, LanguageModel};
use lmpeel_tensor::{matrix::dot, softmax_in_place, Tensor2};
use lmpeel_tokenizer::{TokenId, Tokenizer};
use std::sync::{Arc, OnceLock};

/// Architecture constants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransformerConfig {
    /// Token signature width (subspaces S0, S1, S2 each have this width).
    pub d_sig: usize,
    /// Number of rotary pairs (P has width `2 * rope_pairs`).
    pub rope_pairs: usize,
    /// Inverse temperature of the previous-token head.
    pub beta_prev: f32,
    /// Inverse temperature of the induction head.
    pub beta_induct: f32,
    /// Unembedding scale.
    pub kappa: f32,
    /// Uniform logit floor (keeps the distribution proper with no matches).
    pub floor: f32,
    /// Attention-sink score of the induction head: a null key/value row
    /// with this constant score absorbs attention when no real match
    /// exists (the BOS-sink trick), so unmatched queries yield a near-zero
    /// output vector instead of confidently copying noise.
    pub sink_score: f32,
    /// Suffix length the induction head matches on: 1 reproduces the
    /// classic two-layer circuit (match the current token against each
    /// position's previous token); 2 adds a second previous-token head
    /// (rotary offset 2) and concatenates both signatures into the
    /// induction keys, disambiguating bigram contexts the 1-gram head
    /// conflates.
    pub match_ngram: usize,
}

impl Default for TransformerConfig {
    fn default() -> Self {
        Self {
            d_sig: 96,
            rope_pairs: 24,
            beta_prev: 40.0,
            beta_induct: 60.0,
            kappa: 14.0,
            floor: -9.0,
            sink_score: 30.0,
            match_ngram: 1,
        }
    }
}

/// Positions whose previous-token-head attention weights are memoized on
/// the model. Beyond this, sessions fall back to their own cached
/// positional rows (bitwise the same result, just not shared).
const PREV_WEIGHT_CACHE: usize = 2048;

/// One memoization slot per position: filled at most once, then shared.
type WeightSlots = Box<[OnceLock<Arc<Vec<f32>>>]>;

/// The constructed-weights induction transformer.
#[derive(Debug, Clone)]
pub struct InductionTransformer {
    tokenizer: Tokenizer,
    cfg: TransformerConfig,
    /// Signature table, `vocab x d_sig`.
    signatures: Tensor2,
    /// Lazily-filled previous-token-head attention rows, indexed by
    /// `[steps - 1][position]`. The row for a position is a pure function
    /// of the position and the architecture constants — tokens never
    /// enter it — so one computation serves every session, lane, and
    /// fork of this model instance. `OnceLock` keeps the fill race-free
    /// without a lock on the read path.
    prev_weights: [WeightSlots; 2],
}

impl InductionTransformer {
    /// Build over a tokenizer.
    pub fn new(tokenizer: Tokenizer, cfg: TransformerConfig) -> Self {
        let n = tokenizer.vocab().len();
        let mut signatures = Tensor2::zeros(n, cfg.d_sig);
        for t in 0..n {
            signatures
                .row_mut(t)
                .copy_from_slice(&token_signature(t as TokenId, cfg.d_sig));
        }
        let empty = || (0..PREV_WEIGHT_CACHE).map(|_| OnceLock::new()).collect();
        Self {
            tokenizer,
            cfg,
            signatures,
            prev_weights: [empty(), empty()],
        }
    }

    /// Post-softmax previous-token-head attention weights over positions
    /// `0..=p`, with the query rotated back `steps` (1 for the adjacent
    /// head, 2 for the bigram head). Token-independent, so the result is
    /// shared across sessions; `None` past the cache horizon, where the
    /// session computes the identical row from its own positional cache.
    /// Filled and fresh rows are byte-identical: the slot is initialized
    /// by the same deterministic arithmetic the session path runs.
    pub(crate) fn prev_head_weights(&self, p: usize, steps: usize) -> Option<Arc<Vec<f32>>> {
        let slot = self.prev_weights[steps - 1].get(p)?;
        Some(
            slot.get_or_init(|| {
                let q = rotate_back(&position_encoding(p, self.cfg.rope_pairs), steps);
                let mut scores: Vec<f32> = (0..=p)
                    .map(|k| {
                        self.cfg.beta_prev * dot(&q, &position_encoding(k, self.cfg.rope_pairs))
                    })
                    .collect();
                softmax_in_place(&mut scores);
                Arc::new(scores)
            })
            .clone(),
        )
    }

    /// Paper-vocabulary instance with default architecture.
    pub fn paper() -> Self {
        Self::new(Tokenizer::paper(), TransformerConfig::default())
    }

    /// The architecture constants.
    pub fn config(&self) -> TransformerConfig {
        self.cfg
    }

    /// Signature row of a token (used by the incremental session).
    pub fn signature_of(&self, token: TokenId) -> Vec<f32> {
        self.signatures.row(token as usize).to_vec()
    }

    /// Unembed an output vector into full-vocabulary logits: one parallel
    /// matrix–vector product against the signature table, then scale and
    /// floor. Shared by the batch forward pass and the incremental session.
    pub fn unembed(&self, s2: &[f32]) -> Vec<f32> {
        let mut logits = Vec::new();
        self.unembed_into(s2, &mut logits);
        logits
    }

    /// [`Self::unembed`] into a caller-owned buffer, bitwise identical and
    /// allocation-free once the buffer has vocab capacity. This is the
    /// vocab-wide per-step cost, so the decode loop reuses one buffer
    /// across every generated token.
    pub fn unembed_into(&self, s2: &[f32], out: &mut Vec<f32>) {
        self.signatures.matvec_into(s2, out);
        for l in out.iter_mut() {
            *l = (self.cfg.kappa * *l).max(self.cfg.floor);
        }
    }

    /// Full forward pass; returns the final position's S2 (copied-output)
    /// vector, which `logits` unembeds.
    fn forward_output_vector(&self, context: &[TokenId]) -> Vec<f32> {
        let t = context.len();
        assert!(t > 0, "transformer forward needs at least one token");
        let d_sig = self.cfg.d_sig;
        let d_pos = 2 * self.cfg.rope_pairs;

        // Embedding subspaces, stored as separate tensors (the residual
        // stream is their concatenation; keeping them separate avoids
        // copying the sparse projections).
        let mut s0 = Tensor2::zeros(t, d_sig);
        let mut pos = Tensor2::zeros(t, d_pos);
        for (p, &tok) in context.iter().enumerate() {
            s0.row_mut(p)
                .copy_from_slice(self.signatures.row(tok as usize));
            pos.row_mut(p)
                .copy_from_slice(&position_encoding(p, self.cfg.rope_pairs));
        }

        // Layer 1: previous-token head. q_p = rotate_back(pos_p, 1).
        let mut q1 = Tensor2::zeros(t, d_pos);
        for p in 0..t {
            q1.row_mut(p).copy_from_slice(&rotate_back(pos.row(p), 1));
        }
        let mut s1 = causal_attention(&q1, &pos, &s0, self.cfg.beta_prev);
        // Position 0 has no previous token; causal masking would otherwise
        // make it attend to itself and corrupt the induction keys.
        s1.row_mut(0).fill(0.0);

        // Optional second previous-token head (offset 2) for 2-gram keys.
        let s1b = (self.cfg.match_ngram >= 2).then(|| {
            let mut q1b = Tensor2::zeros(t, d_pos);
            for p in 0..t {
                q1b.row_mut(p).copy_from_slice(&rotate_back(pos.row(p), 2));
            }
            let mut s = causal_attention(&q1b, &pos, &s0, self.cfg.beta_prev);
            s.row_mut(0).fill(0.0);
            if t > 1 {
                s.row_mut(1).fill(0.0);
            }
            s
        });

        // Layer 2: induction head. Only the final query matters for
        // next-token prediction, so run it as a single-row suffix query.
        // An augmented dimension implements the null attention sink: the
        // query carries a constant 1 there, real keys carry 0, and a
        // prepended all-zero value row with key = sink_score/beta in the
        // augmented slot absorbs attention when nothing matches.
        // Key width grows with the matched n-gram; the last slot is the
        // sink dimension.
        let d_key = d_sig * self.cfg.match_ngram.max(1);
        let mut q2 = Tensor2::zeros(1, d_key + 1);
        q2.row_mut(0)[..d_sig].copy_from_slice(s0.row(t - 1));
        if let Some(_s1b) = &s1b {
            // Second query slot: the *previous* token's signature, matched
            // against each key's prev-prev signature.
            q2.row_mut(0)[d_sig..2 * d_sig].copy_from_slice(s1.row(t - 1));
        }
        q2.row_mut(0)[d_key] = 1.0;
        let sink = self.cfg.sink_score * self.cfg.match_ngram as f32;
        let mut k2 = Tensor2::zeros(t + 1, d_key + 1);
        k2.row_mut(0)[d_key] = sink / self.cfg.beta_induct;
        let mut v2 = Tensor2::zeros(t + 1, d_sig);
        for p in 0..t {
            k2.row_mut(p + 1)[..d_sig].copy_from_slice(s1.row(p));
            if let Some(s1b) = &s1b {
                k2.row_mut(p + 1)[d_sig..2 * d_sig].copy_from_slice(s1b.row(p));
            }
            v2.row_mut(p + 1).copy_from_slice(s0.row(p));
        }
        let out = causal_attention(&q2, &k2, &v2, self.cfg.beta_induct);
        out.row(0).to_vec()
    }
}

impl LanguageModel for InductionTransformer {
    fn tokenizer(&self) -> &Tokenizer {
        &self.tokenizer
    }

    fn logits(&self, context: &[TokenId]) -> Vec<f32> {
        if context.is_empty() {
            return vec![self.cfg.floor; self.tokenizer.vocab().len()];
        }
        let s2 = self.forward_output_vector(context);
        self.unembed(&s2)
    }

    fn name(&self) -> String {
        format!(
            "induction-transformer(d_sig={}, rope_pairs={})",
            self.cfg.d_sig, self.cfg.rope_pairs
        )
    }

    fn session(self: std::sync::Arc<Self>) -> Box<dyn DecodeSession> {
        Box::new(TransformerSession::new(self))
    }
}

/// Fused multi-session decode: one forward pass computes next-token logits
/// for a whole group of in-flight [`TransformerSession`]s over this model.
///
/// Attention (layers 1–2) is per-lane state and stays per-lane; what fuses
/// is the vocab-wide unembedding, the dominant per-step cost. The B copied-
/// output vectors are stacked into a `d_sig x B` block and pushed through
/// [`Tensor2::matmul_blocked`], whose per-column bitwise equivalence with
/// [`Tensor2::matvec`] (pinned in lmpeel-tensor) makes each fused lane's
/// logits byte-identical to its single-lane path — unlike a real GPU batch,
/// determinism costs nothing here. Unlike a per-lane matvec loop, the GEMM's
/// inner loop carries `B` independent accumulators, breaking the serial
/// f32 dependency chain that makes `dot` latency-bound.
impl BatchDriver for InductionTransformer {
    fn logits_batch(&self, lanes: &[&dyn DecodeSession], out: &mut [Vec<f32>]) {
        assert_eq!(lanes.len(), out.len(), "one output buffer per lane");
        // Phase 1 (&self-pure, no session mutated): each native lane's S2
        // output vector. Lanes that are foreign session types, sessions of
        // a *different* model instance, or empty fall back to their own
        // single-lane path, keeping the call infallible apart from panics.
        let mut sessions: Vec<(usize, &TransformerSession)> = Vec::new();
        for (b, lane) in lanes.iter().enumerate() {
            let native = lane
                .as_any()
                .and_then(|a| a.downcast_ref::<TransformerSession>())
                .filter(|s| s.same_model(self) && !s.tokens().is_empty());
            match native {
                Some(s) => sessions.push((b, s)),
                None => lane.logits_into(&mut out[b]),
            }
        }
        // Phase 1a: score the shared key prefix once for the whole group.
        // Trie-forked lanes pointer-alias their prompt's sealed s1(/s1b)
        // pages (copy-on-write), so those rows are scored in one stacked
        // pass ([`fused_prefix_scores`]) instead of once per lane; each
        // lane then walks only its divergent tail. Lanes with nothing
        // aliased (distinct prompts) get an empty prefix — the plain
        // single-lane key loop.
        let prefix_rows = match &sessions[..] {
            [] | [_] => 0,
            [(_, first), rest @ ..] => {
                let pages = rest
                    .iter()
                    .map(|&(_, s)| first.shared_score_pages(s))
                    .min()
                    .unwrap_or(0);
                sessions
                    .iter()
                    .map(|&(_, s)| s.tokens().len())
                    .min()
                    .unwrap_or(0)
                    .min(pages * lmpeel_tensor::ROWS_PER_PAGE)
            }
        };
        let group: Vec<&TransformerSession> = sessions.iter().map(|&(_, s)| s).collect();
        let prefix = if prefix_rows > 0 {
            fused_prefix_scores(&group, prefix_rows)
        } else {
            vec![Vec::new(); group.len()]
        };
        let mut native: Vec<(usize, Vec<f32>)> = Vec::new();
        for (&(b, s), pre) in sessions.iter().zip(&prefix) {
            match s.output_vector_with_prefix(pre) {
                Some(v) => native.push((b, v)),
                // Unreachable (non-empty is checked above), but fall back
                // rather than panic the group.
                None => lanes[b].logits_into(&mut out[b]),
            }
        }
        match &native[..] {
            [] => {}
            // A lone native lane takes the exact single-lane unembed.
            [(b, s2)] => self.unembed_into(s2, &mut out[*b]),
            // Stack the B output vectors column-wise and unembed them all
            // in one blocked GEMM; column `col` of the product is bitwise
            // what `matvec` would have produced for that lane alone, so
            // the elementwise scale-and-floor reproduces `unembed` byte
            // for byte.
            _ => {
                let width = native.len();
                let mut block = Tensor2::zeros(self.cfg.d_sig, width);
                for (col, (_, s2)) in native.iter().enumerate() {
                    for (r, &x) in s2.iter().enumerate() {
                        block.row_mut(r)[col] = x;
                    }
                }
                let product = self.signatures.matmul_blocked(&block);
                for (col, (b, _)) in native.iter().enumerate() {
                    let lane_out = &mut out[*b];
                    lane_out.clear();
                    lane_out.extend(
                        (0..self.tokenizer.vocab().len())
                            .map(|r| (self.cfg.kappa * product.row(r)[col]).max(self.cfg.floor)),
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmpeel_tensor::argmax;

    fn model() -> InductionTransformer {
        InductionTransformer::paper()
    }

    fn ids(m: &InductionTransformer, text: &str) -> Vec<TokenId> {
        m.tokenizer().encode(text)
    }

    #[test]
    fn repeated_bigram_is_completed() {
        // " loop tile ... loop" -> the induction head must predict " tile".
        // (Leading space keeps every occurrence the same space-prefixed
        // word token.)
        let m = model();
        let ctx = ids(&m, " loop tile packing array loop");
        let expected = ids(&m, " loop tile")[1];
        assert_eq!(
            m.tokenizer().vocab().token_str(expected),
            " tile",
            "test precondition: ' tile' is a single token"
        );
        let logits = m.logits(&ctx);
        assert_eq!(argmax(&logits), Some(expected as usize));
    }

    #[test]
    fn copying_works_for_numeric_tokens() {
        let m = model();
        // After "Performance: 0." ... "Performance: 0." the next group
        // should be parroted.
        let ctx = ids(&m, "Performance: 0.123 and later Performance: 0.");
        let logits = m.logits(&ctx);
        let group = m.tokenizer().vocab().token_id("123").unwrap();
        assert_eq!(argmax(&logits), Some(group as usize), "should parrot '123'");
    }

    #[test]
    fn parrots_icl_value_onset() {
        // Two examples ending "Performance: 0...." and a query ending
        // "Performance: " — the model should propose "0".
        let m = model();
        let text = "tile is 80\nPerformance: 0.0022155\ntile is 16\n\
                    Performance: 0.0051230\ntile is 128\nPerformance: ";
        let logits = m.logits(&ids(&m, text));
        let zero = m.tokenizer().vocab().token_id("0").unwrap();
        assert_eq!(argmax(&logits), Some(zero as usize));
    }

    #[test]
    fn matched_contexts_are_more_confident_than_unmatched() {
        let m = model();
        // Matched: final token repeats an earlier token, so the induction
        // head copies its follower confidently. Unmatched: all-distinct
        // word tokens leave only signature-noise attention.
        let matched = ids(&m, " loop tile packing loop");
        let unmatched = ids(&m, " problem considers optimization");
        let peak = |ctx: &[TokenId]| {
            let l = m.logits(ctx);
            l.iter().cloned().fold(f32::NEG_INFINITY, f32::max)
        };
        assert!(
            peak(&matched) > peak(&unmatched) + 1.0,
            "match {:.2} vs no-match {:.2}",
            peak(&matched),
            peak(&unmatched)
        );
    }

    #[test]
    fn deterministic_forward() {
        let m = model();
        let ctx = ids(&m, "x y z x");
        assert_eq!(m.logits(&ctx), m.logits(&ctx));
    }

    #[test]
    fn empty_context_is_safe() {
        let m = model();
        let logits = m.logits(&[]);
        assert_eq!(logits.len(), m.tokenizer().vocab().len());
        assert!(logits.iter().all(|&v| v == m.config().floor));
    }

    #[test]
    fn followers_outscore_non_followers_on_conflict() {
        // "A B .. A C .. A": both B and C followed A; either must outscore a
        // token that never followed A.
        let m = model();
        let ctx = ids(&m, " loop tile array loop packing array loop");
        let logits = m.logits(&ctx);
        let tile_id = ids(&m, " loop tile")[1] as usize;
        let pack_id = ids(&m, " loop packing")[1] as usize;
        let array_id = ids(&m, " loop array")[1] as usize;
        let best_follower = logits[tile_id].max(logits[pack_id]);
        assert!(
            best_follower > logits[array_id],
            "followers of ' loop' must outscore non-followers: tile={} pack={} array={}",
            logits[tile_id],
            logits[pack_id],
            logits[array_id]
        );
    }

    #[test]
    fn bigram_head_disambiguates_where_the_unigram_head_cannot() {
        // Occurrences of " tile": after " loop tile" comes " size"; after
        // " problem tile" comes " array". The query ends " loop tile".
        let text = " loop tile size problem tile array loop tile";
        let uni = InductionTransformer::paper();
        let bi = InductionTransformer::new(
            lmpeel_tokenizer::Tokenizer::paper(),
            TransformerConfig {
                match_ngram: 2,
                ..TransformerConfig::default()
            },
        );
        let ids = uni.tokenizer().encode(text);
        let size_id = uni.tokenizer().vocab().token_id(" size").unwrap() as usize;
        let array_id = uni.tokenizer().vocab().token_id(" array").unwrap() as usize;

        let l_uni = uni.logits(&ids);
        let l_bi = bi.logits(&ids);
        // The 1-gram head mixes both followers of " tile"...
        let uni_gap = (l_uni[size_id] - l_uni[array_id]).abs();
        // ...the 2-gram head decisively picks the " loop tile" continuation.
        assert!(
            l_bi[size_id] > l_bi[array_id] + 2.0,
            "bigram should prefer ' size': {} vs {}",
            l_bi[size_id],
            l_bi[array_id]
        );
        assert!(
            l_bi[size_id] - l_bi[array_id] > uni_gap + 1.0,
            "bigram separation must exceed unigram's ({uni_gap})"
        );
        assert_eq!(lmpeel_tensor::argmax(&l_bi), Some(size_id));
    }

    #[test]
    fn generation_loop_runs_against_the_transformer() {
        use lmpeel_lm::{generate, GenerateSpec, Sampler};
        let m = std::sync::Arc::new(model());
        let prompt = ids(&m, " outer middle inner outer");
        let spec = GenerateSpec::builder()
            .sampler(Sampler::greedy())
            .max_tokens(3)
            .stop_tokens(vec![])
            .trace_min_prob(1e-4)
            .seed(0)
            .build()
            .unwrap();
        let trace = generate(&m, &prompt, &spec).unwrap();
        let text = trace.decode(m.tokenizer());
        assert!(
            text.starts_with(" middle"),
            "induction should continue the repeated phrase, got {text:?}"
        );
    }
}
