//! Incremental decoding for [`InductionLm`].
//!
//! The batch [`crate::model::LanguageModel::logits`] path re-derives three
//! things from scratch on every call: the block segmentation
//! ([`super::blocks::ContextMap::segment`], O(T)), the per-block config
//! similarities (O(blocks x config)), and — dominating everything — the
//! suffix-match scan of [`InductionLm`]'s induction votes, which compares
//! the trailing tokens against every earlier position (O(T x max_match)).
//! Over a generation of G tokens that is O(G·T·max_match).
//!
//! [`InductionLmSession`] keeps the first two incrementally and narrows the
//! third:
//!
//! * **segmentation** — block starts, frozen `Performance` positions and
//!   per-block config token sets grow in O(1) per appended token;
//! * **similarities** — integer intersection counts `|config ∩ query|`
//!   updated per append, so each Jaccard is the *same* integer division the
//!   batch path performs (bit-identical similarities);
//! * **suffix matches** — only a position `t` preceded by the last token
//!   can match the context tail at all, so occurrence links name every
//!   candidate: `last` holds each token's latest position and `prev` each
//!   position's previous occurrence of its token. Appending is two stores
//!   and forking two flat copies. `logits()` walks the last token's `prev`
//!   chain and measures each match with the batch path's compare loop, in
//!   O(occurrences x max_match). No per-position match state is kept.
//!
//! Votes come from the batch path's own vote walk, fed the candidate
//! positions in the same ascending order, and go to the same
//! `finish_logits` tail: priors, smearing, drift, background and jitter are
//! shared code, so session and batch logits are bitwise equal.
//!
//! The session's logit jitter is keyed by a session-owned seed initialised
//! from the model's. [`DecodeSession::rekey`] swaps that seed, which is
//! exactly the only seed-dependent state `InductionLm` has (format drift and
//! prompt confusion are prompt-keyed by design — all sampling seeds must
//! agree on whether a prompt derails, as they did in the paper's
//! inspection). That makes cross-seed prompt-prefix sharing sound: prefill
//! once, fork per seed, rekey each fork.

use super::{InductionLm, LOGIT_SCRATCH};
use crate::session::DecodeSession;
use lmpeel_tokenizer::TokenId;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// The end of an occurrence chain: no earlier position holds the token.
const NO_POS: u32 = u32::MAX;

/// Incremental state of one `Hyperparameter ...` block.
#[derive(Debug, Clone)]
struct BlockState {
    /// Position of the anchor token.
    start: usize,
    /// Position of the block's `Performance` token; once set, the config
    /// token set is frozen.
    perf_pos: Option<usize>,
    /// Distinct tokens of the configuration region (anchor inclusive,
    /// `Performance` exclusive) — the batch path's config-span set.
    config: BTreeSet<TokenId>,
    /// `|config ∩ query config|`, maintained as an integer so the session's
    /// Jaccard is the very division the batch segmentation computes.
    inter_q: usize,
}

/// Incremental [`DecodeSession`] over an [`InductionLm`].
///
/// Logits equal the model's batch path bit for bit on every prefix (the
/// equivalence proptests in this module pin the two together). An append
/// costs O(1), plus O(blocks) when it changes the query's config set; a
/// logits call walks the last token's occurrences, not the whole context.
/// A fork copies the token and link vectors flat, plus the block sets.
#[derive(Debug, Clone)]
pub struct InductionLmSession {
    model: Arc<InductionLm>,
    tokens: Vec<TokenId>,
    /// Jitter seed; starts as the model's, swappable via `rekey`.
    seed: u64,
    blocks: Vec<BlockState>,
    /// Per token id, the latest position holding it (`NO_POS` if none).
    last: Vec<u32>,
    /// Per position, the previous position holding the same token
    /// (`NO_POS` if none).
    prev: Vec<u32>,
}

impl InductionLmSession {
    /// Empty session over `model`, jitter-keyed by the model's seed.
    pub fn new(model: Arc<InductionLm>) -> Self {
        let seed = model.seed();
        let last = vec![NO_POS; model.tokenizer.vocab().len()];
        Self {
            model,
            tokens: Vec::new(),
            seed,
            blocks: Vec::new(),
            last,
            prev: Vec::new(),
        }
    }

    /// Index of the block containing position `pos` (positions before the
    /// first anchor belong to none). Blocks tile the context from the first
    /// anchor onward, so containment needs no end bound.
    fn block_of(&self, pos: usize) -> Option<usize> {
        self.blocks
            .partition_point(|b| b.start <= pos)
            .checked_sub(1)
    }

    /// Jaccard similarity of each block's config set against the query
    /// block's, from the maintained intersection counts.
    fn sims(&self) -> Vec<f64> {
        let q_len = match self.blocks.last() {
            Some(q) => q.config.len(),
            None => return vec![],
        };
        self.blocks
            .iter()
            .map(|b| b.inter_q as f64 / (q_len + b.config.len() - b.inter_q) as f64)
            .collect()
    }

    /// The induction votes for the current context: the batch path's vote
    /// walk over the positions that follow an earlier occurrence of the last
    /// token — exactly the positions whose suffix match is nonzero, in
    /// ascending order.
    fn assemble_votes(&self) -> (BTreeMap<TokenId, f64>, f64) {
        // The chain runs newest first; the vote walk sums in ascending order.
        let mut following = Vec::new();
        let mut q = self.prev.last().copied().unwrap_or(NO_POS);
        while q != NO_POS {
            following.push(q as usize + 1);
            q = self.prev[q as usize];
        }
        self.model.induction_votes(
            &self.tokens,
            following.into_iter().rev(),
            &self.sims(),
            |pos| self.block_of(pos),
        )
    }
}

impl DecodeSession for InductionLmSession {
    fn tokens(&self) -> &[TokenId] {
        &self.tokens
    }

    fn append(&mut self, token: TokenId) {
        let p = self.tokens.len();
        let t = token as usize;
        if t >= self.last.len() {
            self.last.resize(t + 1, NO_POS);
        }
        self.prev.push(self.last[t]);
        self.last[t] = u32::try_from(p).expect("context positions fit in u32");

        // Segmentation and similarity counts.
        let anchors = self.model.anchor_ids();
        if token == anchors.hyper {
            let mut config = BTreeSet::new();
            config.insert(token);
            self.blocks.push(BlockState {
                start: p,
                perf_pos: None,
                config,
                inter_q: 0,
            });
            // The query block changed: rebuild intersections against the
            // new singleton query set {Hyperparameter}.
            for b in &mut self.blocks {
                b.inter_q = usize::from(b.config.contains(&token));
            }
        } else if let Some(qi) = self.blocks.len().checked_sub(1) {
            if self.blocks[qi].perf_pos.is_none() {
                if token == anchors.perf {
                    self.blocks[qi].perf_pos = Some(p);
                } else if self.blocks[qi].config.insert(token) {
                    // The query config gained a distinct token: every block
                    // already containing it intersects one deeper (the
                    // query itself included, keeping its self-sim at 1).
                    for b in &mut self.blocks {
                        if b.config.contains(&token) {
                            b.inter_q += 1;
                        }
                    }
                }
            }
        }

        self.tokens.push(token);
    }

    fn logits(&self) -> Vec<f32> {
        let mut out = Vec::new();
        self.logits_into(&mut out);
        out
    }

    /// Native buffer-reusing path: the shared `finish_logits` tail writes
    /// straight into `out`, so a decode loop on this substrate performs no
    /// vocab-wide allocation per step.
    fn logits_into(&self, out: &mut Vec<f32>) {
        let (votes, strength) = self.assemble_votes();
        let query_start = self.blocks.last().map(|b| b.start);
        LOGIT_SCRATCH.with_borrow_mut(|scratch| {
            self.model.finish_logits_into(
                &self.tokens,
                self.blocks.len(),
                query_start,
                &votes,
                strength,
                self.seed,
                scratch,
                out,
            )
        });
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn fork(&self) -> Box<dyn DecodeSession> {
        Box::new(self.clone())
    }

    fn rekey(&mut self, seed: u64) -> bool {
        self.seed = seed;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::super::blocks::ContextMap;
    use super::*;
    use crate::model::LanguageModel;

    fn example(tiles: (i64, i64, i64), value: &str) -> String {
        format!(
            "Hyperparameter configuration: size is SM, outer_loop_tiling_factor is {}, \
             middle_loop_tiling_factor is {}, inner_loop_tiling_factor is {}\n\
             Performance: {value}\n",
            tiles.0, tiles.1, tiles.2
        )
    }

    fn prompt(values: &[&str]) -> String {
        let tiles = [(80, 64, 100), (4, 8, 16), (32, 50, 96), (128, 20, 8)];
        let mut p = String::from("Here are the examples:\n");
        for (i, v) in values.iter().enumerate() {
            p.push_str(&example(tiles[i % tiles.len()], v));
        }
        p.push_str(
            "Hyperparameter configuration: size is SM, outer_loop_tiling_factor is 80, \
             middle_loop_tiling_factor is 64, inner_loop_tiling_factor is 128\n\
             Performance: ",
        );
        p
    }

    /// Whether two logit vectors are equal bit for bit.
    fn bitwise_eq(a: &[f32], b: &[f32]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
    }

    /// Append `ids` one at a time, checking session logits against the
    /// batch path at every prefix.
    fn assert_session_matches_batch(m: &Arc<InductionLm>, ids: &[TokenId]) {
        let mut s = m.clone().session();
        for (i, &t) in ids.iter().enumerate() {
            s.append(t);
            assert!(
                bitwise_eq(&s.logits(), &m.logits(&ids[..=i])),
                "prefix {}",
                i + 1
            );
        }
    }

    #[test]
    fn session_matches_batch_at_every_prefix_of_a_real_prompt() {
        let m = Arc::new(InductionLm::paper(3));
        let ids = m
            .tokenizer()
            .encode(&prompt(&["0.0022155", "0.0051230", "0.0031999"]));
        assert_session_matches_batch(&m, &ids);
    }

    #[test]
    fn session_matches_batch_through_a_generation_tail() {
        // Continue past the prompt with generated-looking tokens, covering
        // the value states and the post-value scaffold.
        let m = Arc::new(InductionLm::paper(0));
        let tok = m.tokenizer();
        let mut ids = tok.encode(&prompt(&["0.0022155", "0.0051230"]));
        ids.extend(tok.encode("0.0023117\nHyperparameter"));
        assert_session_matches_batch(&m, &ids);
    }

    #[test]
    fn session_votes_are_the_batch_votes_bitwise() {
        // The logits pass the votes through `f32`, which hides most
        // reorderings of their `f64` sums, so compare the votes themselves:
        // the occurrence chain must reach the vote walk in ascending order.
        let m = Arc::new(InductionLm::paper(0));
        let ids = m.tokenizer().encode(&prompt(&[
            "0.0022155",
            "0.0051230",
            "0.0031999",
            "0.0022155",
            "0.0024890",
        ]));
        let bits = |(votes, strength): (BTreeMap<TokenId, f64>, f64)| {
            let votes: Vec<(TokenId, u64)> =
                votes.into_iter().map(|(t, w)| (t, w.to_bits())).collect();
            (votes, strength.to_bits())
        };
        let mut s = InductionLmSession::new(Arc::clone(&m));
        for (i, &t) in ids.iter().enumerate() {
            s.append(t);
            let ctx = &ids[..=i];
            let map = ContextMap::segment(ctx, m.anchor_ids());
            let sims = map.config_similarities(ctx);
            let batch = m.induction_votes(ctx, 1..ctx.len(), &sims, |pos| map.block_of(pos));
            assert_eq!(bits(s.assemble_votes()), bits(batch), "prefix {}", i + 1);
        }
    }

    #[test]
    fn empty_session_matches_empty_batch() {
        let m = Arc::new(InductionLm::paper(0));
        let s = m.clone().session();
        assert!(bitwise_eq(&s.logits(), &m.logits(&[])));
    }

    #[test]
    fn fork_is_independent_and_rekey_matches_a_reseeded_model() {
        let a = Arc::new(InductionLm::paper(1));
        let b = InductionLm::paper(9);
        let ids = a.tokenizer().encode(&prompt(&["0.0022155", "0.0051230"]));
        let mut parent = a.clone().session();
        parent.extend(&ids);
        let before = parent.logits();
        {
            let mut fork = parent.fork();
            assert!(fork.rekey(9), "induction sessions can re-key jitter");
            assert!(
                bitwise_eq(&fork.logits(), &b.logits(&ids)),
                "rekeyed fork vs seed-9 model"
            );
            fork.append(a.tokenizer().encode("0")[0]);
        }
        assert_eq!(parent.logits(), before, "fork must not disturb the parent");
        assert!(
            bitwise_eq(&parent.logits(), &a.logits(&ids)),
            "parent still keyed by its own seed"
        );
    }

    #[test]
    fn session_matches_batch_bitwise_on_a_repetitive_stream() {
        // Every position repeats an earlier one, so each logits call walks
        // a growing occurrence list and matches run up to the whole tail.
        let m = Arc::new(InductionLm::paper(0));
        let ids = m.tokenizer().encode("80 64 80 64 80");
        assert_session_matches_batch(&m, &ids);
    }

    mod equivalence_props {
        use super::*;
        use proptest::prelude::*;

        /// Random streams over a small alphabet that includes the anchor
        /// tokens, so segmentation, value states and drift all get
        /// exercised, with heavy repetition to drive the match index.
        fn arb_stream() -> impl Strategy<Value = Vec<u8>> {
            proptest::collection::vec(0u8..12, 1..80)
        }

        fn alphabet(m: &InductionLm) -> Vec<TokenId> {
            let v = m.tokenizer().vocab();
            let out: Vec<TokenId> = [
                "Hyperparameter",
                "Performance",
                ": ",
                "\n",
                " is",
                "0",
                ".",
                "002",
                "215",
                "80",
                " ",
                ", ",
            ]
            .iter()
            .filter_map(|s| v.token_id(s))
            .collect();
            assert!(out.len() >= 8, "alphabet unexpectedly sparse");
            out
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            #[test]
            fn random_streams_agree_with_batch(stream in arb_stream(), seed in 0u64..8) {
                let m = Arc::new(InductionLm::paper(seed));
                let alpha = alphabet(&m);
                let ids: Vec<TokenId> =
                    stream.iter().map(|&i| alpha[i as usize % alpha.len()]).collect();
                let mut s = m.clone().session();
                for (i, &t) in ids.iter().enumerate() {
                    s.append(t);
                    prop_assert!(bitwise_eq(&s.logits(), &m.logits(&ids[..=i])), "prefix {}", i + 1);
                }
            }

            #[test]
            fn forked_sessions_agree_with_batch_on_divergent_tails(
                stem in arb_stream(),
                tail_a in arb_stream(),
                tail_b in arb_stream(),
            ) {
                let m = Arc::new(InductionLm::paper(0));
                let alpha = alphabet(&m);
                let to_ids = |s: &[u8]| -> Vec<TokenId> {
                    s.iter().map(|&i| alpha[i as usize % alpha.len()]).collect()
                };
                let stem = to_ids(&stem);
                let (tail_a, tail_b) = (to_ids(&tail_a), to_ids(&tail_b));
                let mut parent = m.clone().session();
                parent.extend(&stem);
                let mut fa = parent.fork();
                fa.extend(&tail_a);
                let mut ctx_a = stem.clone();
                ctx_a.extend_from_slice(&tail_a);
                prop_assert!(bitwise_eq(&fa.logits(), &m.logits(&ctx_a)));
                drop(fa);
                let mut fb = parent.fork();
                fb.extend(&tail_b);
                let mut ctx_b = stem.clone();
                ctx_b.extend_from_slice(&tail_b);
                prop_assert!(bitwise_eq(&fb.logits(), &m.logits(&ctx_b)));
            }
        }
    }
}
