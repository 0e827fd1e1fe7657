//! Incremental decoding sessions (the KV-cache path).
//!
//! [`crate::model::InductionTransformer::logits`] recomputes the full
//! forward pass per call — O(T²·d) attention for every generated token. A
//! [`TransformerSession`] caches what the architecture allows:
//!
//! * layer 1 (the previous-token heads) writes `S1[p]` (and `S1b[p]` for
//!   2-gram models), which depend only on positions `0..=p` — appending a
//!   token appends one cached row per head;
//! * layer 2 (the induction head) only ever queries from the *final*
//!   position, so each decode step is one O(T·d) attention row over the
//!   cached keys.
//!
//! Appending one token is therefore O(T·d) instead of O(T²·d), the same
//! asymptotic win a production KV cache gives a decoder-only transformer.
//!
//! The caches are persistent paged row stores
//! ([`lmpeel_tensor::PagedRows`]) that only ever grow; neither
//! `append` nor `logits` materializes per-call
//! [`Tensor2`](lmpeel_tensor::Tensor2)s — the
//! attention rows are computed straight off the cached row slices. Pages
//! are shared copy-on-write across [`DecodeSession::fork`]: a fork of a
//! 512-token prompt aliases the parent's sealed pages instead of deep
//! copying ~0.6 MB of cache, and the first divergent append un-shares only
//! the tail page. The session implements [`DecodeSession`], so the generic
//! generation loop and the experiment grid drive it through
//! [`lmpeel_lm::LanguageModel::session`] without knowing the substrate.

use crate::model::{InductionTransformer, TransformerConfig};
use crate::signature::{position_encoding, rotate_back};
use lmpeel_lm::{BatchDriverRef, DecodeSession, LanguageModel};
use lmpeel_tensor::{matrix::dot, softmax_in_place, PagedRows};
use lmpeel_tokenizer::TokenId;
use std::sync::Arc;

/// An incremental decoding session over an [`InductionTransformer`].
///
/// Logits agree with the batch forward pass on every prefix (< 1e-4 max
/// absolute difference, pinned by this module's tests and the proptest
/// equivalence suite), for both `match_ngram` 1 and 2. An empty session
/// yields the batch path's empty-context floor distribution.
#[derive(Debug, Clone)]
pub struct TransformerSession {
    model: Arc<InductionTransformer>,
    /// Tokens consumed so far.
    tokens: Vec<TokenId>,
    /// Cached token signatures (S0), paged `len x d_sig` rows, shared
    /// copy-on-write with forks.
    s0: PagedRows,
    /// Cached previous-token signatures (S1), paged `len x d_sig` rows.
    s1: PagedRows,
    /// Cached prev-prev signatures (S1b, rotary offset 2), paged
    /// `len x d_sig` rows; only maintained for `match_ngram >= 2` models.
    s1b: Option<PagedRows>,
    /// Cached positional encodings, paged `len x d_pos` rows.
    pos: PagedRows,
}

impl TransformerSession {
    /// Start an empty session.
    pub fn new(model: Arc<InductionTransformer>) -> Self {
        let cfg = model.config();
        let s1b = (cfg.match_ngram >= 2).then(|| PagedRows::new(cfg.d_sig));
        Self {
            model,
            tokens: Vec::new(),
            s0: PagedRows::new(cfg.d_sig),
            s1: PagedRows::new(cfg.d_sig),
            s1b,
            pos: PagedRows::new(2 * cfg.rope_pairs),
        }
    }

    fn cfg(&self) -> TransformerConfig {
        self.model.config()
    }

    /// True iff this session decodes against exactly `model` (pointer
    /// identity) — the precondition for fusing it into that model's
    /// batched forward pass.
    pub(crate) fn same_model(&self, model: &InductionTransformer) -> bool {
        std::ptr::eq(Arc::as_ptr(&self.model), model)
    }

    /// One previous-token-head output row: attend over positional keys
    /// `0..=p` with the query rotated back `steps`, mixing cached S0
    /// rows — the same per-row arithmetic as the batch layer-1 attention.
    /// The attention weights are token-independent, so they come from the
    /// model's shared per-position memo when available; past the memo
    /// horizon the identical row is computed from this session's cached
    /// positional rows (same bits either way — the memo is filled by the
    /// same arithmetic).
    fn prev_head_row(&self, p: usize, steps: usize) -> Vec<f32> {
        let cfg = self.cfg();
        let memoized = self.model.prev_head_weights(p, steps);
        let scores: &[f32] = match &memoized {
            Some(w) => w,
            None => {
                let q = rotate_back(self.pos.row(p), steps);
                let mut scores: Vec<f32> = self
                    .pos
                    .rows()
                    .take(p + 1)
                    .map(|key| cfg.beta_prev * dot(&q, key))
                    .collect();
                softmax_in_place(&mut scores);
                return Self::mix_s0(&scores, &self.s0, cfg.d_sig);
            }
        };
        Self::mix_s0(scores, &self.s0, cfg.d_sig)
    }

    /// Value mix of the previous-token head: accumulate `d_sig`-wide S0
    /// rows under `scores`, skipping weights the sharp softmax has driven
    /// to zero.
    fn mix_s0(scores: &[f32], s0: &PagedRows, d_sig: usize) -> Vec<f32> {
        let mut acc = vec![0.0f32; d_sig];
        for (&a, value) in scores.iter().zip(s0.rows()) {
            if a < 1e-8 {
                continue;
            }
            for (o, &x) in acc.iter_mut().zip(value) {
                *o += a * x;
            }
        }
        acc
    }

    /// The final position's S2 (copied-output) vector — the induction-head
    /// attention row over the cached keys, everything in [`Self::logits`]
    /// up to (but excluding) the unembedding. `None` on an empty session,
    /// whose logits are the uniform floor. Pure: takes `&self` and touches
    /// no cache, so an aborted batched attempt leaves the session intact.
    pub(crate) fn output_vector(&self) -> Option<Vec<f32>> {
        self.output_vector_with_prefix(&[])
    }

    /// [`Self::output_vector`] with the raw (pre-`beta_induct`) key sums
    /// for positions `0..prefix_raw.len()` already computed — the fused
    /// batch path hands in the shared-prefix scores from
    /// [`fused_prefix_scores`] so each lane only walks its divergent tail.
    /// Each element must be bitwise what this session's own key loop would
    /// have produced for that position; everything downstream (scale,
    /// softmax, S2 mix) is shared code, so the result is byte-identical to
    /// the unfused call.
    pub(crate) fn output_vector_with_prefix(&self, prefix_raw: &[f32]) -> Option<Vec<f32>> {
        let cfg = self.cfg();
        if self.tokens.is_empty() {
            return None;
        }
        let t = self.tokens.len();
        debug_assert!(prefix_raw.len() <= t, "prefix extends past the cache");
        // Scores over [sink, key_0, .., key_{t-1}]. The sink is a null
        // key/value row whose score is the constant `sink_score *
        // match_ngram` (written as beta * (sink / beta), exactly as the
        // batch path's augmented-dimension dot product evaluates it).
        let sink = cfg.sink_score * cfg.match_ngram as f32;
        let q_sig = self.s0.row(t - 1);
        let q_prev = self.s1b.is_some().then(|| self.s1.row(t - 1));
        let mut scores = Vec::with_capacity(t + 1);
        scores.push(cfg.beta_induct * (sink / cfg.beta_induct));
        for &s in prefix_raw {
            scores.push(cfg.beta_induct * s);
        }
        for (p, s1p) in self.s1.rows().enumerate().skip(prefix_raw.len()) {
            // Accumulate in the batch path's order: one sequential sum over
            // the concatenated [s1 | s1b] key row, so the two paths round
            // identically (beta * kappa amplifies association noise).
            let s: f32 = match (q_prev, &self.s1b) {
                (Some(qp), Some(s1b)) => q_sig
                    .iter()
                    .zip(s1p)
                    .map(|(a, b)| a * b)
                    .chain(qp.iter().zip(s1b.row(p)).map(|(a, b)| a * b))
                    .sum(),
                _ => dot(q_sig, s1p),
            };
            scores.push(cfg.beta_induct * s);
        }
        softmax_in_place(&mut scores);
        let mut s2 = vec![0.0f32; cfg.d_sig];
        for (&a, value) in scores.iter().skip(1).zip(self.s0.rows()) {
            if a < 1e-8 {
                continue;
            }
            for (o, &x) in s2.iter_mut().zip(value) {
                *o += a * x;
            }
        }
        Some(s2)
    }

    /// Number of leading score-key cache pages this session still shares
    /// (pointer-aliases) with `other` — the rows a fused forward may score
    /// once for both lanes. Checks every cache the induction scores read
    /// (`s1`, and `s1b` when maintained), so a shared count guarantees
    /// identical key rows.
    pub(crate) fn shared_score_pages(&self, other: &TransformerSession) -> usize {
        let mut n = 0;
        while self.s1.shares_page(&other.s1, n)
            && match (&self.s1b, &other.s1b) {
                (Some(a), Some(b)) => a.shares_page(b, n),
                (None, None) => true,
                _ => return 0,
            }
        {
            n += 1;
        }
        n
    }
}

/// Raw induction-score key sums for the shared cache prefix, all lanes at
/// once: one pass over the aliased `s1`(/`s1b`) rows with the B lane
/// queries stacked k-major, instead of B passes over the same memory.
/// Returns one column (length `prefix_rows`) per lane; element `p` of
/// lane `j`'s column is bitwise what that lane's own key loop computes
/// for position `p`: the accumulator is seeded like an f32 `sum()` and
/// adds the `s1` terms in ascending `k`, then the `s1b` terms in
/// ascending `k` — the exact fold order of the single-lane
/// `dot`/chained-sum, just interleaved across B independent accumulators
/// (which is also why it vectorizes where the single-lane chain cannot).
///
/// Callers must only pass `prefix_rows` covering rows whose `s1`/`s1b`
/// pages are aliased across every lane (see
/// [`TransformerSession::shared_score_pages`]); all lanes must be
/// non-empty sessions of the same model.
pub(crate) fn fused_prefix_scores(
    lanes: &[&TransformerSession],
    prefix_rows: usize,
) -> Vec<Vec<f32>> {
    let Some(first) = lanes.first() else {
        return Vec::new();
    };
    let d = first.cfg().d_sig;
    let b = lanes.len();
    // Stack the lane queries k-major (`q[k * b + j]` = lane j's component
    // k) so the inner loop reads one contiguous B-wide stripe per k.
    let stack = |row_of: &dyn Fn(&TransformerSession) -> &[f32]| -> Vec<f32> {
        let mut q = vec![0.0f32; d * b];
        for (j, lane) in lanes.iter().enumerate() {
            for (k, &v) in row_of(lane).iter().enumerate() {
                q[k * b + j] = v;
            }
        }
        q
    };
    let q_sig = stack(&|lane| lane.s0.row(lane.tokens.len() - 1));
    let q_prev = first
        .s1b
        .is_some()
        .then(|| stack(&|lane| lane.s1.row(lane.tokens.len() - 1)));
    let mut out = vec![Vec::with_capacity(prefix_rows); b];
    let mut acc = vec![0.0f32; b];
    let s1b_rows = first.s1b.as_ref().map(|s| s.rows());
    let mut s1b_rows = s1b_rows;
    for key in first.s1.rows().take(prefix_rows) {
        // Seed with -0.0: `f32: Sum` folds from negative zero, and the
        // single-lane path sums via `dot`/`.sum()`.
        acc.fill(-0.0);
        for (k, &a) in key.iter().enumerate() {
            for (o, &qv) in acc.iter_mut().zip(&q_sig[k * b..(k + 1) * b]) {
                *o += a * qv;
            }
        }
        if let (Some(rows), Some(qp)) = (s1b_rows.as_mut(), q_prev.as_deref()) {
            if let Some(key_b) = rows.next() {
                for (k, &a) in key_b.iter().enumerate() {
                    for (o, &qv) in acc.iter_mut().zip(&qp[k * b..(k + 1) * b]) {
                        *o += a * qv;
                    }
                }
            }
        }
        for (col, &s) in out.iter_mut().zip(&acc) {
            col.push(s);
        }
    }
    out
}

impl DecodeSession for TransformerSession {
    fn tokens(&self) -> &[TokenId] {
        &self.tokens
    }

    /// Append one token, updating the caches in O(T·d).
    fn append(&mut self, token: TokenId) {
        let cfg = self.cfg();
        let p = self.tokens.len();
        self.tokens.push(token);
        self.s0.push_row(&self.model.signature_of(token));
        self.pos.push_row(&position_encoding(p, cfg.rope_pairs));

        // Layer-1 row for position p. Position 0 has no previous token (the
        // batch forward zeroes it so causal self-attention can't corrupt
        // the induction keys); likewise positions 0..2 for the offset-2
        // head.
        if p == 0 {
            self.s1.push_row(&vec![0.0; cfg.d_sig]);
        } else {
            let row = self.prev_head_row(p, 1);
            self.s1.push_row(&row);
        }
        if let Some(mut s1b) = self.s1b.take() {
            let row = if p <= 1 {
                vec![0.0; cfg.d_sig]
            } else {
                self.prev_head_row(p, 2)
            };
            s1b.push_row(&row);
            self.s1b = Some(s1b);
        }
    }

    /// Next-token logits at the current position — one sink-augmented
    /// induction-head attention row over the cached keys (O(T·d)). An empty
    /// session yields the uniform floor, like the batch path on an empty
    /// context.
    fn logits(&self) -> Vec<f32> {
        match self.output_vector() {
            Some(s2) => self.model.unembed(&s2),
            None => vec![self.cfg().floor; self.model.tokenizer().vocab().len()],
        }
    }

    /// Allocation-free logits: fill a caller-owned buffer, bitwise
    /// identical to [`Self::logits`] (same attention arithmetic, same
    /// unembed summation order via
    /// [`lmpeel_tensor::Tensor2::matvec_into`]).
    fn logits_into(&self, out: &mut Vec<f32>) {
        match self.output_vector() {
            Some(s2) => self.model.unembed_into(&s2, out),
            None => {
                out.clear();
                out.resize(self.model.tokenizer().vocab().len(), self.cfg().floor);
            }
        }
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    /// The owning model drives fused decodes; sessions over the same model
    /// instance share a grouping key (the model's address) and may be
    /// batched into one forward pass.
    fn batch_driver(&self) -> Option<BatchDriverRef<'_>> {
        Some(BatchDriverRef {
            key: Arc::as_ptr(&self.model) as usize,
            driver: &*self.model,
        })
    }

    /// Forking clones the paged caches: every sealed page is aliased
    /// (`Arc` bump, no copy) and un-shared lazily on the first divergent
    /// append, so snapshotting a long shared prefix is O(pages), not
    /// O(tokens · d).
    fn fork(&self) -> Box<dyn DecodeSession> {
        Box::new(self.clone())
    }

    /// The transformer's constructed weights carry no seed-dependent state
    /// at all (any seed builds the identical machine), so re-keying is
    /// trivially sound: the session already matches a model "constructed
    /// with" any seed.
    fn rekey(&mut self, _seed: u64) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmpeel_tokenizer::Tokenizer;

    fn model() -> Arc<InductionTransformer> {
        Arc::new(InductionTransformer::paper())
    }

    fn bigram_model() -> Arc<InductionTransformer> {
        Arc::new(InductionTransformer::new(
            Tokenizer::paper(),
            TransformerConfig {
                match_ngram: 2,
                ..TransformerConfig::default()
            },
        ))
    }

    fn max_abs_diff(a: &[f32], b: &[f32]) -> f32 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0f32, f32::max)
    }

    #[test]
    fn incremental_matches_batch_forward() {
        let m = model();
        let ids = m
            .tokenizer()
            .encode(" loop tile packing array loop tile size loop");
        let mut session = TransformerSession::new(m.clone());
        for (i, &tok) in ids.iter().enumerate() {
            session.append(tok);
            let diff = max_abs_diff(&session.logits(), &m.logits(&ids[..=i]));
            assert!(
                diff < 1e-4,
                "prefix {i}: incremental/batch diverged by {diff}"
            );
        }
    }

    #[test]
    fn incremental_matches_batch_forward_for_bigram_models() {
        let m = bigram_model();
        let ids = m
            .tokenizer()
            .encode(" loop tile size problem tile array loop tile");
        let mut session = TransformerSession::new(m.clone());
        for (i, &tok) in ids.iter().enumerate() {
            session.append(tok);
            let diff = max_abs_diff(&session.logits(), &m.logits(&ids[..=i]));
            assert!(
                diff < 1e-4,
                "prefix {i}: 2-gram incremental diverged by {diff}"
            );
        }
        // And the session reproduces the disambiguation the 2-gram circuit
        // exists for: after " loop tile" it must pick " size".
        let size_id = m.tokenizer().vocab().token_id(" size").unwrap() as usize;
        assert_eq!(lmpeel_tensor::argmax(&session.logits()), Some(size_id));
    }

    #[test]
    fn extend_equals_repeated_append() {
        let m = model();
        let ids = m.tokenizer().encode(" outer middle inner outer");
        let mut a = TransformerSession::new(m.clone());
        a.extend(&ids);
        let mut b = TransformerSession::new(m.clone());
        for &t in &ids {
            b.append(t);
        }
        assert_eq!(a.len(), b.len());
        assert_eq!(a.logits(), b.logits());
    }

    #[test]
    fn session_tracks_length() {
        let m = model();
        let mut s = TransformerSession::new(m.clone());
        assert!(s.is_empty());
        s.append(10);
        s.append(11);
        assert_eq!(s.len(), 2);
        assert_eq!(s.tokens(), &[10, 11]);
        assert!(!s.is_empty());
    }

    #[test]
    fn empty_session_yields_the_floor_distribution() {
        let m = model();
        let s = TransformerSession::new(m.clone());
        assert_eq!(s.logits(), m.logits(&[]));
    }

    #[test]
    fn model_session_returns_the_incremental_path() {
        // Via the LanguageModel trait: the transformer's session() override
        // must hand back a native incremental session whose logits match
        // batch on a non-trivial context.
        let m = model();
        let ids = m.tokenizer().encode(" outer middle inner outer");
        let mut s = m.clone().session();
        s.extend(&ids);
        let diff = max_abs_diff(&s.logits(), &m.logits(&ids));
        assert!(diff < 1e-4, "session() path diverged by {diff}");
        assert!(
            s.rekey(7),
            "transformer sessions are seed-free, rekey is free"
        );
    }

    #[test]
    fn fork_is_independent_of_parent() {
        let m = model();
        let ids = m.tokenizer().encode(" outer middle inner outer");
        let mut parent = TransformerSession::new(m.clone());
        parent.extend(&ids);
        let before = parent.logits();
        {
            let mut child = parent.fork();
            child.extend(&m.tokenizer().encode(" middle inner"));
            assert_eq!(child.len(), parent.len() + 2);
        }
        assert_eq!(parent.logits(), before, "fork must not disturb the parent");
    }

    #[test]
    fn incremental_generation_continues_induction() {
        // Greedy-generate two tokens incrementally; the repeated-phrase
        // continuation must match the batch path.
        let m = model();
        let prompt = m.tokenizer().encode(" outer middle inner outer");
        let mut session = TransformerSession::new(m.clone());
        session.extend(&prompt);
        let mut out = String::new();
        for _ in 0..2 {
            let logits = session.logits();
            let best = lmpeel_tensor::argmax(&logits).unwrap() as TokenId;
            out.push_str(m.tokenizer().vocab().token_str(best));
            session.append(best);
        }
        assert!(out.starts_with(" middle"), "got {out:?}");
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn fork_aliases_sealed_cache_pages_copy_on_write() {
        let m = model();
        // 140 tokens -> 3 pages per cache (64 + 64 + 12 rows).
        let ids = m.tokenizer().encode(&" loop tile".repeat(70));
        assert!(ids.len() > 2 * lmpeel_tensor::paged::ROWS_PER_PAGE);
        let mut parent = TransformerSession::new(m.clone());
        parent.extend(&ids);
        let before = parent.logits();

        let child = parent.clone();
        for i in 0..parent.s0.page_count() {
            assert!(parent.s0.shares_page(&child.s0, i), "s0 page {i} copied");
            assert!(parent.s1.shares_page(&child.s1, i), "s1 page {i} copied");
            assert!(parent.pos.shares_page(&child.pos, i), "pos page {i} copied");
        }

        // First divergent append un-shares only the partial tail page.
        let mut child = child;
        child.append(ids[0]);
        let tail = parent.s0.page_count() - 1;
        for i in 0..tail {
            assert!(
                parent.s0.shares_page(&child.s0, i),
                "sealed s0 page {i} must stay shared after divergence"
            );
        }
        assert!(
            !parent.s0.shares_page(&child.s0, tail),
            "divergent append must un-share the tail page"
        );
        assert_eq!(
            bits(&parent.logits()),
            bits(&before),
            "parent bytes must be untouched by the fork's append"
        );
        // And the fork decodes exactly like a from-scratch session.
        let mut fresh = TransformerSession::new(m.clone());
        fresh.extend(child.tokens());
        assert_eq!(bits(&child.logits()), bits(&fresh.logits()));
    }

    #[test]
    fn logits_into_is_bitwise_identical_to_logits() {
        let m = model();
        let mut s = TransformerSession::new(m.clone());
        let mut buf = vec![42.0f32; 3];
        s.logits_into(&mut buf);
        assert_eq!(bits(&buf), bits(&s.logits()), "empty-session floor path");
        s.extend(&m.tokenizer().encode(" loop tile packing array loop"));
        s.logits_into(&mut buf);
        assert_eq!(bits(&buf), bits(&s.logits()));
    }

    #[test]
    fn batched_logits_are_bitwise_identical_to_single_lane() {
        let m = model();
        let texts = [
            " loop tile packing array loop",
            " outer middle inner outer",
            " size",
            " problem considers optimization problem",
        ];
        let mut sessions: Vec<TransformerSession> = texts
            .iter()
            .map(|t| {
                let mut s = TransformerSession::new(m.clone());
                s.extend(&m.tokenizer().encode(t));
                s
            })
            .collect();
        // An empty native lane (floor path) and a foreign fallback session
        // ride along: the driver must fill both via their own single path.
        sessions.push(TransformerSession::new(m.clone()));
        let foreign = lmpeel_lm::FallbackSession::new(m.clone());
        let other_model = Arc::new(InductionTransformer::paper());
        let mut stranger = TransformerSession::new(other_model);
        stranger.extend(&m.tokenizer().encode(" loop tile loop"));

        let mut lanes: Vec<&dyn DecodeSession> =
            sessions.iter().map(|s| s as &dyn DecodeSession).collect();
        lanes.push(&foreign);
        lanes.push(&stranger);
        let mut out = vec![Vec::new(); lanes.len()];
        let handle = sessions[0].batch_driver().expect("native driver");
        handle.driver.logits_batch(&lanes, &mut out);
        for (i, (lane, got)) in lanes.iter().zip(&out).enumerate() {
            let mut single = Vec::new();
            lane.logits_into(&mut single);
            assert_eq!(bits(got), bits(&single), "lane {i} diverged");
        }
    }

    #[test]
    fn memoized_prev_head_weights_match_positional_rows_bitwise() {
        // The model-level memo recomputes position encodings fresh; the
        // past-horizon fallback dots against the session's cached rows.
        // Both must produce the same bytes for every position and head.
        for m in [model(), bigram_model()] {
            let mut s = TransformerSession::new(m.clone());
            s.extend(&m.tokenizer().encode(&" loop tile".repeat(40)));
            let steps_range = if s.s1b.is_some() { 1..=2 } else { 1..=1 };
            for steps in steps_range {
                for p in [steps, 5, s.tokens.len() - 1] {
                    let memo = m.prev_head_weights(p, steps).expect("within horizon");
                    let q = rotate_back(s.pos.row(p), steps);
                    let mut fresh: Vec<f32> = s
                        .pos
                        .rows()
                        .take(p + 1)
                        .map(|key| m.config().beta_prev * dot(&q, key))
                        .collect();
                    softmax_in_place(&mut fresh);
                    assert_eq!(bits(&memo), bits(&fresh), "p={p} steps={steps}");
                }
            }
        }
    }

    #[test]
    fn fused_shared_prefix_scores_are_bitwise_identical() {
        // Trie-style forked lanes alias their prompt's sealed pages, so
        // the driver scores the shared prefix once (fused_prefix_scores)
        // and each lane walks only its divergent tail; every lane's
        // logits must still be byte-for-byte its single-lane result.
        // Exercised for both the single-key paper model and the bigram
        // (s1b) model, with and without divergent tails.
        for m in [model(), bigram_model()] {
            let ids = m.tokenizer().encode(&" loop tile packing".repeat(50));
            assert!(ids.len() > 2 * lmpeel_tensor::ROWS_PER_PAGE);
            let mut parent = TransformerSession::new(m.clone());
            parent.extend(&ids);
            // Lane 0 is the undiverged fork (every page still aliased,
            // the whole cache is prefix); lanes 1..4 append tails of
            // different lengths, un-sharing only their tail page.
            let forks: Vec<TransformerSession> = (0..4)
                .map(|j| {
                    let mut s = parent.clone();
                    for &id in &ids[..j] {
                        s.append(id);
                    }
                    s
                })
                .collect();
            let shared = forks[0].shared_score_pages(&forks[1]);
            assert!(
                shared >= 2,
                "expected >= 2 shared sealed pages, got {shared}"
            );

            let lanes: Vec<&dyn DecodeSession> =
                forks.iter().map(|s| s as &dyn DecodeSession).collect();
            let mut out = vec![Vec::new(); lanes.len()];
            let handle = forks[0].batch_driver().expect("native driver");
            handle.driver.logits_batch(&lanes, &mut out);
            for (i, (lane, got)) in lanes.iter().zip(&out).enumerate() {
                let mut single = Vec::new();
                lane.logits_into(&mut single);
                assert_eq!(bits(got), bits(&single), "lane {i} diverged");
            }
        }
    }

    #[test]
    fn sessions_of_different_models_get_distinct_batch_keys() {
        let a = TransformerSession::new(model());
        let b = TransformerSession::new(model());
        let a2 = a.clone();
        let key = |s: &TransformerSession| s.batch_driver().unwrap().key;
        assert_eq!(key(&a), key(&a2), "same model instance, same group");
        assert_ne!(key(&a), key(&b), "distinct models must never fuse");
    }

    mod equivalence_props {
        use super::*;
        use proptest::prelude::*;

        /// Random streams over a tiny alphabet with heavy repetition, so
        /// the induction head finds (and mis-finds) matches constantly.
        fn arb_stream() -> impl Strategy<Value = Vec<u8>> {
            proptest::collection::vec(0u8..6, 1..40)
        }

        fn to_ids(m: &InductionTransformer, stream: &[u8]) -> Vec<TokenId> {
            let v = m.tokenizer().vocab();
            let alpha: Vec<TokenId> = [" loop", " tile", " size", " array", " inner", " outer"]
                .iter()
                .filter_map(|s| v.token_id(s))
                .collect();
            stream
                .iter()
                .map(|&i| alpha[i as usize % alpha.len()])
                .collect()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            #[test]
            fn random_streams_agree_with_batch_unigram(stream in arb_stream()) {
                let m = model();
                let ids = to_ids(&m, &stream);
                let mut s = TransformerSession::new(m.clone());
                for (i, &tok) in ids.iter().enumerate() {
                    s.append(tok);
                    let diff = max_abs_diff(&s.logits(), &m.logits(&ids[..=i]));
                    prop_assert!(diff < 1e-4, "prefix {}: diff {diff}", i + 1);
                }
            }

            #[test]
            fn random_streams_agree_with_batch_bigram(stream in arb_stream()) {
                let m = bigram_model();
                let ids = to_ids(&m, &stream);
                let mut s = TransformerSession::new(m.clone());
                for (i, &tok) in ids.iter().enumerate() {
                    s.append(tok);
                    let diff = max_abs_diff(&s.logits(), &m.logits(&ids[..=i]));
                    prop_assert!(diff < 1e-4, "prefix {}: diff {diff}", i + 1);
                }
            }
        }
    }
}
