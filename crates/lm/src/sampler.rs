//! Temperature / top-k / top-p sampling over logit vectors.
//!
//! Every distribution here is computed over one `Ranking` of the finite
//! logits, so a decode step sorts once for both its draw and its trace.

use crate::trace::TokenAlt;
use lmpeel_tokenizer::TokenId;
use rand::RngExt;
use rand_chacha::ChaCha8Rng;

/// Sampling policy. Mirrors the standard Llama generation knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sampler {
    /// Softmax temperature; `0.0` means greedy argmax.
    pub temperature: f32,
    /// Keep only the `top_k` most probable tokens (`0` disables).
    pub top_k: usize,
    /// Nucleus sampling: keep the smallest prefix of tokens whose
    /// cumulative probability reaches `top_p` (`1.0` disables).
    pub top_p: f32,
}

impl Sampler {
    /// The paper-style default: temperature 0.6, nucleus 0.9 (the Llama
    /// instruct generation defaults).
    pub fn paper() -> Self {
        Self {
            temperature: 0.6,
            top_k: 0,
            top_p: 0.9,
        }
    }

    /// Greedy decoding.
    pub fn greedy() -> Self {
        Self {
            temperature: 0.0,
            top_k: 0,
            top_p: 1.0,
        }
    }

    /// Normalized next-token distribution after temperature scaling and
    /// top-k/top-p filtering, as `(token, probability)` pairs sorted by
    /// descending probability. Tokens with non-finite logits never appear.
    pub fn distribution(&self, logits: &[f32]) -> Vec<(TokenId, f32)> {
        let mut ranking = Ranking::default();
        if !ranking.rank(logits) {
            return vec![];
        }
        if self.temperature <= 0.0 {
            return vec![(ranking.id(0), 1.0)];
        }
        let kept = ranking.softmax(self, logits);
        ranking.pairs(kept).collect()
    }

    /// Draw one token from this sampler's distribution over a ranking of
    /// `logits` (see [`Ranking::rank`], which must have returned `true`).
    /// Returns the chosen token and its filtered, renormalized probability.
    /// Every policy draws exactly one `u` from `rng`, greedy included (its
    /// one-point distribution takes any draw), so the RNG stream does not
    /// depend on the policy.
    pub(crate) fn draw(
        &self,
        ranking: &mut Ranking,
        logits: &[f32],
        rng: &mut ChaCha8Rng,
    ) -> (TokenId, f32) {
        let u: f32 = rng.random();
        if self.temperature <= 0.0 {
            return (ranking.id(0), 1.0);
        }
        let kept = ranking.softmax(self, logits);
        let mut cum = 0.0;
        for (t, p) in ranking.pairs(kept) {
            cum += p;
            if u <= cum {
                return (t, p);
            }
        }
        (ranking.id(kept - 1), ranking.probs[kept - 1])
    }
}

impl Default for Sampler {
    fn default() -> Self {
        Self::paper()
    }
}

/// The raw distribution a trace records: temperature 1, no top-k/top-p.
const RAW: Sampler = Sampler {
    temperature: 1.0,
    top_k: 0,
    top_p: 1.0,
};

/// The finite logits of one decode step in descending order, ties broken
/// by ascending token id, plus the probabilities of the last
/// [`Ranking::softmax`] over them.
///
/// The order depends only on the logits, so one ranking serves every
/// temperature and filter: a decode step ranks once and both the draw and
/// the trace's raw softmax read it. The buffers keep their capacity, so a
/// generation that reuses one `Ranking` allocates nothing per step here.
#[derive(Debug, Default)]
pub(crate) struct Ranking {
    /// One total-order key per finite logit, ascending: the complemented
    /// order-preserving bits of the logit in the high half (so larger logits
    /// come first) and the token id in the low half.
    keys: Vec<u64>,
    /// Probabilities parallel to `keys` from the last softmax.
    probs: Vec<f32>,
}

impl Ranking {
    /// Rank the finite logits (`NaN` and `±inf` are dropped). Returns
    /// `false` when none is finite, so there is nothing to sample.
    pub(crate) fn rank(&mut self, logits: &[f32]) -> bool {
        self.keys.clear();
        self.keys.extend(
            logits
                .iter()
                .enumerate()
                .filter(|(_, l)| l.is_finite())
                .map(|(id, &l)| key(id as TokenId, l)),
        );
        self.keys.sort_unstable();
        !self.keys.is_empty()
    }

    /// Token id at position `rank` of the ranking.
    fn id(&self, rank: usize) -> TokenId {
        self.keys[rank] as TokenId
    }

    /// The first `kept` ranked tokens with their probabilities.
    fn pairs(&self, kept: usize) -> impl Iterator<Item = (TokenId, f32)> + '_ {
        self.keys[..kept]
            .iter()
            .zip(&self.probs[..kept])
            .map(|(&k, &p)| (k as TokenId, p))
    }

    /// The trace half of a step: the raw softmax's tokens with probability
    /// at least `min_prob`, in rank order. The vector is allocated at its
    /// exact length, since a step's trace outlives the step.
    pub(crate) fn alternatives(&mut self, logits: &[f32], min_prob: f32) -> Vec<TokenAlt> {
        let n = self.softmax(&RAW, logits);
        let feasible = |&(_, p): &(TokenId, f32)| p >= min_prob;
        let mut alts = Vec::with_capacity(self.pairs(n).filter(feasible).count());
        alts.extend(
            self.pairs(n)
                .filter(feasible)
                .map(|(id, prob)| TokenAlt { id, prob }),
        );
        alts
    }

    /// The sampler's temperature softmax over the ranking, then its top-k and
    /// top-p filters and a renormalization; returns how many ranked tokens
    /// survive the filters. Sums run in rank order and the renormalization
    /// runs even when nothing was filtered, so every probability is bitwise
    /// the one a sort-then-softmax over the same logits computes.
    fn softmax(&mut self, s: &Sampler, logits: &[f32]) -> usize {
        let max = logits[self.id(0) as usize];
        let mut sum = 0.0f32;
        self.probs.clear();
        self.probs.extend(self.keys.iter().map(|&k| {
            let p = ((logits[k as TokenId as usize] - max) / s.temperature).exp();
            sum += p;
            p
        }));
        for p in &mut self.probs {
            *p /= sum;
        }

        let mut kept = self.probs.len();
        if s.top_k > 0 && kept > s.top_k {
            kept = s.top_k;
        }
        if s.top_p < 1.0 {
            let mut cum = 0.0;
            for (i, &p) in self.probs[..kept].iter().enumerate() {
                cum += p;
                if cum >= s.top_p {
                    kept = i + 1;
                    break;
                }
            }
        }
        let z: f32 = self.probs[..kept].iter().sum();
        for p in &mut self.probs[..kept] {
            *p /= z;
        }
        kept
    }
}

/// The ranking key of logit `l` at token `id`. `-0.0` is folded into `+0.0`
/// first: the two compare equal, so the id alone must break their tie.
fn key(id: TokenId, l: f32) -> u64 {
    let bits = if l == 0.0 { 0 } else { l.to_bits() };
    // Flip negatives entirely and positives' sign bit: ascending as `u32`
    // is then ascending as `f32`.
    let ascending = if bits >> 31 == 1 {
        !bits
    } else {
        bits | 1 << 31
    };
    (u64::from(!ascending) << 32) | u64::from(id)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmpeel_stats::{seeded_rng, SeedDomain};

    /// One draw through the decode step's path: rank, then draw.
    pub(super) fn sample(s: &Sampler, logits: &[f32], rng: &mut ChaCha8Rng) -> (TokenId, f32) {
        let mut ranking = Ranking::default();
        assert!(ranking.rank(logits), "no finite logit");
        s.draw(&mut ranking, logits, rng)
    }

    fn logits_of(pairs: &[(usize, f32)], n: usize) -> Vec<f32> {
        let mut l = vec![f32::NEG_INFINITY; n];
        for &(i, v) in pairs {
            l[i] = v;
        }
        l
    }

    #[test]
    fn greedy_picks_argmax_with_prob_one() {
        let l = logits_of(&[(1, 0.5), (3, 2.0), (7, -1.0)], 10);
        let d = Sampler::greedy().distribution(&l);
        assert_eq!(d, vec![(3, 1.0)]);
    }

    #[test]
    fn distribution_is_normalized_and_sorted() {
        let l = logits_of(&[(0, 1.0), (1, 2.0), (2, 0.0)], 5);
        let d = Sampler {
            temperature: 1.0,
            top_k: 0,
            top_p: 1.0,
        }
        .distribution(&l);
        assert_eq!(d.len(), 3);
        assert!((d.iter().map(|&(_, p)| p).sum::<f32>() - 1.0).abs() < 1e-6);
        assert!(d.windows(2).all(|w| w[0].1 >= w[1].1));
        assert_eq!(d[0].0, 1);
    }

    #[test]
    fn neg_inf_tokens_are_unreachable() {
        let l = logits_of(&[(2, 0.0)], 4);
        let d = Sampler::paper().distribution(&l);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].0, 2);
    }

    #[test]
    fn temperature_sharpens_and_flattens() {
        let l = logits_of(&[(0, 1.0), (1, 0.0)], 2);
        let hot = Sampler {
            temperature: 4.0,
            top_k: 0,
            top_p: 1.0,
        }
        .distribution(&l);
        let cold = Sampler {
            temperature: 0.25,
            top_k: 0,
            top_p: 1.0,
        }
        .distribution(&l);
        assert!(cold[0].1 > hot[0].1, "low temperature concentrates mass");
    }

    #[test]
    fn top_k_truncates() {
        let l = logits_of(&[(0, 3.0), (1, 2.0), (2, 1.0), (3, 0.0)], 4);
        let d = Sampler {
            temperature: 1.0,
            top_k: 2,
            top_p: 1.0,
        }
        .distribution(&l);
        assert_eq!(d.len(), 2);
        assert!((d[0].1 + d[1].1 - 1.0).abs() < 1e-6, "renormalized");
    }

    #[test]
    fn top_p_keeps_smallest_covering_prefix() {
        // probs ~ [0.64, 0.23, 0.09, 0.03]
        let l = logits_of(&[(0, 3.0), (1, 2.0), (2, 1.0), (3, 0.0)], 4);
        let d = Sampler {
            temperature: 1.0,
            top_k: 0,
            top_p: 0.8,
        }
        .distribution(&l);
        assert_eq!(d.len(), 2, "0.64 + 0.23 covers 0.8");
    }

    #[test]
    fn sampling_is_reproducible_and_respects_support() {
        let l = logits_of(&[(0, 1.0), (5, 1.0), (9, -0.5)], 12);
        let s = Sampler::paper();
        let mut r1 = seeded_rng(1, SeedDomain::Sampling(0));
        let mut r2 = seeded_rng(1, SeedDomain::Sampling(0));
        for _ in 0..32 {
            let (a, pa) = sample(&s, &l, &mut r1);
            let (b, _) = sample(&s, &l, &mut r2);
            assert_eq!(a, b);
            assert!([0, 5, 9].contains(&a));
            assert!(pa > 0.0 && pa <= 1.0);
        }
    }

    #[test]
    fn sampling_frequency_tracks_probability() {
        let l = logits_of(&[(0, 2.0), (1, 0.0)], 2);
        let s = Sampler {
            temperature: 1.0,
            top_k: 0,
            top_p: 1.0,
        };
        let mut rng = seeded_rng(2, SeedDomain::Sampling(1));
        let n = 4000;
        let hits = (0..n).filter(|_| sample(&s, &l, &mut rng).0 == 0).count();
        let expect = (2.0f32.exp() / (2.0f32.exp() + 1.0)) as f64;
        let got = hits as f64 / n as f64;
        assert!((got - expect).abs() < 0.03, "freq {got} vs prob {expect}");
    }

    #[test]
    fn empty_support_has_no_ranking() {
        for l in [
            vec![],
            vec![f32::NEG_INFINITY; 3],
            vec![f32::NAN, f32::INFINITY],
        ] {
            assert!(!Ranking::default().rank(&l));
            assert!(Sampler::paper().distribution(&l).is_empty());
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_logits() -> impl Strategy<Value = Vec<f32>> {
        proptest::collection::vec(
            prop_oneof![4 => (-8.0f32..8.0).prop_map(|x| x), 1 => Just(f32::NEG_INFINITY)],
            1..40,
        )
    }

    proptest! {
        #[test]
        fn distribution_is_a_probability_over_finite_support(
            logits in arb_logits(),
            temp in 0.1f32..3.0,
            top_p in 0.1f32..=1.0,
        ) {
            let s = Sampler { temperature: temp, top_k: 0, top_p };
            let d = s.distribution(&logits);
            let finite = logits.iter().filter(|l| l.is_finite()).count();
            if finite == 0 {
                prop_assert!(d.is_empty());
            } else {
                prop_assert!(!d.is_empty());
                prop_assert!(d.len() <= finite);
                let total: f32 = d.iter().map(|&(_, p)| p).sum();
                prop_assert!((total - 1.0).abs() < 1e-4, "sums to {total}");
                prop_assert!(d.windows(2).all(|w| w[0].1 >= w[1].1), "sorted");
                for &(id, p) in &d {
                    prop_assert!(logits[id as usize].is_finite());
                    prop_assert!(p > 0.0);
                }
            }
        }

        #[test]
        fn sampling_only_draws_from_the_distribution(
            logits in arb_logits(),
            seed in 0u64..64,
        ) {
            prop_assume!(logits.iter().any(|l| l.is_finite()));
            let s = Sampler::paper();
            let support: Vec<TokenId> =
                s.distribution(&logits).into_iter().map(|(t, _)| t).collect();
            let mut rng = lmpeel_stats::seeded_rng(
                seed,
                lmpeel_stats::SeedDomain::Sampling(99),
            );
            for _ in 0..8 {
                let (t, p) = super::tests::sample(&s, &logits, &mut rng);
                prop_assert!(support.contains(&t));
                prop_assert!(p > 0.0 && p <= 1.0);
            }
        }

        #[test]
        fn greedy_is_the_temperature_zero_limit(logits in arb_logits()) {
            prop_assume!(logits.iter().any(|l| l.is_finite()));
            // A near-tie between the top two logits keeps the cold
            // distribution flat (and makes the argmax ambiguous), so the
            // limit statement only holds given a margin.
            let mut sorted: Vec<f32> = logits.iter().copied().filter(|l| l.is_finite()).collect();
            sorted.sort_by(|a, b| b.partial_cmp(a).unwrap());
            prop_assume!(sorted.len() < 2 || sorted[0] - sorted[1] > 0.05);
            let greedy = Sampler::greedy().distribution(&logits);
            let cold = Sampler { temperature: 0.01, top_k: 0, top_p: 1.0 }
                .distribution(&logits);
            prop_assert_eq!(greedy[0].0, cold[0].0, "same argmax token");
            prop_assert!(cold[0].1 > 0.9, "cold distribution concentrates");
        }
    }
}

/// The sort-then-softmax sampler the ranked core replaced, kept as a
/// bitwise oracle for it.
#[cfg(test)]
mod oracle {
    use super::*;
    use proptest::prelude::*;

    /// The former `Sampler::distribution`: a stable `partial_cmp` sort of
    /// the finite logits, then the softmax and filters.
    fn distribution(s: &Sampler, logits: &[f32]) -> Vec<(TokenId, f32)> {
        let mut pairs: Vec<(TokenId, f32)> = logits
            .iter()
            .enumerate()
            .filter(|(_, &l)| l.is_finite())
            .map(|(i, &l)| (i as TokenId, l))
            .collect();
        if pairs.is_empty() {
            return vec![];
        }
        pairs.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));

        if s.temperature <= 0.0 {
            return vec![(pairs[0].0, 1.0)];
        }

        let max = pairs[0].1;
        let mut sum = 0.0f32;
        let mut probs: Vec<(TokenId, f32)> = pairs
            .into_iter()
            .map(|(t, l)| {
                let p = ((l - max) / s.temperature).exp();
                sum += p;
                (t, p)
            })
            .collect();
        for p in &mut probs {
            p.1 /= sum;
        }

        if s.top_k > 0 && probs.len() > s.top_k {
            probs.truncate(s.top_k);
        }
        if s.top_p < 1.0 {
            let mut cum = 0.0;
            let mut keep = probs.len();
            for (i, &(_, p)) in probs.iter().enumerate() {
                cum += p;
                if cum >= s.top_p {
                    keep = i + 1;
                    break;
                }
            }
            probs.truncate(keep);
        }
        let z: f32 = probs.iter().map(|&(_, p)| p).sum();
        for p in &mut probs {
            p.1 /= z;
        }
        probs
    }

    /// The former `Sampler::sample`.
    fn sample(s: &Sampler, logits: &[f32], rng: &mut ChaCha8Rng) -> (TokenId, f32) {
        let dist = distribution(s, logits);
        let u: f32 = rng.random();
        let mut cum = 0.0;
        for &(t, p) in &dist {
            cum += p;
            if u <= cum {
                return (t, p);
            }
        }
        *dist.last().expect("non-empty")
    }

    fn bits(pairs: impl IntoIterator<Item = (TokenId, f32)>) -> Vec<(TokenId, u32)> {
        pairs.into_iter().map(|(t, p)| (t, p.to_bits())).collect()
    }

    /// Logits that stress the ranking: ties, both zeros, subnormals,
    /// infinities, NaN, any bit pattern, and all-`-inf` vocabularies.
    fn arb_logits() -> impl Strategy<Value = Vec<f32>> {
        let logit = prop_oneof![
            4 => -8.0f32..8.0,
            2 => (-3i32..3).prop_map(|x| x as f32 * 0.5),
            1 => Just(0.0f32),
            1 => Just(-0.0f32),
            1 => prop_oneof![Just(1e-40f32), Just(-1e-40f32), Just(f32::MIN_POSITIVE)],
            1 => prop_oneof![Just(f32::INFINITY), Just(f32::NEG_INFINITY), Just(f32::NAN)],
            1 => (0u32..=u32::MAX).prop_map(f32::from_bits),
        ];
        prop_oneof![
            8 => proptest::collection::vec(logit, 0..64),
            1 => proptest::collection::vec(Just(f32::NEG_INFINITY), 0..8),
        ]
    }

    /// Greedy, paper, a top-k and a top-p < 1 sampler, by `kind`.
    fn sampler(kind: usize, temperature: f32, top_k: usize, top_p: f32) -> Sampler {
        match kind {
            0 => Sampler::greedy(),
            1 => Sampler::paper(),
            2 => Sampler {
                temperature,
                top_k,
                top_p: 1.0,
            },
            _ => Sampler {
                temperature,
                top_k: 0,
                top_p,
            },
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        // One decode step's sampling half (rank, draw, trace) is bitwise
        // the former trace distribution plus `sample`, and leaves the RNG
        // at the same point.
        #[test]
        fn ranked_step_is_bitwise_the_sorting_sampler(
            logits in arb_logits(),
            kind in 0usize..4,
            temperature in 0.05f32..3.0,
            top_k in 1usize..6,
            top_p in 0.05f32..1.0,
            min_prob in prop_oneof![Just(0.0f32), Just(1e-4), Just(1e-3), 0.0f32..0.5],
            seed in 0u64..1024,
        ) {
            let s = sampler(kind, temperature, top_k, top_p);
            let raw = distribution(&RAW, &logits);
            let mut ranking = Ranking::default();
            prop_assert_eq!(ranking.rank(&logits), !raw.is_empty(), "EmptyVocab iff none finite");
            prop_assert_eq!(bits(s.distribution(&logits)), bits(distribution(&s, &logits)));
            prop_assert_eq!(bits(RAW.distribution(&logits)), bits(raw.clone()));
            if raw.is_empty() {
                return Ok(());
            }

            let mut want_rng =
                lmpeel_stats::seeded_rng(seed, lmpeel_stats::SeedDomain::Sampling(7));
            let mut got_rng = want_rng.clone();
            let (want, want_p) = sample(&s, &logits, &mut want_rng);
            let (got, got_p) = s.draw(&mut ranking, &logits, &mut got_rng);
            prop_assert_eq!((got, got_p.to_bits()), (want, want_p.to_bits()));
            prop_assert_eq!(got_rng.random::<u64>(), want_rng.random::<u64>());

            let want_alts = bits(raw.into_iter().filter(|&(_, p)| p >= min_prob));
            let got_alts = ranking.alternatives(&logits, min_prob);
            prop_assert_eq!(got_alts.capacity(), got_alts.len(), "exact-length trace");
            prop_assert_eq!(bits(got_alts.iter().map(|a| (a.id, a.prob))), want_alts);
        }
    }
}
