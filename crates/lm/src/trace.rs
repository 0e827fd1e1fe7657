//! Generation traces: every step's feasible alternatives.
//!
//! §III-C: "we locally execute the model and record all generated nonzero
//! logit values. This allows us to construct all 'feasible' generation
//! alternatives in the given scenario... we consider all combinations
//! reachable via alternative decodings of the original generation."
//!
//! A [`GenerationTrace`] stores, for each generated position, the sampled
//! token and the full filtered next-token distribution at that position.
//! Downstream analyses (`lmpeel-core::decoding`) enumerate Table II's
//! per-position possibility counts and the generable-value distributions of
//! Figures 3-4 from this structure.

use lmpeel_tokenizer::{TokenId, Tokenizer};

/// One alternative token at a generation step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TokenAlt {
    /// Token id.
    pub id: TokenId,
    /// Probability under the sampler's filtered, renormalized distribution.
    pub prob: f32,
}

/// One generation step: what was sampled and what else was feasible.
#[derive(Debug, Clone, PartialEq)]
pub struct GenStep {
    /// The token actually sampled.
    pub chosen: TokenId,
    /// Probability of the chosen token.
    pub chosen_prob: f32,
    /// All feasible alternatives (including the chosen token), sorted by
    /// descending probability. "Feasible" = probability at least the
    /// trace's recording threshold — the in-silico analogue of the paper's
    /// "nonzero logit values".
    pub alternatives: Vec<TokenAlt>,
}

impl GenStep {
    /// Number of selectable tokens at this step (a Table II cell).
    pub fn num_possibilities(&self) -> usize {
        self.alternatives.len()
    }
}

/// A complete generation: prompt length, steps, and termination reason.
#[derive(Debug, Clone, PartialEq)]
pub struct GenerationTrace {
    /// Number of prompt tokens preceding the generation.
    pub prompt_len: usize,
    /// Per-position steps in generation order.
    pub steps: Vec<GenStep>,
    /// Whether generation ended on a stop token (vs. the length cap).
    pub stopped_naturally: bool,
}

impl GenerationTrace {
    /// The sampled token ids, in order.
    pub fn generated_ids(&self) -> Vec<TokenId> {
        self.steps.iter().map(|s| s.chosen).collect()
    }

    /// Decode the sampled tokens to text.
    pub fn decode(&self, tokenizer: &Tokenizer) -> String {
        tokenizer.decode(&self.generated_ids())
    }

    /// Product of per-step possibility counts: the number of distinct
    /// token sequences reachable by alternative decodings of this
    /// generation (Table II's "Permutations" row). Saturates at `u128::MAX`.
    pub fn permutations(&self) -> u128 {
        self.steps.iter().fold(1u128, |acc, s| {
            acc.saturating_mul(s.num_possibilities() as u128)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step(chosen: TokenId, alts: &[(TokenId, f32)]) -> GenStep {
        let chosen_prob = alts.iter().find(|a| a.0 == chosen).unwrap().1;
        GenStep {
            chosen,
            chosen_prob,
            alternatives: alts
                .iter()
                .map(|&(id, prob)| TokenAlt { id, prob })
                .collect(),
        }
    }

    fn trace() -> GenerationTrace {
        GenerationTrace {
            prompt_len: 10,
            steps: vec![
                step(1, &[(1, 0.6), (2, 0.4)]),
                step(3, &[(3, 1.0)]),
                step(4, &[(4, 0.5), (5, 0.3), (6, 0.2)]),
            ],
            stopped_naturally: true,
        }
    }

    #[test]
    fn generated_ids_in_order() {
        assert_eq!(trace().generated_ids(), vec![1, 3, 4]);
    }

    #[test]
    fn possibility_counts_and_permutations() {
        let t = trace();
        let counts: Vec<usize> = t.steps.iter().map(GenStep::num_possibilities).collect();
        assert_eq!(counts, vec![2, 1, 3]);
        assert_eq!(t.permutations(), 6);
    }

    #[test]
    fn permutations_saturate() {
        let big = GenStep {
            chosen: 0,
            chosen_prob: 1.0,
            alternatives: (0..1000).map(|i| TokenAlt { id: i, prob: 0.001 }).collect(),
        };
        let t = GenerationTrace {
            prompt_len: 0,
            steps: vec![big; 50],
            stopped_naturally: false,
        };
        assert_eq!(t.permutations(), u128::MAX);
    }
}
