//! Context segmentation and example/query similarity.
//!
//! The `InductionLm` mirrors the attention pattern an instruction-tuned LLM
//! exhibits on LLAMBO-style prompts: attention concentrates on the
//! in-context example *blocks*, with weight modulated by how textually
//! similar each example's configuration line is to the query's. This module
//! finds those blocks — each starts at a `Hyperparameter` anchor token and
//! carries a configuration-token region and (for labelled examples) a value
//! region after `Performance:` — and scores block/query similarity by
//! Jaccard overlap of configuration tokens.

use lmpeel_tokenizer::{TokenId, Tokenizer};
use std::collections::BTreeSet;
use std::ops::Range;

/// One `Hyperparameter configuration: ... [Performance: ...]` block.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    /// Token range of the whole block (anchor to next anchor / end).
    pub span: Range<usize>,
    /// Token range of the configuration description (anchor to the
    /// `Performance` token, or to the block end if none).
    pub config_span: Range<usize>,
    /// Token range of the runtime value (after `Performance: `), if the
    /// block is a labelled example.
    pub value_span: Option<Range<usize>>,
}

/// Segmentation of a prompt context into example blocks plus the trailing
/// query block.
#[derive(Debug, Clone, PartialEq)]
pub struct ContextMap {
    /// All blocks in order of appearance; the last one is the query.
    pub blocks: Vec<Block>,
}

/// Token ids the segmenter anchors on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnchorIds {
    /// `Hyperparameter` (line-initial form).
    pub hyper: TokenId,
    /// `Performance` (line-initial form).
    pub perf: TokenId,
    /// `\n`.
    pub newline: TokenId,
}

impl AnchorIds {
    /// Resolve the anchors against a tokenizer.
    ///
    /// # Panics
    /// Panics if the vocabulary lacks the anchor tokens (it never does for
    /// [`Tokenizer::paper`]).
    pub fn resolve(tokenizer: &Tokenizer) -> Self {
        let need = |s: &str| {
            tokenizer
                .vocab()
                .token_id(s)
                .unwrap_or_else(|| panic!("vocabulary lacks anchor token {s:?}"))
        };
        Self {
            hyper: need("Hyperparameter"),
            perf: need("Performance"),
            newline: need("\n"),
        }
    }
}

impl ContextMap {
    /// Segment a token context.
    ///
    /// Tokens before the first anchor (system prompt, problem description)
    /// belong to no block; contexts with no anchors yield an empty map.
    pub fn segment(context: &[TokenId], anchors: AnchorIds) -> Self {
        let starts: Vec<usize> = context
            .iter()
            .enumerate()
            .filter(|&(_, &t)| t == anchors.hyper)
            .map(|(i, _)| i)
            .collect();
        let mut blocks = Vec::with_capacity(starts.len());
        for (bi, &start) in starts.iter().enumerate() {
            let end = starts.get(bi + 1).copied().unwrap_or(context.len());
            let perf_pos = context[start..end]
                .iter()
                .position(|&t| t == anchors.perf)
                .map(|p| p + start);
            let config_span = start..perf_pos.unwrap_or(end);
            let value_span = perf_pos.and_then(|p| {
                // value runs from after "Performance" + separator to the
                // next newline (or block end)
                let vstart = p + 2; // "Performance" + ": " (or ":" + " ")
                if vstart >= end {
                    return None;
                }
                let vend = context[vstart..end]
                    .iter()
                    .position(|&t| t == anchors.newline)
                    .map(|q| q + vstart)
                    .unwrap_or(end);
                (vend > vstart).then_some(vstart..vend)
            });
            blocks.push(Block {
                span: start..end,
                config_span,
                value_span,
            });
        }
        Self { blocks }
    }

    /// The trailing (query) block, if any.
    pub fn query(&self) -> Option<&Block> {
        self.blocks.last()
    }

    /// Index of the block containing token position `pos`, if any.
    pub fn block_of(&self, pos: usize) -> Option<usize> {
        // Blocks are sorted and disjoint; binary search by span start.
        if self.blocks.is_empty() {
            return None;
        }
        let i = self.blocks.partition_point(|b| b.span.start <= pos);
        if i == 0 {
            return None;
        }
        let b = &self.blocks[i - 1];
        b.span.contains(&pos).then_some(i - 1)
    }

    /// Jaccard similarity of each block's configuration-token set against
    /// the query block's, in block order. The query scores 1.0 against
    /// itself. Returns an empty vector when there is no query.
    pub fn config_similarities(&self, context: &[TokenId]) -> Vec<f64> {
        let Some(query) = self.query() else {
            return vec![];
        };
        let qset: BTreeSet<TokenId> = context[query.config_span.clone()].iter().copied().collect();
        self.blocks
            .iter()
            .map(|b| {
                let bset: BTreeSet<TokenId> =
                    context[b.config_span.clone()].iter().copied().collect();
                jaccard(&qset, &bset)
            })
            .collect()
    }
}

/// Jaccard index of two token sets; 1.0 when both are empty.
fn jaccard(a: &BTreeSet<TokenId>, b: &BTreeSet<TokenId>) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    let inter = a.intersection(b).count() as f64;
    let union = a.union(b).count() as f64;
    inter / union
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tok() -> Tokenizer {
        Tokenizer::paper()
    }

    fn example(tiles: (i64, i64, i64), value: &str) -> String {
        format!(
            "Hyperparameter configuration: size is SM, first_array_packed is True, \
             second_array_packed is False, interchange_first_two_loops is False, \
             outer_loop_tiling_factor is {}, middle_loop_tiling_factor is {}, \
             inner_loop_tiling_factor is {}\nPerformance: {value}\n",
            tiles.0, tiles.1, tiles.2
        )
    }

    fn prompt() -> String {
        let mut p = String::from("Here are the examples:\n");
        p.push_str(&example((80, 64, 100), "0.0022155"));
        p.push_str(&example((4, 8, 16), "0.0051230"));
        p.push_str("Please complete the following:\n");
        p.push_str(
            "Hyperparameter configuration: size is SM, first_array_packed is True, \
             second_array_packed is False, interchange_first_two_loops is False, \
             outer_loop_tiling_factor is 80, middle_loop_tiling_factor is 64, \
             inner_loop_tiling_factor is 128\nPerformance: ",
        );
        p
    }

    #[test]
    fn segmentation_finds_all_blocks() {
        let t = tok();
        let ctx = t.encode(&prompt());
        let map = ContextMap::segment(&ctx, AnchorIds::resolve(&t));
        assert_eq!(map.blocks.len(), 3);
        // The two examples have value spans; the query block's "value" after
        // "Performance: " is empty.
        assert!(map.blocks[0].value_span.is_some());
        assert!(map.blocks[1].value_span.is_some());
        assert!(map.blocks[2].value_span.is_none());
    }

    #[test]
    fn value_spans_decode_to_the_runtimes() {
        let t = tok();
        let ctx = t.encode(&prompt());
        let map = ContextMap::segment(&ctx, AnchorIds::resolve(&t));
        let v0 = map.blocks[0].value_span.clone().unwrap();
        let text = t.decode(&ctx[v0]);
        assert_eq!(text.trim(), "0.0022155");
        let v1 = map.blocks[1].value_span.clone().unwrap();
        assert_eq!(t.decode(&ctx[v1]).trim(), "0.0051230");
    }

    #[test]
    fn block_of_maps_positions() {
        let t = tok();
        let ctx = t.encode(&prompt());
        let map = ContextMap::segment(&ctx, AnchorIds::resolve(&t));
        assert_eq!(map.block_of(0), None, "preamble belongs to no block");
        let b1_start = map.blocks[1].span.start;
        assert_eq!(map.block_of(b1_start), Some(1));
        assert_eq!(map.block_of(b1_start - 1), Some(0));
        assert_eq!(map.block_of(ctx.len() - 1), Some(2));
    }

    #[test]
    fn similarity_ranks_closer_configs_higher() {
        let t = tok();
        let ctx = t.encode(&prompt());
        let map = ContextMap::segment(&ctx, AnchorIds::resolve(&t));
        let sims = map.config_similarities(&ctx);
        assert_eq!(sims.len(), 3);
        assert!((sims[2] - 1.0).abs() < 1e-12, "query matches itself");
        // Example 0 shares tiles 80/64 with the query; example 1 shares none.
        assert!(
            sims[0] > sims[1],
            "nearer example should score higher: {sims:?}"
        );
        assert!(sims.iter().all(|&s| (0.0..=1.0).contains(&s)));
    }

    #[test]
    fn empty_context_yields_no_blocks() {
        let t = tok();
        let map = ContextMap::segment(&[], AnchorIds::resolve(&t));
        assert!(map.blocks.is_empty());
        assert_eq!(map.query(), None);
        assert!(map.config_similarities(&[]).is_empty());
    }

    #[test]
    fn jaccard_basics() {
        let a: BTreeSet<TokenId> = [1, 2, 3].into_iter().collect();
        let b: BTreeSet<TokenId> = [2, 3, 4].into_iter().collect();
        assert!((jaccard(&a, &b) - 0.5).abs() < 1e-12);
        assert_eq!(jaccard(&a, &a), 1.0);
        assert_eq!(jaccard(&BTreeSet::new(), &BTreeSet::new()), 1.0);
        assert_eq!(jaccard(&a, &BTreeSet::new()), 0.0);
    }
}
