//! Vocabulary construction.
//!
//! A [`Vocab`] maps token strings to dense ids. Construction layers, in id
//! order:
//!
//! 1. **special tokens** — BOS/EOS and chat role markers (never matched by
//!    the text scanner; they are inserted programmatically);
//! 2. **byte tokens** — one token per byte value, guaranteeing that any
//!    input encodes; bytes outside printable ASCII, `\n` and `\t` are
//!    spelled `<0xNN>`, and like the specials those escape spellings are
//!    never matched by the scanner (they come only from its byte fallback);
//! 3. **numeric tokens** — every 1-, 2- and 3-digit string (`0`–`9`,
//!    `00`–`99`, `000`–`999`), the Llama-3 convention that drives the
//!    paper's Table II;
//! 4. **word tokens** — learned from a corpus: frequent words with their
//!    preceding space (` Performance`), line-initial words bare, plus
//!    frequent punctuation clusters. Words containing digits are excluded
//!    so numeric grouping stays canonical.

use std::collections::{BTreeMap, HashMap};

/// Dense token identifier.
pub type TokenId = u32;

/// Beginning-of-sequence special token string.
pub const BOS: &str = "<|begin_of_text|>";
/// End-of-sequence / end-of-turn special token string.
pub const EOS: &str = "<|eot|>";
/// System-role header special token string.
pub const ROLE_SYSTEM: &str = "<|system|>";
/// User-role header special token string.
pub const ROLE_USER: &str = "<|user|>";
/// Assistant-role header special token string.
pub const ROLE_ASSISTANT: &str = "<|assistant|>";

const SPECIALS: [&str; 5] = [BOS, EOS, ROLE_SYSTEM, ROLE_USER, ROLE_ASSISTANT];

/// A token vocabulary with string↔id maps.
#[derive(Debug, Clone)]
pub struct Vocab {
    tokens: Vec<String>,
    index: HashMap<String, TokenId>,
    num_specials: usize,
}

impl Vocab {
    /// Build a vocabulary from a training corpus (see module docs for the
    /// layering). `max_words` caps the learned word tokens.
    pub fn from_corpus(corpus: &str, max_words: usize) -> Self {
        let mut tokens: Vec<String> = Vec::new();
        let mut index: HashMap<String, TokenId> = HashMap::new();
        let push = |tokens: &mut Vec<String>, index: &mut HashMap<String, TokenId>, s: String| {
            if !index.contains_key(&s) {
                index.insert(s.clone(), tokens.len() as TokenId);
                tokens.push(s);
            }
        };

        // 1. specials
        for s in SPECIALS {
            push(&mut tokens, &mut index, s.to_string());
        }
        let num_specials = tokens.len();

        // 2. byte tokens — printable ASCII and whitespace as themselves;
        //    everything else via <0xNN> escape handled by the tokenizer.
        for b in 0u8..=255 {
            push(&mut tokens, &mut index, byte_token(b));
        }

        // 3. numeric tokens: all 1-3 digit strings. (1-digit strings are
        //    already present as byte tokens.)
        for len in 2..=3 {
            let max = 10u32.pow(len);
            for v in 0..max {
                push(
                    &mut tokens,
                    &mut index,
                    format!("{v:0width$}", width = len as usize),
                );
            }
        }

        // 4. corpus words, most frequent first, with leading-space variants.
        let mut freq: BTreeMap<String, u64> = BTreeMap::new();
        for line in corpus.lines() {
            let mut first = true;
            for word in line.split(' ') {
                if word.is_empty() {
                    first = false;
                    continue;
                }
                // Strip trailing punctuation into its own buckets; keep the
                // core word. Skip anything containing a digit.
                let core: String = word
                    .trim_matches(|c: char| c.is_ascii_punctuation() && c != '_')
                    .to_string();
                if core.is_empty() || core.chars().any(|c| c.is_ascii_digit()) {
                    first = false;
                    continue;
                }
                let key = if first {
                    core.clone()
                } else {
                    format!(" {core}")
                };
                *freq.entry(key).or_insert(0) += 1;
                // Also learn the space-prefixed variant of line-initial
                // words and vice versa; both occur in running text.
                let alt = if first { format!(" {core}") } else { core };
                *freq.entry(alt).or_insert(0) += 1;
                first = false;
            }
        }
        let mut by_freq: Vec<(String, u64)> = freq.into_iter().collect();
        by_freq.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        for (word, _) in by_freq.into_iter().take(max_words) {
            push(&mut tokens, &mut index, word);
        }

        // Common punctuation-with-space clusters seen in prompts.
        for cluster in [", ", ": ", ":\n", ".\n", "\n\n", " *", "- "] {
            push(&mut tokens, &mut index, cluster.to_string());
        }

        Self {
            tokens,
            index,
            num_specials,
        }
    }

    /// The paper vocabulary: learned from the Figure-1 prompt templates.
    pub fn paper() -> Self {
        Self::from_corpus(PAPER_CORPUS, 512)
    }

    /// Number of tokens.
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    /// Whether the vocabulary is empty (never true in practice).
    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty()
    }

    /// Number of special tokens (ids `0..num_specials`).
    pub fn num_specials(&self) -> usize {
        self.num_specials
    }

    /// String of a token id.
    ///
    /// # Panics
    /// Panics on an out-of-range id.
    pub fn token_str(&self, id: TokenId) -> &str {
        &self.tokens[id as usize]
    }

    /// Id of an exact token string, if present.
    pub fn token_id(&self, s: &str) -> Option<TokenId> {
        self.index.get(s).copied()
    }

    /// Whether an id denotes a special token.
    pub fn is_special(&self, id: TokenId) -> bool {
        (id as usize) < self.num_specials
    }

    /// Whether a token is purely ASCII digits (the numeric tokens driving
    /// Table II).
    pub fn is_numeric(&self, id: TokenId) -> bool {
        let s = self.token_str(id);
        !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit())
    }

    /// Ids of all purely numeric tokens of a given digit length.
    pub fn numeric_ids(&self, len: usize) -> Vec<TokenId> {
        (0..self.len() as TokenId)
            .filter(|&id| {
                let s = self.token_str(id);
                s.len() == len && self.is_numeric(id)
            })
            .collect()
    }
}

/// The string of byte `b`'s token: printable ASCII, `\n` and `\t` as
/// themselves, every other byte as its `<0xNN>` escape.
pub(crate) fn byte_token(b: u8) -> String {
    if (0x20..0x7f).contains(&b) || b == b'\n' || b == b'\t' {
        (b as char).to_string()
    } else {
        format!("<0x{b:02X}>")
    }
}

/// The prompt-template corpus the paper vocabulary is learned from: the
/// Figure-1 system instructions and problem description (verbatim from the
/// paper) plus the recurring ICL scaffolding lines.
pub const PAPER_CORPUS: &str = "\
The user may describe their optimization problem to give specific context. \
Then they will demonstrate hyperparameter configurations for a regression \
problems in a feature-rich text-based CSV format. Following the examples, \
the user will provide a number of configurations without performance values; \
you will need to infer the objective based on their prior examples. Do not \
alter the user's proposed configurations. Do NOT explain your thought \
process. ONLY respond with your answer following the format that the user \
demonstrated for you.
The problem considers source-code optimization for a loop nest in C++ code.
The 'size' parameter is invariant, but denotes a relativistic measure of the \
size of data inputs to the loop nest. Sizes can be represented by the \
following values sorted smallest-to-largest: S, SM, M, ML, L, XL
Size is NOT a tunable component of the problem.
Tunable options in the configuration space are:
* The first and second array inputs to the problem can be independently \
packed, represented as True/False for each
* The outermost two loops in the nest may be interchanged, represented as \
True to perform interchange, else False
* Each loop (outer, middle, and inner) are tiled, and the tile sizes can all \
be independently specified.
The performance objective is the runtime of a program compiled with the \
modified source, so lower is better.
A pseudocode representation of the problem is:
input: Arrays A, B, C, scalar constant alpha
code segment:
# Optional packing array A
# Optional packing array B
# Optional interchange on outermost two loops
for i in tiles of size outer_loop_tiling_factor
for j in tiles of size middle_loop_tiling_factor
for k in tiles of size inner_loop_tiling_factor
Here are the examples:
Hyperparameter configuration: size is SM, first_array_packed is True, \
second_array_packed is False, interchange_first_two_loops is False, \
outer_loop_tiling_factor is, middle_loop_tiling_factor is, \
inner_loop_tiling_factor is
Performance:
Please complete the following:
";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_vocab_has_all_numeric_tokens() {
        let v = Vocab::paper();
        assert_eq!(v.numeric_ids(1).len(), 10);
        assert_eq!(v.numeric_ids(2).len(), 100);
        assert_eq!(v.numeric_ids(3).len(), 1000);
        assert_eq!(v.token_id("007").map(|id| v.token_str(id)), Some("007"));
    }

    #[test]
    fn specials_come_first_and_are_flagged() {
        let v = Vocab::paper();
        assert_eq!(v.num_specials(), 5);
        for (i, s) in SPECIALS.iter().enumerate() {
            assert_eq!(v.token_id(s), Some(i as TokenId));
            assert!(v.is_special(i as TokenId));
        }
        assert!(!v.is_special(v.token_id(".").unwrap()));
    }

    #[test]
    fn ids_are_dense_and_unique() {
        let v = Vocab::paper();
        for id in 0..v.len() as TokenId {
            let s = v.token_str(id).to_string();
            assert_eq!(v.token_id(&s), Some(id), "index/token mismatch for {s:?}");
        }
    }

    #[test]
    fn learned_words_include_prompt_keywords() {
        let v = Vocab::paper();
        for w in [
            " Performance",
            " configuration",
            " size",
            " True",
            " False",
            " is",
        ] {
            assert!(v.token_id(w).is_some(), "expected learned token {w:?}");
        }
    }

    #[test]
    fn word_tokens_contain_no_digits() {
        let v = Vocab::paper();
        for id in 0..v.len() as TokenId {
            let s = v.token_str(id);
            let is_byte_escape = s.starts_with("<0x") && s.ends_with('>');
            if s.chars().any(|c| c.is_ascii_digit()) && !is_byte_escape {
                assert!(
                    v.is_numeric(id),
                    "digit-bearing token {s:?} must be purely numeric"
                );
            }
        }
    }

    #[test]
    fn every_byte_is_representable() {
        let v = Vocab::paper();
        for b in 0u8..=255 {
            assert!(v.token_id(&byte_token(b)).is_some(), "byte {b} missing");
        }
    }

    #[test]
    fn numeric_predicate() {
        let v = Vocab::paper();
        assert!(v.is_numeric(v.token_id("042").unwrap()));
        assert!(!v.is_numeric(v.token_id(".").unwrap()));
        assert!(!v.is_numeric(v.token_id(BOS).unwrap()));
    }

    #[test]
    fn corpus_cap_limits_word_tokens() {
        let tiny = Vocab::from_corpus("alpha beta gamma delta", 2);
        // only two learned word tokens beyond bytes+numerics+specials
        let baseline = Vocab::from_corpus("", 0);
        assert!(
            tiny.len() <= baseline.len() + 2 + 7,
            "cap not enforced: {}",
            tiny.len()
        );
    }
}
