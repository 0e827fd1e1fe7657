//! Greedy longest-match encoding and exact decoding.
//!
//! Encoding walks a byte trie over the scannable tokens (every token but
//! the specials and the `<0xNN>` escape spellings), built once when the
//! [`Tokenizer`] is made: from each position it follows the text byte by
//! byte and keeps the deepest token it passed.

use crate::vocab::{byte_token, TokenId, Vocab};

/// One encoded token with its source byte range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TokenSpan {
    /// Token id.
    pub id: TokenId,
    /// Start byte offset in the source text.
    pub start: usize,
    /// End byte offset (exclusive).
    pub end: usize,
}

/// Greedy longest-match tokenizer over a [`Vocab`].
///
/// At each position the longest scannable vocabulary entry matching the
/// remaining text is consumed; ties cannot occur because entries are exact
/// strings. Special tokens are never produced by scanning — they are
/// inserted programmatically via [`Tokenizer::special`] — and neither are
/// the `<0xNN>` escape spellings: text that spells one out encodes as its
/// characters. Bytes with no scannable token fall back to their byte
/// token, so every input encodes and decodes losslessly.
#[derive(Debug, Clone)]
pub struct Tokenizer {
    vocab: Vocab,
    trie: Trie,
    byte_ids: [TokenId; 256],
}

impl Tokenizer {
    /// Wrap a vocabulary, building its match trie and byte-fallback table.
    ///
    /// # Panics
    /// Panics if `vocab` lacks a token for some byte value.
    pub fn new(vocab: Vocab) -> Self {
        let byte_ids = std::array::from_fn(|b| {
            vocab
                .token_id(&byte_token(b as u8))
                .expect("byte token exists")
        });
        let trie = Trie::new((0..vocab.len() as TokenId).filter_map(|id| {
            let s = vocab.token_str(id);
            let scannable = !vocab.is_special(id) && parse_byte_escape(s).is_none();
            scannable.then_some((s.as_bytes(), id))
        }));
        Self {
            vocab,
            trie,
            byte_ids,
        }
    }

    /// Tokenizer over the paper vocabulary.
    pub fn paper() -> Self {
        Self::new(Vocab::paper())
    }

    /// The underlying vocabulary.
    pub fn vocab(&self) -> &Vocab {
        &self.vocab
    }

    /// Id of a special token string.
    ///
    /// # Panics
    /// Panics if `s` is not a registered special token.
    pub fn special(&self, s: &str) -> TokenId {
        let id = self
            .vocab
            .token_id(s)
            .unwrap_or_else(|| panic!("unknown special token {s:?}"));
        assert!(self.vocab.is_special(id), "{s:?} is not a special token");
        id
    }

    /// Encode text to token ids.
    pub fn encode(&self, text: &str) -> Vec<TokenId> {
        self.encode_spans(text).into_iter().map(|s| s.id).collect()
    }

    /// Encode text, tracking each token's source byte range.
    ///
    /// From each position the trie walk takes the longest scannable token;
    /// where none starts (including inside a multi-byte char whose lead
    /// byte already fell back), one byte is consumed as its byte token.
    /// Tokens are whole UTF-8 strings, so none starts with a continuation
    /// byte, and one that starts on a char boundary also ends on one.
    fn encode_spans(&self, text: &str) -> Vec<TokenSpan> {
        let bytes = text.as_bytes();
        let mut out = Vec::with_capacity(bytes.len() / 3 + 1);
        let mut pos = 0;
        while pos < bytes.len() {
            let (id, len) = self
                .trie
                .longest_match(&bytes[pos..])
                .unwrap_or((self.byte_ids[bytes[pos] as usize], 1));
            out.push(TokenSpan {
                id,
                start: pos,
                end: pos + len,
            });
            pos += len;
        }
        out
    }

    /// Decode token ids back to text. Special tokens render as their marker
    /// strings; byte-fallback tokens render as their raw byte.
    pub fn decode(&self, ids: &[TokenId]) -> String {
        let mut bytes: Vec<u8> = Vec::new();
        for &id in ids {
            let s = self.vocab.token_str(id);
            if let Some(b) = parse_byte_escape(s) {
                bytes.push(b);
            } else {
                bytes.extend_from_slice(s.as_bytes());
            }
        }
        String::from_utf8_lossy(&bytes).into_owned()
    }
}

/// Marks a trie node that ends no token.
const NO_TOKEN: TokenId = TokenId::MAX;

/// A byte trie stored flat. Node 0 is the root, which is no node's child,
/// so 0 also stands for "no such node". The root's children are looked up
/// directly in `root`; any other node `n`'s outgoing edges are
/// `labels[edges[n]..edges[n + 1]]`, sorted by byte and scanned in order
/// (few enough that a scan beats a binary search), leading to the same
/// range of `targets`. `token[n]` is the id of the token spelled by the
/// path to `n`, or [`NO_TOKEN`].
#[derive(Debug, Clone)]
struct Trie {
    root: [u32; 256],
    edges: Vec<u32>,
    labels: Vec<u8>,
    targets: Vec<u32>,
    token: Vec<TokenId>,
}

impl Trie {
    /// Build from distinct, non-empty token spellings in any order.
    fn new<'a>(tokens: impl Iterator<Item = (&'a [u8], TokenId)>) -> Self {
        let mut tokens: Vec<(&[u8], TokenId)> = tokens.collect();
        tokens.sort_unstable();
        // Inserting in sorted order, a token shares its path with the
        // previous one up to their common prefix and never revisits the
        // rest, so every node is created once, after its parent's earlier
        // children, without a child lookup. `created[n - 1]` is node n's
        // (parent, byte).
        let mut token = vec![NO_TOKEN];
        let mut created: Vec<(u32, u8)> = Vec::new();
        let mut path: Vec<u32> = vec![0];
        let mut prev: &[u8] = &[];
        for (s, id) in tokens {
            let common = s.iter().zip(prev).take_while(|(a, b)| a == b).count();
            path.truncate(common + 1);
            for &b in &s[common..] {
                created.push((path[path.len() - 1], b));
                path.push(token.len() as u32);
                token.push(NO_TOKEN);
            }
            token[path[path.len() - 1] as usize] = id;
            prev = s;
        }
        // Group the edges by parent; a counting sort keeps each parent's
        // children in creation, hence byte, order.
        let mut edges = vec![0u32; token.len() + 1];
        for &(parent, _) in &created {
            edges[parent as usize + 1] += 1;
        }
        for n in 1..edges.len() {
            edges[n] += edges[n - 1];
        }
        let mut fill = edges.clone();
        let mut labels = vec![0u8; created.len()];
        let mut targets = vec![0u32; created.len()];
        let mut root = [0u32; 256];
        for (child, &(parent, b)) in (1..).zip(&created) {
            if parent == 0 {
                root[b as usize] = child;
            }
            let slot = &mut fill[parent as usize];
            labels[*slot as usize] = b;
            targets[*slot as usize] = child;
            *slot += 1;
        }
        Self {
            root,
            edges,
            labels,
            targets,
            token,
        }
    }

    /// The longest token that is a prefix of the non-empty `bytes`, as
    /// `(id, byte length)`.
    fn longest_match(&self, bytes: &[u8]) -> Option<(TokenId, usize)> {
        let mut node = self.root[bytes[0] as usize] as usize;
        let mut len = 1;
        let mut best = None;
        while node != 0 {
            let id = self.token[node];
            if id != NO_TOKEN {
                best = Some((id, len));
            }
            let Some(&b) = bytes.get(len) else {
                break;
            };
            let (lo, hi) = (self.edges[node] as usize, self.edges[node + 1] as usize);
            node = self.labels[lo..hi]
                .iter()
                .position(|&l| l == b)
                .map_or(0, |i| self.targets[lo + i] as usize);
            len += 1;
        }
        best
    }
}

fn parse_byte_escape(s: &str) -> Option<u8> {
    let hex = s.strip_prefix("<0x")?.strip_suffix('>')?;
    u8::from_str_radix(hex, 16).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vocab::{BOS, EOS, ROLE_USER};
    use lmpeel_configspace::text::ValueFormat;
    use lmpeel_configspace::{syr2k_space, ArraySize};
    use lmpeel_core::PromptBuilder;
    use proptest::prelude::*;

    fn tok() -> Tokenizer {
        Tokenizer::paper()
    }

    /// The hash-probe scan the trie replaced, escape spellings left
    /// unscanned: at each char boundary, every length from the longest
    /// token's down to 1, each one a `HashMap` probe.
    fn oracle_encode_spans(t: &Tokenizer, text: &str) -> Vec<TokenSpan> {
        let vocab = t.vocab();
        let max_len = (0..vocab.len() as TokenId)
            .map(|id| vocab.token_str(id).len())
            .max()
            .unwrap_or(1);
        let bytes = text.as_bytes();
        let mut out = Vec::new();
        let mut pos = 0;
        while pos < bytes.len() {
            let mut matched: Option<(TokenId, usize)> = None;
            let limit = if text.is_char_boundary(pos) {
                max_len.min(bytes.len() - pos)
            } else {
                0
            };
            for len in (1..=limit).rev() {
                if !text.is_char_boundary(pos + len) {
                    continue;
                }
                let cand = &text[pos..pos + len];
                if let Some(id) = vocab.token_id(cand) {
                    if !vocab.is_special(id) && parse_byte_escape(cand).is_none() {
                        matched = Some((id, len));
                        break;
                    }
                }
            }
            let (id, len) = matched.unwrap_or_else(|| {
                let esc = byte_token(bytes[pos]);
                (vocab.token_id(&esc).expect("byte token exists"), 1)
            });
            out.push(TokenSpan {
                id,
                start: pos,
                end: pos + len,
            });
            pos += len;
        }
        out
    }

    /// Marker and escape spellings, and prefixes of them, that the scanner
    /// must encode as plain characters.
    const SPLICES: [&str; 8] = [
        "<0x00>", "<0x1B>", "<0xFF>", "<0x", BOS, EOS, ROLE_USER, "<|",
    ];

    #[test]
    fn digit_runs_group_in_threes_from_the_left() {
        let t = tok();
        let ids = t.encode("0.0022155");
        let strs: Vec<&str> = ids.iter().map(|&i| t.vocab().token_str(i)).collect();
        assert_eq!(strs, vec!["0", ".", "002", "215", "5"]);
    }

    #[test]
    fn second_token_of_sub_second_runtime_is_the_period() {
        let t = tok();
        for v in ["0.0022155", "0.0105292", "0.5", "0.1234567"] {
            let ids = t.encode(v);
            assert_eq!(t.vocab().token_str(ids[1]), ".", "value {v}");
            assert_eq!(t.vocab().token_str(ids[0]).len(), 1, "leading digit token");
        }
    }

    #[test]
    fn xl_runtime_first_token_is_whole_seconds() {
        let t = tok();
        let ids = t.encode("2.7341093");
        let strs: Vec<&str> = ids.iter().map(|&i| t.vocab().token_str(i)).collect();
        assert_eq!(strs, vec!["2", ".", "734", "109", "3"]);
    }

    #[test]
    fn words_match_longest_first() {
        let t = tok();
        let ids = t.encode("Performance: 0.5");
        let strs: Vec<&str> = ids.iter().map(|&i| t.vocab().token_str(i)).collect();
        // "Performance" must be one token (learned), not characters.
        assert!(strs.contains(&"Performance"), "got {strs:?}");
        assert!(strs.len() < "Performance: 0.5".len() / 2);
    }

    #[test]
    fn roundtrip_figure1_example_line() {
        let t = tok();
        let text = "Hyperparameter configuration: size is SM, first_array_packed is True, \
                    second_array_packed is False, interchange_first_two_loops is False, \
                    outer_loop_tiling_factor is 80, middle_loop_tiling_factor is 64, \
                    inner_loop_tiling_factor is 100\nPerformance: 0.0022155";
        assert_eq!(t.decode(&t.encode(text)), text);
    }

    #[test]
    fn specials_are_never_scanned_but_decode_back() {
        let t = tok();
        let ids = t.encode(BOS);
        // Scanning the literal marker text must NOT produce the special id.
        assert!(ids.iter().all(|&id| !t.vocab().is_special(id)));
        assert_eq!(t.decode(&ids), BOS);
        // Programmatic insertion round-trips too.
        let seq = vec![t.special(BOS), t.encode("hi")[0], t.special(EOS)];
        assert!(t.decode(&seq).starts_with(BOS));
    }

    #[test]
    fn spans_tile_the_input_exactly() {
        let t = tok();
        let text = "Performance: 3.1415926 end\n";
        let spans = t.encode_spans(text);
        let mut pos = 0;
        for s in &spans {
            assert_eq!(s.start, pos, "gap before token {s:?}");
            assert!(s.end > s.start);
            pos = s.end;
        }
        assert_eq!(pos, text.len());
    }

    #[test]
    fn non_ascii_bytes_fall_back() {
        let t = tok();
        let text = "π ≈ 3.14";
        let round = t.decode(&t.encode(text));
        assert_eq!(round, text);
        let ids = t.encode("\0\u{1b}\u{ff}");
        let strs: Vec<&str> = ids.iter().map(|&i| t.vocab().token_str(i)).collect();
        assert_eq!(strs, ["<0x00>", "<0x1B>", "<0xC3>", "<0xBF>"]);
    }

    #[test]
    fn escape_spellings_are_never_scanned() {
        let t = tok();
        for text in ["<0x00>", "a<0x1B>b", "<0xFF>"] {
            let ids = t.encode(text);
            assert_eq!(t.decode(&ids), text);
            for &id in &ids {
                let s = t.vocab().token_str(id);
                assert!(parse_byte_escape(s).is_none(), "{text:?} scanned as {s:?}");
            }
        }
    }

    #[test]
    fn unknown_special_panics() {
        let t = tok();
        let r = std::panic::catch_unwind(|| t.special("<|nope|>"));
        assert!(r.is_err());
    }

    proptest! {
        #[test]
        fn roundtrip_arbitrary_ascii(s in "[ -~\n\t]{0,200}") {
            let t = tok();
            prop_assert_eq!(t.decode(&t.encode(&s)), s);
        }

        #[test]
        fn roundtrip_arbitrary_unicode(s in "\\PC{0,60}") {
            let t = tok();
            prop_assert_eq!(t.decode(&t.encode(&s)), s);
        }

        #[test]
        fn trie_matches_oracle_on_ascii(s in "[ -~\n\t]{0,200}") {
            let t = tok();
            prop_assert_eq!(t.encode_spans(&s), oracle_encode_spans(&t, &s));
        }

        #[test]
        fn trie_matches_oracle_on_unicode(s in "\\PC{0,80}") {
            let t = tok();
            prop_assert_eq!(t.encode_spans(&s), oracle_encode_spans(&t, &s));
        }

        #[test]
        fn trie_matches_oracle_on_a_unicode_vocab(picks in proptest::collection::vec(0usize..9, 0..40)) {
            // Multi-byte tokens, and text where they are cut short, test
            // that every match ends on a char boundary.
            let t = Tokenizer::new(Vocab::from_corpus("café naïve π≈ π ≈", 16));
            let frags = ["café", " naïve", "é", " π≈", "≈", "caf", " na", "ï", " π"];
            let text: String = picks.iter().map(|&i| frags[i]).collect();
            prop_assert_eq!(t.encode_spans(&text), oracle_encode_spans(&t, &text));
        }

        #[test]
        fn trie_matches_oracle_on_digit_runs(s in "[0-9.e\\- \n]{0,120}") {
            let t = tok();
            prop_assert_eq!(t.encode_spans(&s), oracle_encode_spans(&t, &s));
        }

        #[test]
        fn trie_matches_oracle_with_markers_spliced_in(
            base in "[ -~\n]{0,80}",
            cuts in proptest::collection::vec(0usize..81, 0..6),
            picks in proptest::collection::vec(0usize..SPLICES.len(), 6),
        ) {
            let t = tok();
            let mut text = base.clone();
            for (&cut, &pick) in cuts.iter().zip(&picks) {
                text.insert_str(cut.min(text.len()), SPLICES[pick]);
            }
            let spans = t.encode_spans(&text);
            prop_assert_eq!(&spans, &oracle_encode_spans(&t, &text));
            let ids: Vec<TokenId> = spans.iter().map(|s| s.id).collect();
            prop_assert_eq!(t.decode(&ids), text);
        }

        #[test]
        fn decimal_values_tokenize_canonically(int in 0u32..10, frac in 0u64..10_000_000u64) {
            let t = tok();
            let text = format!("{int}.{frac:07}");
            let ids = t.encode(&text);
            // leading digit, period, then 3+3+1 digit groups
            prop_assert_eq!(ids.len(), 5);
            prop_assert_eq!(t.vocab().token_str(ids[1]), ".");
            prop_assert_eq!(t.vocab().token_str(ids[2]).len(), 3);
            prop_assert_eq!(t.vocab().token_str(ids[3]).len(), 3);
            prop_assert_eq!(t.vocab().token_str(ids[4]).len(), 1);
        }
    }

    proptest! {
        // Each case encodes a whole prompt (~3k bytes) twice; the prompts
        // share most of their text, so fewer cases cover them.
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn trie_matches_oracle_on_prompts(
            size in 0usize..6,
            scientific in proptest::bool::ANY,
            configs in proptest::collection::vec(0u64..u64::MAX, 1..10),
            runtimes in proptest::collection::vec(1e-4f64..5.0, 9),
        ) {
            let t = tok();
            let space = syr2k_space();
            let format = if scientific { ValueFormat::Scientific } else { ValueFormat::Decimal };
            let builder = PromptBuilder::new(space.clone(), ArraySize::ALL[size]).with_format(format);
            let configs: Vec<_> =
                configs.iter().map(|&i| space.config_at(i % space.cardinality())).collect();
            let (query, examples) = configs.split_last().expect("at least one config");
            let examples: Vec<_> = examples.iter().cloned().zip(runtimes).collect();
            let p = builder.discriminative(&examples, query);
            for text in [&p.system, &p.user, &p.primer] {
                prop_assert_eq!(t.encode_spans(text), oracle_encode_spans(&t, text));
            }
        }
    }
}
