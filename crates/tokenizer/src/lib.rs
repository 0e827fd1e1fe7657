//! Greedy longest-match tokenizer with Llama-3-style numeric vocabulary.
//!
//! Table II of the paper is a direct consequence of how Llama 3 tokenizes
//! decimal runtimes: every 1-, 2- and 3-digit string is a single token and
//! digit runs are grouped greedily from the left, so `0.0022155` becomes
//! `["0", ".", "002", "215", "5"]` — the second token is always the period,
//! and the 3rd/4th tokens each range over up to a thousand alternatives.
//! This crate reproduces that behaviour: a [`vocab::Vocab`] containing all
//! 1110 numeric tokens, single-byte fallback tokens covering every input,
//! corpus-learned word tokens (with their leading space, GPT-style), and a
//! handful of chat special tokens; and a greedy longest-match
//! [`tokenizer::Tokenizer`] with offset-tracking encode (a walk over a flat
//! byte trie of the scannable tokens) and exact decode.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod tokenizer;
pub mod vocab;

pub use tokenizer::Tokenizer;
pub use vocab::{TokenId, Vocab, BOS, EOS, ROLE_ASSISTANT, ROLE_SYSTEM, ROLE_USER};
