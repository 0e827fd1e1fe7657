//! Numeric generation state and the "world-knowledge" magnitude prior.
//!
//! §IV-B: "a decimal digit sequence representing runtime requires a distinct
//! token for the '.' separator... the initial prefix digits have the most
//! significant influence on both its magnitude and all subsequent tokens".
//! The paper also observes that the model "appropriately reflects" that SM
//! runtimes are below one second — general pretraining knowledge about
//! plausible program runtimes, not something inferable from format alone.
//!
//! This module detects where in a decimal value the generation currently
//! is ([`ValueState`]) and supplies the pretrained-prior distribution over
//! the next token: a log-uniform belief over runtimes in
//! `[lo_seconds, hi_seconds]` projected onto the token alphabet, with the
//! paper's 7-decimal format carried by the in-context examples.

use lmpeel_tokenizer::{TokenId, Tokenizer};

/// The vocabulary facts the prior reads, resolved once per model so that no
/// decode step scans the vocabulary or looks a token up by its string.
#[derive(Debug, Clone)]
pub(crate) struct ValueTokens {
    /// The purely numeric token ids of each digit length, ascending:
    /// `numeric[n - 1]` holds the `n`-digit ones, for `n` in `1..=3`.
    pub(crate) numeric: [Vec<TokenId>; 3],
    /// The ids of the digits `0`–`9`, by digit.
    digits: [TokenId; 10],
    /// The id of `.`.
    period: TokenId,
}

impl ValueTokens {
    /// Resolve the value tokens against a tokenizer.
    ///
    /// # Panics
    /// Panics if the vocabulary lacks a digit or `.` token (every
    /// vocabulary holds them as byte tokens).
    pub(crate) fn resolve(tokenizer: &Tokenizer) -> Self {
        let vocab = tokenizer.vocab();
        let id = |s: &str| vocab.token_id(s).expect("digit and period tokens exist");
        Self {
            numeric: [1, 2, 3].map(|len| vocab.numeric_ids(len)),
            digits: std::array::from_fn(|d| id(&d.to_string())),
            period: id("."),
        }
    }
}

/// Where inside a `Performance:` value the next token lands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValueState {
    /// Right after `Performance: ` — the next token is the integer part.
    Start,
    /// After `n` integer digits, before the decimal point.
    AfterInt {
        /// Number of integer digits emitted so far.
        int_digits: usize,
    },
    /// After the decimal point with `frac_digits` fractional digits so far.
    InFraction {
        /// Number of fractional digits emitted so far.
        frac_digits: usize,
    },
}

/// Detect the value state from the tail of a token context.
///
/// Walks back over numeric / `.` tokens; the run must be preceded by a
/// `Performance` token plus its `: `/`:` separator (an optional bare space
/// token is tolerated between separator and digits). Returns `None` when
/// the context is not completing a value.
pub fn value_state(context: &[TokenId], tokenizer: &Tokenizer) -> Option<ValueState> {
    let vocab = tokenizer.vocab();
    let s = |id: TokenId| vocab.token_str(id);

    // Trailing run of digits/periods.
    let mut i = context.len();
    while i > 0 {
        let t = s(context[i - 1]);
        if vocab.is_numeric(context[i - 1]) || t == "." {
            i -= 1;
        } else {
            break;
        }
    }
    let run = &context[i..];

    // What precedes the run must be the Performance separator.
    let mut j = i;
    if j > 0 && s(context[j - 1]) == " " {
        j -= 1;
    }
    if j == 0 {
        return None;
    }
    let sep = s(context[j - 1]);
    if sep != ": " && sep != ":" {
        return None;
    }
    if j < 2 || !s(context[j - 2]).ends_with("Performance") {
        return None;
    }

    // Classify the run.
    let mut int_digits = 0usize;
    let mut frac_digits = 0usize;
    let mut seen_dot = false;
    for &t in run {
        let st = s(t);
        if st == "." {
            if seen_dot {
                return None; // malformed; not a value we model
            }
            seen_dot = true;
        } else if seen_dot {
            frac_digits += st.len();
        } else {
            int_digits += st.len();
        }
    }
    Some(if run.is_empty() {
        ValueState::Start
    } else if !seen_dot {
        ValueState::AfterInt { int_digits }
    } else {
        ValueState::InFraction { frac_digits }
    })
}

/// The magnitude prior: parameters of the log-uniform runtime belief.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MagnitudePrior {
    /// Smallest plausible runtime in seconds.
    pub lo_seconds: f64,
    /// Largest plausible runtime in seconds.
    pub hi_seconds: f64,
    /// Decimal places the format carries (7 in the paper's prompts).
    pub target_decimals: usize,
}

impl Default for MagnitudePrior {
    fn default() -> Self {
        Self {
            lo_seconds: 1e-4,
            hi_seconds: 20.0,
            target_decimals: 7,
        }
    }
}

impl MagnitudePrior {
    /// Log-uniform probability that the runtime lies in `[a, b)`,
    /// restricted to the prior's support.
    fn log_mass(&self, a: f64, b: f64) -> f64 {
        let lo = a.max(self.lo_seconds);
        let hi = b.min(self.hi_seconds);
        if hi <= lo {
            return 0.0;
        }
        (hi / lo).ln() / (self.hi_seconds / self.lo_seconds).ln()
    }

    /// Prior weights over the next token for a value state, as sparse
    /// `(token, weight)` pairs summing to ~1, written over `out` (a
    /// caller's reused buffer). `newline`/`eos` receive the stopping mass
    /// when the format is complete.
    pub(crate) fn next_token_weights(
        &self,
        state: ValueState,
        ids: &ValueTokens,
        newline: TokenId,
        eos: TokenId,
        out: &mut Vec<(TokenId, f64)>,
    ) {
        out.clear();
        match state {
            ValueState::Start => {
                // First integer digit d means runtime in [d, d+1) seconds
                // (d = 0 covers everything below one second; d = 1 also
                // absorbs the >= 10s tail, whose decimal form starts with 1).
                out.extend(
                    (0..10)
                        .map(|d| {
                            let (a, b) = if d == 0 {
                                (self.lo_seconds, 1.0)
                            } else if d == 1 {
                                return (
                                    ids.digits[1],
                                    self.log_mass(1.0, 2.0) + self.log_mass(10.0, self.hi_seconds),
                                );
                            } else {
                                (d as f64, d as f64 + 1.0)
                            };
                            (ids.digits[d], self.log_mass(a, b))
                        })
                        .filter(|&(_, w)| w > 0.0),
                );
                let total: f64 = out.iter().map(|&(_, w)| w).sum();
                for p in out.iter_mut() {
                    p.1 /= total;
                }
            }
            ValueState::AfterInt { int_digits } => {
                // Overwhelmingly the decimal point; a sliver of mass on a
                // further digit (runtimes >= 10s exist in the tail of the
                // prior).
                let more = if int_digits == 1 {
                    self.log_mass(10.0, self.hi_seconds)
                } else {
                    0.0
                };
                out.push((ids.period, 1.0 - more));
                if more > 0.0 {
                    // spread over plausible second digits uniformly
                    for d in 0..10 {
                        out.push((ids.digits[d], more / 10.0));
                    }
                }
            }
            ValueState::InFraction { frac_digits } => {
                let remaining = self.target_decimals.saturating_sub(frac_digits);
                match remaining {
                    // A chat model ends its turn after answering; a line
                    // break (continuing the transcript) is the rarer path.
                    0 => out.extend([(eos, 0.75), (newline, 0.25)]),
                    1 | 2 => {
                        // Exactly-fitting digit groups, uniform: fraction
                        // digits of a log-uniform variable are ~uniform.
                        let group = &ids.numeric[remaining - 1];
                        let w = 1.0 / group.len() as f64;
                        out.extend(group.iter().map(|&id| (id, w)));
                    }
                    _ => {
                        // Prefer 3-digit groups (the Llama grouping), with
                        // small mass on shorter groups (early stop /
                        // format deviation within the number).
                        for (group, mass) in [(3, 0.94), (2, 0.04), (1, 0.02)] {
                            let group = &ids.numeric[group - 1];
                            let w = mass / group.len() as f64;
                            out.extend(group.iter().map(|&id| (id, w)));
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmpeel_tokenizer::{Vocab, EOS as EOS_STR};

    fn tok() -> Tokenizer {
        Tokenizer::paper()
    }

    /// The prior's weights for `state`, written over a buffer holding a
    /// stale pair, so a weight list that is not cleared first shows.
    fn weights(
        prior: &MagnitudePrior,
        state: ValueState,
        ids: &ValueTokens,
        newline: TokenId,
        eos: TokenId,
    ) -> Vec<(TokenId, f64)> {
        let mut out = vec![(0, f64::NAN)];
        prior.next_token_weights(state, ids, newline, eos, &mut out);
        out
    }

    fn nl_eos(t: &Tokenizer) -> (TokenId, TokenId) {
        (
            t.vocab().token_id("\n").unwrap(),
            t.vocab().token_id(EOS_STR).unwrap(),
        )
    }

    #[test]
    fn state_detection_through_a_value() {
        let t = tok();
        let base = "Performance: ";
        assert_eq!(value_state(&t.encode(base), &t), Some(ValueState::Start));
        assert_eq!(
            value_state(&t.encode("Performance: 0"), &t),
            Some(ValueState::AfterInt { int_digits: 1 })
        );
        assert_eq!(
            value_state(&t.encode("Performance: 0."), &t),
            Some(ValueState::InFraction { frac_digits: 0 })
        );
        assert_eq!(
            value_state(&t.encode("Performance: 0.002"), &t),
            Some(ValueState::InFraction { frac_digits: 3 })
        );
        assert_eq!(
            value_state(&t.encode("Performance: 0.0022155"), &t),
            Some(ValueState::InFraction { frac_digits: 7 })
        );
    }

    #[test]
    fn non_value_contexts_yield_none() {
        let t = tok();
        assert_eq!(value_state(&t.encode("size is SM, tile is 80"), &t), None);
        assert_eq!(value_state(&t.encode("Performance was great"), &t), None);
        assert_eq!(value_state(&t.encode(""), &t), None);
        // double dot is malformed
        assert_eq!(value_state(&t.encode("Performance: 0.0.1"), &t), None);
    }

    #[test]
    fn bare_colon_separator_is_accepted() {
        let t = tok();
        // "Performance:" followed directly by generation (no trailing space
        // in the prompt): the separator tokenizes as ":" alone.
        let mut ctx = t.encode("Performance:");
        assert_eq!(value_state(&ctx, &t), Some(ValueState::Start));
        ctx.extend(t.encode("3"));
        assert_eq!(
            value_state(&ctx, &t),
            Some(ValueState::AfterInt { int_digits: 1 })
        );
    }

    #[test]
    fn start_prior_reflects_sub_second_dominance() {
        let t = tok();
        let (nl, eos) = nl_eos(&t);
        let prior = MagnitudePrior::default();
        let w = weights(
            &prior,
            ValueState::Start,
            &ValueTokens::resolve(&t),
            nl,
            eos,
        );
        let get = |d: &str| {
            w.iter()
                .find(|&&(id, _)| t.vocab().token_str(id) == d)
                .map(|&(_, p)| p)
                .unwrap_or(0.0)
        };
        assert!(get("0") > 0.5, "most mass on sub-second runtimes");
        assert!(
            get("1") > get("5"),
            "log-uniform favours small leading digits"
        );
        let total: f64 = w.iter().map(|&(_, p)| p).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn after_int_prior_is_almost_surely_the_period() {
        let t = tok();
        let (nl, eos) = nl_eos(&t);
        let prior = MagnitudePrior::default();
        let w = weights(
            &prior,
            ValueState::AfterInt { int_digits: 1 },
            &ValueTokens::resolve(&t),
            nl,
            eos,
        );
        let period = w
            .iter()
            .find(|&&(id, _)| t.vocab().token_str(id) == ".")
            .unwrap()
            .1;
        assert!(period > 0.9, "Table II: the 2nd token is always the period");
    }

    #[test]
    fn fraction_prior_spans_hundreds_of_tokens() {
        let t = tok();
        let (nl, eos) = nl_eos(&t);
        let prior = MagnitudePrior::default();
        let w = weights(
            &prior,
            ValueState::InFraction { frac_digits: 0 },
            &ValueTokens::resolve(&t),
            nl,
            eos,
        );
        assert!(w.len() >= 1000, "3-digit groups dominate: {}", w.len());
        let total: f64 = w.iter().map(|&(_, p)| p).sum();
        assert!((total - 1.0).abs() < 1e-6);
    }

    #[test]
    fn exhausted_format_stops() {
        let t = tok();
        let (nl, eos) = nl_eos(&t);
        let prior = MagnitudePrior::default();
        let w = weights(
            &prior,
            ValueState::InFraction { frac_digits: 7 },
            &ValueTokens::resolve(&t),
            nl,
            eos,
        );
        assert_eq!(w.len(), 2);
        assert!(w[0] == (eos, 0.75) && w[1] == (nl, 0.25));
    }

    #[test]
    fn remaining_one_digit_uses_single_digit_tokens() {
        let t = tok();
        let (nl, eos) = nl_eos(&t);
        let prior = MagnitudePrior::default();
        let w = weights(
            &prior,
            ValueState::InFraction { frac_digits: 6 },
            &ValueTokens::resolve(&t),
            nl,
            eos,
        );
        assert_eq!(w.len(), 10);
        for (id, _) in &w {
            assert_eq!(t.vocab().token_str(*id).len(), 1);
        }
    }

    /// The weights as the vocabulary-scanning version computed them, kept
    /// as an oracle for the resolved ids.
    fn scanned_weights(
        prior: &MagnitudePrior,
        state: ValueState,
        tokenizer: &Tokenizer,
        newline: TokenId,
        eos: TokenId,
    ) -> Vec<(TokenId, f64)> {
        let vocab = tokenizer.vocab();
        let digit_id = |d: usize| vocab.token_id(&d.to_string()).expect("digit tokens exist");
        match state {
            ValueState::Start => {
                let mut out: Vec<(TokenId, f64)> = (0..10)
                    .map(|d| {
                        let (a, b) = if d == 0 {
                            (prior.lo_seconds, 1.0)
                        } else if d == 1 {
                            return (
                                digit_id(1),
                                prior.log_mass(1.0, 2.0) + prior.log_mass(10.0, prior.hi_seconds),
                            );
                        } else {
                            (d as f64, d as f64 + 1.0)
                        };
                        (digit_id(d), prior.log_mass(a, b))
                    })
                    .filter(|&(_, w)| w > 0.0)
                    .collect();
                let total: f64 = out.iter().map(|&(_, w)| w).sum();
                for p in &mut out {
                    p.1 /= total;
                }
                out
            }
            ValueState::AfterInt { int_digits } => {
                let more = if int_digits == 1 {
                    prior.log_mass(10.0, prior.hi_seconds)
                } else {
                    0.0
                };
                let mut out = vec![(vocab.token_id(".").expect("period token"), 1.0 - more)];
                if more > 0.0 {
                    for d in 0..10 {
                        out.push((digit_id(d), more / 10.0));
                    }
                }
                out
            }
            ValueState::InFraction { frac_digits } => {
                let remaining = prior.target_decimals.saturating_sub(frac_digits);
                match remaining {
                    0 => vec![(eos, 0.75), (newline, 0.25)],
                    1 | 2 => {
                        let ids = vocab.numeric_ids(remaining);
                        let w = 1.0 / ids.len() as f64;
                        ids.into_iter().map(|id| (id, w)).collect()
                    }
                    _ => {
                        let mut out: Vec<(TokenId, f64)> = Vec::with_capacity(1110);
                        let three = vocab.numeric_ids(3);
                        let w3 = 0.94 / three.len() as f64;
                        out.extend(three.into_iter().map(|id| (id, w3)));
                        let two = vocab.numeric_ids(2);
                        let w2 = 0.04 / two.len() as f64;
                        out.extend(two.into_iter().map(|id| (id, w2)));
                        let one = vocab.numeric_ids(1);
                        let w1 = 0.02 / one.len() as f64;
                        out.extend(one.into_iter().map(|id| (id, w1)));
                        out
                    }
                }
            }
        }
    }

    #[test]
    fn resolved_ids_give_the_scanned_weights_bitwise() {
        let t = tok();
        let (nl, eos) = nl_eos(&t);
        let ids = ValueTokens::resolve(&t);
        let bits = |w: Vec<(TokenId, f64)>| -> Vec<(TokenId, u64)> {
            w.into_iter().map(|(id, p)| (id, p.to_bits())).collect()
        };
        let mut states = vec![
            ValueState::Start,
            ValueState::AfterInt { int_digits: 1 },
            ValueState::AfterInt { int_digits: 2 },
        ];
        states.extend((0..=7).map(|frac_digits| ValueState::InFraction { frac_digits }));
        for prior in [
            MagnitudePrior::default(),
            crate::InductionConfig::default().prior,
        ] {
            for &state in &states {
                assert_eq!(
                    bits(weights(&prior, state, &ids, nl, eos)),
                    bits(scanned_weights(&prior, state, &t, nl, eos)),
                    "{prior:?} at {state:?}"
                );
            }
        }
    }

    #[test]
    fn log_mass_is_a_probability() {
        let p = MagnitudePrior::default();
        let whole = p.log_mass(p.lo_seconds, p.hi_seconds);
        assert!((whole - 1.0).abs() < 1e-12);
        assert_eq!(p.log_mass(30.0, 40.0), 0.0, "outside support");
        assert!(p.log_mass(0.001, 0.01) > p.log_mass(1.0, 2.0));
    }

    #[test]
    fn vocab_digit_tokens_exist_for_prior() {
        let v = Vocab::paper();
        for d in 0..10 {
            assert!(v.token_id(&d.to_string()).is_some());
        }
    }
}
