//! Token signatures and rotary positional encodings.
//!
//! Tokens get near-orthogonal ±1/√d signature vectors derived from a stable
//! hash — random-projection identity codes, the standard trick for
//! constructing copy circuits without one-hot dimensions. Positions get
//! multi-frequency rotary encodings whose inner product peaks sharply at
//! zero offset; rotating a query back one step turns that peak into a
//! previous-token attention pattern.

use lmpeel_recover::splitmix64;
use lmpeel_tokenizer::TokenId;

/// Near-orthogonal ±1/√d signature of a token, deterministic in
/// `(token, dim)`.
pub fn token_signature(token: TokenId, dim: usize) -> Vec<f32> {
    let norm = 1.0 / (dim as f32).sqrt();
    (0..dim)
        .map(|i| {
            // SplitMix64 decorrelates sequential keys far better than a
            // byte-oriented FNV pass, which matters because signature bits
            // are read off single output bits.
            let h = splitmix64(((token as u64) << 32) ^ i as u64);
            if h & 1 == 1 {
                norm
            } else {
                -norm
            }
        })
        .collect()
}

/// Geometric frequency ladder for `pairs` rotary pairs.
fn frequencies(pairs: usize) -> Vec<f32> {
    // Highest frequency pi/2 (distinguishes adjacent positions), decaying
    // geometrically so long contexts stay distinguishable.
    (0..pairs)
        .map(|i| std::f32::consts::FRAC_PI_2 * 0.62f32.powi(i as i32))
        .collect()
}

/// Rotary position encoding: `pairs` (cos, sin) pairs of multi-frequency
/// phases. `dim = 2 * pairs`. Normalized so `<pos(p), pos(p)> = 1`.
pub fn position_encoding(pos: usize, pairs: usize) -> Vec<f32> {
    let freqs = frequencies(pairs);
    let norm = 1.0 / (pairs as f32).sqrt();
    let mut out = Vec::with_capacity(2 * pairs);
    for &w in &freqs {
        let phase = w * pos as f32;
        out.push(phase.cos() * norm);
        out.push(phase.sin() * norm);
    }
    out
}

/// Rotate a position encoding *back* by `steps` positions: a fixed linear
/// map (block-diagonal 2×2 rotations), i.e. `rotate_back(pos(p), s) =
/// pos(p - s)` exactly.
pub fn rotate_back(enc: &[f32], steps: usize) -> Vec<f32> {
    assert!(
        enc.len().is_multiple_of(2),
        "encoding must consist of (cos, sin) pairs"
    );
    let pairs = enc.len() / 2;
    let freqs = frequencies(pairs);
    let mut out = Vec::with_capacity(enc.len());
    for (i, &w) in freqs.iter().enumerate() {
        let delta = w * steps as f32;
        let (s, c) = delta.sin_cos();
        let (a, b) = (enc[2 * i], enc[2 * i + 1]);
        // rotate by -delta
        out.push(a * c + b * s);
        out.push(-a * s + b * c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmpeel_tensor::matrix::dot;

    #[test]
    fn signatures_are_unit_norm_and_deterministic() {
        let s = token_signature(42, 64);
        assert_eq!(s, token_signature(42, 64));
        let norm: f32 = s.iter().map(|x| x * x).sum();
        assert!((norm - 1.0).abs() < 1e-5);
    }

    #[test]
    fn distinct_tokens_are_near_orthogonal() {
        let d = 128;
        let a = token_signature(1, d);
        for t in 2..40u32 {
            let b = token_signature(t, d);
            let cos = dot(&a, &b);
            assert!(cos.abs() < 0.45, "token {t}: |cos| = {}", cos.abs());
        }
    }

    #[test]
    fn position_encoding_peaks_at_zero_offset() {
        let pairs = 16;
        let p5 = position_encoding(5, pairs);
        let self_sim = dot(&p5, &p5);
        assert!((self_sim - 1.0).abs() < 1e-5);
        for q in [0usize, 1, 2, 3, 4, 6, 7, 20, 100] {
            let other = position_encoding(q, pairs);
            assert!(
                dot(&p5, &other) < 0.95,
                "position {q} too similar to 5: {}",
                dot(&p5, &other)
            );
        }
    }

    #[test]
    fn rotate_back_is_exact() {
        let pairs = 16;
        for p in [1usize, 3, 17, 90] {
            for s in [1usize, 2, 5] {
                if s > p {
                    continue;
                }
                let rotated = rotate_back(&position_encoding(p, pairs), s);
                let direct = position_encoding(p - s, pairs);
                for (a, b) in rotated.iter().zip(&direct) {
                    assert!((a - b).abs() < 1e-4, "p={p} s={s}");
                }
            }
        }
    }

    #[test]
    fn prev_token_attention_pattern() {
        // <rotate_back(pos(p), 1), pos(j)> must be maximal at j = p-1.
        let pairs = 16;
        let p = 30usize;
        let q = rotate_back(&position_encoding(p, pairs), 1);
        let mut best = (0usize, f32::NEG_INFINITY);
        for j in 0..=p {
            let score = dot(&q, &position_encoding(j, pairs));
            if score > best.1 {
                best = (j, score);
            }
        }
        assert_eq!(best.0, p - 1);
    }
}
