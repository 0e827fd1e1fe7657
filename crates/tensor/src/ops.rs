//! Pointwise and normalization kernels for decoder layers.

/// Numerically stable in-place softmax over a slice.
///
/// Empty slices are a no-op. All-(-inf) inputs yield a uniform distribution
/// rather than NaNs (degenerate but safe).
pub fn softmax_in_place(xs: &mut [f32]) {
    if xs.is_empty() {
        return;
    }
    let max = xs.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    if !max.is_finite() {
        let u = 1.0 / xs.len() as f32;
        xs.iter_mut().for_each(|x| *x = u);
        return;
    }
    let mut sum = 0.0;
    for x in xs.iter_mut() {
        *x = (*x - max).exp();
        sum += *x;
    }
    let inv = 1.0 / sum;
    xs.iter_mut().for_each(|x| *x *= inv);
}

/// Layer normalization: `(x - mean) / sqrt(var + eps) * gamma + beta`.
///
/// # Panics
/// Panics if `gamma`/`beta` lengths differ from `xs`.
pub fn layernorm(xs: &mut [f32], gamma: &[f32], beta: &[f32], eps: f32) {
    assert_eq!(xs.len(), gamma.len(), "gamma length mismatch");
    assert_eq!(xs.len(), beta.len(), "beta length mismatch");
    let n = xs.len() as f32;
    let mean = xs.iter().sum::<f32>() / n;
    let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / n;
    let inv = 1.0 / (var + eps).sqrt();
    for ((x, &g), &b) in xs.iter_mut().zip(gamma).zip(beta) {
        *x = (*x - mean) * inv * g + b;
    }
}

/// RMS normalization (Llama-style): `x / rms(x) * gamma`.
///
/// # Panics
/// Panics if `gamma` length differs from `xs`.
pub fn rmsnorm(xs: &mut [f32], gamma: &[f32], eps: f32) {
    assert_eq!(xs.len(), gamma.len(), "gamma length mismatch");
    let n = xs.len() as f32;
    let ms = xs.iter().map(|x| x * x).sum::<f32>() / n;
    let inv = 1.0 / (ms + eps).sqrt();
    for (x, &g) in xs.iter_mut().zip(gamma) {
        *x *= inv * g;
    }
}

/// GELU activation (tanh approximation).
pub fn gelu(x: f32) -> f32 {
    const C: f32 = 0.797_884_6; // sqrt(2/pi)
    0.5 * x * (1.0 + (C * (x + 0.044_715 * x * x * x)).tanh())
}

/// SiLU (swish) activation.
pub fn silu(x: f32) -> f32 {
    x / (1.0 + (-x).exp())
}

/// Rotary position embedding: rotate consecutive pairs of `x` by
/// position-dependent angles, `theta_i = pos * base^(-2i/d)`.
///
/// # Panics
/// Panics if the length is odd.
pub fn rope_rotate(x: &mut [f32], pos: usize, base: f32) {
    assert!(x.len().is_multiple_of(2), "RoPE requires an even dimension");
    let d = x.len();
    for i in 0..d / 2 {
        let theta = pos as f32 * base.powf(-2.0 * i as f32 / d as f32);
        let (sin, cos) = theta.sin_cos();
        let (a, b) = (x[2 * i], x[2 * i + 1]);
        x[2 * i] = a * cos - b * sin;
        x[2 * i + 1] = a * sin + b * cos;
    }
}

/// Index of the maximum element (first on ties); `None` on empty input.
pub fn argmax(xs: &[f32]) -> Option<usize> {
    xs.iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap().then(b.0.cmp(&a.0)))
        .map(|(i, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_sums_to_one_and_is_monotone() {
        let mut xs = vec![1.0, 2.0, 3.0, -1.0];
        softmax_in_place(&mut xs);
        let sum: f32 = xs.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
        assert!(xs[2] > xs[1] && xs[1] > xs[0] && xs[0] > xs[3]);
    }

    #[test]
    fn softmax_is_shift_invariant_and_stable() {
        let mut a = vec![1.0, 2.0, 3.0];
        let mut b = vec![1001.0, 1002.0, 1003.0];
        softmax_in_place(&mut a);
        softmax_in_place(&mut b);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-6);
            assert!(x.is_finite());
        }
    }

    #[test]
    fn softmax_degenerate_inputs() {
        let mut empty: Vec<f32> = vec![];
        softmax_in_place(&mut empty);
        let mut ninf = vec![f32::NEG_INFINITY; 3];
        softmax_in_place(&mut ninf);
        assert!(ninf.iter().all(|&x| (x - 1.0 / 3.0).abs() < 1e-6));
    }

    #[test]
    fn layernorm_centers_and_scales() {
        let mut xs = vec![1.0, 2.0, 3.0, 4.0];
        let gamma = vec![1.0; 4];
        let beta = vec![0.0; 4];
        layernorm(&mut xs, &gamma, &beta, 1e-5);
        let mean: f32 = xs.iter().sum::<f32>() / 4.0;
        let var: f32 = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / 4.0;
        assert!(mean.abs() < 1e-5);
        assert!((var - 1.0).abs() < 1e-3);
    }

    #[test]
    fn rmsnorm_unit_rms() {
        let mut xs = vec![3.0, -4.0];
        rmsnorm(&mut xs, &[1.0, 1.0], 0.0);
        let rms = ((xs[0] * xs[0] + xs[1] * xs[1]) / 2.0).sqrt();
        assert!((rms - 1.0).abs() < 1e-5);
        // direction preserved
        assert!(xs[0] > 0.0 && xs[1] < 0.0);
    }

    #[test]
    fn activations_reference_values() {
        assert!(gelu(0.0).abs() < 1e-7);
        assert!((gelu(1.0) - 0.8412).abs() < 1e-3);
        assert!(gelu(-10.0).abs() < 1e-3);
        assert!((silu(0.0)).abs() < 1e-7);
        assert!((silu(1.0) - 0.7311).abs() < 1e-3);
        assert!(silu(5.0) > 4.9);
    }

    #[test]
    fn rope_preserves_norm_and_is_position_dependent() {
        let orig = vec![1.0, 0.5, -0.3, 2.0];
        let mut a = orig.clone();
        let mut b = orig.clone();
        rope_rotate(&mut a, 3, 10_000.0);
        rope_rotate(&mut b, 4, 10_000.0);
        let norm = |v: &[f32]| v.iter().map(|x| x * x).sum::<f32>().sqrt();
        assert!(
            (norm(&a) - norm(&orig)).abs() < 1e-5,
            "rotation is an isometry"
        );
        assert_ne!(a, b, "different positions rotate differently");
        let mut zero = orig.clone();
        rope_rotate(&mut zero, 0, 10_000.0);
        assert_eq!(zero, orig, "position 0 is the identity");
    }

    #[test]
    fn rope_relative_angle_property() {
        // <rope(x,p), rope(y,q)> depends only on p - q for 2-dim vectors.
        let x = [1.0f32, 0.0];
        let y = [0.6f32, 0.8];
        let dot2 = |a: &[f32], b: &[f32]| a[0] * b[0] + a[1] * b[1];
        let rot = |v: &[f32], p: usize| {
            let mut r = v.to_vec();
            rope_rotate(&mut r, p, 10_000.0);
            r
        };
        let d1 = dot2(&rot(&x, 5), &rot(&y, 3));
        let d2 = dot2(&rot(&x, 9), &rot(&y, 7));
        assert!((d1 - d2).abs() < 1e-4);
    }

    #[test]
    fn argmax_first_wins_ties() {
        assert_eq!(argmax(&[]), None);
        assert_eq!(argmax(&[1.0, 3.0, 2.0]), Some(1));
        assert_eq!(argmax(&[2.0, 2.0]), Some(0), "first wins ties");
    }
}
