//! Pointwise kernels over logit vectors: softmax and argmax.

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
    fn argmax_first_wins_ties() {
        assert_eq!(argmax(&[]), None);
        assert_eq!(argmax(&[1.0, 3.0, 2.0]), Some(1));
        assert_eq!(argmax(&[2.0, 2.0]), Some(0), "first wins ties");
    }
}
