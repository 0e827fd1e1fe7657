//! Causal scaled-dot-product attention.

use lmpeel_tensor::{matrix::dot, softmax_in_place, Tensor2};

/// Causal attention: for each query row `p`, attend over key rows `0..=p`
/// with scores `beta * <q_p, k_j>`, softmax-normalize, and mix value rows.
///
/// `q`, `k` must share their width; `k`, `v` must share their height; the
/// output has `q`'s height and `v`'s width. `beta` is an inverse
/// temperature (the hand-constructed circuit uses large `beta` for
/// near-hard attention).
///
/// # Panics
/// Panics on shape mismatches or if `q` is taller than `k` (every query
/// needs at least its own position to attend to).
pub fn causal_attention(q: &Tensor2, k: &Tensor2, v: &Tensor2, beta: f32) -> Tensor2 {
    assert_eq!(q.cols(), k.cols(), "query/key width mismatch");
    assert_eq!(k.rows(), v.rows(), "key/value height mismatch");
    assert!(
        q.rows() <= k.rows(),
        "more queries than keys under causal masking"
    );
    let t = q.rows();
    let dv = v.cols();
    let mut out = Tensor2::zeros(t, dv);
    // Offset so query p aligns with key p when q is a suffix of the stream.
    let offset = k.rows() - q.rows();
    // Write each output row in place — no per-row Vec collection.
    for (p, out_row) in out.data_mut().chunks_mut(dv).enumerate() {
        attend_row(out_row, q.row(p), k, v, beta, offset + p);
    }
    out
}

/// One attention row: softmax(beta * <q_row, k_0..=limit>) mixing value
/// rows into `out_row` (assumed zeroed).
fn attend_row(
    out_row: &mut [f32],
    q_row: &[f32],
    k: &Tensor2,
    v: &Tensor2,
    beta: f32,
    limit: usize,
) {
    let mut scores: Vec<f32> = (0..=limit).map(|j| beta * dot(q_row, k.row(j))).collect();
    softmax_in_place(&mut scores);
    for (j, &a) in scores.iter().enumerate() {
        if a < 1e-8 {
            continue;
        }
        for (o, &x) in out_row.iter_mut().zip(v.row(j)) {
            *o += a * x;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_position_attends_to_itself() {
        let q = Tensor2::from_vec(1, 2, vec![1.0, 0.0]);
        let k = q.clone();
        let v = Tensor2::from_vec(1, 3, vec![5.0, 6.0, 7.0]);
        let out = causal_attention(&q, &k, &v, 1.0);
        assert_eq!(out.row(0), &[5.0, 6.0, 7.0]);
    }

    #[test]
    fn causality_first_row_ignores_later_keys() {
        // Query 0 may only see key 0, even if key 1 matches better.
        let q = Tensor2::from_vec(2, 2, vec![0.0, 1.0, 1.0, 0.0]);
        let k = Tensor2::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]);
        let v = Tensor2::from_vec(2, 1, vec![10.0, 20.0]);
        let out = causal_attention(&q, &k, &v, 50.0);
        assert!(
            (out.get(0, 0) - 10.0).abs() < 1e-4,
            "row 0 must only see v0"
        );
    }

    #[test]
    fn sharp_beta_approaches_hard_argmax() {
        let q = Tensor2::from_vec(1, 2, vec![1.0, 0.0]);
        let k = Tensor2::from_vec(3, 2, vec![0.0, 1.0, 1.0, 0.0, 0.5, 0.5]);
        let v = Tensor2::from_vec(3, 1, vec![1.0, 2.0, 3.0]);
        let soft = causal_attention(&q, &k, &v, 1.0);
        let hard = causal_attention(&q, &k, &v, 100.0);
        assert!(
            (hard.get(0, 0) - 2.0).abs() < 1e-3,
            "hard attention picks key 1"
        );
        assert!((soft.get(0, 0) - 2.0).abs() > 0.05, "soft attention mixes");
    }

    #[test]
    fn suffix_queries_align_with_stream_tail() {
        // 1 query against 3 keys: the query is the stream's last position.
        let q = Tensor2::from_vec(1, 2, vec![0.0, 1.0]);
        let k = Tensor2::from_vec(3, 2, vec![0.0, 1.0, 1.0, 0.0, 0.0, 1.0]);
        let v = Tensor2::from_vec(3, 1, vec![1.0, 2.0, 3.0]);
        let out = causal_attention(&q, &k, &v, 30.0);
        // keys 0 and 2 match equally; expect an even mix of v0 and v2.
        assert!((out.get(0, 0) - 2.0).abs() < 1e-3);
    }

    #[test]
    fn output_is_convex_combination_of_values() {
        let q = Tensor2::from_fn(4, 3, |i, j| ((i + j) % 3) as f32 - 1.0);
        let k = Tensor2::from_fn(4, 3, |i, j| ((i * j) % 5) as f32 - 2.0);
        let v = Tensor2::from_fn(4, 2, |i, _| i as f32);
        let out = causal_attention(&q, &k, &v, 0.8);
        for p in 0..4 {
            for c in 0..2 {
                let x = out.get(p, c);
                assert!(
                    (0.0..=3.0 + 1e-5).contains(&x),
                    "out[{p},{c}]={x} not convex"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn shape_mismatch_panics() {
        let q = Tensor2::zeros(1, 2);
        let k = Tensor2::zeros(1, 3);
        let v = Tensor2::zeros(1, 1);
        let _ = causal_attention(&q, &k, &v, 1.0);
    }
}
