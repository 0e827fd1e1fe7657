//! Dense row-major f32 matrices with blocked matmul.

/// A dense row-major `rows x cols` f32 matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor2 {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Tensor2 {
    /// Zero-filled matrix.
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "tensor dimensions must be positive");
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Build from a flat row-major vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "flat data length mismatch");
        assert!(rows > 0 && cols > 0, "tensor dimensions must be positive");
        Self { rows, cols, data }
    }

    /// Build by evaluating `f(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut t = Self::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                t.data[i * cols + j] = f(i, j);
            }
        }
        t
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrow row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrow row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Flat row-major storage.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat row-major storage (`data_mut().chunks_mut(cols)` yields
    /// one chunk per row).
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f32 {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j]
    }

    /// Element setter.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f32) {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j] = v;
    }

    /// Transposed copy.
    pub fn transposed(&self) -> Tensor2 {
        let mut t = Tensor2::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t.data[j * self.rows + i] = self.data[i * self.cols + j];
            }
        }
        t
    }

    /// `y = self * x` for a column vector `x` (len = cols), one [`dot`]
    /// per result row.
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn matvec(&self, x: &[f32]) -> Vec<f32> {
        let mut y = Vec::new();
        self.matvec_into(x, &mut y);
        y
    }

    /// `y = self * x` written into a reusable buffer: the caller owns the
    /// output allocation, so a decode loop can run one vocab-wide product
    /// per step without a vocab-wide `Vec` per step.
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn matvec_into(&self, x: &[f32], y: &mut Vec<f32>) {
        assert_eq!(x.len(), self.cols, "matvec dimension mismatch");
        y.clear();
        y.extend(self.data.chunks_exact(self.cols).map(|row| dot(row, x)));
    }

    /// Cache-blocked `self * other` whose every output element is **bitwise
    /// identical** to the [`Tensor2::matvec`] / [`dot`] path on the matching
    /// column of `other`.
    ///
    /// Tiled over row blocks × k blocks; within a
    /// tile the i-k-j loop reuses each `other` row across the whole row
    /// block while it is hot in cache, and the j-inner update keeps the
    /// per-element accumulators independent, so the compiler may vectorize
    /// across columns. Determinism argument: element `(i, j)` receives the
    /// add sequence `((0 + a[i][0]·b[0][j]) + a[i][1]·b[1][j]) + …` in
    /// strictly ascending `k` — k blocks are walked in ascending order and
    /// `k` ascends within each block — which is exactly the sequential fold
    /// `dot` performs, including its `-0.0` fold seed (std's float `sum()`
    /// starts from `-0.0`, the true additive identity). There is **no**
    /// zero-skip: skipping `a[i][k] == 0.0` terms could flip a `-0.0`
    /// accumulator to `+0.0` relative to the single-query path.
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch.
    pub fn matmul_blocked(&self, other: &Tensor2) -> Tensor2 {
        assert_eq!(self.cols, other.rows, "matmul inner dimension mismatch");
        let n = other.cols;
        // Row block sized so a tile of `other` rows plus the output block
        // stay L1/L2-resident for the unembedding shapes (vocab × d_sig).
        const MC: usize = 64;
        const KC: usize = 256;
        let mut out = Tensor2::zeros(self.rows, n);
        for (blk, out_block) in out.data.chunks_mut(MC * n).enumerate() {
            let i0 = blk * MC;
            // Seed the accumulators exactly as `dot`'s fold does.
            out_block.fill(-0.0);
            let mut k0 = 0;
            while k0 < self.cols {
                let k1 = (k0 + KC).min(self.cols);
                for (r, out_row) in out_block.chunks_mut(n).enumerate() {
                    let a_row = &self.row(i0 + r)[k0..k1];
                    for (k, &aik) in a_row.iter().enumerate() {
                        let b_row = other.row(k0 + k);
                        for (o, &b) in out_row.iter_mut().zip(b_row) {
                            *o += aik * b;
                        }
                    }
                }
                k0 = k1;
            }
        }
        out
    }

    /// Frobenius norm.
    pub fn frobenius(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }

    /// Maximum absolute element difference.
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn max_abs_diff(&self, other: &Tensor2) -> f32 {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max)
    }
}

/// Dot product of equal-length slices.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_matmul(a: &Tensor2, b: &Tensor2) -> Tensor2 {
        let mut c = Tensor2::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut s = 0.0;
                for k in 0..a.cols() {
                    s += a.get(i, k) * b.get(k, j);
                }
                c.set(i, j, s);
            }
        }
        c
    }

    #[test]
    fn matmul_matches_naive() {
        let a = Tensor2::from_fn(7, 5, |i, j| ((i * 31 + j * 7) % 13) as f32 - 6.0);
        let b = Tensor2::from_fn(5, 9, |i, j| ((i * 17 + j * 3) % 11) as f32 - 5.0);
        let fast = a.matmul_blocked(&b);
        let slow = naive_matmul(&a, &b);
        assert!(fast.max_abs_diff(&slow) < 1e-4);
    }

    #[test]
    fn matvec_matches_matmul_column() {
        let a = Tensor2::from_fn(6, 4, |i, j| (i + 2 * j) as f32);
        let x = vec![1.0, -2.0, 0.5, 3.0];
        let y = a.matvec(&x);
        let xm = Tensor2::from_vec(4, 1, x);
        let ym = a.matmul_blocked(&xm);
        for (i, &yi) in y.iter().enumerate() {
            assert!((yi - ym.get(i, 0)).abs() < 1e-6);
        }
    }

    #[test]
    fn matvec_handles_chunk_boundaries() {
        // Every row of a tall matrix must be written.
        let a = Tensor2::from_fn(130, 3, |i, j| (i as f32) * 0.5 - j as f32);
        let x = vec![2.0, -1.0, 0.25];
        let y = a.matvec(&x);
        assert_eq!(y.len(), 130);
        for (i, &yi) in y.iter().enumerate() {
            assert!((yi - dot(a.row(i), &x)).abs() < 1e-6, "row {i}");
        }
    }

    #[test]
    fn matvec_into_is_bitwise_matvec_and_reuses_capacity() {
        let a = Tensor2::from_fn(137, 9, |i, j| ((i * 13 + j * 5) % 17) as f32 * 0.25 - 2.0);
        let x: Vec<f32> = (0..9).map(|i| (i as f32) * 0.5 - 2.0).collect();
        let mut buf = Vec::new();
        a.matvec_into(&x, &mut buf);
        let fresh = a.matvec(&x);
        assert_eq!(buf.len(), fresh.len());
        for (b, f) in buf.iter().zip(&fresh) {
            assert_eq!(b.to_bits(), f.to_bits());
        }
        // A dirty, differently-sized buffer is fully overwritten.
        buf.push(99.0);
        let cap = buf.capacity();
        a.matvec_into(&x, &mut buf);
        assert_eq!(buf, fresh);
        assert_eq!(buf.capacity(), cap, "reuse must not reallocate");
    }

    #[test]
    fn blocked_matmul_is_bitwise_identical_to_matvec_per_column() {
        // Shapes straddling the MC=64 row-block and the KC k-block
        // boundaries, with awkward remainders, and values (including exact
        // zeros and negatives) where float re-association would show up.
        for (rows, k, cols) in [(1, 1, 1), (63, 7, 3), (64, 96, 4), (130, 300, 17)] {
            let a = Tensor2::from_fn(rows, k, |i, j| {
                let v = ((i * 31 + j * 17) % 23) as f32 / 7.0 - 1.5;
                if (i + j) % 5 == 0 {
                    0.0
                } else {
                    v
                }
            });
            let b = Tensor2::from_fn(k, cols, |i, j| ((i * 7 + j * 29) % 19) as f32 / 3.0 - 3.0);
            let fused = a.matmul_blocked(&b);
            for j in 0..cols {
                let col: Vec<f32> = (0..k).map(|i| b.get(i, j)).collect();
                let single = a.matvec(&col);
                for (i, &s) in single.iter().enumerate() {
                    assert_eq!(
                        fused.get(i, j).to_bits(),
                        s.to_bits(),
                        "({rows}x{k}x{cols}) element ({i},{j}) diverged from matvec"
                    );
                }
            }
        }
    }

    #[test]
    fn blocked_matmul_matches_naive_numerically() {
        let a = Tensor2::from_fn(70, 11, |i, j| ((i * 31 + j * 7) % 13) as f32 - 6.0);
        let b = Tensor2::from_fn(11, 9, |i, j| ((i * 17 + j * 3) % 11) as f32 - 5.0);
        assert!(a.matmul_blocked(&b).max_abs_diff(&naive_matmul(&a, &b)) < 1e-4);
    }

    #[test]
    #[should_panic(expected = "inner dimension")]
    fn blocked_matmul_shape_mismatch_panics() {
        let a = Tensor2::zeros(2, 3);
        let b = Tensor2::zeros(2, 3);
        let _ = a.matmul_blocked(&b);
    }

    #[test]
    fn identity_matmul_is_identity() {
        let a = Tensor2::from_fn(4, 4, |i, j| (i * 4 + j) as f32);
        let eye = Tensor2::from_fn(4, 4, |i, j| if i == j { 1.0 } else { 0.0 });
        assert_eq!(a.matmul_blocked(&eye), a);
        assert_eq!(eye.matmul_blocked(&a), a);
    }

    #[test]
    fn transpose_involution_and_shape() {
        let a = Tensor2::from_fn(3, 5, |i, j| (i * 5 + j) as f32);
        let t = a.transposed();
        assert_eq!(t.rows(), 5);
        assert_eq!(t.cols(), 3);
        assert_eq!(t.transposed(), a);
        assert_eq!(t.get(4, 2), a.get(2, 4));
    }

    #[test]
    fn rows_are_contiguous_views() {
        let mut a = Tensor2::zeros(2, 3);
        a.row_mut(1).copy_from_slice(&[1.0, 2.0, 3.0]);
        assert_eq!(a.row(1), &[1.0, 2.0, 3.0]);
        assert_eq!(a.row(0), &[0.0, 0.0, 0.0]);
        assert_eq!(a.data()[3..], [1.0, 2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "inner dimension")]
    fn matmul_shape_mismatch_panics() {
        let a = Tensor2::zeros(2, 3);
        let b = Tensor2::zeros(2, 3);
        let _ = a.matmul_blocked(&b);
    }

    #[test]
    #[should_panic(expected = "flat data length")]
    fn from_vec_length_checked() {
        let _ = Tensor2::from_vec(2, 2, vec![0.0; 5]);
    }

    #[test]
    fn dot_basics() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        assert_eq!(dot(&[], &[]), 0.0);
    }
}
