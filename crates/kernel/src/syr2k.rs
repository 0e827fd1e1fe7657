//! The triangular syr2k loop nest with runtime-configurable optimizations.
//!
//! Algorithm 1 of the paper (a compute-bound nest extracted from
//! Polybench/C syr2k):
//!
//! ```text
//! Require: Arrays A[N,M], B[N,M], C[N,N], scalar alpha
//! (Optional: pack array A)   (Optional: pack array B)
//! (Optional: interchange the order of the i and j loops)
//! for i = 0..N in tiles of size t_outer
//!   for j = 0..M in tiles of size t_middle
//!     for k = 0..i in tiles of size t_inner
//!       C[i,k] += A[k,j]*alpha*B[i,j] + B[k,j]*alpha*A[i,j]
//! ```
//!
//! The update accumulates over `j` (the paper writes `=` but the nest is
//! only meaningful as an accumulation, as in Polybench itself). All
//! transformed variants compute the same result as [`Syr2kProblem::run_reference`]
//! up to floating-point reassociation.

use crate::arrays::Matrix;
use lmpeel_configspace::Syr2kConfig;

/// A syr2k problem instance: dimensions, scalar and input arrays.
#[derive(Debug, Clone)]
pub struct Syr2kProblem {
    /// Inner dimension (columns of `A`/`B`).
    pub m: usize,
    /// Outer dimension (rows of `A`/`B`, rows and cols of `C`).
    pub n: usize,
    /// Scalar multiplier.
    pub alpha: f64,
    /// Input array `A[N, M]`.
    pub a: Matrix,
    /// Input array `B[N, M]`.
    pub b: Matrix,
}

impl Syr2kProblem {
    /// Build a deterministic Polybench-style instance.
    pub fn new(m: usize, n: usize) -> Self {
        Self {
            m,
            n,
            alpha: 1.5,
            a: Matrix::polybench_init(n, m, 1, 7),
            b: Matrix::polybench_init(n, m, 2, 13),
        }
    }

    /// Untransformed reference nest; the correctness oracle.
    pub fn run_reference(&self) -> Matrix {
        let mut c = Matrix::zeros(self.n, self.n);
        for i in 0..self.n {
            for j in 0..self.m {
                let bij = self.b[(i, j)];
                let aij = self.a[(i, j)];
                for k in 0..=i {
                    c[(i, k)] +=
                        self.a[(k, j)] * self.alpha * bij + self.b[(k, j)] * self.alpha * aij;
                }
            }
        }
        c
    }

    /// Run the nest with a configuration's tiling, interchange and packing
    /// applied. Packing materializes the transposed array so the
    /// column-of-`A`/`B` walk in `k` becomes unit stride; interchange swaps
    /// the two outermost tile loops; tiling strip-mines all three loops.
    pub fn run_configured(&self, cfg: Syr2kConfig) -> Matrix {
        let (n, m) = (self.n, self.m);
        let ti = (cfg.tile_outer as usize).max(1);
        let tj = (cfg.tile_middle as usize).max(1);
        let tk = (cfg.tile_inner as usize).max(1);

        // Packing: transposed copies give unit-stride k-walks.
        let a_t = cfg.pack_a.then(|| self.a.transposed());
        let b_t = cfg.pack_b.then(|| self.b.transposed());

        let mut c = Matrix::zeros(n, n);

        // Tile-loop origins, optionally interchanged.
        let i_tiles: Vec<usize> = (0..n).step_by(ti).collect();
        let j_tiles: Vec<usize> = (0..m).step_by(tj).collect();

        let mut tile_pairs: Vec<(usize, usize)> = Vec::with_capacity(i_tiles.len() * j_tiles.len());
        if cfg.interchange {
            for &jt in &j_tiles {
                for &it in &i_tiles {
                    tile_pairs.push((it, jt));
                }
            }
        } else {
            for &it in &i_tiles {
                for &jt in &j_tiles {
                    tile_pairs.push((it, jt));
                }
            }
        }

        for (it, jt) in tile_pairs {
            let i_hi = (it + ti).min(n);
            let j_hi = (jt + tj).min(m);
            let mut kt = 0;
            while kt < n {
                let k_tile_hi = (kt + tk).min(n);
                for i in it..i_hi {
                    // Triangular bound: k <= i.
                    let k_hi = k_tile_hi.min(i + 1);
                    if kt > i {
                        continue;
                    }
                    for j in jt..j_hi {
                        let bij = self.b[(i, j)];
                        let aij = self.a[(i, j)];
                        let alpha = self.alpha;
                        match (&a_t, &b_t) {
                            (Some(at), Some(bt)) => {
                                let arow = &at.row(j)[kt..k_hi];
                                let brow = &bt.row(j)[kt..k_hi];
                                let crow = &mut c.data_mut()[i * n + kt..i * n + k_hi];
                                for ((cv, &akj), &bkj) in crow.iter_mut().zip(arow).zip(brow) {
                                    *cv += akj * alpha * bij + bkj * alpha * aij;
                                }
                            }
                            (Some(at), None) => {
                                let arow = &at.row(j)[kt..k_hi];
                                for (off, &akj) in arow.iter().enumerate() {
                                    let k = kt + off;
                                    c[(i, k)] += akj * alpha * bij + self.b[(k, j)] * alpha * aij;
                                }
                            }
                            (None, Some(bt)) => {
                                let brow = &bt.row(j)[kt..k_hi];
                                for (off, &bkj) in brow.iter().enumerate() {
                                    let k = kt + off;
                                    c[(i, k)] += self.a[(k, j)] * alpha * bij + bkj * alpha * aij;
                                }
                            }
                            (None, None) => {
                                for k in kt..k_hi {
                                    c[(i, k)] +=
                                        self.a[(k, j)] * alpha * bij + self.b[(k, j)] * alpha * aij;
                                }
                            }
                        }
                    }
                }
                kt = k_tile_hi;
            }
        }
        c
    }

    /// Checksum of a result matrix (stable cross-configuration diagnostic).
    pub fn checksum(c: &Matrix) -> f64 {
        c.data().iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmpeel_configspace::{syr2k_space, Syr2kConfig};

    fn small() -> Syr2kProblem {
        Syr2kProblem::new(13, 17)
    }

    fn assert_close(a: &Matrix, b: &Matrix) {
        let scale = a.frobenius().max(1.0);
        let diff = a.max_abs_diff(b);
        assert!(
            diff / scale < 1e-12,
            "results differ: max abs diff {diff} at scale {scale}"
        );
    }

    #[test]
    fn reference_is_lower_triangular() {
        let p = small();
        let c = p.run_reference();
        for i in 0..p.n {
            for k in (i + 1)..p.n {
                assert_eq!(c[(i, k)], 0.0, "upper triangle must stay zero");
            }
        }
        // and the lower triangle is populated
        assert!(c[(p.n - 1, 0)] != 0.0);
    }

    #[test]
    fn untiled_configuration_matches_reference_exactly() {
        let p = small();
        let cfg = Syr2kConfig {
            pack_a: false,
            pack_b: false,
            interchange: false,
            tile_outer: 128,
            tile_middle: 128,
            tile_inner: 128,
        };
        // Tiles larger than extents degenerate to the reference loop order,
        // so even the floating-point result is identical.
        assert_eq!(p.run_configured(cfg), p.run_reference());
    }

    #[test]
    fn every_transformation_combination_is_semantics_preserving() {
        let p = small();
        let reference = p.run_reference();
        for pack_a in [false, true] {
            for pack_b in [false, true] {
                for interchange in [false, true] {
                    for tiles in [(4, 8, 4), (8, 4, 16), (5, 3, 7)] {
                        let cfg = Syr2kConfig {
                            pack_a,
                            pack_b,
                            interchange,
                            tile_outer: tiles.0,
                            tile_middle: tiles.1,
                            tile_inner: tiles.2,
                        };
                        let got = p.run_configured(cfg);
                        assert_close(&reference, &got);
                    }
                }
            }
        }
    }

    #[test]
    fn paper_space_configurations_are_correct_on_small_problem() {
        // Exercise a stratified slice of the real 10,648-point lattice.
        let p = small();
        let reference = p.run_reference();
        let space = syr2k_space();
        for idx in (0..space.cardinality()).step_by(997) {
            let cfg = Syr2kConfig::from_config(&space, &space.config_at(idx));
            assert_close(&reference, &p.run_configured(cfg));
        }
    }

    #[test]
    fn tile_of_one_works() {
        let p = Syr2kProblem::new(5, 6);
        let cfg = Syr2kConfig {
            pack_a: true,
            pack_b: false,
            interchange: true,
            tile_outer: 1,
            tile_middle: 1,
            tile_inner: 1,
        };
        assert_close(&p.run_reference(), &p.run_configured(cfg));
    }

    #[test]
    fn checksum_is_order_insensitive_diagnostic() {
        let p = small();
        let c1 = p.run_reference();
        let cfg = Syr2kConfig {
            pack_a: true,
            pack_b: true,
            interchange: true,
            tile_outer: 4,
            tile_middle: 4,
            tile_inner: 4,
        };
        let c2 = p.run_configured(cfg);
        let s1 = Syr2kProblem::checksum(&c1);
        let s2 = Syr2kProblem::checksum(&c2);
        assert!((s1 - s2).abs() / s1.abs() < 1e-12);
    }
}
