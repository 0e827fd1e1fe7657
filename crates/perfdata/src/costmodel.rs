//! Roofline-style analytical cost model for the tiled syr2k loop nest.
//!
//! For a configuration `(pack_a, pack_b, interchange, t_outer, t_mid,
//! t_inner)` at array size `(M, N)` the model estimates single-core runtime
//! as
//!
//! ```text
//! runtime = [ combine(t_cpu, t_mem) * remainder(i) * remainder(j) * remainder(k) ]
//!           + t_pack + t_startup
//! ```
//!
//! * `t_cpu = flops / (peak_flops * vec_eff(t_k))` — compute time derated by
//!   short innermost trip counts (vector/unroll prologue overhead);
//! * `t_mem = flops * bytes_per_flop / bandwidth(working_set)` — per-flop
//!   traffic summed over the five array references of Algorithm 1, each
//!   divided by its tile-level reuse factor and a line-reuse bonus for
//!   unit-stride streams, multiplied by a TLB/prefetch stride penalty for
//!   column-wise walks of `A`/`B` (removed by packing); served at the
//!   bandwidth of the smallest cache level holding the tile working set;
//! * `combine(a, b) = max(a, b) + overlap * min(a, b)` — imperfect
//!   compute/memory overlap;
//! * `remainder(·)` — partial-tile waste `ceil(extent/t)·t / extent`;
//! * `t_pack` — one copy of each packed array through DRAM plus a fixed
//!   buffer-management overhead (this is what makes packing a *loss* at SM
//!   and a *win* at XL, moving the optimum between sizes);
//! * deterministic multiplicative log-normal jitter models measurement
//!   noise, keyed by (size, configuration) so the "empirical" dataset is
//!   reproducible.
//!
//! The reuse-factor assignment follows the dependence structure of
//! Algorithm 1: `C[i,k]` is invariant in `j`, `A[k,j]`/`B[k,j]` are
//! invariant in `i`, and `B[i,j]`/`A[i,j]` are invariant in `k`. Loop
//! interchange swaps which of the two outer tiles carries the `i`/`j` reuse.

use crate::machine::MachineModel;
use lmpeel_configspace::{ArraySize, Syr2kConfig};
use lmpeel_recover::{fnv1a64_extend, FNV1A64_OFFSET};
use lmpeel_stats::rng::hash_to_unit;

/// Analytical syr2k cost model over a [`MachineModel`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Hardware description.
    pub machine: MachineModel,
    /// Fraction of the smaller of `t_cpu`/`t_mem` that cannot be overlapped.
    pub overlap: f64,
    /// Vector/unroll prologue overhead in iterations (derates small tiles).
    pub vec_overhead: f64,
    /// Line-reuse bonus for unit-stride streams (elements per line reused
    /// in registers/L1 beyond tile-level reuse).
    pub unit_stride_bonus: f64,
    /// Working-set slack factor modelling conflict misses.
    pub ws_slack: f64,
    /// Fixed per-run startup (process launch, page faults), seconds.
    pub t_startup: f64,
    /// Fixed per-packed-array buffer management overhead, seconds.
    pub pack_fixed: f64,
    /// Relative measurement noise (log-normal sigma) at SM-scale runtimes.
    pub noise_sm: f64,
    /// Relative measurement noise at XL-scale runtimes.
    pub noise_xl: f64,
    /// Amplitude (log-normal sigma) of the cache-conflict interaction term
    /// at SM scale (see [`CostModel::conflict_factor`]).
    pub conflict_sm: f64,
    /// Conflict-interaction amplitude at XL scale.
    pub conflict_xl: f64,
}

impl CostModel {
    /// Paper-calibrated model on the EPYC 7742 machine description.
    pub fn paper() -> Self {
        Self {
            machine: MachineModel::epyc_7742(),
            overlap: 0.35,
            vec_overhead: 3.5,
            unit_stride_bonus: 4.0,
            ws_slack: 3.0,
            t_startup: 8.0e-5,
            pack_fixed: 2.2e-4,
            noise_sm: 0.12,
            noise_xl: 0.035,
            conflict_sm: 0.15,
            conflict_xl: 0.18,
        }
    }

    /// Total floating-point operations of the triangular syr2k nest:
    /// the statement costs 6 flops and executes `M * N^2 / 2` times.
    pub fn flops(size: ArraySize) -> f64 {
        let (m, n) = size.dims();
        6.0 * m as f64 * (n as f64 * n as f64) / 2.0
    }

    /// Deterministic ("noise-free") runtime estimate in seconds.
    pub fn runtime_exact(&self, cfg: Syr2kConfig, size: ArraySize) -> f64 {
        let (m_dim, n_dim) = size.dims();
        let (m, n) = (m_dim as f64, n_dim as f64);
        let flops = Self::flops(size);
        let elem = 8.0;

        // Tile extents for the three nest depths. Without interchange the
        // outer tile blocks the i loop (extent N) and the middle tile blocks
        // the j loop (extent M); interchange swaps them. The inner tile
        // always blocks the triangular k loop (average extent N/2).
        let (t_i, t_j) = if cfg.interchange {
            (cfg.tile_middle as f64, cfg.tile_outer as f64)
        } else {
            (cfg.tile_outer as f64, cfg.tile_middle as f64)
        };
        let t_k = cfg.tile_inner as f64;
        let t_i = t_i.min(n);
        let t_j = t_j.min(m);
        let k_extent = n / 2.0;
        let t_k = t_k.min(k_extent);

        // Reuse carried by the loop each reference is invariant in.
        // (i-loop reuse: t_i; j-loop: t_j; k-loop: t_k.)
        let reuse_c = t_j; // C[i,k] invariant in j
        let reuse_kj = t_i; // A[k,j], B[k,j] invariant in i
        let reuse_ij = t_k; // B[i,j], A[i,j] invariant in k

        // Stride of the innermost-varying index per reference. C[i,k] walks
        // k with unit stride; A[k,j]/B[k,j] walk k with stride M (row
        // length) unless that array is packed; A[i,j]/B[i,j] walk j with
        // unit stride.
        let col_stride = m * elem;
        let pen_a_kj = if cfg.pack_a {
            1.0
        } else {
            self.machine.stride_penalty(col_stride)
        };
        let pen_b_kj = if cfg.pack_b {
            1.0
        } else {
            self.machine.stride_penalty(col_stride)
        };
        let bonus = self.unit_stride_bonus;
        let bonus_a_kj = if cfg.pack_a { bonus } else { 1.0 };
        let bonus_b_kj = if cfg.pack_b { bonus } else { 1.0 };

        // Bytes of next-level traffic per flop, summed over the five refs.
        let traffic = elem
            * (1.0 / (reuse_c * bonus) // C[i,k]
                + pen_a_kj / (reuse_kj * bonus_a_kj) // A[k,j]
                + pen_b_kj / (reuse_kj * bonus_b_kj) // B[k,j]
                + 1.0 / (reuse_ij * bonus) // B[i,j]
                + 1.0 / (reuse_ij * bonus)) // A[i,j]
            / 6.0; // per statement flop

        // Tile working set: C tile + two (k,j) tiles + two (i,j) tiles.
        let ws = elem * (t_i * t_k + 2.0 * t_k * t_j + 2.0 * t_i * t_j) * self.ws_slack;
        let bw = self.machine.bandwidth_for(ws);
        let t_mem = flops * traffic / bw;

        // Compute time, derated by short innermost trip counts.
        let vec_eff = t_k / (t_k + self.vec_overhead);
        let t_cpu = flops / (self.machine.peak_flops * vec_eff);

        // Imperfect overlap of compute and memory.
        let kernel = t_cpu.max(t_mem) + self.overlap * t_cpu.min(t_mem);

        // Partial-tile remainder waste on each loop.
        let rem = |extent: f64, t: f64| ((extent / t).ceil() * t) / extent;
        let remainder = rem(n, t_i.min(n)) * rem(m, t_j.min(m)) * rem(k_extent, t_k);

        // Packing: one read+write pass of the N x M array through DRAM plus
        // fixed buffer management, per packed array.
        let pack_bytes = 2.0 * n * m * elem;
        let packs = u32::from(cfg.pack_a) + u32::from(cfg.pack_b);
        let t_pack = packs as f64 * (pack_bytes / self.machine.dram_bw + self.pack_fixed);

        kernel * remainder * self.conflict_factor(cfg, size) + t_pack + self.t_startup
    }

    /// Cache-conflict interaction factor: a deterministic multiplicative
    /// term keyed on the exact `(tile_middle, tile_inner, interchange,
    /// size)` tuple — the two tiles that set the innermost access pattern.
    /// Real tiled kernels exhibit exactly this kind of semi-chaotic
    /// sensitivity: set-associativity aliasing and TLB-page alignment flip
    /// between tile-size combinations in ways no smooth model captures.
    /// Because the factor is a *function of a 242-cell tile sub-lattice*
    /// (not per-configuration noise), a surrogate can learn it — but only
    /// once the training set covers the lattice several times over, which
    /// reproduces Table I's learning curve: mediocre fits at 100 examples,
    /// near-ceiling fits at 5,000+.
    pub fn conflict_factor(&self, cfg: Syr2kConfig, size: ArraySize) -> f64 {
        let sigma = match size {
            ArraySize::XL | ArraySize::L | ArraySize::ML => self.conflict_xl,
            _ => self.conflict_sm,
        };
        let key = [
            0xC0_u64,
            size.tag(),
            cfg.interchange as u64,
            cfg.tile_middle as u64,
            cfg.tile_inner as u64,
        ];
        lognormal_factor(&key, 0x5C, sigma)
    }

    /// Log-normal measurement jitter factor for a configuration at a size;
    /// deterministic in `(size, cfg)` via FNV hashing. Mean of the factor
    /// is ~1.
    pub fn jitter(&self, cfg: Syr2kConfig, size: ArraySize) -> f64 {
        let sigma = match size {
            ArraySize::XL | ArraySize::L | ArraySize::ML => self.noise_xl,
            _ => self.noise_sm,
        };
        let key = [
            size.tag(),
            cfg.pack_a as u64,
            cfg.pack_b as u64,
            cfg.interchange as u64,
            cfg.tile_outer as u64,
            cfg.tile_middle as u64,
            cfg.tile_inner as u64,
        ];
        lognormal_factor(&key, 0xA5, sigma)
    }

    /// "Measured" runtime: exact estimate times deterministic jitter. This
    /// is what the datasets store, playing the role of the paper's
    /// empirical observations.
    pub fn runtime_measured(&self, cfg: Syr2kConfig, size: ArraySize) -> f64 {
        self.runtime_exact(cfg, size) * self.jitter(cfg, size)
    }
}

impl Default for CostModel {
    fn default() -> Self {
        Self::paper()
    }
}

/// Mean-one log-normal factor with log-scale `sigma`, deterministic in
/// `key`: Box-Muller over two hash-derived uniforms, FNV-1a of the key's
/// little-endian words and that hash continued by the `salt` byte.
fn lognormal_factor(key: &[u64], salt: u8, sigma: f64) -> f64 {
    let h1 = key
        .iter()
        .fold(FNV1A64_OFFSET, |h, k| fnv1a64_extend(h, &k.to_le_bytes()));
    let h2 = fnv1a64_extend(h1, &[salt]);
    let u1 = hash_to_unit(h1).max(1e-12);
    let u2 = hash_to_unit(h2);
    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    (sigma * z - 0.5 * sigma * sigma).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmpeel_configspace::syr2k_space;

    fn all_runtimes(size: ArraySize) -> Vec<f64> {
        let model = CostModel::paper();
        let space = syr2k_space();
        space
            .enumerate()
            .map(|c| model.runtime_measured(Syr2kConfig::from_config(&space, &c), size))
            .collect()
    }

    #[test]
    fn sm_runtimes_are_all_below_one_second() {
        let rts = all_runtimes(ArraySize::SM);
        assert!(rts.iter().all(|&r| r > 0.0 && r < 1.0));
    }

    #[test]
    fn xl_runtimes_are_single_digit_seconds() {
        let rts = all_runtimes(ArraySize::XL);
        assert!(rts.iter().all(|&r| r > 1.0), "XL minimum should exceed 1s");
        let frac_below_10 = rts.iter().filter(|&&r| r < 10.0).count() as f64 / rts.len() as f64;
        assert!(
            frac_below_10 > 0.95,
            "almost all XL runtimes below 10s, got {frac_below_10}"
        );
    }

    #[test]
    fn sm_magnitude_matches_paper_example() {
        // Figure 1 shows a ~2.2ms SM runtime; our SM values should straddle
        // the low-millisecond regime.
        let rts = all_runtimes(ArraySize::SM);
        let min = rts.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = rts.iter().cloned().fold(0.0_f64, f64::max);
        assert!(
            min > 4e-4 && max < 1e-1,
            "SM range [{min}, {max}] off-scale"
        );
    }

    #[test]
    fn packing_helps_xl_but_not_sm() {
        let model = CostModel::paper();
        let base = Syr2kConfig {
            pack_a: false,
            pack_b: false,
            interchange: false,
            tile_outer: 16,
            tile_middle: 16,
            tile_inner: 16,
        };
        let packed = Syr2kConfig {
            pack_a: true,
            pack_b: true,
            ..base
        };
        let sm_gain =
            model.runtime_exact(base, ArraySize::SM) / model.runtime_exact(packed, ArraySize::SM);
        let xl_gain =
            model.runtime_exact(base, ArraySize::XL) / model.runtime_exact(packed, ArraySize::XL);
        assert!(xl_gain > 1.0, "packing should speed up XL (gain {xl_gain})");
        assert!(
            sm_gain < 1.0,
            "packing overhead should hurt SM (gain {sm_gain})"
        );
    }

    #[test]
    fn best_configuration_differs_between_sizes() {
        let model = CostModel::paper();
        let space = syr2k_space();
        let best = |size| {
            space
                .enumerate()
                .map(|c| {
                    let t = Syr2kConfig::from_config(&space, &c);
                    (model.runtime_exact(t, size), t)
                })
                .min_by(|a, b| a.0.partial_cmp(&b.0).unwrap())
                .unwrap()
                .1
        };
        assert_ne!(best(ArraySize::SM), best(ArraySize::XL));
    }

    #[test]
    fn tiny_inner_tiles_are_slow() {
        let model = CostModel::paper();
        let small = Syr2kConfig {
            pack_a: true,
            pack_b: true,
            interchange: false,
            tile_outer: 64,
            tile_middle: 64,
            tile_inner: 4,
        };
        let big = Syr2kConfig {
            tile_inner: 128,
            ..small
        };
        for size in ArraySize::PAPER_SIZES {
            assert!(
                model.runtime_exact(small, size) > model.runtime_exact(big, size),
                "inner tile 4 should be slower than 128 at {size}"
            );
        }
    }

    #[test]
    fn jitter_is_deterministic_and_centered() {
        let model = CostModel::paper();
        let space = syr2k_space();
        let mut sum = 0.0;
        let mut n = 0;
        for i in (0..space.cardinality()).step_by(11) {
            let t = Syr2kConfig::from_config(&space, &space.config_at(i));
            let j1 = model.jitter(t, ArraySize::SM);
            let j2 = model.jitter(t, ArraySize::SM);
            assert_eq!(j1, j2, "jitter must be deterministic");
            assert!(j1 > 0.5 && j1 < 2.0, "jitter {j1} out of sane bounds");
            sum += j1;
            n += 1;
        }
        let mean = sum / n as f64;
        assert!((mean - 1.0).abs() < 0.02, "jitter mean {mean} should be ~1");
    }

    #[test]
    fn jitter_differs_between_sizes_and_configs() {
        let model = CostModel::paper();
        let space = syr2k_space();
        let a = Syr2kConfig::from_config(&space, &space.config_at(0));
        let b = Syr2kConfig::from_config(&space, &space.config_at(1));
        assert_ne!(
            model.jitter(a, ArraySize::SM),
            model.jitter(a, ArraySize::XL)
        );
        assert_ne!(
            model.jitter(a, ArraySize::SM),
            model.jitter(b, ArraySize::SM)
        );
    }

    #[test]
    fn flop_count_formula() {
        // SM: 6 * 130 * 160^2 / 2
        assert_eq!(
            CostModel::flops(ArraySize::SM),
            6.0 * 130.0 * 160.0 * 160.0 / 2.0
        );
    }

    #[test]
    fn runtime_spread_supports_learning() {
        // The dataset must have enough relative spread that a surrogate has
        // something to learn (coefficient of variation in a sane band).
        for size in ArraySize::PAPER_SIZES {
            let rts = all_runtimes(size);
            let s = lmpeel_stats::Summary::of(&rts);
            let cv = s.std_dev / s.mean;
            assert!(
                (0.1..1.0).contains(&cv),
                "{size}: coefficient of variation {cv} out of band"
            );
        }
    }
}
