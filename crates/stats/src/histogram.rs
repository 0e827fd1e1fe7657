//! Histograms and weighted quantiles for the figure reproductions.
//!
//! Figures 3 and 4 of the paper plot distributions of LLM-generable values
//! against in-context example values; §IV-C extracts the mean and median of
//! the *probability-weighted* generable-value distribution. This module
//! provides a fixed-bin [`Histogram`] with linear or logarithmic bin edges,
//! plus weighted mean and median helpers over `(value, weight)` pairs.

/// Bin layout for a [`Histogram`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum HistogramSpec {
    /// `bins` equal-width bins spanning `[lo, hi)`.
    Linear {
        /// Inclusive lower edge of the first bin.
        lo: f64,
        /// Exclusive upper edge of the last bin.
        hi: f64,
        /// Number of bins (must be > 0).
        bins: usize,
    },
    /// `bins` log-uniform bins spanning `[lo, hi)`; requires `0 < lo < hi`.
    Log {
        /// Inclusive lower edge of the first bin (must be > 0).
        lo: f64,
        /// Exclusive upper edge of the last bin.
        hi: f64,
        /// Number of bins (must be > 0).
        bins: usize,
    },
}

impl HistogramSpec {
    fn validate(&self) {
        match *self {
            HistogramSpec::Linear { lo, hi, bins } => {
                assert!(bins > 0, "histogram needs at least one bin");
                assert!(lo < hi, "histogram range must be non-empty: [{lo}, {hi})");
            }
            HistogramSpec::Log { lo, hi, bins } => {
                assert!(bins > 0, "histogram needs at least one bin");
                assert!(
                    0.0 < lo && lo < hi,
                    "log histogram requires 0 < lo < hi, got [{lo}, {hi})"
                );
            }
        }
    }

    /// Number of bins.
    pub fn bins(&self) -> usize {
        match *self {
            HistogramSpec::Linear { bins, .. } | HistogramSpec::Log { bins, .. } => bins,
        }
    }

    /// Map a value to its bin index, or `None` if it falls outside the range
    /// (or, for log bins, is non-positive).
    pub fn bin_of(&self, x: f64) -> Option<usize> {
        match *self {
            HistogramSpec::Linear { lo, hi, bins } => {
                if x < lo || x >= hi || !x.is_finite() {
                    return None;
                }
                let frac = (x - lo) / (hi - lo);
                Some(((frac * bins as f64) as usize).min(bins - 1))
            }
            HistogramSpec::Log { lo, hi, bins } => {
                if x < lo || x >= hi || !x.is_finite() || x <= 0.0 {
                    return None;
                }
                let frac = (x.ln() - lo.ln()) / (hi.ln() - lo.ln());
                Some(((frac * bins as f64) as usize).min(bins - 1))
            }
        }
    }

    /// `(lo, hi)` edges of bin `i`.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub fn edges_of(&self, i: usize) -> (f64, f64) {
        assert!(i < self.bins(), "bin index {i} out of range");
        match *self {
            HistogramSpec::Linear { lo, hi, bins } => {
                let w = (hi - lo) / bins as f64;
                (lo + w * i as f64, lo + w * (i + 1) as f64)
            }
            HistogramSpec::Log { lo, hi, bins } => {
                let lw = (hi.ln() - lo.ln()) / bins as f64;
                (
                    (lo.ln() + lw * i as f64).exp(),
                    (lo.ln() + lw * (i + 1) as f64).exp(),
                )
            }
        }
    }
}

/// A weighted fixed-bin histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    spec: HistogramSpec,
    counts: Vec<f64>,
}

impl Histogram {
    /// Create an empty histogram with the given bin layout.
    ///
    /// # Panics
    /// Panics on an invalid spec (zero bins, empty or inverted range).
    pub fn new(spec: HistogramSpec) -> Self {
        spec.validate();
        Self {
            counts: vec![0.0; spec.bins()],
            spec,
        }
    }

    /// Add a unit-weight observation.
    pub fn add(&mut self, x: f64) {
        self.add_weighted(x, 1.0);
    }

    /// Add an observation with an explicit weight (e.g. decode probability).
    /// A value outside the bin range is dropped.
    pub fn add_weighted(&mut self, x: f64, w: f64) {
        debug_assert!(w >= 0.0, "histogram weights must be non-negative");
        if let Some(i) = self.spec.bin_of(x) {
            self.counts[i] += w;
        }
    }

    /// Bin layout.
    pub fn spec(&self) -> HistogramSpec {
        self.spec
    }

    /// Per-bin accumulated weights.
    pub fn counts(&self) -> &[f64] {
        &self.counts
    }

    /// Per-bin weights normalized to sum to 1 over in-range mass.
    /// Returns all zeros if nothing landed in range.
    pub fn normalized(&self) -> Vec<f64> {
        let in_range: f64 = self.counts.iter().sum();
        if in_range <= 0.0 {
            return vec![0.0; self.counts.len()];
        }
        self.counts.iter().map(|&c| c / in_range).collect()
    }

    /// Count local maxima with weight at least `min_mass` of in-range mass;
    /// this is how the figure-4 reproduction detects bimodality.
    pub fn modes(&self, min_mass: f64) -> usize {
        let norm = self.normalized();
        let mut modes = 0;
        for i in 0..norm.len() {
            let left = if i == 0 { 0.0 } else { norm[i - 1] };
            let right = if i + 1 == norm.len() {
                0.0
            } else {
                norm[i + 1]
            };
            if norm[i] >= min_mass && norm[i] >= left && norm[i] > right {
                modes += 1;
            }
        }
        modes
    }

    /// Render a compact ASCII bar chart (used by the figure binaries).
    pub fn ascii(&self, width: usize) -> String {
        let max = self.counts.iter().cloned().fold(0.0_f64, f64::max);
        let mut out = String::new();
        for (i, &c) in self.counts.iter().enumerate() {
            let (lo, hi) = self.spec.edges_of(i);
            let bar_len = if max > 0.0 {
                ((c / max) * width as f64).round() as usize
            } else {
                0
            };
            out.push_str(&format!(
                "[{lo:>10.5}, {hi:>10.5}) |{}{} {c:.4}\n",
                "#".repeat(bar_len),
                " ".repeat(width - bar_len)
            ));
        }
        out
    }
}

/// Weighted arithmetic mean of `(value, weight)` pairs.
///
/// Returns `None` if total weight is zero or the input is empty.
pub fn weighted_mean(pairs: &[(f64, f64)]) -> Option<f64> {
    let total: f64 = pairs.iter().map(|&(_, w)| w).sum();
    if total <= 0.0 {
        return None;
    }
    Some(pairs.iter().map(|&(v, w)| v * w).sum::<f64>() / total)
}

/// Weighted quantile (q in `[0, 1]`) of `(value, weight)` pairs, by sorting
/// values and returning the smallest value whose cumulative weight reaches
/// `q * total`. `q = 0.5` is the weighted median used in §IV-C.
///
/// Returns `None` if total weight is zero or the input is empty.
fn weighted_quantile(pairs: &[(f64, f64)], q: f64) -> Option<f64> {
    assert!(
        (0.0..=1.0).contains(&q),
        "quantile must be in [0,1], got {q}"
    );
    let total: f64 = pairs.iter().map(|&(_, w)| w).sum();
    if total <= 0.0 {
        return None;
    }
    let mut sorted: Vec<(f64, f64)> = pairs.iter().copied().filter(|&(_, w)| w > 0.0).collect();
    sorted.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
    let target = q * total;
    let mut cum = 0.0;
    for (v, w) in &sorted {
        cum += w;
        if cum >= target {
            return Some(*v);
        }
    }
    sorted.last().map(|&(v, _)| v)
}

/// Weighted median: shorthand for `weighted_quantile(pairs, 0.5)`.
pub fn weighted_median(pairs: &[(f64, f64)]) -> Option<f64> {
    weighted_quantile(pairs, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_binning_maps_edges_correctly() {
        let spec = HistogramSpec::Linear {
            lo: 0.0,
            hi: 10.0,
            bins: 10,
        };
        assert_eq!(spec.bin_of(0.0), Some(0));
        assert_eq!(spec.bin_of(9.999), Some(9));
        assert_eq!(spec.bin_of(10.0), None);
        assert_eq!(spec.bin_of(-0.1), None);
        assert_eq!(spec.bin_of(5.0), Some(5));
    }

    #[test]
    fn log_binning_is_uniform_in_log_space() {
        let spec = HistogramSpec::Log {
            lo: 1.0,
            hi: 1000.0,
            bins: 3,
        };
        assert_eq!(spec.bin_of(1.5), Some(0));
        assert_eq!(spec.bin_of(15.0), Some(1));
        assert_eq!(spec.bin_of(150.0), Some(2));
        assert_eq!(spec.bin_of(0.5), None);
        let (lo, hi) = spec.edges_of(1);
        assert!((lo - 10.0).abs() < 1e-9 && (hi - 100.0).abs() < 1e-9);
    }

    #[test]
    fn edges_partition_the_range() {
        let spec = HistogramSpec::Linear {
            lo: -1.0,
            hi: 1.0,
            bins: 7,
        };
        let mut prev_hi = -1.0;
        for i in 0..7 {
            let (lo, hi) = spec.edges_of(i);
            assert!((lo - prev_hi).abs() < 1e-12);
            assert!(hi > lo);
            prev_hi = hi;
        }
        assert!((prev_hi - 1.0).abs() < 1e-12);
    }

    #[test]
    fn weights_and_outliers_accumulate() {
        let mut h = Histogram::new(HistogramSpec::Linear {
            lo: 0.0,
            hi: 1.0,
            bins: 2,
        });
        h.add_weighted(0.25, 2.0);
        h.add_weighted(0.75, 1.0);
        // The outlier lands in no bin and in no share of the mass.
        h.add_weighted(5.0, 4.0);
        assert_eq!(h.counts(), &[2.0, 1.0]);
        let norm = h.normalized();
        assert!((norm[0] - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn mode_detection_finds_bimodal_shape() {
        let mut h = Histogram::new(HistogramSpec::Linear {
            lo: 0.0,
            hi: 10.0,
            bins: 10,
        });
        for _ in 0..5 {
            h.add(1.5);
        }
        for _ in 0..4 {
            h.add(7.5);
        }
        h.add(4.5);
        assert_eq!(h.modes(0.2), 2, "should detect two well-separated modes");
    }

    #[test]
    fn empty_histogram_behaviour() {
        let h = Histogram::new(HistogramSpec::Linear {
            lo: 0.0,
            hi: 1.0,
            bins: 4,
        });
        assert!(h.normalized().iter().all(|&x| x == 0.0));
        assert_eq!(h.modes(0.0), 0);
    }

    #[test]
    fn weighted_mean_and_median() {
        let pairs = [(1.0, 1.0), (2.0, 1.0), (10.0, 2.0)];
        let m = weighted_mean(&pairs).unwrap();
        assert!((m - (1.0 + 2.0 + 20.0) / 4.0).abs() < 1e-12);
        // total weight 4, target 2; cumulative weight reaches 2 at value 2.0
        assert_eq!(weighted_median(&pairs), Some(2.0));
        assert_eq!(weighted_quantile(&pairs, 0.25), Some(1.0));
        assert_eq!(weighted_quantile(&pairs, 0.0), Some(1.0));
        assert_eq!(weighted_quantile(&pairs, 1.0), Some(10.0));
    }

    #[test]
    fn zero_weight_inputs_yield_none() {
        assert_eq!(weighted_mean(&[]), None);
        assert_eq!(weighted_median(&[(1.0, 0.0)]), None);
    }

    #[test]
    fn ascii_render_has_one_line_per_bin() {
        let mut h = Histogram::new(HistogramSpec::Linear {
            lo: 0.0,
            hi: 1.0,
            bins: 3,
        });
        h.add(0.1);
        let art = h.ascii(20);
        assert_eq!(art.lines().count(), 3);
    }
}
