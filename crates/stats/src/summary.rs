//! Streaming summaries and Central-Limit-Theorem aggregation.
//!
//! §IV-A of the paper aggregates MARE/MSRE across *all* experimental settings
//! "via the Central Limit Theorem as the mean of MARE and MSRE gradually
//! converge to the model's expected true capability", reporting a mean and
//! standard deviation for each metric. [`Welford`] provides a numerically
//! stable one-pass accumulator for those aggregates, and [`Summary`] is
//! its frozen result.

/// One-pass numerically stable mean/variance accumulator (Welford's method).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Welford {
    /// Create an empty accumulator.
    pub fn new() -> Self {
        Self {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Fold one observation into the accumulator.
    ///
    /// Non-finite observations are counted separately by callers if needed;
    /// pushing a NaN poisons the mean, so debug builds assert finiteness.
    pub fn push(&mut self, x: f64) {
        debug_assert!(
            x.is_finite(),
            "Welford::push requires finite samples, got {x}"
        );
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        let delta2 = x - self.mean;
        self.m2 += delta * delta2;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Fold an entire slice of observations.
    pub fn extend(&mut self, xs: &[f64]) {
        for &x in xs {
            self.push(x);
        }
    }

    /// Merge another accumulator into this one (parallel reduction support).
    pub fn merge(&mut self, other: &Welford) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations folded in so far.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Running mean; `None` if no observations.
    pub fn mean(&self) -> Option<f64> {
        (self.n > 0).then_some(self.mean)
    }

    /// Sample variance (Bessel-corrected); `None` with fewer than 2 samples.
    fn variance(&self) -> Option<f64> {
        (self.n > 1).then(|| self.m2 / (self.n - 1) as f64)
    }

    /// Sample standard deviation; `None` with fewer than 2 samples.
    pub fn std_dev(&self) -> Option<f64> {
        self.variance().map(f64::sqrt)
    }

    /// Freeze into an immutable [`Summary`].
    ///
    /// # Panics
    /// Panics if no observations were pushed.
    pub fn finish(&self) -> Summary {
        assert!(self.n > 0, "cannot summarize an empty accumulator");
        Summary {
            n: self.n,
            mean: self.mean,
            std_dev: self.std_dev().unwrap_or(0.0),
            min: self.min,
            max: self.max,
        }
    }
}

/// Frozen summary of a batch of observations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of observations.
    pub n: u64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (0 when `n == 1`).
    pub std_dev: f64,
    /// Minimum observation.
    pub min: f64,
    /// Maximum observation.
    pub max: f64,
}

impl Summary {
    /// Summarize a non-empty slice.
    ///
    /// # Panics
    /// Panics on an empty slice.
    pub fn of(xs: &[f64]) -> Self {
        let mut w = Welford::new();
        w.extend(xs);
        w.finish()
    }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "mean={:.4} std={:.4} min={:.4} max={:.4} (n={})",
            self.mean, self.std_dev, self.min, self.max, self.n
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_has_no_mean() {
        let w = Welford::new();
        assert_eq!(w.mean(), None);
        assert_eq!(w.variance(), None);
        assert_eq!(w.count(), 0);
    }

    #[test]
    fn single_observation() {
        let mut w = Welford::new();
        w.push(3.0);
        assert_eq!(w.mean(), Some(3.0));
        assert_eq!(w.variance(), None);
        let s = w.finish();
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.min, 3.0);
        assert_eq!(s.max, 3.0);
    }

    #[test]
    fn matches_two_pass_computation() {
        let xs = [0.1, 2.5, -3.0, 7.25, 0.0, 1.5];
        let s = Summary::of(&xs);
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (xs.len() - 1) as f64;
        assert!((s.mean - mean).abs() < 1e-12);
        assert!((s.std_dev - var.sqrt()).abs() < 1e-12);
        assert_eq!(s.min, -3.0);
        assert_eq!(s.max, 7.25);
    }

    #[test]
    fn merge_equals_sequential() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0];
        let mut whole = Welford::new();
        whole.extend(&xs);
        let mut a = Welford::new();
        a.extend(&xs[..3]);
        let mut b = Welford::new();
        b.extend(&xs[3..]);
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean().unwrap() - whole.mean().unwrap()).abs() < 1e-12);
        assert!((a.variance().unwrap() - whole.variance().unwrap()).abs() < 1e-12);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = Welford::new();
        a.extend(&[1.0, 2.0]);
        let before = a;
        a.merge(&Welford::new());
        assert_eq!(a, before);
        let mut e = Welford::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn numerically_stable_for_large_offsets() {
        // Classic catastrophic-cancellation case for naive sum-of-squares.
        let base = 1e9;
        let xs = [base + 4.0, base + 7.0, base + 13.0, base + 16.0];
        let s = Summary::of(&xs);
        assert!((s.mean - (base + 10.0)).abs() < 1e-3);
        let exact_var = 30.0; // variance of [4,7,13,16]
        assert!((s.std_dev * s.std_dev - exact_var).abs() < 1e-3);
    }
}
