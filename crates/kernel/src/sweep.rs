//! Sweep runner: measure many configurations of one problem.
//!
//! This is the empirical-collection loop the paper's dataset came from
//! (executed there over all 10,648 configurations at two sizes). Two modes:
//!
//! * **sequential** — faithful timing, one configuration at a time;
//! * **parallel** — rayon fan-out across configurations; much faster but
//!   timings reflect shared-machine contention (throughput mode). Use it
//!   for correctness sweeps and smoke tests, not for publishing numbers.

use crate::measure::{measure, MeasureSpec, Measurement};
use crate::syr2k::Syr2kProblem;
use lmpeel_configspace::Syr2kConfig;
use rayon::prelude::*;

/// Measurement of one configuration within a sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepResult {
    /// The configuration measured.
    pub config: Syr2kConfig,
    /// Timing statistics.
    pub measurement: Measurement,
    /// Checksum of the computed result (for cross-config validation).
    pub checksum: f64,
}

/// Measure every configuration in `configs` against `problem`.
pub fn sweep(
    problem: &Syr2kProblem,
    configs: &[Syr2kConfig],
    spec: MeasureSpec,
    parallel: bool,
) -> Vec<SweepResult> {
    let run_one = |cfg: &Syr2kConfig| {
        let (measurement, result) = measure(spec, || problem.run_configured(*cfg));
        SweepResult {
            config: *cfg,
            measurement,
            checksum: Syr2kProblem::checksum(&result),
        }
    };
    if parallel {
        configs.par_iter().map(run_one).collect()
    } else {
        configs.iter().map(run_one).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn configs() -> Vec<Syr2kConfig> {
        let mut out = Vec::new();
        for pack_a in [false, true] {
            for interchange in [false, true] {
                out.push(Syr2kConfig {
                    pack_a,
                    pack_b: false,
                    interchange,
                    tile_outer: 8,
                    tile_middle: 8,
                    tile_inner: 8,
                });
            }
        }
        out
    }

    #[test]
    fn sweep_covers_all_configs_in_order() {
        let p = Syr2kProblem::new(10, 12);
        let res = sweep(&p, &configs(), MeasureSpec::new(0, 1).unwrap(), false);
        assert_eq!(res.len(), 4);
        for (r, c) in res.iter().zip(configs()) {
            assert_eq!(r.config, c);
            assert_eq!(r.measurement.samples().len(), 1);
        }
    }

    #[test]
    fn all_configs_compute_the_same_checksum() {
        let p = Syr2kProblem::new(10, 12);
        let res = sweep(&p, &configs(), MeasureSpec::new(0, 1).unwrap(), false);
        let base = res[0].checksum;
        for r in &res {
            assert!((r.checksum - base).abs() / base.abs() < 1e-12);
        }
    }

    #[test]
    fn parallel_matches_sequential_results() {
        let p = Syr2kProblem::new(10, 12);
        let spec = MeasureSpec::new(0, 1).unwrap();
        let seq = sweep(&p, &configs(), spec, false);
        let par = sweep(&p, &configs(), spec, true);
        assert_eq!(seq.len(), par.len());
        for (s, q) in seq.iter().zip(&par) {
            assert_eq!(s.config, q.config);
            assert_eq!(s.checksum, q.checksum, "checksums must be identical");
        }
    }
}
