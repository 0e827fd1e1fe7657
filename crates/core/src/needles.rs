//! §IV-C.1: needles in a haystack.
//!
//! "We use the distribution of generable values as a 'haystack' where a
//! hypothetical post-hoc decoder may search for 'needles' or values within
//! a given error-bound." Three views are computed per experiment suite:
//!
//! * **sampled** — the fraction of actually-sampled predictions within each
//!   bound (what the LLM delivers as-is);
//! * **oracle** — the fraction of queries where *any* generable decoding
//!   lands within the bound (the ceiling for any post-hoc decoder);
//! * **mass** — the average probability mass the generable distribution
//!   puts within the bound (how findable the needles are).

use crate::decoding::{value_distribution, ValueDistribution};
use crate::experiment::PredictionRecord;
use lmpeel_stats::needle::PAPER_THRESHOLDS;
use lmpeel_stats::NeedleReport;
use lmpeel_tokenizer::Tokenizer;

/// The three LLM-side needle views plus sample counts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LlmNeedles {
    /// Sampled-prediction needle fractions.
    pub sampled: NeedleReport,
    /// Oracle (any generable value) needle fractions.
    pub oracle: NeedleReport,
    /// Mean in-bound probability mass of the generable distribution.
    pub mass: NeedleReport,
    /// Number of records with a generable-value distribution.
    pub n: usize,
}

/// Per-record needle flags: (sampled hit, oracle hit, probability mass)
/// per threshold.
type NeedleFlags = ([bool; 3], [bool; 3], [f64; 3]);

/// Compute the LLM needle views over experiment records. Records without a
/// value span (pure drift) count as misses in all three views.
///
/// # Panics
/// Panics if `records` is empty.
pub fn llm_needles(
    records: &[PredictionRecord],
    tokenizer: &Tokenizer,
    decode_budget: usize,
    decode_seed: u64,
) -> LlmNeedles {
    assert!(!records.is_empty(), "needle analysis requires records");
    let per_record: Vec<NeedleFlags> = records
        .iter()
        .map(|r| {
            let dist: Option<ValueDistribution> = r.value_span.clone().map(|span| {
                value_distribution(&r.trace, span, tokenizer, decode_budget, decode_seed)
            });
            let mut sampled = [false; 3];
            let mut oracle = [false; 3];
            let mut mass = [0.0f64; 3];
            for (i, &bound) in PAPER_THRESHOLDS.iter().enumerate() {
                if let Some(p) = r.predicted {
                    sampled[i] = lmpeel_stats::relative_error(p, r.truth) <= bound;
                }
                if let Some(d) = &dist {
                    oracle[i] = d.any_within(r.truth, bound);
                    mass[i] = d.mass_within(r.truth, bound);
                }
            }
            (sampled, oracle, mass)
        })
        .collect();

    let n = per_record.len();
    let frac = |sel: &dyn Fn(&NeedleFlags) -> f64| -> f64 {
        per_record.iter().map(sel).sum::<f64>() / n as f64
    };
    let report = |which: usize, kind: usize| -> f64 {
        match kind {
            0 => frac(&|r| f64::from(r.0[which])),
            1 => frac(&|r| f64::from(r.1[which])),
            _ => frac(&|r| r.2[which]),
        }
    };
    let mk = |kind: usize| NeedleReport {
        within_50pct: report(0, kind),
        within_10pct: report(1, kind),
        within_1pct: report(2, kind),
    };
    LlmNeedles {
        sampled: mk(0),
        oracle: mk(1),
        mass: mk(2),
        n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{run_plan, ExperimentPlan};
    use lmpeel_lm::InductionLm;
    use lmpeel_perfdata::DatasetBundle;

    #[test]
    fn needle_views_are_ordered_and_bounded() {
        let bundle = DatasetBundle::paper();
        let records = run_plan(&bundle, &ExperimentPlan::smoke(), InductionLm::paper);
        let t = Tokenizer::paper();
        let needles = llm_needles(&records, &t, 4000, 0);
        assert_eq!(needles.n, records.len());
        for rep in [needles.sampled, needles.oracle, needles.mass] {
            assert!(rep.within_50pct >= rep.within_10pct);
            assert!(rep.within_10pct >= rep.within_1pct);
            assert!((0.0..=1.0).contains(&rep.within_50pct));
        }
        // The oracle dominates the sampled view by construction.
        assert!(needles.oracle.dominates(&needles.sampled));
        // Oracle hit-or-miss dominates expected mass.
        assert!(needles.oracle.within_50pct >= needles.mass.within_50pct);
    }

    #[test]
    #[should_panic(expected = "requires records")]
    fn empty_records_panic() {
        let t = Tokenizer::paper();
        let _ = llm_needles(&[], &t, 100, 0);
    }
}
