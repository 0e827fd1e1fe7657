//! Figure 4: "Bi-modal value distributions commonly arise from different
//! string prefixes (ie, 1.7 vs 2.7), even across different seeds."
//!
//! Reproduces the per-seed generable-value distributions for one XL prompt
//! whose in-context values straddle two leading digits, then verifies the
//! paper's observation that different seeds produce identical token sets
//! with only trivially different probabilities. CSV: `bench_out/figure4.csv`.
//!
//! Pass `--journal <path>` (or `--resume <path>`) to journal each completed
//! generation; a killed run resumed against the same journal produces a
//! byte-identical CSV.

use lmpeel_bench::cli::journal_flag;
use lmpeel_bench::runs::{out_dir, run_plan_at, write_golden};
use lmpeel_configspace::ArraySize;
use lmpeel_core::decoding::value_distribution;
use lmpeel_core::experiment::{ExperimentPlan, PredictionRecord};
use lmpeel_perfdata::{icl_replicas, DatasetBundle};
use lmpeel_stats::{Histogram, HistogramSpec};
use std::fmt::Write as _;

/// One seed's series: (seed, value histogram, first-position token probs).
type SeedSeries = (u64, Histogram, Vec<(u32, f32)>);

/// The figure's grid: the random XL setting with 20 examples, 5 replicas,
/// 3 seeds, single-line values — the replica with the widest leading-digit
/// spread is selected after the (journalable) run.
fn plan() -> ExperimentPlan {
    ExperimentPlan {
        sizes: vec![ArraySize::XL],
        icl_counts: vec![20],
        replicas: 5,
        seeds: vec![0, 1, 2],
        curated_sizes: vec![],
        curated_counts: vec![],
        selection_seed: 3,
        max_tokens: 24,
        trace_min_prob: 1e-4,
        stop_at_newline: true,
    }
}

fn main() {
    let bundle = DatasetBundle::paper();
    let dataset = &bundle.xl;
    let plan = plan();
    let records = run_plan_at(&bundle, &plan, journal_flag().as_deref());
    // Pick the replica whose ICL values straddle the most leading digits
    // (same selection, and same last-max tie-break, as the original
    // inline loop over `icl_replicas`).
    let sets = icl_replicas(dataset, 20, plan.replicas, plan.selection_seed);
    let (chosen, set) = sets
        .iter()
        .enumerate()
        .max_by_key(|(_, s)| {
            s.examples
                .iter()
                .map(|&(_, r)| r as u64)
                .collect::<std::collections::HashSet<_>>()
                .len()
        })
        .expect("non-empty");
    let tok = lmpeel_tokenizer::Tokenizer::paper();

    let lo = dataset.summary().min * 0.8;
    let hi = dataset.summary().max * 1.2;
    let spec_hist = HistogramSpec::Linear { lo, hi, bins: 18 };

    let mut per_seed: Vec<SeedSeries> = Vec::new();
    let picked: Vec<&PredictionRecord> = records.iter().filter(|r| r.replica == chosen).collect();
    for rec in picked {
        let span = rec.value_span.clone().expect("value generated");
        let first = &rec.trace.steps[span.start];
        let firsts: Vec<(u32, f32)> = first.alternatives.iter().map(|a| (a.id, a.prob)).collect();
        let dist = value_distribution(&rec.trace, span, &tok, 20_000, rec.seed);
        let mut h = Histogram::new(spec_hist);
        for &(v, w) in &dist.candidates {
            h.add_weighted(v, w);
        }
        per_seed.push((rec.seed, h, firsts));
    }

    println!("Figure 4 reproduction: per-seed generable-value distributions (XL, 20 ICL)\n");
    println!(
        "ICL values span leading digits: {:?}\n",
        set.examples
            .iter()
            .map(|&(_, r)| r.floor() as u64)
            .collect::<std::collections::BTreeSet<_>>()
    );
    let dir = out_dir();
    let path = dir.join("figure4.csv");
    let mut csv = String::new();
    writeln!(csv, "seed,bin_lo,bin_hi,density").unwrap();
    for (seed, h, firsts) in &per_seed {
        println!("seed {seed}: first-token candidates (token: prob):");
        for (id, p) in firsts {
            println!("    {:>4} : {p:.4}", tok.vocab().token_str(*id));
        }
        println!("{}", h.ascii(44));
        println!("modes detected (>=5% mass): {}\n", h.modes(0.05));
        for i in 0..spec_hist.bins() {
            let (blo, bhi) = spec_hist.edges_of(i);
            writeln!(csv, "{seed},{blo},{bhi},{}", h.normalized()[i]).unwrap();
        }
    }
    write_golden(&path, csv.as_bytes());

    // Paper claim: identical token sets across seeds, trivially different
    // probabilities.
    let ids_of = |fs: &Vec<(u32, f32)>| {
        fs.iter()
            .map(|&(id, _)| id)
            .collect::<std::collections::HashSet<_>>()
    };
    let mut min_jaccard = 1.0f64;
    let mut max_prob_diff = 0.0f32;
    for w in per_seed.windows(2) {
        let (a, b) = (ids_of(&w[0].2), ids_of(&w[1].2));
        let j = a.intersection(&b).count() as f64 / a.union(&b).count() as f64;
        min_jaccard = min_jaccard.min(j);
        for (x, y) in w[0].2.iter().zip(&w[1].2) {
            if x.0 == y.0 {
                max_prob_diff = max_prob_diff.max((x.1 - y.1).abs());
            }
        }
    }
    println!(
        "first-token set overlap across seeds (Jaccard, worst pair): {min_jaccard:.3}          (paper: 'often identical'; only threshold-straddling stragglers differ)"
    );
    println!("max shared-token probability difference across seeds: {max_prob_diff:.4}");
    println!("-> {}", path.display());
    println!(
        "\nShape checks: multiple modes arise from distinct leading-digit prefixes; seeds\n\
         reproduce the same candidate token sets with only trivial logit deviations."
    );
}
