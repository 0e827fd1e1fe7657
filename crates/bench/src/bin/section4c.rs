//! §IV-C: searching within distributions.
//!
//! "The first and most obvious strategy would be to utilize the mean or
//! median of the distribution of possible values... Both the mean and the
//! median have worse errors than the observed samples." Also checks the
//! paper's mode observation: the logit mass is often higher in the mode
//! closer to the ground truth, but not decisively so.

use lmpeel_bench::runs::paper_records;
use lmpeel_bench::TextTable;
use lmpeel_core::decoding::value_distribution;
use lmpeel_perfdata::DatasetBundle;
use lmpeel_stats::{relative_error, Welford};
use lmpeel_tokenizer::Tokenizer;

fn main() {
    let bundle = DatasetBundle::paper();
    let records = paper_records(&bundle);
    let tok = Tokenizer::paper();

    struct Row {
        sampled: f64,
        mean_dec: Option<f64>,
        median_dec: Option<f64>,
        range_contains_truth: bool,
        nearer_mode_heavier: Option<bool>,
        truth: f64,
    }

    let rows: Vec<Row> = records
        .iter()
        .filter_map(|r| {
            let predicted = r.predicted?;
            let span = r.value_span.clone()?;
            let dist = value_distribution(&r.trace, span, &tok, 20_000, 17);
            let (lo, hi) = dist.range()?;
            // Mode-mass check: split candidates at the midpoint between the
            // two heaviest well-separated values; is the mass on the
            // truth-side heavier?
            let nearer_mode_heavier = {
                let top: Vec<(f64, f64)> = dist.candidates.iter().copied().take(200).collect();
                if top.len() < 2 {
                    None
                } else {
                    let split = (lo + hi) / 2.0;
                    let mass_lo: f64 = top
                        .iter()
                        .filter(|&&(v, _)| v < split)
                        .map(|&(_, w)| w)
                        .sum();
                    let mass_hi: f64 = top
                        .iter()
                        .filter(|&&(v, _)| v >= split)
                        .map(|&(_, w)| w)
                        .sum();
                    let truth_low = r.truth < split;
                    Some(if truth_low {
                        mass_lo > mass_hi
                    } else {
                        mass_hi > mass_lo
                    })
                }
            };
            Some(Row {
                sampled: predicted,
                mean_dec: dist.mean(),
                median_dec: dist.median(),
                range_contains_truth: lo <= r.truth && r.truth <= hi,
                nearer_mode_heavier,
                truth: r.truth,
            })
        })
        .collect();

    let mut sampled = Welford::new();
    let mut mean_dec = Welford::new();
    let mut median_dec = Welford::new();
    let mut contains = 0usize;
    let mut heavier = 0usize;
    let mut heavier_n = 0usize;
    for row in &rows {
        sampled.push(relative_error(row.sampled, row.truth));
        if let Some(m) = row.mean_dec {
            mean_dec.push(relative_error(m, row.truth));
        }
        if let Some(m) = row.median_dec {
            median_dec.push(relative_error(m, row.truth));
        }
        if row.range_contains_truth {
            contains += 1;
        }
        if let Some(h) = row.nearer_mode_heavier {
            heavier_n += 1;
            if h {
                heavier += 1;
            }
        }
    }

    println!("Section IV-C reproduction: central decodes vs. sampled values\n");
    let mut t = TextTable::new(vec!["decode strategy", "MARE", "std"]);
    let s = sampled.finish();
    t.row(vec![
        "sampled (as generated)".into(),
        format!("{:.4}", s.mean),
        format!("{:.4}", s.std_dev),
    ]);
    let m = mean_dec.finish();
    t.row(vec![
        "distribution mean".into(),
        format!("{:.4}", m.mean),
        format!("{:.4}", m.std_dev),
    ]);
    let md = median_dec.finish();
    t.row(vec![
        "distribution median".into(),
        format!("{:.4}", md.mean),
        format!("{:.4}", md.std_dev),
    ]);
    println!("{}", t.render());

    println!(
        "ground truth inside [min, max] of generable values: {:.1}% of {} prompts",
        100.0 * contains as f64 / rows.len() as f64,
        rows.len()
    );
    println!(
        "mass heavier in the truth-side mode: {:.1}% of {} multi-modal prompts",
        100.0 * heavier as f64 / heavier_n.max(1) as f64,
        heavier_n
    );
    println!(
        "\nShape checks (paper): mean and median decodes are WORSE than sampling — the\n\
         distribution is not statistically centered on the truth; the truth usually\n\
         falls between the min and max generable values; the nearer mode is often but\n\
         not reliably heavier, so no decoding fix resolves the ambiguity."
    );
    assert!(
        m.mean > s.mean || md.mean > s.mean,
        "expected at least one central decode to be worse than sampling"
    );
}
