//! `grid`: the paper reproduction itself, as a batch.
//!
//! Each pass runs the full 285-cell `ExperimentPlan::paper()` through
//! `run_plan` with the calibrated induction surrogate; `run_plan` submits
//! every cell to its service at once. The plan is the paper's fixed grid,
//! so the workload seed does not change the inputs: the seed only labels
//! the run.

use crate::report::{median, metric, Outcome};
use crate::{trace, Args};
use lmpeel_core::experiment::{run_plan, ExperimentPlan, PredictionRecord};
use lmpeel_lm::InductionLm;
use lmpeel_perfdata::DatasetBundle;
use lmpeel_recover::{fnv1a64, JournalRecord};
use std::time::Instant;

/// FNV-1a over the canonical journal encoding of all 285 records, in grid
/// order, from a run whose `section4a` report is byte-identical to the
/// committed `bench_out/section4a.txt`.
pub const PAPER_DIGEST: u64 = 0x5ad7_cc81_455d_7554;

/// Cells in the paper grid.
const CELLS: usize = 285;

pub fn digest(records: &[PredictionRecord]) -> u64 {
    let mut buf = Vec::new();
    for r in records {
        r.encode(&mut buf);
    }
    fnv1a64(&buf)
}

/// One checked pass; returns its seconds and records.
fn pass(
    bundle: &DatasetBundle,
    plan: &ExperimentPlan,
    id: u64,
    tracing: bool,
    out: &mut Outcome,
) -> (f64, Vec<PredictionRecord>) {
    let t0 = Instant::now();
    let records = trace::maybe(tracing, "core.run_plan", id, || {
        run_plan(bundle, plan, InductionLm::paper)
    });
    let secs = t0.elapsed().as_secs_f64();
    out.attempted += CELLS as u64;
    let d = digest(&records);
    let ok = records.len() == CELLS && d == PAPER_DIGEST;
    out.check(ok, || {
        format!(
            "grid pass {id}: {} records, digest {d:#018x} (want {PAPER_DIGEST:#018x})",
            records.len()
        )
    });
    if !ok {
        out.failed += CELLS as u64;
    }
    (secs, records)
}

pub fn run(args: &Args, process_start: Instant) -> Outcome {
    let mut out = Outcome::default();
    // Set-up: the paper's datasets and plan, then one untimed warm-up pass
    // that grows the allocator and page tables to the grid's working set
    // (about 320 MiB). Without it set-up is about 12 ms and swings by a
    // third from process to process. A pass is too long to repeat, so
    // there is one set-up per run.
    let bundle = DatasetBundle::paper();
    let plan = ExperimentPlan::paper();
    assert_eq!(plan.num_tasks(), CELLS, "the paper grid has 285 cells");
    pass(&bundle, &plan, 0, false, &mut out);
    let setup = process_start.elapsed().as_secs_f64();
    let failed_in_setup = out.failed;

    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    // Per-pass counts, identical for every pass; each pass's records are
    // dropped before the next starts, so peak memory is one pass's.
    let (mut tokens, mut with_value, mut prefilled) = (0, 0, 0);
    let start = Instant::now();
    let mut id = 1u64;
    // At least three passes, so the median is not a single sample.
    while untraced.len() + traced.len() < 3 || start.elapsed().as_secs_f64() < args.seconds {
        // The traced run alternates untraced and traced passes so the two
        // medians come from the same process.
        let tracing = args.trace && id.is_multiple_of(2);
        let (secs, records) = pass(&bundle, &plan, id, tracing, &mut out);
        if tracing {
            traced.push(secs);
        } else {
            untraced.push(secs);
        }
        tokens = records.iter().map(|r| r.trace.steps.len()).sum();
        with_value = records.iter().filter(|r| r.predicted.is_some()).count();
        prefilled = records
            .iter()
            .filter(|r| r.seed == plan.seeds[0])
            .map(|r| r.trace.prompt_len)
            .sum();
        id += 1;
    }
    // One operation is one pass over the grid: the batch a user waits for.
    let wall = median(&untraced);
    // Cells of timed passes that passed the check, per second of passes.
    let timed_cells = ((untraced.len() + traced.len()) * CELLS) as u64;
    let good_cells = timed_cells - (out.failed - failed_in_setup);
    let pass_seconds: f64 = untraced.iter().chain(&traced).sum();
    out.e2e = vec![
        metric("setup_s", "s", setup),
        metric("wall_s", "s", wall),
        metric("latency_p50_ms", "ms", wall * 1e3),
        metric("goodput_rps", "1/s", good_cells as f64 / pass_seconds),
    ];
    out.headline_ms = wall * 1e3;
    out.traced_headline_ms = median(&traced) * 1e3;
    out.layer = vec![
        metric("lm.tokens_generated", "count", tokens as f64),
        metric(
            "core.value_share",
            "share",
            with_value as f64 / CELLS as f64,
        ),
    ];
    // One pass: every generated token is a decode step, every
    // cell extracts one value, and each distinct prompt (one per seed
    // triple) is built, encoded and prefilled once; the other two seeds
    // fork it.
    let prompts = CELLS as f64 / plan.seeds.len() as f64;
    out.counts = vec![
        ("lm.induction.prefill_us_per_tok", prefilled as f64),
        ("lm.decode_step_us", tokens as f64),
        ("lm.induction.fork_us", CELLS as f64 - prompts),
        ("core.prompt_build_us", prompts),
        ("core.extract_us", CELLS as f64),
    ];
    eprintln!("grid: set-up {setup:.3} s, untraced passes {untraced:?} s, traced {traced:?} s");
    out
}
