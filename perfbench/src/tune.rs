//! `tune`: one client asking for tuned configurations, closed loop.
//!
//! Every operation is a cold `TuneService::tune` (syr2k, SM, budget 40) on
//! a fresh cache file, so each one runs the full random vs GBDT vs LLM
//! ablation, validates the winner on the real kernel and commits it. The
//! per-operation tune seeds derive from the workload seed.

use crate::report::{median, metric, quantile, Outcome};
use crate::{trace, Args};
use lmpeel_configspace::{syr2k_space, ArraySize, Syr2kConfig};
use lmpeel_recover::splitmix64;
use lmpeel_tune::{TuneReport, TuneRequest, TuneService, KERNEL_SYR2K};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

const BUDGET: usize = 40;
/// Three strategies, each measuring the full budget.
const MEASUREMENTS_PER_MISS: usize = 3 * BUDGET;
/// `GbdtSearch::default()` measures this many random configurations
/// before its first fit, then fits once per further measurement.
const GBDT_INIT: usize = 8;
const GBDT_POOL: usize = 256;
/// At least this many timed tunes, so ten samples lie beyond p75.
const MIN_OPS: usize = 40;
/// The seed `bench_out/tune.txt` was produced with.
const GOLDEN_SEED: u64 = 7;

fn request(seed: u64) -> TuneRequest {
    TuneRequest {
        kernel: KERNEL_SYR2K.into(),
        size: ArraySize::SM,
        budget: BUDGET,
        seed,
    }
}

/// One cold tune on a fresh cache file.
fn tune_cold(dir: &Path, tag: u64, seed: u64, tracing: bool) -> Result<TuneReport, String> {
    let path = dir.join(format!("tune-{tag}.bin"));
    let _ = std::fs::remove_file(&path);
    let (service, _) = trace::maybe(tracing, "tune.open", tag, || TuneService::open(&path))
        .map_err(|e| e.to_string())?;
    let report = trace::maybe(tracing, "tune.tune", tag, || {
        service.tune(&request(seed), None)
    })
    .map_err(|e| e.to_string());
    drop(service);
    let _ = std::fs::remove_file(&path);
    report
}

/// The checks every operation must pass: a miss that measured the full
/// budget three times and validated its winner on the real kernel.
fn op_ok(r: &TuneReport) -> bool {
    !r.cache_hit
        && r.fresh_measurements == MEASUREMENTS_PER_MISS
        && r.validation.as_ref().is_some_and(|v| v.checksum_ok)
        && r.entry.validated
}

/// `r` rendered exactly as the `tune` reproduction binary writes its
/// golden ablation report.
fn golden_text(r: &TuneReport, seed: u64) -> String {
    let mut txt = String::new();
    let e = &r.entry;
    let _ = writeln!(
        txt,
        "# lmpeel-tune ablation: kernel={} size={} budget={BUDGET} seed={seed}",
        e.kernel,
        ArraySize::SM
    );
    let _ = writeln!(txt, "strategy,evaluations,best_runtime_s,best_config_index");
    for s in &r.ablation {
        let _ = writeln!(
            txt,
            "{},{},{:.9e},{}",
            s.strategy, s.evaluations, s.best_runtime, s.best_index
        );
    }
    let _ = writeln!(
        txt,
        "winner,{},{:.9e},{}",
        e.strategy, e.surrogate_runtime, e.config_index
    );
    let space = syr2k_space();
    let cfg = Syr2kConfig::from_config(&space, &space.config_at(e.config_index));
    let _ = writeln!(
        txt,
        "winner_config,pack_a={},pack_b={},interchange={},tiles=({},{},{})",
        cfg.pack_a, cfg.pack_b, cfg.interchange, cfg.tile_outer, cfg.tile_middle, cfg.tile_inner
    );
    let _ = writeln!(txt, "validated,{}", e.validated);
    txt
}

pub fn run(args: &Args, process_start: Instant) -> Outcome {
    let mut out = Outcome::default();
    let dir: PathBuf = args.out.join(format!("tune-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create the tune scratch directory");
    let golden = std::fs::read_to_string("bench_out/tune.txt").unwrap_or_default();

    // Set-up: the first tune of a process is the cold one (allocator
    // growth, first model construction), so set-up ends after one
    // untimed tune. It is the golden seed, checked against the committed
    // report. Five set-ups; the median is reported.
    let mut setups = Vec::new();
    for i in 0..5u64 {
        let t0 = if i == 0 {
            process_start
        } else {
            Instant::now()
        };
        let report = tune_cold(&dir, 1000 + i, GOLDEN_SEED, false);
        setups.push(t0.elapsed().as_secs_f64());
        out.attempted += 1;
        let ok = match &report {
            Ok(r) => op_ok(r) && golden_text(r, GOLDEN_SEED) == golden,
            Err(_) => false,
        };
        out.check(ok, || {
            format!("seed {GOLDEN_SEED} does not reproduce bench_out/tune.txt: {report:?}")
        });
        out.failed += u64::from(!ok);
    }

    let mut untraced_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut fits = Vec::new();
    let mut fresh = Vec::new();
    let start = Instant::now();
    let mut wall = 0.0;
    let mut timed_failed = 0u64;
    let mut i = 0u64;
    while (i as usize) < MIN_OPS || start.elapsed().as_secs_f64() < args.seconds {
        let seed = splitmix64(args.seed ^ splitmix64(i));
        let tracing = args.trace && i % 2 == 1;
        let t0 = Instant::now();
        let report = trace::maybe(tracing, "tune.op", i, || tune_cold(&dir, i, seed, tracing));
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        if tracing {
            traced_ms.push(ms);
        } else {
            untraced_ms.push(ms);
        }
        out.attempted += 1;
        let ok = report.as_ref().is_ok_and(op_ok);
        out.check(ok, || format!("tune op {i} (seed {seed}): {report:?}"));
        out.failed += u64::from(!ok);
        if let Ok(r) = &report {
            fresh.push(r.fresh_measurements as f64);
            let gbdt = r.ablation.iter().find(|s| s.strategy.starts_with("gbdt"));
            fits.push(gbdt.map_or(0, |s| s.evaluations.saturating_sub(GBDT_INIT)) as f64);
        }
        timed_failed += u64::from(!ok);
        i += 1;
        if i as usize == MIN_OPS {
            wall = start.elapsed().as_secs_f64();
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    let _ = std::fs::remove_dir_all(&dir);

    out.e2e = vec![
        metric("setup_s", "s", median(&setups)),
        // The first MIN_OPS tunes: a fixed amount of work.
        metric("wall_s", "s", wall),
        metric("latency_p50_ms", "ms", median(&untraced_ms)),
        metric("goodput_rps", "1/s", (i - timed_failed) as f64 / elapsed),
    ];
    out.headline_ms = median(&untraced_ms);
    out.traced_headline_ms = median(&traced_ms);
    let fits_per_op = median(&fits);
    out.layer = vec![
        metric("gbdt.fits", "count", fits.iter().sum()),
        metric("tune.fresh_measurements", "count", median(&fresh)),
    ];
    // One miss: the dataset, the LLM search, every GBDT fit and the pool
    // ranking after it (a min over the pool predicts two rows per
    // comparison), the kernel validation and the cache commit.
    out.counts = vec![
        ("perfdata.generate_ms", 1.0),
        ("tune.llm_search_ms", 1.0),
        ("gbdt.fit_ms", fits_per_op),
        (
            "gbdt.predict_us",
            fits_per_op * 2.0 * (GBDT_POOL - 1) as f64,
        ),
        ("kernel.validate_ms", 1.0),
        ("recover.commit_ms", 1.0),
    ];
    eprintln!(
        "tune: {i} ops, untraced p50 {:.1} ms p75 {:.1} ms over {}, traced p50 {:.1} ms over {}",
        median(&untraced_ms),
        quantile(&untraced_ms, 0.75),
        untraced_ms.len(),
        median(&traced_ms),
        traced_ms.len()
    );
    out
}
