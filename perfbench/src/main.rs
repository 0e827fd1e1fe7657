//! The repository benchmark: one workload per process.
//!
//! ```text
//! lmpeel-perfbench --workload <grid|tune|serve_prefix>
//!                  --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//!                  [--sweep <rate,rate,...>]
//! ```
//!
//! The last line of standard output is the result: a JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. Untraced runs report
//! the end-to-end metrics; traced runs (`--trace 1`) report the per-layer
//! metrics, print the attribution table and write every span to
//! `<out>/spans-<workload>-<seed>.jsonl`. `--sweep` runs `serve_prefix`'s
//! capacity sweep instead, one open-loop phase per rate.

#![forbid(unsafe_code)]

mod grid;
mod layers;
mod report;
mod serve;
mod trace;
mod tune;

use report::{metric, Metric};
use std::path::PathBuf;
use std::time::Instant;

/// Every per-layer metric a traced run reports, with its unit. A workload
/// that does not pass through a layer reports that layer's counts as 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("tokenizer.encode_us_per_ktok", "us"),
    ("core.prompt_build_us", "us"),
    ("core.extract_us", "us"),
    ("core.value_share", "share"),
    ("lm.induction.prefill_us_per_tok", "us"),
    ("lm.induction.step_us", "us"),
    ("lm.induction.fork_us", "us"),
    ("lm.decode_step_us", "us"),
    ("lm.tokens_generated", "count"),
    ("transformer.memo_fill_ms", "ms"),
    ("transformer.prefill_us_per_tok", "us"),
    ("transformer.fork_us", "us"),
    ("transformer.step_us", "us"),
    ("transformer.batch_step_us_w8", "us"),
    ("transformer.batch_step_us_w16", "us"),
    ("tensor.matvec_us", "us"),
    ("tensor.matmul_blocked_us_w8", "us"),
    ("serve.trie.reuse_share", "share"),
    ("serve.trie.miss_share", "share"),
    ("serve.trie.evictions", "count"),
    ("serve.shard.imbalance", "ratio"),
    ("serve.shard.route_ns", "ns"),
    ("serve.scheduler.overhead_us", "us"),
    ("serve.rejected", "count"),
    ("serve.deadline_exceeded", "count"),
    ("serve.frontend.encode_us", "us"),
    ("serve.frontend.feed_us", "us"),
    ("perfdata.generate_ms", "ms"),
    ("gbdt.fit_ms", "ms"),
    ("gbdt.fits", "count"),
    ("gbdt.predict_us", "us"),
    ("tune.llm_search_ms", "ms"),
    ("tune.fresh_measurements", "count"),
    ("kernel.validate_ms", "ms"),
    ("recover.commit_ms", "ms"),
    ("bench.gen_lag_p99_ms", "ms"),
    ("bench.tracing_overhead_share", "share"),
    ("bench.residual_share", "share"),
    ("process.cpu_s", "s"),
];

/// Environment switches that silently change what the program runs
/// (shard count, crash injection, miniature benches).
const CLEARED_ENV: &[&str] = &["LMPEEL_SHARDS", "LMPEEL_CRASH_AFTER", "LMPEEL_BENCH_SMOKE"];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub out: PathBuf,
    pub sweep: Option<Vec<f64>>,
}

impl Args {
    fn parse() -> Result<Self, String> {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let flag = |name: &str| {
            argv.iter()
                .position(|a| a == name)
                .and_then(|i| argv.get(i + 1))
                .cloned()
        };
        let need = |name: &str| flag(name).ok_or_else(|| format!("missing {name}"));
        let num = |name: &str| -> Result<f64, String> {
            need(name)?.parse().map_err(|e| format!("{name}: {e}"))
        };
        let sweep = match flag("--sweep") {
            None => None,
            Some(list) => Some(
                list.split(',')
                    .map(|r| r.parse().map_err(|e| format!("--sweep: {e}")))
                    .collect::<Result<Vec<f64>, String>>()?,
            ),
        };
        let seconds = num("--seconds")?;
        if seconds.is_nan() || seconds <= 0.0 {
            return Err("--seconds must be positive".into());
        }
        Ok(Self {
            workload: need("--workload")?,
            seed: need("--seed")?
                .parse()
                .map_err(|e| format!("--seed: {e}"))?,
            seconds,
            trace: match need("--trace")?.as_str() {
                "0" => false,
                "1" => true,
                t => return Err(format!("--trace must be 0 or 1, not {t}")),
            },
            out: PathBuf::from(flag("--out").unwrap_or_else(|| ".bench_build/perfbench".into())),
            sweep,
        })
    }
}

fn main() {
    let process_start = Instant::now();
    for var in CLEARED_ENV {
        std::env::remove_var(var);
    }
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("lmpeel-perfbench: {e}");
            std::process::exit(2);
        }
    };
    std::fs::create_dir_all(&args.out).expect("create the output directory");
    if let Some(rates) = &args.sweep {
        if args.workload != "serve_prefix" {
            eprintln!("lmpeel-perfbench: --sweep applies to serve_prefix only");
            std::process::exit(2);
        }
        serve::sweep(&args, rates);
        return;
    }
    let out = match args.workload.as_str() {
        "grid" => grid::run(&args, process_start),
        "tune" => tune::run(&args, process_start),
        "serve_prefix" => serve::run(&args, process_start),
        w => {
            eprintln!("lmpeel-perfbench: unknown workload {w:?}");
            std::process::exit(2);
        }
    };

    let metrics = if args.trace {
        traced_metrics(&args, &out)
    } else {
        let mut m = out.e2e.clone();
        m.push(metric("peak_rss_mb", "MiB", report::peak_rss_mb()));
        m
    };
    println!(
        "{}",
        report::result_json(out.errors.is_empty(), out.attempted, out.failed, &metrics)
    );
}

/// The traced run's per-layer metrics: layer probes, the workload's own
/// counts, the attribution residual and the tracing overhead. Also prints
/// the attribution table and writes the spans.
fn traced_metrics(args: &Args, out: &report::Outcome) -> Vec<Metric> {
    trace::enable();
    let mut layer = layers::probe_all(&args.out, args.seed);
    // Where the workload's own outputs carry a layer figure, it wins over
    // the probe's.
    for m in &out.layer {
        layer.retain(|x| x.name != m.name);
        layer.push(m.clone());
    }
    let residual = layers::attribute(&args.workload, out.headline_ms, &out.counts, &layer);
    let overhead = (out.traced_headline_ms - out.headline_ms) / out.headline_ms;
    println!(
        "tracing overhead for {}: traced {:.3} ms vs untraced {:.3} ms ({:+.2}%)",
        args.workload,
        out.traced_headline_ms,
        out.headline_ms,
        100.0 * overhead
    );
    layer.push(metric("bench.tracing_overhead_share", "share", overhead));
    layer.push(metric("bench.residual_share", "share", residual));
    layer.push(metric("process.cpu_s", "s", report::cpu_seconds()));

    let spans = trace::spans();
    let path = args
        .out
        .join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
    match trace::write_jsonl(&path, &spans) {
        Ok(()) => eprintln!("wrote {} spans to {}", spans.len(), path.display()),
        Err(e) => eprintln!("cannot write spans to {}: {e}", path.display()),
    }
    println!(
        "{:<36} {:>10} {:>14} {:>14}",
        "span", "calls", "self p50 us", "self total ms"
    );
    for (name, ns) in trace::self_times(&spans) {
        println!(
            "{name:<36} {:>10} {:>14.3} {:>14.3}",
            ns.len(),
            report::median(&ns) / 1e3,
            ns.iter().sum::<f64>() / 1e6
        );
    }

    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = layer
                .iter()
                .find(|m| m.name == name)
                .map_or(0.0, |m| m.value);
            metric(name, unit, value)
        })
        .collect()
}
