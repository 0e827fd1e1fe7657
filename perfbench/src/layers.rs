//! The traced run's layer probes and the attribution table.
//!
//! Each probe times repeated calls into one layer's public functions, each
//! call inside its own span, and reports the median. Shapes follow the
//! workloads: grid-length prompts for the induction model, 2048-token
//! prompts for the transformer, the unembedding shape for the tensor
//! kernels and the tune service's shapes for GBDT.

use crate::report::{median, metric, Metric};
use crate::trace;
use lmpeel_configspace::{syr2k_space, ArraySize, Syr2kConfig};
use lmpeel_core::autotune::Tuner;
use lmpeel_core::journal::size_ordinal;
use lmpeel_core::ExperimentPlan;
use lmpeel_core::{extract_value, PromptBuilder};
use lmpeel_gbdt::{Gbdt, GbdtParams};
use lmpeel_kernel::{measure, MeasureSpec, Syr2kProblem};
use lmpeel_lm::{
    generate, generate_session, BatchDriver, DecodeSession, GenerateSpec, InductionLm,
    LanguageModel,
};
use lmpeel_perfdata::{CostModel, MachineModel, PerfDataset};
use lmpeel_serve::frontend::WireRequest;
use lmpeel_serve::prelude::*;
use lmpeel_serve::FrameAssembler;
use lmpeel_tensor::Tensor2;
use lmpeel_transformer::InductionTransformer;
use lmpeel_tune::{machine_fingerprint, ServiceLlmSearch, TuneCache, TuneEntry, KERNEL_SYR2K};
use rand::{RngExt, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Median nanoseconds of `reps` calls of `f`, each in a span named `name`.
fn probe<R>(name: &'static str, reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let ns: Vec<f64> = (0..reps)
        .map(|i| {
            trace::timed(name, i as u64, || {
                let t0 = Instant::now();
                black_box(f());
                t0.elapsed().as_nanos() as f64
            })
        })
        .collect();
    median(&ns)
}

/// One decode step (append, then next-token logits) on each of 50 forks
/// of `base`, so every step runs at the prompt's length.
fn step_probe(name: &'static str, base: &dyn DecodeSession, token: u32) -> f64 {
    let mut forks: Vec<Box<dyn DecodeSession>> = (0..50).map(|_| base.fork()).collect();
    let mut next = forks.iter_mut();
    probe(name, 50, || {
        let s = next.next().expect("one fork per step");
        s.append(token);
        s.logits()
    })
}

/// A discriminative prompt with `n` random SM examples.
fn icl_prompt(
    builder: &PromptBuilder,
    ds: &PerfDataset,
    n: usize,
    rng: &mut ChaCha8Rng,
) -> lmpeel_core::Prompt {
    let (examples, query) = crate::serve::random_examples(builder.space(), ds, n, rng);
    builder.discriminative(&examples, &query)
}

/// Per-layer medians, plus the share of probe generations that yield a
/// value (`core.value_share` for workloads whose outputs carry none).
pub fn probe_all(scratch: &Path, seed: u64) -> Vec<Metric> {
    let mut m = Vec::new();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let space = syr2k_space();
    let ds = PerfDataset::generate(&CostModel::paper(), ArraySize::SM);
    let builder = PromptBuilder::new(space.clone(), ArraySize::SM);

    // tokenizer and core: tune-shaped prompts (8 examples).
    let lm = Arc::new(InductionLm::paper(0));
    let tok = lm.tokenizer().clone();
    let prompt8 = icl_prompt(&builder, &ds, 8, &mut rng);
    let text = prompt8.render();
    let ktok = tok.encode(&text).len() as f64 / 1000.0;
    let ns = probe("tokenizer.encode", 50, || tok.encode(&text));
    m.push(metric(
        "tokenizer.encode_us_per_ktok",
        "us",
        ns / 1e3 / ktok,
    ));
    let (examples, query) = crate::serve::random_examples(&space, &ds, 8, &mut rng);
    let ns = probe("core.prompt_build", 50, || {
        builder.discriminative(&examples, &query).to_tokens(&tok)
    });
    m.push(metric("core.prompt_build_us", "us", ns / 1e3));

    // lm: the induction surrogate. Prefill over one prompt per grid ICL
    // count (its cost per token grows with length); the other probes at a
    // 20-example prompt.
    let grid_prompts: Vec<Vec<u32>> = [1, 2, 5, 10, 20, 50, 100]
        .iter()
        .map(|&n| icl_prompt(&builder, &ds, n, &mut rng).to_tokens(&tok))
        .collect();
    let grid_tokens: usize = grid_prompts.iter().map(Vec::len).sum();
    let ns = probe("lm.induction.prefill", 3, || {
        grid_prompts
            .iter()
            .map(|ids| {
                let mut s = Arc::clone(&lm).session();
                s.extend(ids);
                s.len()
            })
            .sum::<usize>()
    });
    m.push(metric(
        "lm.induction.prefill_us_per_tok",
        "us",
        ns / 1e3 / grid_tokens as f64,
    ));
    let mut base = Arc::clone(&lm).session();
    base.extend(&grid_prompts[4]);
    let ns = probe("lm.induction.fork", 50, || base.fork());
    m.push(metric("lm.induction.fork_us", "us", ns / 1e3));
    let digit = tok.encode("5")[0];
    let ns = step_probe("lm.induction.step", &*base, digit);
    m.push(metric("lm.induction.step_us", "us", ns / 1e3));
    // The generation loop's whole step: logits, sampling with the grid's
    // trace recording, append.
    let plan = ExperimentPlan::paper();
    let spec = |sd: u64| {
        GenerateSpec::builder()
            .max_tokens(plan.max_tokens)
            .trace_min_prob(plan.trace_min_prob)
            .seed(sd)
            .build()
            .expect("valid probe spec")
    };
    let mut sd = 0;
    let mut per_token = Vec::new();
    for _ in 0..5 {
        sd += 1;
        let t = trace::timed("lm.decode", sd, || {
            let t0 = Instant::now();
            let trace = generate_session(&mut *base.fork(), &spec(sd)).expect("probe decode");
            (
                t0.elapsed().as_nanos() as f64,
                trace.steps.len().max(1) as f64,
            )
        });
        per_token.push(t.0 / t.1);
    }
    m.push(metric("lm.decode_step_us", "us", median(&per_token) / 1e3));

    // core: extraction over induction generations of grid prompts.
    let responses: Vec<String> = (0..8u64)
        .map(|sd| {
            let ids = icl_prompt(&builder, &ds, 10, &mut rng).to_tokens(&tok);
            generate(&lm, &ids, &GenerateSpec::paper(sd))
                .map(|t| t.decode(&tok))
                .unwrap_or_default()
        })
        .collect();
    let mut k = 0;
    let ns = probe("core.extract", 200, || {
        k += 1;
        extract_value(&responses[k % responses.len()])
    });
    m.push(metric("core.extract_us", "us", ns / 1e3));
    let valued = responses
        .iter()
        .filter(|r| extract_value(r).is_some())
        .count();
    m.push(metric(
        "core.value_share",
        "share",
        valued as f64 / responses.len() as f64,
    ));

    // transformer: a fresh model fills its position memo on its first
    // 2048-token prefill; later prefills are warm.
    let model = Arc::new(InductionTransformer::paper());
    let long = crate::serve::family_prompt(&builder, &ds, &model, 0, seed);
    let ns = probe("transformer.memo_fill", 1, || {
        let mut s = Arc::clone(&model).session();
        s.extend(&long);
        s
    });
    m.push(metric("transformer.memo_fill_ms", "ms", ns / 1e6));
    let ns = probe("transformer.prefill", 5, || {
        let mut s = Arc::clone(&model).session();
        s.extend(&long);
        s
    });
    m.push(metric(
        "transformer.prefill_us_per_tok",
        "us",
        ns / 1e3 / long.len() as f64,
    ));
    let mut base = Arc::clone(&model).session();
    base.extend(&long);
    let ns = probe("transformer.fork", 50, || base.fork());
    m.push(metric("transformer.fork_us", "us", ns / 1e3));
    let ns = step_probe("transformer.step", &*base, digit);
    m.push(metric("transformer.step_us", "us", ns / 1e3));
    for (width, name, span) in [
        (
            8usize,
            "transformer.batch_step_us_w8",
            "transformer.batch_step_w8",
        ),
        (
            16,
            "transformer.batch_step_us_w16",
            "transformer.batch_step_w16",
        ),
    ] {
        let lanes: Vec<Box<dyn DecodeSession>> = (0..width)
            .map(|i| {
                let mut f = base.fork();
                f.append(digit + i as u32 % 4);
                f
            })
            .collect();
        let refs: Vec<&dyn DecodeSession> = lanes.iter().map(|l| &**l).collect();
        let mut out = vec![Vec::new(); width];
        let ns = probe(span, 20, || model.logits_batch(&refs, &mut out));
        m.push(metric(name, "us", ns / 1e3 / width as f64));
    }

    // tensor: the unembedding shape (vocab x signature width).
    let (rows, cols) = (tok.vocab().len(), model.config().d_sig);
    let w = Tensor2::from_fn(rows, cols, |_, _| rng.random::<f32>() - 0.5);
    let x: Vec<f32> = (0..cols).map(|_| rng.random::<f32>() - 0.5).collect();
    let block = Tensor2::from_fn(cols, 8, |_, _| rng.random::<f32>() - 0.5);
    let ns = probe("tensor.matvec", 200, || w.matvec(&x));
    m.push(metric("tensor.matvec_us", "us", ns / 1e3));
    let ns = probe("tensor.matmul_blocked_w8", 100, || w.matmul_blocked(&block));
    m.push(metric("tensor.matmul_blocked_us_w8", "us", ns / 1e3));

    // serve: router, wire codec, and scheduler overhead on an idle service.
    let router = ShardRouter::new(2, lmpeel_serve::DEFAULT_PREFIX_WINDOW);
    let ns = probe("serve.shard.route", 20, || {
        (0..1000)
            .map(|_| router.route(black_box(&long)))
            .sum::<usize>()
    });
    m.push(metric("serve.shard.route_ns", "ns", ns / 1000.0));
    let wire = WireRequest::new(1, "default", long.to_vec(), 2);
    let ns = probe("serve.frontend.encode", 100, || wire.encode());
    m.push(metric("serve.frontend.encode_us", "us", ns / 1e3));
    let body = wire.encode();
    let mut frame = (body.len() as u32).to_le_bytes().to_vec();
    frame.extend_from_slice(&body);
    let ns = probe("serve.frontend.feed", 100, || {
        let mut out = Vec::new();
        FrameAssembler::new().feed(&frame, &mut out).map(|_| out)
    });
    m.push(metric("serve.frontend.feed_us", "us", ns / 1e3));
    let service = InferenceService::builder()
        .model("default", model.clone())
        .build();
    let request = |sd: u64| {
        GenerateRequest::builder("default", long.to_vec())
            .max_tokens(2)
            .trace_min_prob(1.0)
            .seed(sd)
            .build()
            .expect("valid probe request")
    };
    let _ = service.generate(request(0));
    let mut sd = 0;
    let ns = probe("serve.scheduler.hit", 30, || {
        sd += 1;
        service.generate(request(sd))
    });
    let _ = service.shutdown();
    let solo = m
        .iter()
        .filter(|x| x.name == "transformer.fork_us")
        .map(|x| x.value)
        .sum::<f64>()
        + 2.0
            * m.iter()
                .filter(|x| x.name == "transformer.step_us")
                .map(|x| x.value)
                .sum::<f64>();
    m.push(metric("serve.scheduler.overhead_us", "us", ns / 1e3 - solo));

    // perfdata, gbdt, tune, kernel, recover: one tune miss's stages.
    let ns = probe("perfdata.generate", 5, || {
        PerfDataset::generate(&CostModel::paper(), ArraySize::SM)
    });
    m.push(metric("perfdata.generate_ms", "ms", ns / 1e6));
    let cfgs = space.sample_distinct(24, &mut rng);
    let xs: Vec<Vec<f64>> = cfgs.iter().map(|c| space.featurize(c)).collect();
    let ys: Vec<f64> = cfgs.iter().map(|c| ds.runtime_of(c)).collect();
    let params = GbdtParams {
        n_estimators: 120,
        learning_rate: 0.1,
        ..Default::default()
    };
    let ns = probe("gbdt.fit", 10, || Gbdt::fit(&xs, &ys, params, seed));
    m.push(metric("gbdt.fit_ms", "ms", ns / 1e6));
    let fitted = Gbdt::fit(&xs, &ys, params, seed);
    let mut k = 0;
    let ns = probe("gbdt.predict", 1000, || {
        k += 1;
        fitted.predict_row(&xs[k % xs.len()])
    });
    m.push(metric("gbdt.predict_us", "us", ns / 1e3));
    let search = ServiceLlmSearch {
        model: Arc::new(InductionLm::paper(0)),
        init_random: 4,
        pool: 4,
        max_icl: 8,
    };
    let mut sd = seed;
    let ns = probe("tune.llm_search", 3, || {
        sd += 1;
        search.run_dataset(&ds, 40, sd)
    });
    m.push(metric("tune.llm_search_ms", "ms", ns / 1e6));
    let (mm, nn) = ArraySize::SM.dims();
    let problem = Syr2kProblem::new(mm, nn);
    let cfg = Syr2kConfig::from_config(&space, &space.config_at(1382));
    let spec = MeasureSpec::new(1, 3).expect("nonzero repeats");
    let ns = probe("kernel.validate", 3, || {
        let reference = problem.run_reference();
        let (_, result) = measure(spec, || problem.run_configured(cfg));
        reference.max_abs_diff(&result)
    });
    m.push(metric("kernel.validate_ms", "ms", ns / 1e6));
    let entry = |sd: u64| TuneEntry {
        kernel: KERNEL_SYR2K.into(),
        size_ord: size_ordinal(ArraySize::SM),
        hw_fingerprint: machine_fingerprint(&MachineModel::default()),
        budget: 40,
        seed: sd,
        strategy: "gbdt".into(),
        config_index: 1382,
        surrogate_runtime: 5.48e-4,
        validated: true,
    };
    let mut ns = Vec::new();
    for i in 0..5u64 {
        let path = scratch.join(format!("commit-{}-{i}.bin", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let (mut cache, _) = TuneCache::open(&path).expect("open a scratch tune cache");
        ns.push(trace::timed("recover.commit", i, || {
            let t0 = Instant::now();
            cache.commit(&entry(i)).expect("commit");
            cache.publish().expect("publish");
            t0.elapsed().as_nanos() as f64
        }));
        drop(cache);
        let _ = std::fs::remove_file(&path);
    }
    m.push(metric("recover.commit_ms", "ms", median(&ns) / 1e6));
    m
}

/// Milliseconds per unit of a per-layer metric.
fn unit_ms(name: &str) -> f64 {
    if name.ends_with("_ns") {
        1e-6
    } else if name.ends_with("_ms") {
        1.0
    } else {
        // `_us` and `_us_per_tok`
        1e-3
    }
}

/// Print the attribution table and return the residual share:
/// (measured - attributed) / measured.
pub fn attribute(
    workload: &str,
    headline_ms: f64,
    counts: &[(&'static str, f64)],
    layer: &[Metric],
) -> f64 {
    println!("attribution for {workload}: one operation = {headline_ms:.3} ms measured");
    println!(
        "{:<36} {:>12} {:>14} {:>12} {:>8}",
        "layer metric", "median", "per op", "ms", "share"
    );
    let mut total = 0.0;
    for &(name, count) in counts {
        let value = layer
            .iter()
            .find(|m| m.name == name)
            .map_or(f64::NAN, |m| m.value);
        let ms = value * count * unit_ms(name);
        total += ms;
        println!(
            "{name:<36} {value:>12.4} {count:>14.1} {ms:>12.3} {:>7.1}%",
            100.0 * ms / headline_ms
        );
    }
    let residual = (headline_ms - total) / headline_ms;
    println!(
        "{:<36} {:>12} {:>14} {:>12.3} {:>7.1}%",
        "attributed",
        "",
        "",
        total,
        100.0 * total / headline_ms
    );
    println!(
        "{:<36} {:>12} {:>14} {:>12.3} {:>7.1}%",
        "residual",
        "",
        "",
        headline_ms - total,
        100.0 * residual
    );
    residual
}
