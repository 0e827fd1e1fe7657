//! `serve_prefix`: open-loop traffic into the sharded service.
//!
//! The server is the sharded service sized to a 2-core host: 2 scheduler
//! shards sharing one transformer. One generator thread submits through
//! `LmService::submit` and polls the response handles. Poisson arrivals
//! come at two fixed rates: *nominal* (under a third of the capacity
//! measured at the seed commit), where latency is reported, then
//! *overload* (over twice that capacity), where goodput is reported.
//! Latency runs from each request's scheduled send time, so a stalled
//! generator or server delays every later request's clock too. Prompts are
//! Zipf(1.0)-popular families of 2048-token ICL prompts; each request
//! generates 2 tokens.
//!
//! The TCP front-end is left out of the request path: it leaves Nagle's
//! algorithm on, and the resulting acknowledgement waits made nominal p50
//! and p75 swing by a quarter from run to run (see `perfbench/README.md`).

use crate::report::{median, metric, quantile, Outcome};
use crate::{trace, Args};
use lmpeel_configspace::{syr2k_space, ArraySize, Config};
use lmpeel_core::PromptBuilder;
use lmpeel_lm::{generate_session, GenerateSpec, LanguageModel};
use lmpeel_perfdata::{CostModel, PerfDataset};
use lmpeel_recover::splitmix64;
use lmpeel_serve::prelude::*;
use lmpeel_serve::TrieStats;
use lmpeel_tokenizer::TokenId;
use lmpeel_transformer::InductionTransformer;
use rand::{RngCore, RngExt, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;
use std::time::{Duration, Instant};

const SHARDS: usize = 2;
const QUEUE_PER_SHARD: usize = 16;
const MAX_BATCH: usize = 16;
const TRIE_PER_SHARD: usize = 16;

/// Rates and the latency limit, frozen from the capacity sweep recorded in
/// `perfbench/README.md`; never calibrated per run.
const NOMINAL_RPS: f64 = 100.0;
const OVERLOAD_RPS: f64 = 1600.0;
/// A response later than this (from its scheduled send) misses goodput;
/// it is also each request's wall deadline at the server. It sits well
/// above a full queue's wait, so goodput measures sustained throughput.
const LIMIT_MS: u64 = 500;
const GEN_TOKENS: usize = 2;
/// Shares of the run's seconds spent in each phase.
const NOMINAL_SHARE: f64 = 0.5;
const OVERLOAD_SHARE: f64 = 0.4;
/// The nominal phase holds at least this many requests, so ten lie beyond
/// its p99.
const MIN_NOMINAL: usize = 1000;
/// How long the generator waits for stragglers after a phase's last send.
const DRAIN_LIMIT: Duration = Duration::from_secs(30);

/// Families of 2048-token ICL prompts, Zipf(1.0) popular; with 16 trie
/// slots per shard the trie misses on about one request in ten.
const FAMILIES: usize = 44;
/// ICL examples per family prompt: enough to pass 2048 tokens.
const FAMILY_EXAMPLES: usize = 48;
const PROMPT_LEN: usize = 2048;

/// The requests of one workload: a prompt table and, per request, which
/// prompt and which sampling seed.
struct Inputs {
    prompts: Vec<Arc<Vec<TokenId>>>,
    /// Requests that bring the server to steady state during set-up.
    warmup: Vec<(usize, u64)>,
}

/// One scheduled request.
#[derive(Clone, Copy)]
struct Job {
    at: Duration,
    prompt: usize,
    seed: u64,
}

fn zipf_pick(cdf: &[f64], rng: &mut ChaCha8Rng) -> usize {
    let u: f64 = rng.random();
    cdf.iter().position(|&c| u <= c).unwrap_or(cdf.len() - 1)
}

/// `n` SM examples with their dataset runtimes, and a query, all distinct
/// random configurations.
pub(crate) fn random_examples(
    space: &lmpeel_configspace::ConfigSpace,
    ds: &PerfDataset,
    n: usize,
    rng: &mut ChaCha8Rng,
) -> (Vec<(Config, f64)>, Config) {
    let mut cfgs = space.sample_distinct(n + 1, rng);
    let query = cfgs.pop().expect("n + 1 configs sampled");
    let examples = cfgs
        .into_iter()
        .map(|c| {
            let r = ds.runtime_of(&c);
            (c, r)
        })
        .collect();
    (examples, query)
}

/// Family `f`'s prompt: a session line of its own, so families part inside
/// the router's 64-token window, then a discriminative ICL prompt over
/// seeded random examples, truncated to 2048 tokens. The session line does
/// not depend on the seed, so every seed splits the families across the
/// shards the same way.
pub(crate) fn family_prompt(
    builder: &PromptBuilder,
    ds: &PerfDataset,
    model: &InductionTransformer,
    f: usize,
    seed: u64,
) -> Arc<Vec<TokenId>> {
    let mut rng = ChaCha8Rng::seed_from_u64(splitmix64(seed ^ splitmix64(f as u64)));
    let (examples, query) = random_examples(builder.space(), ds, FAMILY_EXAMPLES, &mut rng);
    let text = format!(
        "Tuning session {f}\n{}",
        builder.discriminative(&examples, &query).render()
    );
    let mut ids = model.tokenizer().encode(&text);
    assert!(ids.len() >= PROMPT_LEN, "family prompt too short");
    ids.truncate(PROMPT_LEN);
    Arc::new(ids)
}

fn inputs(model: &InductionTransformer, seed: u64) -> Inputs {
    let ds = PerfDataset::generate(&CostModel::paper(), ArraySize::SM);
    let builder = PromptBuilder::new(syr2k_space(), ArraySize::SM);
    let prompts = (0..FAMILIES)
        .map(|f| family_prompt(&builder, &ds, model, f, seed))
        .collect();
    // Least popular first, so each shard's LRU ends up holding the most
    // popular families it has room for.
    let warmup = (0..FAMILIES).rev().map(|f| (f, f as u64)).collect();
    Inputs { prompts, warmup }
}

fn start_service(model: Arc<InductionTransformer>) -> ShardedService {
    ShardedService::builder()
        .shards(SHARDS)
        .model("default", model)
        .queue_capacity(QUEUE_PER_SHARD)
        .max_batch(MAX_BATCH)
        .prefix_cache_capacity(TRIE_PER_SHARD)
        .backpressure(BackpressurePolicy::Reject)
        .build()
}

fn stop_service(service: ShardedService) {
    if let Err(e) = service.shutdown() {
        eprintln!("service shutdown: scheduler panicked: {}", e.reason);
    }
}

/// How long the generator sleeps between polls of its pending handles: the
/// precision of its send times and response stamps.
const POLL: Duration = Duration::from_micros(200);

fn request(prompt: &[TokenId], seed: u64) -> GenerateRequestBuilder {
    GenerateRequest::builder("default", prompt.to_vec())
        .max_tokens(GEN_TOKENS)
        .trace_min_prob(1.0)
        .seed(seed)
}

/// Closed-loop requests, one at a time and without a deadline (warm-up:
/// the first one fills the position memo).
fn closed_loop(service: &ShardedService, inputs: &Inputs) {
    for &(prompt, seed) in &inputs.warmup {
        let req = request(&inputs.prompts[prompt], seed).build();
        service
            .generate(req.expect("warm-up request is valid"))
            .expect("warm-up request");
    }
}

/// What came back for one request.
#[derive(Clone)]
enum Answer {
    Lost,
    Ok { tokens: Vec<TokenId>, ms: f64 },
    Shed,
    Deadline,
    Error(String),
}

struct Phase {
    jobs: Vec<Job>,
    answers: Vec<Answer>,
    /// Actual minus scheduled send time, milliseconds.
    lag_ms: Vec<f64>,
    /// Scheduled length of the phase.
    seconds: f64,
    /// From the phase's start to its last answer.
    wall: f64,
    /// Prefix-cache counters over the phase.
    trie: TrieStats,
}

impl Phase {
    fn ok_latencies(&self) -> Vec<f64> {
        self.answers
            .iter()
            .filter_map(|a| match a {
                Answer::Ok { ms, .. } => Some(*ms),
                _ => None,
            })
            .collect()
    }

    fn count(&self, f: impl Fn(&Answer) -> bool) -> usize {
        self.answers.iter().filter(|a| f(a)).count()
    }
}

/// Poisson arrivals at `rate` for `seconds` (at least `min_jobs`).
fn schedule(
    rng: &mut ChaCha8Rng,
    rate: f64,
    seconds: f64,
    min_jobs: usize,
    mut pick: impl FnMut(&mut ChaCha8Rng) -> usize,
) -> Vec<Job> {
    let mut at = 0.0;
    let mut jobs = Vec::new();
    loop {
        let u: f64 = rng.random();
        at += -(1.0 - u).ln() / rate;
        if at > seconds && jobs.len() >= min_jobs {
            return jobs;
        }
        let prompt = pick(rng);
        jobs.push(Job {
            at: Duration::from_secs_f64(at),
            prompt,
            seed: rng.next_u64(),
        });
    }
}

/// Submit every job at its scheduled time and collect the answers.
fn run_phase(
    service: &ShardedService,
    inputs: &Inputs,
    jobs: Vec<Job>,
    label: &'static str,
) -> Phase {
    let before = service.stats().prefix;
    let mut answers = vec![Answer::Lost; jobs.len()];
    let mut lag_ms = Vec::with_capacity(jobs.len());
    let mut pending: Vec<(usize, ResponseHandle)> = Vec::new();
    let start = Instant::now();
    let settle =
        |j: usize, result: Result<GenerateResponse, RequestError>, answers: &mut [Answer]| {
            let now = Instant::now();
            let due = start + jobs[j].at;
            trace::record(label, j as u64, due, now);
            answers[j] = match result {
                Ok(r) => Answer::Ok {
                    tokens: r.trace.generated_ids(),
                    ms: now.saturating_duration_since(due).as_secs_f64() * 1e3,
                },
                Err(RequestError::QueueFull) => Answer::Shed,
                Err(RequestError::DeadlineExceeded) => Answer::Deadline,
                Err(e) => Answer::Error(e.to_string()),
            };
        };
    let poll = |pending: &mut Vec<(usize, ResponseHandle)>, answers: &mut [Answer]| {
        let mut i = 0;
        while i < pending.len() {
            match pending[i].1.try_wait() {
                Some(result) => {
                    let (j, _) = pending.swap_remove(i);
                    settle(j, result, answers);
                }
                None => i += 1,
            }
        }
    };
    for (j, job) in jobs.iter().enumerate() {
        // Build while waiting, so the submit itself is only a queue push.
        let req = request(&inputs.prompts[job.prompt], job.seed)
            .wall_deadline(Duration::from_millis(LIMIT_MS))
            .build()
            .expect("benchmark request is valid");
        let due = start + job.at;
        loop {
            let now = Instant::now();
            if now >= due {
                break;
            }
            std::thread::sleep((due - now).min(POLL));
            poll(&mut pending, &mut answers);
        }
        lag_ms.push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
        match service.submit(req) {
            Ok(handle) => pending.push((j, handle)),
            Err(e) => settle(j, Err(e), &mut answers),
        }
        poll(&mut pending, &mut answers);
    }
    let sent_all = Instant::now();
    while !pending.is_empty() && sent_all.elapsed() < DRAIN_LIMIT {
        std::thread::sleep(POLL);
        poll(&mut pending, &mut answers);
    }
    let wall = start.elapsed().as_secs_f64();
    let after = service.stats().prefix;
    let seconds = jobs.last().map_or(0.0, |j| j.at.as_secs_f64());
    Phase {
        jobs,
        answers,
        lag_ms,
        seconds,
        wall,
        trie: trie_delta(&after, &before),
    }
}

/// Trie counter difference `a - b`.
fn trie_delta(a: &TrieStats, b: &TrieStats) -> TrieStats {
    TrieStats {
        full_hits: a.full_hits - b.full_hits,
        partial_hits: a.partial_hits - b.partial_hits,
        misses: a.misses - b.misses,
        tokens_reused: a.tokens_reused - b.tokens_reused,
        tokens_prefilled: a.tokens_prefilled - b.tokens_prefilled,
        evictions: a.evictions - b.evictions,
    }
}

/// One OK response to check: (prompt, seed, served tokens, phase, request).
type Work<'a> = (usize, u64, &'a Vec<TokenId>, usize, usize);

/// The reference for every OK response: `lmpeel_lm` generation of the
/// same (prompt, seed, length) outside the service, on two threads. Each
/// family is prefilled once and forked per seed, which `generate_session`
/// defines as identical to `generate` on the whole prompt. Returns each
/// wrong response as (phase, request, description).
fn verify(
    model: &Arc<InductionTransformer>,
    inputs: &Inputs,
    phases: &[&Phase],
) -> Vec<(usize, usize, String)> {
    let mut work: Vec<Work> = Vec::new();
    for (k, ph) in phases.iter().enumerate() {
        for (j, (job, ans)) in ph.jobs.iter().zip(&ph.answers).enumerate() {
            if let Answer::Ok { tokens, .. } = ans {
                work.push((job.prompt, job.seed, tokens, k, j));
            }
        }
    }
    work.sort_by_key(|w| (w.0, w.1));
    let spec = |seed: u64| {
        GenerateSpec::builder()
            .max_tokens(GEN_TOKENS)
            .trace_min_prob(1.0)
            .seed(seed)
            .build()
            .expect("reference spec is valid")
    };
    // Split on a family boundary so each family is prefilled once.
    let split = (work.len() / 2..work.len())
        .find(|&i| i == 0 || work[i].0 != work[i - 1].0)
        .unwrap_or(work.len());
    let (a, b) = work.split_at(split);
    let check = |part: &[Work]| -> Vec<(usize, usize, String)> {
        let mut errors = Vec::new();
        for family in part.chunk_by(|x, y| x.0 == y.0) {
            let mut base = Arc::clone(model).session();
            base.extend(&inputs.prompts[family[0].0]);
            for &(prompt, seed, got, k, j) in family {
                match generate_session(&mut *base.fork(), &spec(seed)) {
                    Ok(t) if &t.generated_ids() == got => {}
                    other => errors.push((
                        k,
                        j,
                        format!(
                            "prompt {prompt} seed {seed}: served {got:?}, reference {:?}",
                            other.map(|t| t.generated_ids())
                        ),
                    )),
                }
            }
        }
        errors
    };
    std::thread::scope(|s| {
        let hb = s.spawn(|| check(b));
        let mut errors = check(a);
        errors.extend(hb.join().expect("reference thread"));
        errors
    })
}

/// Build the inputs, start the server and bring it to steady state: the
/// set-up a serving process pays before its first request, including the
/// transformer's lazily filled position memo and a warm trie.
fn setup(seed: u64) -> (Arc<InductionTransformer>, Inputs, ShardedService) {
    let model = Arc::new(InductionTransformer::paper());
    let inputs = inputs(&model, seed);
    let service = start_service(Arc::clone(&model));
    closed_loop(&service, &inputs);
    (model, inputs, service)
}

/// Poisson arrivals at `rate` for `seconds` (at least `min_jobs`), each
/// for a Zipf(1.0)-popular family.
fn zipf_schedule(rng: &mut ChaCha8Rng, rate: f64, seconds: f64, min_jobs: usize) -> Vec<Job> {
    let weights: Vec<f64> = (0..FAMILIES).map(|k| 1.0 / (k + 1) as f64).collect();
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    let cdf: Vec<f64> = weights
        .iter()
        .map(|w| {
            acc += w / total;
            acc
        })
        .collect();
    schedule(rng, rate, seconds, min_jobs, |r| zipf_pick(&cdf, r))
}

fn share(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

pub fn run(args: &Args, process_start: Instant) -> Outcome {
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut state = None;
    for i in 0..3 {
        if let Some((_, _, service)) = state.take() {
            stop_service(service);
        }
        let t0 = if i == 0 {
            process_start
        } else {
            Instant::now()
        };
        state = Some(setup(args.seed));
        setups.push(t0.elapsed().as_secs_f64());
    }
    let (model, inputs, service) = state.expect("at least one set-up");
    let mut rng = ChaCha8Rng::seed_from_u64(splitmix64(args.seed ^ 0x5CED));
    let nominal_jobs = zipf_schedule(
        &mut rng,
        NOMINAL_RPS,
        args.seconds * NOMINAL_SHARE,
        MIN_NOMINAL,
    );
    let overload_jobs = zipf_schedule(&mut rng, OVERLOAD_RPS, args.seconds * OVERLOAD_SHARE, 1);
    let after_warmup = service.stats();

    let nominal = run_phase(&service, &inputs, nominal_jobs.clone(), "serve.nominal");
    // The traced run repeats the nominal phase with tracing on, for the
    // tracing overhead.
    let traced_nominal = args.trace.then(|| {
        trace::enable();
        run_phase(&service, &inputs, nominal_jobs, "serve.nominal")
    });
    let overload = run_phase(&service, &inputs, overload_jobs, "serve.overload");
    let end = service.stats();
    let shard_submitted: Vec<f64> = service
        .shard_stats()
        .iter()
        .map(|s| s.submitted as f64)
        .collect();
    stop_service(service);

    let mut phases = vec![&nominal, &overload];
    phases.extend(traced_nominal.as_ref());
    let errors = verify(&model, &inputs, &phases);
    let wrong = errors.len();
    let wrong_overload: std::collections::BTreeSet<usize> =
        errors.iter().filter(|e| e.0 == 1).map(|e| e.1).collect();
    for (_, _, e) in errors.into_iter().take(5) {
        out.check(false, || e);
    }
    if wrong > 5 {
        out.check(false, || format!("{} more wrong responses", wrong - 5));
    }

    // Failures: wrong outputs, lost responses and unexpected errors. Sheds
    // and deadline kills are admission control refusing work it cannot
    // serve in time; they miss goodput and are reported per phase, but
    // the service did what it promises.
    let lost = |ph: &Phase| ph.count(|a| matches!(a, Answer::Lost | Answer::Error(_)));
    out.attempted = phases.iter().map(|ph| ph.jobs.len() as u64).sum();
    out.failed = (wrong + phases.iter().map(|ph| lost(ph)).sum::<usize>()) as u64;
    let errors: Vec<&str> = phases
        .iter()
        .flat_map(|ph| ph.answers.iter())
        .filter_map(|a| match a {
            Answer::Error(e) => Some(e.as_str()),
            _ => None,
        })
        .take(5)
        .collect();
    out.check(phases.iter().all(|ph| lost(ph) == 0), || {
        format!("responses lost or failed (errors {errors:?})")
    });

    // Goodput: verified responses within the latency limit, per second,
    // counted in one-second windows of scheduled send time; the median
    // window keeps a burst of host noise from moving the figure.
    let limit = LIMIT_MS as f64;
    let mut windows = vec![0.0; overload.seconds.floor().max(1.0) as usize];
    for (j, (job, a)) in overload.jobs.iter().zip(&overload.answers).enumerate() {
        let good =
            matches!(a, Answer::Ok { ms, .. } if *ms <= limit) && !wrong_overload.contains(&j);
        if let Some(w) = windows.get_mut(job.at.as_secs() as usize) {
            *w += f64::from(u8::from(good));
        }
    }
    let goodput = median(&windows);
    eprintln!("serve_prefix: overload goodput per 1 s window {windows:?}");
    let lat = nominal.ok_latencies();
    for ph in &phases {
        eprintln!(
            "serve_prefix: sent {} ok {} shed {} deadline {} failed {} over {:.2}s, \
             p50 {:.2} ms p99 {:.2} ms, gen lag p99 {:.3} ms",
            ph.jobs.len(),
            ph.ok_latencies().len(),
            ph.count(|a| matches!(a, Answer::Shed)),
            ph.count(|a| matches!(a, Answer::Deadline)),
            lost(ph),
            ph.seconds,
            median(&ph.ok_latencies()),
            quantile(&ph.ok_latencies(), 0.99),
            quantile(&ph.lag_ms, 0.99),
        );
    }
    let deciles: Vec<String> = (1..10)
        .map(|d| format!("{:.1}", quantile(&lat, d as f64 / 10.0)))
        .collect();
    eprintln!(
        "serve_prefix: nominal latency deciles (ms) [{}]",
        deciles.join(", ")
    );
    eprintln!("serve_prefix: goodput {goodput:.1}/s within {LIMIT_MS} ms");

    out.e2e = vec![
        metric("setup_s", "s", median(&setups)),
        metric("wall_s", "s", nominal.wall),
        metric("latency_p50_ms", "ms", median(&lat)),
        metric("goodput_rps", "1/s", goodput),
    ];
    out.headline_ms = median(&lat);
    out.traced_headline_ms = traced_nominal
        .as_ref()
        .map_or(f64::NAN, |t| median(&t.ok_latencies()));

    let ns = &nominal.trie;
    let lookups = ns.full_hits + ns.partial_hits + ns.misses;
    let mean = shard_submitted.iter().sum::<f64>() / shard_submitted.len() as f64;
    let max = shard_submitted.iter().cloned().fold(0.0, f64::max);
    let tokens: usize = phases
        .iter()
        .flat_map(|ph| ph.answers.iter())
        .map(|a| match a {
            Answer::Ok { tokens, .. } => tokens.len(),
            _ => 0,
        })
        .sum();
    out.layer = vec![
        metric("lm.tokens_generated", "count", tokens as f64),
        metric(
            "serve.trie.reuse_share",
            "share",
            share(ns.tokens_reused, ns.tokens_reused + ns.tokens_prefilled),
        ),
        metric("serve.trie.miss_share", "share", share(ns.misses, lookups)),
        metric(
            "serve.trie.evictions",
            "count",
            (end.prefix.evictions - after_warmup.prefix.evictions) as f64,
        ),
        metric(
            "serve.shard.imbalance",
            "ratio",
            if mean > 0.0 { max / mean } else { 0.0 },
        ),
        metric(
            "serve.rejected",
            "count",
            (end.rejected - after_warmup.rejected) as f64,
        ),
        metric(
            "serve.deadline_exceeded",
            "count",
            (end.deadline_exceeded - after_warmup.deadline_exceeded) as f64,
        ),
        metric(
            "bench.gen_lag_p99_ms",
            "ms",
            quantile(&nominal.lag_ms, 0.99),
        ),
    ];
    // The median nominal request is a trie hit: it is routed, forks the
    // cached family and decodes 2 tokens.
    out.counts = vec![
        ("serve.shard.route_ns", 1.0),
        ("serve.scheduler.overhead_us", 1.0),
        ("transformer.fork_us", 1.0),
        ("transformer.step_us", GEN_TOKENS as f64),
    ];
    out
}

/// Capacity sweep: one open-loop phase per offered rate, reporting what
/// the server sustained. Run once at the seed commit to freeze the rates.
pub fn sweep(args: &Args, rates: &[f64]) {
    let (_, inputs, service) = setup(args.seed);
    let mut rng = ChaCha8Rng::seed_from_u64(splitmix64(args.seed ^ 0x5CED));
    for &rate in rates {
        let jobs = zipf_schedule(&mut rng, rate, args.seconds, 1);
        let ph = run_phase(&service, &inputs, jobs, "serve.sweep");
        let lat = ph.ok_latencies();
        let good = lat.iter().filter(|&&ms| ms <= LIMIT_MS as f64).count();
        let ns = &ph.trie;
        println!(
            "rate {rate:.0}/s: sent {} ok {} shed {} deadline {} p50 {:.2} ms p99 {:.2} ms \
             goodput {:.1}/s miss_share {:.3} lag_p99 {:.3} ms",
            ph.jobs.len(),
            lat.len(),
            ph.count(|a| matches!(a, Answer::Shed)),
            ph.count(|a| matches!(a, Answer::Deadline)),
            median(&lat),
            quantile(&lat, 0.99),
            good as f64 / ph.seconds,
            share(ns.misses, ns.full_hits + ns.partial_hits + ns.misses),
            quantile(&ph.lag_ms, 0.99),
        );
    }
    stop_service(service);
}
