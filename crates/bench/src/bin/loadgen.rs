//! loadgen: open-loop load generator for the serving stack.
//!
//! Replays one synthesized trace — Poisson arrivals, Zipf-popular prompt
//! groups, mixed per-request deadlines, all from a seeded RNG — against a
//! single-shard [`InferenceService`] and a sharded one built with
//! identical *per-shard* knobs, and reports completion latencies
//! (p50/p99/p999), shed/deadline counts, and goodput-under-SLO for each.
//! `bench_out/loadgen.txt` records the full run.
//!
//! The interesting number is the goodput ratio on one machine: the shards
//! win not by CPU parallelism but by **aggregate prefix-cache capacity**.
//! The trace draws prompts Zipf-fashion from more groups than one
//! service's trie holds, so the single shard keeps evicting and
//! re-prefilling warm prompts; the router's prefix affinity splits the
//! groups across shards, every shard's working set fits its own trie, and
//! nearly all prompt work after warmup is trie hits.
//!
//! Methodology: a closed-loop probe (warm, then timed) on a throwaway
//! single-shard service measures steady-state per-request latency. The
//! SLO is set to a multiple of that, and the open-loop offered rate to a
//! multiple of the probe's throughput — above what one shard can carry,
//! below what the sharded service can. Submission never blocks: the
//! services run the reject policy, so overload surfaces as shed
//! responses (admission control), not as generator back-pressure.
//!
//! Flags: `--requests N`, `--groups G`, `--prompt-len L`, `--shards K`,
//! `--transport inproc|tcp` (tcp drives the sharded service through the
//! frame-protocol front-end). `LMPEEL_BENCH_SMOKE=1` shrinks everything
//! to a seconds-long sanity pass and skips the golden artifact.

use lmpeel_bench::cli::{arg_flag, str_flag};
use lmpeel_bench::runs::{out_dir, write_golden};
use lmpeel_lm::LanguageModel;
use lmpeel_bench::wireload::WireSwarm;
use lmpeel_serve::frontend::{Frontend, WireRequest, WireResponse, WireResult, SHED_QUEUE_FULL};
use lmpeel_serve::prelude::*;
use lmpeel_transformer::InductionTransformer;
use rand::{RngCore, RngExt, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::fmt::Write as _;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Everything about the run that is decided up front (so both services
/// replay byte-identical traces).
struct Params {
    requests: usize,
    groups: usize,
    prompt_len: usize,
    gen_tokens: usize,
    zipf_s: f64,
    trace_seed: u64,
    shards: usize,
    /// Per-service (single) / per-shard (sharded) knobs.
    trie_capacity: usize,
    single_queue: usize,
    single_batch: usize,
    shard_queue: usize,
    shard_batch: usize,
    /// Closed-loop calibration lengths.
    warm_events: usize,
    probe_events: usize,
    /// SLO = `slo_margin` x (queue + batch) x probe mean latency: the
    /// queue is sized so an admitted request that waits out the whole
    /// bounded queue still meets the SLO — admission control (shedding)
    /// is what enforces it, not per-request luck.
    slo_margin: f64,
    /// Offered rate = `rate_mult` x probe throughput.
    rate_mult: f64,
}

impl Params {
    fn new(smoke: bool) -> Self {
        // Smoke shrinks every axis so CI finishes in seconds; the full run
        // is sized so percentiles (p999) are meaningful. Either way each
        // service fields 64 in-flight requests (queue + batch) and the
        // sharded side gets the same *per-shard* knobs, so its aggregate
        // capacity scales with the shard count by construction.
        let (requests, groups, prompt_len, gen_tokens, shards, trie) = if smoke {
            (120, 16, 512, 2, 2, 4)
        } else {
            (1200, 64, 2048, 2, 4, 20)
        };
        let shards = arg_flag("--shards", shards);
        let requests = arg_flag("--requests", requests);
        Self {
            requests,
            groups: arg_flag("--groups", groups),
            prompt_len: arg_flag("--prompt-len", prompt_len),
            gen_tokens: arg_flag("--gen-tokens", gen_tokens),
            zipf_s: 1.0,
            trace_seed: arg_flag("--seed", 42) as u64,
            shards,
            trie_capacity: arg_flag("--trie", trie),
            // Both services admit 64 concurrent requests up front: one
            // 56-deep queue + 8 decode lanes on the single service, and
            // the same 56-slot admission budget split 14 per shard on
            // the sharded service (each shard keeps the full 8 decode
            // lanes — batching is per-replica by design).
            single_queue: arg_flag("--queue", 56),
            single_batch: arg_flag("--batch", 8),
            shard_queue: arg_flag("--queue", 56) / shards.max(1),
            shard_batch: arg_flag("--batch", 8),
            // Clamped so the calibration phase always fits the trace.
            warm_events: (if smoke { 24 } else { 96 }).min(requests / 2),
            probe_events: (if smoke { 16 } else { 64 }).min(requests / 2),
            slo_margin: arg_flag("--slo-margin-tenths", 12) as f64 / 10.0,
            rate_mult: arg_flag("--rate-mult-tenths", 45) as f64 / 10.0,
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum DeadlineClass {
    /// Wall deadline at the SLO: a miss is also a service-side kill.
    Tight,
    /// Wall deadline at 4x the SLO.
    Loose,
    /// No deadline; only the client-side SLO judges it.
    Unbounded,
}

/// One synthesized arrival.
struct Event {
    at: Duration,
    group: usize,
    seed: u64,
    class: DeadlineClass,
}

/// Zipf(s) inverse-CDF table over `groups` ranks.
fn zipf_cdf(groups: usize, s: f64) -> Vec<f64> {
    let weights: Vec<f64> = (0..groups).map(|k| 1.0 / ((k + 1) as f64).powf(s)).collect();
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    weights
        .iter()
        .map(|w| {
            acc += w / total;
            acc
        })
        .collect()
}

fn sample_zipf(cdf: &[f64], rng: &mut ChaCha8Rng) -> usize {
    let u: f64 = rng.random();
    cdf.iter().position(|&c| u <= c).unwrap_or(cdf.len() - 1)
}

/// Exponential inter-arrival for a Poisson process at `rate` req/s.
fn exp_interval(rate: f64, rng: &mut ChaCha8Rng) -> Duration {
    let u: f64 = rng.random();
    Duration::from_secs_f64((-(1.0 - u).ln()) / rate)
}

/// The full seeded trace. Group popularity is Zipf (rank = group id),
/// arrivals Poisson, deadline classes round-robin through the mix.
fn synth_trace(p: &Params, rate: f64) -> Vec<Event> {
    let mut rng = ChaCha8Rng::seed_from_u64(p.trace_seed);
    let cdf = zipf_cdf(p.groups, p.zipf_s);
    let mut at = Duration::ZERO;
    (0..p.requests)
        .map(|i| {
            at += exp_interval(rate, &mut rng);
            Event {
                at,
                group: sample_zipf(&cdf, &mut rng),
                seed: rng.next_u64(),
                class: match i % 3 {
                    0 => DeadlineClass::Tight,
                    1 => DeadlineClass::Loose,
                    _ => DeadlineClass::Unbounded,
                },
            }
        })
        .collect()
}

/// Group prompts: each group's id sits in the first line so prompts
/// diverge inside the router's prefix window, then example lines pad to
/// `prompt_len` tokens — the ICL-grid shape, one distinct family per
/// group.
fn group_prompts(model: &dyn LanguageModel, p: &Params) -> Vec<Vec<u32>> {
    (0..p.groups)
        .map(|g| {
            let text = format!(
                "Task {g}: tune the kernel\n{}",
                "Hyperparameter configuration: outer tile is 16, inner tile is 32\n\
                 Performance: 0.0023117\n"
                    .repeat(p.prompt_len / 16 + 1)
            );
            let mut ids = model.tokenizer().encode(&text);
            ids.truncate(p.prompt_len);
            ids
        })
        .collect()
}

fn build_request(p: &Params, prompts: &[Vec<u32>], ev: &Event, slo: Duration) -> GenerateRequest {
    let mut b = GenerateRequest::builder("default", prompts[ev.group].clone())
        .max_tokens(p.gen_tokens)
        .trace_min_prob(1.0)
        .seed(ev.seed);
    b = match ev.class {
        DeadlineClass::Tight => b.wall_deadline(slo),
        DeadlineClass::Loose => b.wall_deadline(slo * 4),
        DeadlineClass::Unbounded => b,
    };
    b.build().expect("loadgen spec is valid")
}

/// Closed-loop calibration on `service`: replay `warm` events to steady
/// state, then time `probe` more; returns the mean per-request latency.
fn probe_mean_latency(
    service: &InferenceService,
    p: &Params,
    prompts: &[Vec<u32>],
    trace: &[Event],
) -> Duration {
    let slo = Duration::from_secs(3600); // deadlines can't fire during calibration
    for ev in &trace[..p.warm_events] {
        service
            .generate(build_request(p, prompts, ev, slo))
            .expect("calibration decode");
    }
    let timed = &trace[p.warm_events..p.warm_events + p.probe_events];
    let start = Instant::now();
    for ev in timed {
        service
            .generate(build_request(p, prompts, ev, slo))
            .expect("calibration decode");
    }
    start.elapsed() / p.probe_events as u32
}

/// Bring a service to cache steady state before measurement: decode one
/// request per group, least-popular first, so each trie's LRU ends up
/// holding the most popular groups it has room for. The single service
/// retains its top `trie_capacity` groups; every shard of the sharded
/// service retains its whole (router-assigned) share — the aggregate-
/// capacity asymmetry under measurement.
fn warm_service(service: &InferenceService, p: &Params, prompts: &[Vec<u32>]) {
    let slo = Duration::from_secs(3600);
    for g in (0..p.groups).rev() {
        let ev = Event {
            at: Duration::ZERO,
            group: g,
            seed: g as u64,
            class: DeadlineClass::Unbounded,
        };
        service
            .generate(build_request(p, prompts, &ev, slo))
            .expect("warmup decode");
    }
}

/// Replay outcome for one service.
#[derive(Default)]
struct Outcome {
    ok_latencies_ms: Vec<f64>,
    shed: u64,
    deadline: u64,
    failed: u64,
    elapsed: Duration,
}

impl Outcome {
    fn goodput(&self, slo: Duration) -> f64 {
        let slo_ms = slo.as_secs_f64() * 1e3;
        let good = self.ok_latencies_ms.iter().filter(|&&l| l <= slo_ms).count();
        good as f64 / self.elapsed.as_secs_f64()
    }

    fn percentile(&self, q: f64) -> f64 {
        let mut sorted = self.ok_latencies_ms.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
        if sorted.is_empty() {
            return f64::NAN;
        }
        let idx = (q * (sorted.len() - 1) as f64).round() as usize;
        sorted[idx]
    }

    fn report_line(&self, label: &str, slo: Duration) -> String {
        format!(
            "{label}: ok={} shed={} deadline={} failed={} p50={:.1}ms p99={:.1}ms \
             p999={:.1}ms goodput={:.1}/s",
            self.ok_latencies_ms.len(),
            self.shed,
            self.deadline,
            self.failed,
            self.percentile(0.50),
            self.percentile(0.99),
            self.percentile(0.999),
            self.goodput(slo)
        )
    }
}

/// Open-loop in-process replay: submit each event at its arrival time
/// (never blocking on results), collect completions on a second thread.
/// Latency is measured arrival-to-completion, so queueing counts.
fn replay_inproc(
    service: &InferenceService,
    p: &Params,
    prompts: &[Vec<u32>],
    trace: &[Event],
    slo: Duration,
) -> Outcome {
    let (tx, rx) = mpsc::channel::<(Instant, ResponseHandle)>();
    let collector = std::thread::spawn(move || {
        let mut pending: Vec<(Instant, ResponseHandle)> = Vec::new();
        let mut out = Outcome::default();
        let mut open = true;
        while open || !pending.is_empty() {
            let msg = if pending.is_empty() {
                rx.recv().map_err(|_| mpsc::RecvTimeoutError::Disconnected)
            } else {
                rx.recv_timeout(Duration::from_micros(500))
            };
            match msg {
                Ok(item) => pending.push(item),
                Err(mpsc::RecvTimeoutError::Timeout) => {}
                Err(mpsc::RecvTimeoutError::Disconnected) => open = false,
            }
            let mut i = 0;
            while i < pending.len() {
                match pending[i].1.try_wait() {
                    Some(result) => {
                        let (arrived, _) = pending.swap_remove(i);
                        let ms = arrived.elapsed().as_secs_f64() * 1e3;
                        match result {
                            Ok(_) => out.ok_latencies_ms.push(ms),
                            Err(RequestError::DeadlineExceeded) => out.deadline += 1,
                            Err(RequestError::QueueFull) => out.shed += 1,
                            Err(_) => out.failed += 1,
                        }
                    }
                    None => i += 1,
                }
            }
        }
        out
    });

    let start = Instant::now();
    let mut shed_at_submit = 0u64;
    let mut failed_at_submit = 0u64;
    for ev in trace {
        let due = start + ev.at;
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        match service.submit(build_request(p, prompts, ev, slo)) {
            Ok(handle) => {
                tx.send((Instant::now(), handle)).expect("collector alive");
            }
            Err(RequestError::QueueFull) => shed_at_submit += 1,
            Err(_) => failed_at_submit += 1,
        }
    }
    drop(tx);
    let mut out = collector.join().expect("collector thread");
    out.shed += shed_at_submit;
    out.failed += failed_at_submit;
    out.elapsed = start.elapsed();
    out
}

/// Open-loop replay through the TCP front-end over `connections`
/// nonblocking client connections (requests dealt round-robin), all
/// multiplexed from this one thread by a [`WireSwarm`] — pumping reads
/// between paced sends, so pacing never starves the read side into the
/// front-end's slow-reader defense. Every submitted frame gets exactly
/// one response (sheds included), so the replay runs until it has seen
/// them all.
fn replay_tcp(
    frontend_addr: std::net::SocketAddr,
    p: &Params,
    prompts: &[Vec<u32>],
    trace: &[Event],
    slo: Duration,
    connections: usize,
) -> Outcome {
    let mut swarm =
        WireSwarm::connect(frontend_addr, connections.max(1)).expect("connect loadgen swarm");
    let n = trace.len();
    let arrivals: Vec<Duration> = trace.iter().map(|ev| ev.at).collect();
    let mut out = Outcome::default();
    let mut frames: Vec<(usize, Vec<u8>)> = Vec::new();
    let mut received = 0usize;
    let start = Instant::now();
    let account = |frames: &mut Vec<(usize, Vec<u8>)>, out: &mut Outcome, received: &mut usize| {
        for (_, body) in frames.drain(..) {
            if lmpeel_serve::frontend::is_goaway(&body) {
                continue;
            }
            let Ok(resp) = WireResponse::decode(&body) else {
                out.failed += 1;
                *received += 1;
                continue;
            };
            let scheduled = start + arrivals[resp.id as usize];
            let ms = Instant::now()
                .saturating_duration_since(scheduled)
                .as_secs_f64()
                * 1e3;
            match resp.body {
                WireResult::Ok { .. } => out.ok_latencies_ms.push(ms),
                WireResult::Err { code, .. } if code == SHED_QUEUE_FULL => out.shed += 1,
                WireResult::Err { code, .. } if code == lmpeel_serve::frontend::CODE_DEADLINE => {
                    out.deadline += 1;
                }
                WireResult::Err { .. } => out.failed += 1,
            }
            *received += 1;
        }
    };

    for (i, ev) in trace.iter().enumerate() {
        // Pump the swarm while waiting out the pacing gap.
        loop {
            let due = start + ev.at;
            if Instant::now() >= due {
                break;
            }
            if !swarm.pump(&mut frames) {
                std::thread::sleep(Duration::from_micros(200));
            }
            account(&mut frames, &mut out, &mut received);
        }
        let mut wire = WireRequest::new(
            i as u64,
            "default",
            prompts[ev.group].clone(),
            p.gen_tokens as u32,
        );
        wire.seed = ev.seed;
        wire.wall_ms = match ev.class {
            DeadlineClass::Tight => Some(slo.as_millis() as u64),
            DeadlineClass::Loose => Some((slo * 4).as_millis() as u64),
            DeadlineClass::Unbounded => None,
        };
        swarm.queue(i % swarm.len(), &wire.encode());
    }
    // Drain: every request frame is answered exactly once, unless its
    // connection died under it.
    while received < n && swarm.open_count() > 0 {
        if !swarm.pump(&mut frames) {
            std::thread::sleep(Duration::from_micros(200));
        }
        account(&mut frames, &mut out, &mut received);
    }
    out.failed += (n - received) as u64;
    out.elapsed = start.elapsed();
    swarm.shutdown();
    out
}

fn build_single(p: &Params) -> InferenceService {
    InferenceService::builder()
        .model("default", Arc::new(InductionTransformer::paper()))
        .queue_capacity(p.single_queue)
        .max_batch(p.single_batch)
        .prefix_cache_capacity(p.trie_capacity)
        .backpressure(BackpressurePolicy::Reject)
        .build()
}

fn build_sharded(p: &Params) -> InferenceService {
    InferenceService::builder()
        .shards(p.shards)
        // One transformer replica per shard: each shard owns its
        // attention-weight memo instead of sharing one table.
        .model_factory("default", |_shard| Arc::new(InductionTransformer::paper()))
        .queue_capacity(p.shard_queue)
        .max_batch(p.shard_batch)
        .prefix_cache_capacity(p.trie_capacity)
        .backpressure(BackpressurePolicy::Reject)
        .build()
}

fn main() {
    let smoke = std::env::var_os("LMPEEL_BENCH_SMOKE").is_some_and(|v| v != "0");
    let transport = str_flag("--transport", "inproc");
    let p = Params::new(smoke);
    let model = InductionTransformer::paper();
    let prompts = group_prompts(&model, &p);

    // Calibrate on a throwaway single-shard service, then discard it so
    // both measured services start cold.
    let rng_free_rate = 1.0; // placeholder rate: calibration ignores arrival times
    let cal_trace = synth_trace(&p, rng_free_rate);
    let probe_service = build_single(&p);
    let probe_mean = probe_mean_latency(&probe_service, &p, &prompts, &cal_trace);
    drop(probe_service);
    // An admitted request may wait out the entire bounded queue; the SLO
    // covers that (x margin), so shedding — not queueing — is the only
    // way load is refused. Ratios below compare *within-SLO* completions.
    let in_flight = (p.single_queue + p.single_batch) as f64;
    let slo = Duration::from_secs_f64(probe_mean.as_secs_f64() * in_flight * p.slo_margin);
    let rate = p.rate_mult / probe_mean.as_secs_f64();
    eprintln!(
        "calibration: probe mean {:.1}ms -> SLO {:.1}ms, offered {:.1} req/s",
        probe_mean.as_secs_f64() * 1e3,
        slo.as_secs_f64() * 1e3,
        rate
    );

    let trace = synth_trace(&p, rate);

    let single = build_single(&p);
    warm_service(&single, &p, &prompts);
    let single_out = replay_inproc(&single, &p, &prompts, &trace, slo);
    drop(single);

    let sharded = build_sharded(&p);
    warm_service(&sharded, &p, &prompts);
    let sharded_out = match transport.as_str() {
        "tcp" => {
            let connections = arg_flag("--connections", 1);
            let service = Arc::new(sharded);
            let frontend =
                Frontend::bind(Arc::clone(&service), "127.0.0.1:0").expect("bind frontend");
            let out = replay_tcp(
                frontend.local_addr(),
                &p,
                &prompts,
                &trace,
                slo,
                connections,
            );
            let fe_stats = frontend.shutdown();
            eprintln!(
                "frontend: {} responses over {} connections, {} shed, mean served \
                 latency {:.1}ms, wire p50<={}us p99<={}us",
                fe_stats.responses,
                connections,
                fe_stats.shed,
                fe_stats.latency_micros as f64 / 1e3 / fe_stats.responses.max(1) as f64,
                fe_stats.latency.percentile_upper_micros(0.50),
                fe_stats.latency.percentile_upper_micros(0.99),
            );
            out
        }
        _ => {
            let out = replay_inproc(&sharded, &p, &prompts, &trace, slo);
            let per_shard: Vec<String> = sharded
                .shard_stats()
                .iter()
                .map(|s| format!("{}", s.submitted))
                .collect();
            eprintln!("shard balance (submitted): [{}]", per_shard.join(", "));
            drop(sharded);
            out
        }
    };

    let ratio = sharded_out.goodput(slo) / single_out.goodput(slo).max(f64::MIN_POSITIVE);
    let mut report = String::new();
    writeln!(
        report,
        "loadgen: open-loop Poisson/Zipf replay, transformer substrate, transport={transport}"
    )
    .unwrap();
    writeln!(
        report,
        "trace: requests={} groups={} zipf_s={:.2} prompt_len={} gen_tokens={} seed={}",
        p.requests, p.groups, p.zipf_s, p.prompt_len, p.gen_tokens, p.trace_seed
    )
    .unwrap();
    writeln!(
        report,
        "knobs: trie_capacity={} (per service/shard), single q={}/b={}, \
         {} shards q={}/b={} each",
        p.trie_capacity, p.single_queue, p.single_batch, p.shards, p.shard_queue, p.shard_batch
    )
    .unwrap();
    writeln!(
        report,
        "offered: {rate:.1} req/s ({:.1}x single-shard closed-loop capacity), SLO {:.1}ms",
        p.rate_mult,
        slo.as_secs_f64() * 1e3
    )
    .unwrap();
    writeln!(report, "{}", single_out.report_line("single-shard ", slo)).unwrap();
    writeln!(
        report,
        "{}",
        sharded_out.report_line(&format!("sharded x{:<2}  ", p.shards), slo)
    )
    .unwrap();
    writeln!(report, "goodput ratio: {ratio:.2}x (target >= 3x)").unwrap();
    print!("{report}");

    if !smoke {
        let path = out_dir().join("loadgen.txt");
        if write_golden(&path, report.as_bytes()) {
            eprintln!("wrote {}", path.display());
        }
        if ratio < 3.0 {
            eprintln!("goodput ratio {ratio:.2}x is below the 3x bar");
            std::process::exit(1);
        }
    }
}
