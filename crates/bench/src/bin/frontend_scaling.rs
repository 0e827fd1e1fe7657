//! frontend_scaling: connection-scaling curve for the TCP front-end.
//!
//! The event-driven front-end claims its thread budget is independent of
//! connection count: `1 acceptor + loops` threads whether 16 or 1024
//! clients are connected. This binary measures that claim as a curve —
//! the same uniformly-paced open-loop load (fixed total offered rate)
//! replayed over 16, 64, 256 and 1024 connections from one [`WireSwarm`]
//! thread — and records goodput-under-SLO, wire-histogram p50/p99 and
//! the front-end's thread count per point in
//! `bench_out/frontend_scaling.txt`.
//!
//! Bars (enforced in the full run): every point serves from at most 8
//! front-end threads; goodput at 1024 connections stays within 10% of
//! the 64-connection point (connection count must not bend the curve);
//! and a final drain leg — shutdown issued with a full complement of
//! requests in flight — loses zero completions: every submitted request
//! is answered (result or shutdown code) before the front-end exits.
//!
//! The substrate is the cheap induction LM so the front-end, not the
//! model, is the measured object. `LMPEEL_BENCH_SMOKE=1` shrinks the
//! sweep to a seconds-long sanity pass and skips the golden artifact.

use lmpeel_bench::cli::arg_flag;
use lmpeel_bench::runs::{out_dir, write_golden};
use lmpeel_bench::wireload::WireSwarm;
use lmpeel_lm::{InductionLm, LanguageModel};
use lmpeel_serve::frontend::{is_goaway, Frontend, WireRequest, WireResponse, WireResult};
use lmpeel_serve::prelude::*;
use std::fmt::Write as _;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Outcome of one sweep point.
struct Point {
    conns: usize,
    threads: usize,
    ok: u64,
    shed: u64,
    lost: u64,
    goodput: f64,
    wire_p50_us: u64,
    wire_p99_us: u64,
}

fn bind_frontend(service: &Arc<InferenceService>) -> Frontend {
    // A 1ms tick: on the bench box (often a single core) the per-tick
    // poll sweep over 1024 idle sockets has to leave CPU for decoding;
    // deadline knobs are in ticks, so semantics are unchanged.
    Frontend::builder()
        .loops(4)
        .tick_interval(Duration::from_millis(1))
        .drain_linger_ticks(256)
        .bind(Arc::clone(service), "127.0.0.1:0")
        .expect("bind front-end")
}

fn request(id: u64, prompt: &[u32]) -> Vec<u8> {
    let mut wire = WireRequest::new(id, "default", prompt.to_vec(), 2);
    wire.seed = id;
    wire.encode()
}

/// Closed-loop calibration over one connection: mean request latency at
/// steady state, which sizes the offered rate and the SLO.
fn probe_mean(addr: SocketAddr, prompt: &[u32], events: usize) -> Duration {
    let mut swarm = WireSwarm::connect(addr, 1).expect("probe connection");
    let mut frames = Vec::new();
    let mut done = 0usize;
    // One warmup fill of the prefix cache before timing.
    swarm.queue(0, &request(u64::MAX, prompt));
    while frames.is_empty() {
        swarm.pump(&mut frames);
    }
    frames.clear();
    let start = Instant::now();
    for i in 0..events {
        swarm.queue(0, &request(i as u64, prompt));
        while frames.is_empty() {
            if !swarm.pump(&mut frames) {
                std::thread::sleep(Duration::from_micros(50));
            }
        }
        frames.clear();
        done += 1;
    }
    swarm.shutdown();
    start.elapsed() / done.max(1) as u32
}

/// One sweep point: `total` requests paced at `rate` req/s over `conns`
/// connections (dealt round-robin), all pumped from this thread.
fn run_point(
    service: &Arc<InferenceService>,
    prompt: &[u32],
    conns: usize,
    total: usize,
    rate: f64,
    slo: Duration,
) -> Point {
    let frontend = bind_frontend(service);
    let mut swarm = WireSwarm::connect(frontend.local_addr(), conns).expect("swarm connect");
    let mut frames: Vec<(usize, Vec<u8>)> = Vec::new();
    let mut ok = 0u64;
    let mut shed = 0u64;
    let mut received = 0usize;
    let slo_ms = slo.as_secs_f64() * 1e3;
    let start = Instant::now();
    let account = |frames: &mut Vec<(usize, Vec<u8>)>, ok: &mut u64, shed: &mut u64, received: &mut usize| {
        for (_, body) in frames.drain(..) {
            if is_goaway(&body) {
                continue;
            }
            let Ok(resp) = WireResponse::decode(&body) else {
                *received += 1;
                continue;
            };
            let scheduled =
                start + Duration::from_secs_f64(resp.id as f64 / rate);
            let ms = Instant::now()
                .saturating_duration_since(scheduled)
                .as_secs_f64()
                * 1e3;
            match resp.body {
                WireResult::Ok { .. } if ms <= slo_ms => *ok += 1,
                WireResult::Ok { .. } => {}
                WireResult::Err { .. } if resp.is_shed() => *shed += 1,
                WireResult::Err { .. } => {}
            }
            *received += 1;
        }
    };

    for i in 0..total {
        let due = start + Duration::from_secs_f64(i as f64 / rate);
        loop {
            if Instant::now() >= due {
                break;
            }
            if !swarm.pump(&mut frames) {
                std::thread::sleep(Duration::from_micros(100));
            }
            account(&mut frames, &mut ok, &mut shed, &mut received);
        }
        swarm.queue(i % conns, &request(i as u64, prompt));
    }
    let drain_deadline = Instant::now() + slo * 4 + Duration::from_secs(5);
    while received < total && swarm.open_count() > 0 && Instant::now() < drain_deadline {
        if !swarm.pump(&mut frames) {
            std::thread::sleep(Duration::from_micros(100));
        }
        account(&mut frames, &mut ok, &mut shed, &mut received);
    }
    let elapsed = start.elapsed();
    let threads = frontend.thread_count();
    swarm.shutdown();
    let stats = frontend.shutdown();
    Point {
        conns,
        threads,
        ok,
        shed,
        lost: (total - received) as u64,
        goodput: ok as f64 / elapsed.as_secs_f64(),
        wire_p50_us: stats.latency.percentile_upper_micros(0.50),
        wire_p99_us: stats.latency.percentile_upper_micros(0.99),
    }
}

/// The drain leg: one request in flight on each of `conns` connections,
/// then `shutdown()` races the deliveries. Returns (delivered, lost,
/// connections that saw GOAWAY).
fn run_drain(
    service: &Arc<InferenceService>,
    prompt: &[u32],
    conns: usize,
) -> (usize, usize, usize) {
    let frontend = bind_frontend(service);
    let mut swarm = WireSwarm::connect(frontend.local_addr(), conns).expect("drain swarm");
    for i in 0..conns {
        swarm.queue(i, &request(i as u64, prompt));
    }
    // Push every request frame at least into the kernel before the
    // GOAWAY goes out, so the drain has a full complement in flight.
    let mut frames: Vec<(usize, Vec<u8>)> = Vec::new();
    while swarm.backlog() > 0 {
        swarm.pump(&mut frames);
    }
    let closer = std::thread::spawn(move || frontend.shutdown());
    let mut delivered = 0usize;
    let mut goaway_conns = std::collections::BTreeSet::new();
    let deadline = Instant::now() + Duration::from_secs(30);
    while delivered < conns && swarm.open_count() > 0 && Instant::now() < deadline {
        if !swarm.pump(&mut frames) {
            std::thread::sleep(Duration::from_micros(100));
        }
        for (conn, body) in frames.drain(..) {
            if is_goaway(&body) {
                goaway_conns.insert(conn);
            } else {
                delivered += 1;
            }
        }
    }
    let stats = closer.join().expect("shutdown thread");
    assert!(
        stats.responses >= conns as u64,
        "front-end answered {} of {} drain requests",
        stats.responses,
        conns
    );
    swarm.shutdown();
    (delivered, conns - delivered, goaway_conns.len())
}

fn main() {
    let smoke = std::env::var_os("LMPEEL_BENCH_SMOKE").is_some_and(|v| v != "0");
    let model = Arc::new(InductionLm::paper(0));
    let prompt = model
        .tokenizer()
        .encode("Hyperparameter configuration: outer_loop_tiling_factor is 80\nPerformance: ");
    let service = Arc::new(
        InferenceService::builder()
            .model("default", model.clone())
            .queue_capacity(256)
            .max_batch(8)
            .backpressure(BackpressurePolicy::Reject)
            .build(),
    );

    let (sweep, probe_events, seconds_per_point, drain_conns): (Vec<usize>, usize, f64, usize) =
        if smoke {
            (vec![4, 8], 16, 0.5, 16)
        } else {
            (vec![16, 64, 256, 1024], 64, 3.0, 64)
        };
    let drain_conns = arg_flag("--drain-conns", drain_conns);

    // Calibrate: offered rate at half the closed-loop capacity (the
    // curve should be flat because the load is front-end-bound, not
    // saturating), SLO generous enough that only pathology misses it.
    let cal = bind_frontend(&service);
    let mean = probe_mean(cal.local_addr(), &prompt, probe_events);
    cal.shutdown();
    // 0.35x capacity: enough headroom that the per-tick poll sweep at
    // 1024 connections cannot push the service into a queueing regime,
    // so the curve isolates front-end overhead.
    let rate = 0.35 / mean.as_secs_f64();
    let slo = Duration::from_secs_f64(mean.as_secs_f64() * 200.0).max(Duration::from_millis(500));
    let total = ((rate * seconds_per_point) as usize).max(sweep.iter().copied().max().unwrap_or(1));
    eprintln!(
        "calibration: closed-loop mean {:.2}ms -> offered {rate:.1} req/s, SLO {:.1}ms, \
         {total} requests per point",
        mean.as_secs_f64() * 1e3,
        slo.as_secs_f64() * 1e3
    );

    let points: Vec<Point> = sweep
        .iter()
        .map(|&conns| {
            let pt = run_point(&service, &prompt, conns, total, rate, slo);
            eprintln!(
                "conns={:<5} threads={} ok={} shed={} lost={} goodput={:.1}/s",
                pt.conns, pt.threads, pt.ok, pt.shed, pt.lost, pt.goodput
            );
            pt
        })
        .collect();

    let (delivered, lost, goaway_conns) = run_drain(&service, &prompt, drain_conns);

    let mut report = String::new();
    writeln!(
        report,
        "frontend_scaling: connection-scaling sweep through the TCP front-end, \
         induction substrate"
    )
    .unwrap();
    writeln!(
        report,
        "offered: {rate:.1} req/s total (0.35x closed-loop capacity), SLO {:.1}ms, \
         {total} requests per point",
        slo.as_secs_f64() * 1e3
    )
    .unwrap();
    for pt in &points {
        writeln!(
            report,
            "conns={:<5} threads={} ok={:<5} shed={:<3} lost={:<3} goodput={:.1}/s \
             p50<={}us p99<={}us",
            pt.conns,
            pt.threads,
            pt.ok,
            pt.shed,
            pt.lost,
            pt.goodput,
            pt.wire_p50_us,
            pt.wire_p99_us
        )
        .unwrap();
    }
    let reference = points.iter().find(|p| p.conns == 64).or(points.first());
    let widest = points.last();
    if let (Some(base), Some(wide)) = (reference, widest) {
        writeln!(
            report,
            "scaling: goodput({} conns) = {:.1}/s vs goodput({} conns) = {:.1}/s \
             ({:+.1}%, bar: within 10%)",
            wide.conns,
            wide.goodput,
            base.conns,
            base.goodput,
            (wide.goodput / base.goodput - 1.0) * 100.0
        )
        .unwrap();
    }
    writeln!(
        report,
        "drain: conns={drain_conns} submitted={drain_conns} delivered={delivered} \
         lost={lost} (goaway seen on {goaway_conns} conns)"
    )
    .unwrap();
    print!("{report}");

    if !smoke {
        let path = out_dir().join("frontend_scaling.txt");
        if write_golden(&path, report.as_bytes()) {
            eprintln!("wrote {}", path.display());
        }
        let mut failed = false;
        for pt in &points {
            if pt.threads > 8 {
                eprintln!("conns={}: {} front-end threads exceeds the 8-thread bar", pt.conns, pt.threads);
                failed = true;
            }
            if pt.lost > 0 {
                eprintln!("conns={}: {} requests went unanswered", pt.conns, pt.lost);
                failed = true;
            }
        }
        if let (Some(base), Some(wide)) = (reference, widest) {
            let drift = (wide.goodput / base.goodput - 1.0).abs();
            if drift > 0.10 {
                eprintln!(
                    "goodput at {} conns drifted {:.1}% from the {}-conn point (bar: 10%)",
                    wide.conns,
                    drift * 100.0,
                    base.conns
                );
                failed = true;
            }
        }
        if lost > 0 {
            eprintln!("drain leg lost {lost} completions (bar: 0)");
            failed = true;
        }
        if failed {
            std::process::exit(1);
        }
    }
}
