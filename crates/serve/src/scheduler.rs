//! The continuous-batching scheduler loop.
//!
//! One scheduler thread owns every model, the per-substrate prefix tries,
//! the circuit breakers, the stats ledger and the set of in-flight
//! generations. Its loop:
//!
//! 1. **Admit** — pull requests off the bounded channel until the batch is
//!    full. Blocks when nothing is in flight (idle service burns no CPU),
//!    polls non-blocking otherwise so decoding never stalls on an empty
//!    queue. Admission resolves the model, consults the prefix trie
//!    (fork on hit, fresh session on miss), prefills the remainder, caches
//!    a snapshot for the next request, re-keys if asked, and wraps the
//!    session in a [`GenerationStepper`].
//! 2. **Step** — advance every in-flight stepper by exactly one token.
//!    Cancellation and deadlines are checked first, on the scheduler
//!    thread. Steppers sharing a substrate are grouped by their
//!    [`lmpeel_lm::BatchDriver`] key and each group's logits are computed
//!    in **one fused forward pass per round**
//!    ([`lmpeel_lm::BatchDriver::logits_batch`]) on the scheduler thread;
//!    each lane then consumes its precomputed logits. The lanes that step
//!    alone (no driver, as with every `InductionLm` request, or the only
//!    lane of their driver) **fan out over scoped step threads**: each
//!    thread pulls the next lane from a shared queue until none is left,
//!    and the round joins them all before it moves on. A round uses
//!    `min(step_threads, lanes / 4)` threads, where `step_threads` is the
//!    host's cores divided by the shard count (at least 1), so a round of
//!    fewer than eight single lanes — a tune's 4-lane pools — steps them
//!    in order on the scheduler thread and spawns nothing: one scoped
//!    spawn and join costs about as much as one lane step.
//! 3. **Retire** — after the join, on the scheduler thread and in lane
//!    order, finished (or errored) generations update their substrate's
//!    breaker and the stats, send their result over the per-request
//!    response channel and free their slot.
//!
//! Neither fusion nor fan-out can change any request's bytes. A step
//! touches only its own lane — session, stepper, RNG (keyed by
//! `(spec.seed, prompt_len)` exactly as the sequential loop), retry
//! budget and error — so which thread runs it, and in what order, is
//! invisible; the driver contract pins each fused lane's logits bitwise
//! to its single-lane path; and everything shared (trie, breakers, stats,
//! responses) is touched only on the scheduler thread, in lane order. The
//! only cross-request coupling left is the trie, and forking a cached
//! snapshot then extending it yields the same state as prefilling from
//! scratch (the fork/extend equivalence suites), which the determinism
//! proptests in `tests/` re-verify end to end.
//!
//! # Fault containment and self-healing
//!
//! The scheduler fails requests, never itself. All per-request substrate
//! work — prefill/re-key at admission, each decode step — runs under
//! [`catch_unwind`], so a panicking session retires *that* request with
//! [`RequestError::Panicked`] while every other in-flight generation keeps
//! stepping. A substrate that panics on `quarantine_after` consecutive
//! requests (no successful completion in between) trips a per-substrate
//! **circuit breaker**: the breaker opens and requests naming the
//! substrate are rejected with [`RequestError::SubstrateQuarantined`] for
//! a cooldown measured on the scheduler's logical round clock (no wall
//! time). When the cooldown expires the breaker goes half-open and admits
//! exactly one trial request: success closes the breaker (normal service
//! resumes), another panic re-opens it with an exponentially longer,
//! deterministically jittered cooldown. Transient decode errors can also
//! be absorbed before they surface: each request carries a `retry_budget`
//! of in-place step retries (deterministic — a failed step consumes no
//! RNG state). Cancellation ([`crate::ResponseHandle::cancel`] or a
//! dropped handle) and [`crate::Deadline`]s are checked once per
//! scheduling round, retiring the request and freeing its batch slot
//! without disturbing its neighbours.

use crate::request::{Deadline, GenerateRequest, GenerateResponse, RequestError};
use crate::service::ServeStats;
use crate::trie::{PrefixTrie, TrieStats};
use lmpeel_lm::{DecodeSession, GenerationStepper, LanguageModel, LmError};
use lmpeel_recover::{fnv1a64, splitmix64};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, Sender, TryRecvError};
use std::sync::Arc;
use std::time::Instant;

/// A request plus its response channel and control state, as queued by
/// `submit`.
pub(crate) struct Envelope {
    pub request: GenerateRequest,
    pub responder: Sender<Result<GenerateResponse, RequestError>>,
    /// Set by `ResponseHandle::cancel` / `Drop`; checked at admission and
    /// once per scheduling round.
    pub cancel: Arc<AtomicBool>,
    /// When `submit` accepted the request; wall-clock deadlines are
    /// measured from here so queue time counts.
    pub submitted_at: Instant,
}

pub(crate) struct SchedulerConfig {
    /// Maximum generations decoded concurrently.
    pub max_batch: usize,
    /// Snapshot capacity of each substrate's prefix trie.
    pub trie_capacity: usize,
    /// Consecutive per-substrate panics that trip the circuit breaker.
    pub quarantine_after: u32,
    /// Base breaker cooldown in logical scheduler rounds; doubles on every
    /// failed half-open probe (capped at [`MAX_COOLDOWN`]).
    pub breaker_cooldown: u64,
    /// In-place decode-step retries granted to each request before a
    /// transient `LmError` becomes its terminal error.
    pub retry_budget: u32,
    /// Most threads, the scheduler thread included, a Step phase spreads
    /// its single lanes over: the host's cores divided by the shard
    /// count, at least 1.
    pub step_threads: usize,
}

/// Single lanes each step thread must have before a round fans out. One
/// scoped spawn and join costs 52–65 µs on a 2-core Xeon and one
/// induction lane step ~61 µs, so a thread pays off only when it takes
/// several lanes off the scheduler thread.
const LANES_PER_STEP_THREAD: usize = 4;

/// Apply `step` to every lane across `threads` threads: the caller plus
/// `threads - 1` scoped workers, each pulling the next lane from a shared
/// queue whose lock is held only for `next()`. Which thread steps which
/// lane, and in what order, is unspecified, so `step` must touch nothing
/// but the lane it is given. At `threads <= 1` every lane steps here, in
/// order, and nothing is spawned. A worker the OS refuses to start leaves
/// its lanes to the others.
fn for_each_mut<'a, T, I>(lanes: I, threads: usize, step: impl Fn(&mut T) + Sync)
where
    T: Send + 'a,
    I: Iterator<Item = &'a mut T> + Send,
{
    if threads <= 1 {
        lanes.for_each(step);
        return;
    }
    let lanes = crate::sync::RankedMutex::new("lanes", lanes);
    // The guard dies with this statement, before the lane is stepped.
    let next = || lanes.lock().next();
    let work = || {
        while let Some(lane) = next() {
            step(lane);
        }
    };
    std::thread::scope(|scope| {
        for _ in 1..threads {
            let _ = std::thread::Builder::new()
                .name("lmpeel-step".into())
                .spawn_scoped(scope, work);
        }
        work();
    });
}

/// How a lane advances this round, decided after its precheck.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LaneStep {
    /// Finished, cancelled or past its deadline: no step.
    Idle,
    /// Computes its own logits, on whichever step thread takes it.
    Single,
    /// Fused with the other lanes of this batch-driver key on the
    /// scheduler thread.
    Fused(usize),
}

/// Cap on the exponential cooldown so a long-dead substrate still gets a
/// probe eventually instead of overflowing into never.
const MAX_COOLDOWN: u64 = 1 << 16;

/// Deterministic jitter added to a reopen deadline so substrates sharing a
/// trip round don't probe in lockstep: seeded by the substrate name and
/// the reopen count, bounded by a quarter of the current cooldown (zero
/// for cooldowns below four rounds, keeping short-cooldown schedules
/// exact). No wall clock, no OS entropy.
fn reopen_jitter(substrate: &str, reopens: u64, cooldown: u64) -> u64 {
    splitmix64(fnv1a64(substrate.as_bytes()) ^ reopens) % (cooldown / 4 + 1)
}

/// Circuit-breaker state for one substrate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BreakerState {
    /// Healthy: requests flow, consecutive panics are counted.
    Closed,
    /// Tripped: requests are rejected until the logical round `until`.
    Open {
        /// First round at which a half-open probe may be admitted.
        until: u64,
    },
    /// One trial request is in flight; everything else is rejected until
    /// it settles.
    HalfOpen,
}

/// Per-substrate breaker: trip threshold streak, current cooldown, and
/// how many failed probes have grown it.
struct Breaker {
    state: BreakerState,
    /// Consecutive panics while closed (reset by any success).
    streak: u32,
    /// Current reopen cooldown in logical rounds.
    cooldown: u64,
    /// Failed half-open probes since the last recovery (jitter input and
    /// backoff exponent witness).
    reopens: u64,
}

/// What the breaker says about admitting a request.
enum BreakerDecision {
    /// Admit; `probe == true` marks the single half-open trial request
    /// whose outcome decides the breaker's next state.
    Admit { probe: bool },
    /// Breaker open (or a probe already in flight): reject.
    Reject,
}

/// Stringify a panic payload (the `Box<dyn Any>` from `catch_unwind` or
/// `JoinHandle::join`).
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// One in-flight generation.
struct Inflight {
    stepper: GenerationStepper,
    responder: Sender<Result<GenerateResponse, RequestError>>,
    substrate: String,
    cancel: Arc<AtomicBool>,
    deadline: Deadline,
    submitted_at: Instant,
    /// Decode steps taken since admission (the logical deadline clock).
    steps_taken: u64,
    reused_tokens: usize,
    prefilled_tokens: usize,
    error: Option<RequestError>,
    /// True for the half-open trial request: its outcome routes back into
    /// the substrate's breaker.
    probe: bool,
    /// In-place step retries still available for transient decode errors.
    retries_left: u32,
    /// Retries actually consumed (flows into [`ServeStats::retried`]).
    retries_used: u64,
}

impl Inflight {
    /// Pre-step control checks: retire on cancellation or an expired
    /// deadline. Returns true when the lane still wants a decode step.
    /// Consumes no step budget — `steps_taken` only moves when a step is
    /// actually attempted.
    fn precheck(&mut self) -> bool {
        if self.error.is_some() || self.stepper.is_finished() {
            return false;
        }
        if self.cancel.load(Ordering::SeqCst) {
            self.stepper.abort();
            self.error = Some(RequestError::Cancelled);
            return false;
        }
        if let Some(e) = self.deadline_expired() {
            self.stepper.abort();
            self.error = Some(e);
            return false;
        }
        true
    }

    /// One single-lane decode step: the lane computes its own logits.
    /// Panics from the substrate are caught here and become this
    /// request's terminal error.
    fn step_single(&mut self) {
        self.steps_taken += 1;
        let result = catch_unwind(AssertUnwindSafe(|| self.stepper.step()));
        self.settle_step(result);
    }

    /// One decode step consuming logits a fused batch call already
    /// computed for this lane (bitwise what the lane would have computed
    /// itself, per the [`lmpeel_lm::BatchDriver`] contract).
    fn step_with(&mut self, logits: &[f32]) {
        self.steps_taken += 1;
        let result = catch_unwind(AssertUnwindSafe(|| self.stepper.step_precomputed(logits)));
        self.settle_step(result);
    }

    /// Shared post-step bookkeeping for both step flavours.
    fn settle_step(
        &mut self,
        result: Result<Result<bool, LmError>, Box<dyn std::any::Any + Send>>,
    ) {
        match result {
            Ok(Ok(_)) => {}
            Ok(Err(e)) => {
                // A transient decode error: retry in place while budget
                // remains. The failed step consumed no RNG state, so the
                // retried token is exactly what an error-free run would
                // have sampled.
                if self.retries_left > 0 && self.stepper.retry() {
                    self.retries_left -= 1;
                    self.retries_used += 1;
                } else {
                    self.error = Some(RequestError::Lm(e));
                }
            }
            Err(payload) => {
                self.error = Some(RequestError::Panicked(panic_message(payload.as_ref())));
            }
        }
    }

    fn deadline_expired(&self) -> Option<RequestError> {
        if let Some(max) = self.deadline.max_steps {
            if self.steps_taken >= max {
                return Some(RequestError::DeadlineExceeded);
            }
        }
        if let Some(wall) = self.deadline.wall {
            if self.submitted_at.elapsed() >= wall {
                return Some(RequestError::DeadlineExceeded);
            }
        }
        None
    }

    fn done(&self) -> bool {
        self.error.is_some() || self.stepper.is_finished()
    }

    fn finish(
        self,
    ) -> (
        Sender<Result<GenerateResponse, RequestError>>,
        Result<GenerateResponse, RequestError>,
    ) {
        let result = match self.error {
            Some(e) => Err(e),
            None => Ok(GenerateResponse {
                trace: self.stepper.into_trace(),
                reused_tokens: self.reused_tokens,
                prefilled_tokens: self.prefilled_tokens,
            }),
        };
        (self.responder, result)
    }
}

pub(crate) struct Scheduler {
    rx: Receiver<Envelope>,
    models: HashMap<String, Arc<dyn LanguageModel>>,
    tries: HashMap<String, PrefixTrie>,
    cfg: SchedulerConfig,
    inflight: Vec<Inflight>,
    stats: Arc<crate::sync::RankedMutex<ServeStats>>,
    /// Set by `InferenceService::shutdown`: stop admitting, finish
    /// in-flight work, reject whatever is still queued with `ShutDown`.
    draining: Arc<AtomicBool>,
    /// Per-substrate circuit breakers (created lazily on first panic).
    breakers: HashMap<String, Breaker>,
    /// Logical round clock driving breaker cooldowns: ticks at the top of
    /// every decode round *and* every admission, so a substrate whose
    /// traffic only ever panics at admission (empty in-flight set, no
    /// decode rounds) still sees its cooldown expire.
    round: u64,
    /// True when a trie counter changed since the last publish, so the
    /// summed `prefix` stats block is rebuilt at most once per round and
    /// only when it could differ.
    trie_dirty: bool,
    /// Round-local scratch, hoisted so a steady-state decode round
    /// allocates nothing: how each lane steps this round, the lane
    /// indices of the group being driven, the fused logits buffers (one
    /// vocab-wide `Vec` per lane, reused round over round), and the
    /// retire list.
    step_plan: Vec<LaneStep>,
    group_scratch: Vec<usize>,
    fused_bufs: Vec<Vec<f32>>,
    finished_scratch: Vec<Inflight>,
}

impl Scheduler {
    pub fn new(
        rx: Receiver<Envelope>,
        models: HashMap<String, Arc<dyn LanguageModel>>,
        cfg: SchedulerConfig,
        stats: Arc<crate::sync::RankedMutex<ServeStats>>,
        draining: Arc<AtomicBool>,
    ) -> Self {
        let tries = models
            .keys()
            .map(|name| (name.clone(), PrefixTrie::new(cfg.trie_capacity)))
            .collect();
        Self {
            rx,
            models,
            tries,
            cfg,
            inflight: Vec::new(),
            stats,
            draining,
            breakers: HashMap::new(),
            round: 0,
            trie_dirty: false,
            step_plan: Vec::new(),
            group_scratch: Vec::new(),
            fused_bufs: Vec::new(),
            finished_scratch: Vec::new(),
        }
    }

    /// The scheduler loop; returns when every submit handle is dropped and
    /// the last in-flight generation has retired.
    pub fn run(mut self) {
        let mut disconnected = false;
        loop {
            while !disconnected && self.inflight.len() < self.cfg.max_batch {
                if self.inflight.is_empty() {
                    // Idle: block until work arrives or the service drops.
                    match self.rx.recv() {
                        Ok(env) => self.admit(env),
                        Err(_) => disconnected = true,
                    }
                } else {
                    // Busy: top up the batch without stalling the decode.
                    match self.rx.try_recv() {
                        Ok(env) => self.admit(env),
                        Err(TryRecvError::Empty) => break,
                        Err(TryRecvError::Disconnected) => disconnected = true,
                    }
                }
            }
            // Trie counters only move at admission, and retirement (which
            // sends responses) happens after this point in the round, so
            // one conditional publish per round is enough for stats() to
            // be settled by the time any response lands.
            self.publish_trie_stats();
            if self.inflight.is_empty() {
                if disconnected {
                    return;
                }
                // Everything admitted this round was rejected; go back to
                // blocking on the queue.
                continue;
            }
            self.step_round();
        }
    }

    /// Advance every in-flight generation one token, then retire the
    /// finished ones immediately.
    fn step_round(&mut self) {
        self.round += 1;
        self.step_groups();
        let mut finished = std::mem::take(&mut self.finished_scratch);
        finished.extend(self.inflight.extract_if(.., |w| w.done()));
        for w in finished.drain(..) {
            match &w.error {
                Some(RequestError::Panicked(_)) => self.note_panic(&w.substrate, w.probe),
                None => self.note_success(&w.substrate, w.probe),
                // A probe that neither completed nor panicked (cancelled,
                // deadline, decode error) proved nothing about the
                // substrate; re-probe promptly rather than closing or
                // backing off.
                Some(_) if w.probe => self.note_probe_inconclusive(&w.substrate),
                Some(_) => {}
            }
            let retried = w.retries_used;
            let (responder, result) = w.finish();
            // Settle the counters *before* the response lands: a caller
            // reading stats() right after wait() must see this request.
            {
                let mut stats = self.stats.lock();
                stats.retried += retried;
                stats.count_terminal(&result);
            }
            // A dropped handle just means the caller stopped caring.
            let _ = responder.send(result);
        }
        self.finished_scratch = finished;
    }

    /// The Step phase: precheck every lane, step the single lanes across
    /// the round's step threads, then drive each batch-driver group two
    /// or more wide through a single `logits_batch` forward pass, in
    /// first-seen order, on this thread. Lanes with no driver and
    /// singleton groups are the single lanes. Per-request bytes cannot
    /// differ from stepping every lane alone, in order: sessions are
    /// independent, a step touches only its own lane, the driver contract
    /// pins each fused lane's logits bitwise to its own single-lane
    /// computation, and each lane still consumes its own RNG exactly once
    /// per step.
    fn step_groups(&mut self) {
        let mut plan = std::mem::take(&mut self.step_plan);
        plan.clear();
        plan.extend(self.inflight.iter_mut().map(|w| {
            if !w.precheck() {
                LaneStep::Idle
            } else if let Some(h) = w.stepper.batch_driver() {
                LaneStep::Fused(h.key)
            } else {
                LaneStep::Single
            }
        }));
        // A driver key no other lane shares has nothing to fuse with.
        for slot in 0..plan.len() {
            let Some(&fused @ LaneStep::Fused(_)) = plan.get(slot) else {
                continue;
            };
            if plan.iter().filter(|&&s| s == fused).count() < 2 {
                if let Some(s) = plan.get_mut(slot) {
                    *s = LaneStep::Single;
                }
            }
        }
        let singles = plan.iter().filter(|&&s| s == LaneStep::Single).count();
        for_each_mut(
            self.inflight
                .iter_mut()
                .zip(&plan)
                .filter(|&(_, &s)| s == LaneStep::Single)
                .map(|(w, _)| w),
            self.cfg.step_threads.min(singles / LANES_PER_STEP_THREAD),
            Inflight::step_single,
        );
        let mut group = std::mem::take(&mut self.group_scratch);
        for (slot, &fused) in plan.iter().enumerate() {
            let LaneStep::Fused(_) = fused else {
                continue;
            };
            if plan.iter().take(slot).any(|&s| s == fused) {
                // Driven when its group's first lane came up.
                continue;
            }
            group.clear();
            group.extend(
                plan.iter()
                    .enumerate()
                    .filter(|&(_, &s)| s == fused)
                    .map(|(j, _)| j),
            );
            self.step_group(&group);
        }
        group.clear();
        self.group_scratch = group;
        self.step_plan = plan;
    }

    /// Drive one same-key group through a fused `logits_batch` call, then
    /// feed each lane its precomputed logits. If the fused attempt cannot
    /// run or panics, fall back to stepping every lane singly: the driver
    /// takes the sessions as read-only borrows and an unwound call wrote
    /// nothing into any of them, so the per-lane re-run starts from
    /// untouched state — the one faulted lane re-panics inside its own
    /// `catch_unwind` and becomes exactly one terminal error, while every
    /// healthy lane decodes byte-identically.
    fn step_group(&mut self, group: &[usize]) {
        let mut bufs = std::mem::take(&mut self.fused_bufs);
        if bufs.len() < group.len() {
            bufs.resize_with(group.len(), Vec::new);
        }
        let fused = {
            let lanes: Vec<&dyn DecodeSession> = group
                .iter()
                .filter_map(|&j| self.inflight.get(j))
                .map(|w| w.stepper.session())
                .collect();
            let handle = group
                .first()
                .and_then(|&j| self.inflight.get(j))
                .and_then(|w| w.stepper.batch_driver());
            match (handle, bufs.get_mut(..group.len())) {
                (Some(h), Some(out)) if lanes.len() == group.len() => {
                    catch_unwind(AssertUnwindSafe(|| h.driver.logits_batch(&lanes, out))).is_ok()
                }
                _ => false,
            }
        };
        if fused {
            for (&j, logits) in group.iter().zip(&bufs) {
                if let Some(w) = self.inflight.get_mut(j) {
                    w.step_with(logits);
                }
            }
        } else {
            for &j in group {
                if let Some(w) = self.inflight.get_mut(j) {
                    w.step_single();
                }
            }
        }
        self.fused_bufs = bufs;
    }

    /// Route a panic into the substrate's breaker. While closed, it
    /// lengthens the consecutive streak and trips the breaker open at the
    /// configured threshold; a failed half-open probe re-opens with the
    /// cooldown doubled (`until = round + cooldown·2^reopens + jitter`).
    /// Straggler panics from requests admitted before a trip change
    /// nothing — the breaker already acted.
    fn note_panic(&mut self, substrate: &str, probe: bool) {
        let round = self.round;
        let base = self.cfg.breaker_cooldown;
        let b = self
            .breakers
            .entry(substrate.to_string())
            .or_insert(Breaker {
                state: BreakerState::Closed,
                streak: 0,
                cooldown: base,
                reopens: 0,
            });
        if probe {
            b.cooldown = b.cooldown.saturating_mul(2).min(MAX_COOLDOWN);
            b.reopens += 1;
            b.state = BreakerState::Open {
                until: round + b.cooldown + reopen_jitter(substrate, b.reopens, b.cooldown),
            };
            self.stats.lock().breaker_reopened += 1;
            return;
        }
        if b.state != BreakerState::Closed {
            return;
        }
        b.streak += 1;
        if b.streak >= self.cfg.quarantine_after {
            b.streak = 0;
            b.state = BreakerState::Open {
                until: round + b.cooldown + reopen_jitter(substrate, b.reopens, b.cooldown),
            };
        }
    }

    /// A successful completion proves the substrate can still serve: the
    /// panic streak is no longer consecutive, so reset it. A successful
    /// half-open *probe* additionally closes the breaker and resets the
    /// backoff to the base cooldown. Other errors (decode failures,
    /// cancellations, deadlines) prove nothing either way and leave the
    /// streak alone.
    fn note_success(&mut self, substrate: &str, probe: bool) {
        let base = self.cfg.breaker_cooldown;
        let Some(b) = self.breakers.get_mut(substrate) else {
            // Never panicked: no breaker to maintain.
            return;
        };
        b.streak = 0;
        if probe {
            b.state = BreakerState::Closed;
            b.cooldown = base;
            b.reopens = 0;
            self.stats.lock().breaker_recovered += 1;
        }
    }

    /// The half-open trial retired without a verdict: hold the breaker
    /// open for one more round (no backoff growth) so the very next
    /// request re-probes.
    fn note_probe_inconclusive(&mut self, substrate: &str) {
        let round = self.round;
        if let Some(b) = self.breakers.get_mut(substrate) {
            if b.state == BreakerState::HalfOpen {
                b.state = BreakerState::Open { until: round + 1 };
            }
        }
    }

    /// Consult the substrate's breaker at admission. An open breaker whose
    /// cooldown has expired flips to half-open here and admits the caller
    /// as the probe.
    fn check_breaker(&mut self, substrate: &str) -> BreakerDecision {
        let Some(b) = self.breakers.get_mut(substrate) else {
            return BreakerDecision::Admit { probe: false };
        };
        match b.state {
            BreakerState::Closed => BreakerDecision::Admit { probe: false },
            BreakerState::HalfOpen => BreakerDecision::Reject,
            BreakerState::Open { until } if self.round < until => BreakerDecision::Reject,
            BreakerState::Open { .. } => {
                b.state = BreakerState::HalfOpen;
                BreakerDecision::Admit { probe: true }
            }
        }
    }

    fn reject(
        &mut self,
        responder: Sender<Result<GenerateResponse, RequestError>>,
        e: RequestError,
    ) {
        // The lookup that preceded this rejection may have ticked trie
        // counters; settle them (dirty-gated, so usually free) before the
        // error lands so stats() is consistent the moment wait() returns.
        self.publish_trie_stats();
        let result = Err(e);
        self.stats.lock().count_terminal(&result);
        let _ = responder.send(result);
    }

    fn admit(&mut self, env: Envelope) {
        // Admissions tick the logical clock too (see `round`'s doc).
        self.round += 1;
        let Envelope {
            request,
            responder,
            cancel,
            submitted_at,
        } = env;
        if self.draining.load(Ordering::SeqCst) {
            // Drain mode: whatever is still queued is rejected, not decoded.
            self.reject(responder, RequestError::ShutDown);
            return;
        }
        if cancel.load(Ordering::SeqCst) {
            self.reject(responder, RequestError::Cancelled);
            return;
        }
        if let Some(wall) = request.deadline.wall {
            if submitted_at.elapsed() >= wall {
                self.reject(responder, RequestError::DeadlineExceeded);
                return;
            }
        }
        let substrate = request.substrate.clone();
        let probe = match self.check_breaker(&substrate) {
            BreakerDecision::Reject => {
                self.reject(responder, RequestError::SubstrateQuarantined(substrate));
                return;
            }
            BreakerDecision::Admit { probe } => probe,
        };
        let Some(model) = self.models.get(&substrate) else {
            self.reject(responder, RequestError::UnknownSubstrate(substrate));
            return;
        };
        let model = Arc::clone(model);
        // lint: panic-ok — `tries` is built from `models.keys()` in `new()` and never shrinks, so the model hit above implies a trie entry
        let trie = self.tries.get_mut(&substrate).expect("trie per model");
        self.trie_dirty = true;

        // All substrate code below (fork, extend, rekey) may panic; contain
        // it to this request. AssertUnwindSafe is justified because on
        // panic we abandon the session outright, and the trie's own
        // mutations are ordered so a mid-flight unwind leaves it
        // consistent (counters update after the extend they describe, and
        // the snapshot insert is all-or-nothing).
        let setup = catch_unwind(AssertUnwindSafe(|| {
            let (mut session, reused) = match trie.lookup(&request.prompt) {
                Some((fork, depth)) => (fork, depth),
                None => (model.session(), 0),
            };
            let prefilled = request.prompt.len() - reused;
            session.extend(&request.prompt[reused..]);
            trie.note_prefilled(prefilled as u64);
            if prefilled > 0 {
                // Cache the substrate-keyed state *before* any re-keying so
                // later requests always fork model-default jitter.
                trie.insert(&request.prompt, session.as_ref());
            }
            let rekeyed = match request.model_seed {
                Some(seed) => session.rekey(seed),
                None => true,
            };
            (session, reused, prefilled, rekeyed)
        }));

        match setup {
            Err(payload) => {
                let reason = panic_message(payload.as_ref());
                self.note_panic(&substrate, probe);
                self.reject(responder, RequestError::Panicked(reason));
            }
            Ok((_, _, _, false)) => {
                if probe {
                    self.note_probe_inconclusive(&substrate);
                }
                self.reject(responder, RequestError::RekeyUnsupported(substrate));
            }
            Ok((session, reused_tokens, prefilled_tokens, true)) => {
                match GenerationStepper::new(session, request.spec) {
                    Ok(stepper) => self.inflight.push(Inflight {
                        stepper,
                        responder,
                        substrate,
                        cancel,
                        deadline: request.deadline,
                        submitted_at,
                        steps_taken: 0,
                        reused_tokens,
                        prefilled_tokens,
                        error: None,
                        probe,
                        retries_left: self.cfg.retry_budget,
                        retries_used: 0,
                    }),
                    Err(e) => {
                        if probe {
                            self.note_probe_inconclusive(&substrate);
                        }
                        self.reject(responder, RequestError::Lm(e));
                    }
                }
            }
        }
    }

    /// Copy the per-substrate trie counters into the shared stats block.
    /// Runs once per scheduling round, and only when a counter actually
    /// changed since the last publish; the sum is built outside the lock.
    fn publish_trie_stats(&mut self) {
        if !self.trie_dirty {
            return;
        }
        self.trie_dirty = false;
        let mut prefix = TrieStats::default();
        for trie in self.tries.values() {
            prefix.merge(&trie.stats());
        }
        self.stats.lock().prefix = prefix;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{Fault, FaultyLm};
    use crate::request::GenerateResponse;
    use lmpeel_lm::{
        generate, BatchDriver, BatchDriverRef, GenerateSpec, GenerationStepper, InductionLm,
    };
    use lmpeel_tokenizer::TokenId;
    use proptest::prelude::*;
    use std::sync::atomic::AtomicU32;
    use std::sync::mpsc;

    /// A session wrapper that advertises a shared batch driver so the
    /// scheduler fuses its lanes; the driver's behaviour is injected per
    /// test (detonate, pass through, etc). Optionally panics inside its
    /// own `logits` once the context reaches `panic_at_len` tokens.
    struct RiggedSession {
        inner: Box<dyn DecodeSession>,
        driver: Arc<RiggedDriver>,
        panic_at_len: Option<usize>,
    }

    struct RiggedDriver {
        /// Panic the fused call itself (before any lane logits).
        detonate: bool,
        /// Fused calls attempted (reaching the driver at all).
        fused_calls: AtomicU32,
    }

    impl BatchDriver for RiggedDriver {
        fn logits_batch(&self, lanes: &[&dyn DecodeSession], out: &mut [Vec<f32>]) {
            self.fused_calls.fetch_add(1, Ordering::SeqCst);
            if self.detonate {
                panic!("{} fused bomb", crate::faults::INJECTED_PANIC);
            }
            for (lane, buf) in lanes.iter().zip(out) {
                lane.logits_into(buf);
            }
        }
    }

    impl DecodeSession for RiggedSession {
        fn tokens(&self) -> &[TokenId] {
            self.inner.tokens()
        }
        fn append(&mut self, token: TokenId) {
            self.inner.append(token)
        }
        fn logits(&self) -> Vec<f32> {
            if let Some(n) = self.panic_at_len {
                if self.inner.tokens().len() >= n {
                    panic!("{} lane bomb", crate::faults::INJECTED_PANIC);
                }
            }
            self.inner.logits()
        }
        fn fork(&self) -> Box<dyn DecodeSession> {
            Box::new(RiggedSession {
                inner: self.inner.fork(),
                driver: Arc::clone(&self.driver),
                panic_at_len: self.panic_at_len,
            })
        }
        fn batch_driver(&self) -> Option<BatchDriverRef<'_>> {
            Some(BatchDriverRef {
                key: Arc::as_ptr(&self.driver) as usize,
                driver: &*self.driver,
            })
        }
    }

    struct Harness {
        scheduler: Scheduler,
        receivers: Vec<mpsc::Receiver<Result<GenerateResponse, RequestError>>>,
        _tx: mpsc::Sender<Envelope>,
    }

    /// A scheduler with `lanes` pre-admitted (bypassing the queue so the
    /// test is deterministic: every lane is in flight before any round).
    fn harness(steppers: Vec<GenerationStepper>) -> Harness {
        // The sync queue stays empty; rounds are driven by hand.
        let (tx, rx) = mpsc::channel();
        let mut scheduler = Scheduler::new(
            rx,
            HashMap::new(),
            SchedulerConfig {
                max_batch: 16,
                trie_capacity: 0,
                quarantine_after: 3,
                breaker_cooldown: 8,
                retry_budget: 0,
                step_threads: 1,
            },
            Arc::new(crate::sync::RankedMutex::new(
                "stats",
                ServeStats::default(),
            )),
            Arc::new(AtomicBool::new(false)),
        );
        let mut receivers = Vec::new();
        for stepper in steppers {
            let (rtx, rrx) = mpsc::channel();
            receivers.push(rrx);
            scheduler.inflight.push(Inflight {
                stepper,
                responder: rtx,
                substrate: "rigged".to_string(),
                cancel: Arc::new(AtomicBool::new(false)),
                deadline: Deadline::default(),
                submitted_at: Instant::now(),
                steps_taken: 0,
                reused_tokens: 0,
                prefilled_tokens: 0,
                error: None,
                probe: false,
                retries_left: 0,
                retries_used: 0,
            });
        }
        Harness {
            scheduler,
            receivers,
            _tx: tx,
        }
    }

    fn spec(seed: u64) -> GenerateSpec {
        GenerateSpec::builder()
            .max_tokens(4)
            .seed(seed)
            .build()
            .unwrap()
    }

    fn rigged_steppers(
        model: &Arc<InductionLm>,
        driver: &Arc<RiggedDriver>,
        lanes: usize,
        panic_lane: Option<usize>,
    ) -> (Vec<TokenId>, Vec<GenerationStepper>) {
        let prompt = model
            .tokenizer()
            .encode("Hyperparameter configuration: outer_loop_tiling_factor is 80\nPerformance: ");
        let steppers = (0..lanes)
            .map(|i| {
                let mut session = Box::new(RiggedSession {
                    inner: model.clone().session(),
                    driver: Arc::clone(driver),
                    // The faulted lane blows up on its 2nd decode step.
                    panic_at_len: (panic_lane == Some(i)).then(|| prompt.len() + 1),
                }) as Box<dyn DecodeSession>;
                session.extend(&prompt);
                GenerationStepper::new(session, spec(i as u64)).unwrap()
            })
            .collect();
        (prompt, steppers)
    }

    fn drain(h: &mut Harness) -> Vec<Result<GenerateResponse, RequestError>> {
        for _ in 0..64 {
            if h.scheduler.inflight.is_empty() {
                break;
            }
            h.scheduler.step_round();
        }
        assert!(h.scheduler.inflight.is_empty(), "rounds failed to converge");
        h.receivers
            .iter()
            .map(|r| r.try_recv().expect("every lane retired"))
            .collect()
    }

    /// A panic inside the fused `logits_batch` call itself must not fail
    /// any request: the group re-runs lane by lane and every trace is
    /// byte-identical to the sequential loop.
    #[test]
    fn fused_driver_panic_falls_back_to_single_lane_steps() {
        crate::faults::silence_injected_panics();
        let model = Arc::new(InductionLm::paper(0));
        let driver = Arc::new(RiggedDriver {
            detonate: true,
            fused_calls: AtomicU32::new(0),
        });
        let (prompt, steppers) = rigged_steppers(&model, &driver, 3, None);
        let mut h = harness(steppers);
        let results = drain(&mut h);
        assert!(
            driver.fused_calls.load(Ordering::SeqCst) > 0,
            "the fused path was never attempted"
        );
        for (i, r) in results.into_iter().enumerate() {
            let got = r.unwrap_or_else(|e| panic!("lane {i} failed: {e:?}"));
            let expected = generate(&model, &prompt, &spec(i as u64)).unwrap();
            assert_eq!(got.trace, expected, "lane {i} diverged after fallback");
        }
    }

    /// One lane panicking during the fused attempt is isolated: exactly
    /// that request terminates with `Panicked`, and the healthy lanes'
    /// traces stay byte-identical to the sequential loop.
    #[test]
    fn faulted_lane_in_fused_group_fails_alone() {
        crate::faults::silence_injected_panics();
        let model = Arc::new(InductionLm::paper(0));
        let driver = Arc::new(RiggedDriver {
            detonate: false,
            fused_calls: AtomicU32::new(0),
        });
        let (prompt, steppers) = rigged_steppers(&model, &driver, 3, Some(1));
        let mut h = harness(steppers);
        let results = drain(&mut h);
        assert!(driver.fused_calls.load(Ordering::SeqCst) > 0);
        for (i, r) in results.into_iter().enumerate() {
            if i == 1 {
                match r {
                    Err(RequestError::Panicked(msg)) => {
                        assert!(msg.contains("lane bomb"), "got {msg}")
                    }
                    other => panic!("faulted lane got {other:?}"),
                }
            } else {
                let got = r.unwrap_or_else(|e| panic!("healthy lane {i} failed: {e:?}"));
                let expected = generate(&model, &prompt, &spec(i as u64)).unwrap();
                assert_eq!(got.trace, expected, "healthy lane {i} diverged");
            }
        }
    }

    #[test]
    fn for_each_mut_steps_every_lane_exactly_once() {
        for threads in 0..=4 {
            let mut lanes = vec![0u32; 37];
            for_each_mut(lanes.iter_mut(), threads, |n| *n += 1);
            assert!(
                lanes.iter().all(|&n| n == 1),
                "threads {threads}: {lanes:?}"
            );
        }
    }

    fn icl_prompt(model: &InductionLm) -> Vec<TokenId> {
        model.tokenizer().encode(
            "Hyperparameter configuration: outer_loop_tiling_factor is 80\n\
             Performance: 0.0022155\n\
             Hyperparameter configuration: outer_loop_tiling_factor is 80\n\
             Performance: ",
        )
    }

    /// Pre-admit one induction lane per `codes` entry (mixed seeds,
    /// lengths and stop tokens) and drain them at `threads` step threads:
    /// the per-lane results in lane order, the stats ledger, and the
    /// specs the lanes ran.
    fn drain_induction(
        model: &Arc<InductionLm>,
        codes: &[usize],
        threads: usize,
    ) -> (
        Vec<Result<GenerateResponse, RequestError>>,
        ServeStats,
        Vec<GenerateSpec>,
    ) {
        let prompt = icl_prompt(model);
        let newline = model.tokenizer().vocab().token_id("\n").unwrap();
        let specs: Vec<GenerateSpec> = codes
            .iter()
            .map(|&code| {
                GenerateSpec::builder()
                    .seed((code % 7) as u64)
                    .max_tokens(1 + (code / 7) % 12)
                    .stop_tokens(if code / 84 == 1 {
                        vec![newline]
                    } else {
                        vec![]
                    })
                    .build()
                    .unwrap()
            })
            .collect();
        let steppers = specs
            .iter()
            .map(|spec| {
                let mut session = model.clone().session();
                session.extend(&prompt);
                GenerationStepper::new(session, spec.clone()).unwrap()
            })
            .collect();
        let mut h = harness(steppers);
        h.scheduler.cfg.step_threads = threads;
        let results = drain(&mut h);
        let stats = *h.scheduler.stats.lock();
        (results, stats, specs)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        // Fan-out is byte-invisible: 1–16 driverless lanes drained at one
        // and at four step threads give the same per-lane traces and the
        // same stats, and every trace is sequential `generate`'s.
        #[test]
        fn step_thread_count_never_changes_a_trace(
            codes in proptest::collection::vec(0usize..168, 1..17),
        ) {
            let model = Arc::new(InductionLm::paper(0));
            let (alone, alone_stats, specs) = drain_induction(&model, &codes, 1);
            let (fanned, fanned_stats, _) = drain_induction(&model, &codes, 4);
            prop_assert_eq!(&alone, &fanned);
            prop_assert_eq!(alone_stats, fanned_stats);
            prop_assert_eq!(alone_stats.completed, codes.len() as u64);
            let prompt = icl_prompt(&model);
            for (lane, spec) in fanned.into_iter().zip(&specs) {
                let got = lane.map(|r| r.trace);
                prop_assert_eq!(got, Ok(generate(&model, &prompt, spec).unwrap()));
            }
        }
    }

    /// A panicking lane and an erroring lane among 16 fanned-out
    /// driverless lanes each fail alone, with exactly one terminal error
    /// apiece, while the other 14 decode byte-identically.
    #[test]
    fn faulted_lanes_fail_alone_under_fan_out() {
        crate::faults::silence_injected_panics();
        let model = Arc::new(InductionLm::paper(0));
        let prompt = icl_prompt(&model);
        let (panics, empties) = (5, 11);
        let spec = |i: usize| {
            GenerateSpec::builder()
                .max_tokens(8)
                .seed(i as u64)
                .build()
                .unwrap()
        };
        let steppers = (0..16)
            .map(|i| {
                let lm: Arc<dyn LanguageModel> = match i {
                    _ if i == panics => {
                        Arc::new(FaultyLm::new(model.clone(), Fault::PanicOnStep(2)))
                    }
                    _ if i == empties => {
                        Arc::new(FaultyLm::new(model.clone(), Fault::EmptyLogitsOnStep(3)))
                    }
                    _ => model.clone(),
                };
                let mut session = lm.session();
                session.extend(&prompt);
                GenerationStepper::new(session, spec(i)).unwrap()
            })
            .collect();
        let mut h = harness(steppers);
        h.scheduler.cfg.step_threads = 4;
        let results = drain(&mut h);
        for (i, r) in results.into_iter().enumerate() {
            match r {
                Err(RequestError::Panicked(msg)) if i == panics => {
                    assert!(msg.contains("decode step 2"), "got {msg}")
                }
                Err(RequestError::Lm(LmError::EmptyVocab)) if i == empties => {}
                Ok(got) if i != panics && i != empties => {
                    let expected = generate(&model, &prompt, &spec(i)).unwrap();
                    assert_eq!(got.trace, expected, "healthy lane {i} diverged");
                }
                other => panic!("lane {i} got {other:?}"),
            }
        }
        let stats = *h.scheduler.stats.lock();
        assert_eq!((stats.completed, stats.failed, stats.panicked), (14, 2, 1));
    }
}
