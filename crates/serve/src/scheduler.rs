//! The continuous-batching scheduler loop.
//!
//! One thread owns every model, the per-substrate prefix tries and the set
//! of in-flight generations. Its loop:
//!
//! 1. **Admit** — pull requests off the bounded channel until the batch is
//!    full. Blocks when nothing is in flight (idle service burns no CPU),
//!    polls non-blocking otherwise so decoding never stalls on an empty
//!    queue. Admission resolves the model, consults the prefix trie
//!    (fork on hit, fresh session on miss), prefills the remainder, caches
//!    a snapshot for the next request, re-keys if asked, and wraps the
//!    session in a [`GenerationStepper`].
//! 2. **Step** — advance every in-flight stepper by exactly one token.
//!    Steppers sharing a substrate are grouped by their
//!    [`lmpeel_lm::BatchDriver`] key and each group's logits are computed
//!    in **one fused forward pass per round**
//!    ([`lmpeel_lm::BatchDriver::logits_batch`]); each lane then consumes
//!    its precomputed logits. Fusion is byte-invisible: the driver
//!    contract pins each fused lane's logits bitwise to its single-lane
//!    path, and sessions are independent, so traces are identical to the
//!    sequential loop under any group shape.
//! 3. **Retire** — finished (or errored) generations send their result over
//!    the per-request response channel immediately and free their slot.
//!
//! Interleaving cannot change any request's bytes: each stepper owns its
//! session and RNG (keyed by `(spec.seed, prompt_len)` exactly as the
//! sequential loop), so the only cross-request coupling is the trie — and
//! forking a cached snapshot then extending it yields the same state as
//! prefilling from scratch (PR 1's fork/extend equivalence suites), which
//! the determinism proptests in `tests/` re-verify end to end.
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
    /// allocates nothing: the lanes steppable this round with their fuse
    /// keys, the lane indices of the group being driven, the fused logits
    /// buffers (one vocab-wide `Vec` per lane, reused round over round),
    /// and the retire list.
    step_plan: Vec<(usize, Option<usize>)>,
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

    /// The Step phase: precheck every lane, group the steppable lanes by
    /// their substrate's batch-driver key in first-seen order, and drive
    /// each group two-or-more wide through a single `logits_batch`
    /// forward pass. Lanes with no driver and singleton groups take the
    /// ordinary single-lane step. Per-request bytes cannot differ from
    /// stepping every lane alone: sessions are independent, the driver
    /// contract pins each fused lane's logits bitwise to its own
    /// single-lane computation, and each lane still consumes its own RNG
    /// exactly once per step.
    fn step_groups(&mut self) {
        let mut plan = std::mem::take(&mut self.step_plan);
        plan.clear();
        for (i, w) in self.inflight.iter_mut().enumerate() {
            if w.precheck() {
                let key = w.stepper.batch_driver().map(|h| h.key);
                plan.push((i, key));
            }
        }
        let mut group = std::mem::take(&mut self.group_scratch);
        for (slot, &(i, key)) in plan.iter().enumerate() {
            let Some(k) = key else {
                // No driver: this lane always steps alone.
                if let Some(w) = self.inflight.get_mut(i) {
                    w.step_single();
                }
                continue;
            };
            if plan.iter().take(slot).any(|&(_, k2)| k2 == Some(k)) {
                // Group already driven when its first lane came up.
                continue;
            }
            group.clear();
            group.extend(
                plan.iter()
                    .filter(|&&(_, k2)| k2 == Some(k))
                    .map(|&(j, _)| j),
            );
            if group.len() < 2 {
                if let Some(w) = self.inflight.get_mut(i) {
                    w.step_single();
                }
            } else {
                self.step_group(&group);
            }
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

    fn reject(&mut self, responder: Sender<Result<GenerateResponse, RequestError>>, e: RequestError) {
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
                trie.insert(&request.prompt, session.fork());
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
    use crate::request::GenerateResponse;
    use lmpeel_lm::{
        generate, BatchDriver, BatchDriverRef, GenerateSpec, GenerationStepper, InductionLm,
    };
    use lmpeel_tokenizer::TokenId;
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
            },
            Arc::new(crate::sync::RankedMutex::new("stats", ServeStats::default())),
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
        let prompt = model.tokenizer().encode(
            "Hyperparameter configuration: outer_loop_tiling_factor is 80\nPerformance: ",
        );
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
}
