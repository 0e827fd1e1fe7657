//! The service facade: builder, shards, submit handles, stats, shutdown.

use crate::request::{BackpressurePolicy, GenerateRequest, GenerateResponse, RequestError};
use crate::scheduler::{panic_message, Envelope, Scheduler, SchedulerConfig};
use crate::shard::{ShardRouter, DEFAULT_PREFIX_WINDOW};
use crate::trie::TrieStats;
use lmpeel_lm::LanguageModel;
use std::cell::Cell;
use std::collections::{BTreeMap, HashMap};
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TryRecvError, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Service-level counters, readable at any time via
/// [`InferenceService::stats`].
///
/// `submitted` counts before the envelope is enqueued (and is rolled back
/// if enqueueing fails), so `completed` can never transiently exceed it.
/// `failed` is the superset of every request that terminated with an
/// error past admission to the queue; the kind-specific counters below it
/// break that total down.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Requests accepted onto the queue.
    pub submitted: u64,
    /// Requests that finished with a trace.
    pub completed: u64,
    /// Requests that terminated with any error past the queue
    /// (decode failures, panics, quarantine, cancellation, deadlines,
    /// drain rejections).
    pub failed: u64,
    /// Requests shed at `submit` itself (queue full under the `Reject`
    /// policy, or a dead scheduler); these never count as `submitted`.
    pub rejected: u64,
    /// Requests retired by [`crate::ResponseHandle::cancel`] or a dropped
    /// handle.
    pub cancelled: u64,
    /// Requests retired because their [`crate::Deadline`] expired.
    pub deadline_exceeded: u64,
    /// Requests that terminated because the substrate panicked while
    /// serving them (the panic was contained to the request).
    pub panicked: u64,
    /// Requests rejected because their substrate was quarantined after
    /// repeated panics.
    pub quarantined: u64,
    /// Queued requests rejected with [`RequestError::ShutDown`] during a
    /// graceful [`InferenceService::shutdown`] drain.
    pub drained: u64,
    /// Transient decode errors absorbed by per-request retry budgets
    /// (each retry re-samples the failed token in place; it never
    /// surfaces to the caller).
    pub retried: u64,
    /// Half-open breaker probes that panicked, re-opening the substrate's
    /// breaker with a doubled cooldown.
    pub breaker_reopened: u64,
    /// Half-open breaker probes that completed, closing the substrate's
    /// breaker and restoring normal service.
    pub breaker_recovered: u64,
    /// Prefix-cache accounting summed over all substrates.
    pub prefix: TrieStats,
}

impl ServeStats {
    /// Fold `other`'s counters into `self`, field by field — the one
    /// place sharded stats aggregation is spelled out, so a multi-shard
    /// [`InferenceService`] merges per-shard blocks without hand-summing
    /// that silently goes stale when a counter is added.
    pub fn merge(&mut self, other: &ServeStats) {
        let ServeStats {
            submitted,
            completed,
            failed,
            rejected,
            cancelled,
            deadline_exceeded,
            panicked,
            quarantined,
            drained,
            retried,
            breaker_reopened,
            breaker_recovered,
            prefix,
        } = other;
        self.submitted += submitted;
        self.completed += completed;
        self.failed += failed;
        self.rejected += rejected;
        self.cancelled += cancelled;
        self.deadline_exceeded += deadline_exceeded;
        self.panicked += panicked;
        self.quarantined += quarantined;
        self.drained += drained;
        self.retried += retried;
        self.breaker_reopened += breaker_reopened;
        self.breaker_recovered += breaker_recovered;
        self.prefix.merge(prefix);
    }

    /// [`ServeStats::merge`] over any number of per-shard blocks.
    pub fn merged<'a>(blocks: impl IntoIterator<Item = &'a ServeStats>) -> ServeStats {
        let mut total = ServeStats::default();
        for b in blocks {
            total.merge(b);
        }
        total
    }

    /// Classify one terminal result into the counters. Shared by the
    /// scheduler's retire/reject paths so `failed` and its breakdown can
    /// never drift apart.
    pub(crate) fn count_terminal(&mut self, result: &Result<GenerateResponse, RequestError>) {
        match result {
            Ok(_) => self.completed += 1,
            Err(e) => {
                self.failed += 1;
                match e {
                    RequestError::Cancelled => self.cancelled += 1,
                    RequestError::DeadlineExceeded => self.deadline_exceeded += 1,
                    RequestError::Panicked(_) => self.panicked += 1,
                    RequestError::SubstrateQuarantined(_) => self.quarantined += 1,
                    // The scheduler only answers ShutDown while draining.
                    RequestError::ShutDown => self.drained += 1,
                    _ => {}
                }
            }
        }
    }
}

/// The scheduler thread itself panicked — a scheduler bug, not a request
/// failure (per-request substrate panics are contained and reported as
/// [`RequestError::Panicked`]). Returned by [`InferenceService::shutdown`]
/// so crashes cannot be silently swallowed at join time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchedulerPanicked {
    /// The stringified panic payload.
    pub reason: String,
}

impl std::fmt::Display for SchedulerPanicked {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "inference scheduler thread panicked: {}", self.reason)
    }
}

impl std::error::Error for SchedulerPanicked {}

impl From<SchedulerPanicked> for RequestError {
    /// A dead scheduler fails a request exactly like a contained
    /// substrate panic would: with the stringified payload. Completes the
    /// `From` lattice (`LmError → RequestError ← SchedulerPanicked`) so
    /// composite services and the front-end propagate every failure kind
    /// with `?` instead of ad-hoc rewrapping.
    fn from(e: SchedulerPanicked) -> Self {
        RequestError::Panicked(e.reason)
    }
}

/// Where each shard's replica of one substrate comes from.
enum ReplicaSource {
    /// One `Arc` shared by every shard. Correct for any
    /// [`LanguageModel`] (they are `&self`-pure and `Send + Sync`), and
    /// the cheap default when the model is large.
    Shared(Arc<dyn LanguageModel>),
    /// A fresh replica per shard, built from the shard index. Gives each
    /// shard its own interior caches (e.g. the transformer's
    /// attention-weight memo) at the cost of `N` copies of the weights.
    PerShard(Arc<dyn Fn(usize) -> Arc<dyn LanguageModel> + Send + Sync>),
}

/// Configures and spawns an [`InferenceService`].
///
/// Every per-scheduler knob (`queue_capacity`, `max_batch`,
/// `prefix_cache_capacity`, the breaker and retry settings) applies **per
/// shard**: each shard is a complete scheduler with its own queue,
/// in-flight set and tries, so aggregate capacity scales with
/// [`ServiceBuilder::shards`] by construction.
pub struct ServiceBuilder {
    models: BTreeMap<String, ReplicaSource>,
    shards: usize,
    queue_capacity: usize,
    policy: BackpressurePolicy,
    max_batch: usize,
    trie_capacity: usize,
    quarantine_after: u32,
    breaker_cooldown: u64,
    retry_budget: u32,
}

impl Default for ServiceBuilder {
    fn default() -> Self {
        Self {
            models: BTreeMap::new(),
            shards: 1,
            queue_capacity: 64,
            policy: BackpressurePolicy::default(),
            max_batch: 16,
            trie_capacity: 32,
            quarantine_after: 3,
            breaker_cooldown: 8,
            retry_budget: 0,
        }
    }
}

impl ServiceBuilder {
    /// Fresh builder with the defaults (one shard, queue 64, blocking
    /// backpressure, batch 16, 32 cached prefixes per substrate,
    /// quarantine after 3 consecutive panics).
    pub fn new() -> Self {
        Self::default()
    }

    /// Register `model` under `substrate`; requests name it by this key.
    /// Every shard shares this one replica (see
    /// [`ServiceBuilder::model_factory`] for per-shard replicas).
    pub fn model(mut self, substrate: impl Into<String>, model: Arc<dyn LanguageModel>) -> Self {
        self.models
            .insert(substrate.into(), ReplicaSource::Shared(model));
        self
    }

    /// Register a per-shard replica factory under `substrate`: `factory`
    /// is called once per shard with the shard index, so every shard owns
    /// its own model instance (own interior caches, no cross-shard
    /// sharing).
    pub fn model_factory(
        mut self,
        substrate: impl Into<String>,
        factory: impl Fn(usize) -> Arc<dyn LanguageModel> + Send + Sync + 'static,
    ) -> Self {
        self.models
            .insert(substrate.into(), ReplicaSource::PerShard(Arc::new(factory)));
        self
    }

    /// Number of scheduler shards (minimum 1, the default; one per core
    /// is the intended multi-core shape). Requests are routed to shards
    /// by [`ShardRouter`]; shard count cannot change any request's bytes.
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Bound of each shard's request queue (minimum 1).
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity.max(1);
        self
    }

    /// What `submit` does when the queue is full.
    pub fn backpressure(mut self, policy: BackpressurePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Maximum generations each shard decodes concurrently (minimum 1).
    pub fn max_batch(mut self, max_batch: usize) -> Self {
        self.max_batch = max_batch.max(1);
        self
    }

    /// Snapshot capacity of each substrate's prefix cache (0 disables).
    pub fn prefix_cache_capacity(mut self, capacity: usize) -> Self {
        self.trie_capacity = capacity;
        self
    }

    /// Consecutive panics on one substrate before its circuit breaker
    /// trips open (minimum 1; default 3). While open, requests naming the
    /// substrate fail with [`RequestError::SubstrateQuarantined`]; after
    /// the cooldown (see [`ServiceBuilder::breaker_cooldown`]) one probe
    /// request is admitted — success restores normal service, another
    /// panic re-opens the breaker with exponential backoff.
    pub fn quarantine_after(mut self, panics: u32) -> Self {
        self.quarantine_after = panics.max(1);
        self
    }

    /// Base cooldown of a tripped breaker, in logical scheduler rounds
    /// (minimum 1; default 8). Each failed half-open probe doubles the
    /// cooldown; a successful probe resets it to this base. The clock is
    /// the scheduler's own round counter — no wall time is involved, so
    /// breaker schedules are deterministic.
    pub fn breaker_cooldown(mut self, rounds: u64) -> Self {
        self.breaker_cooldown = rounds.max(1);
        self
    }

    /// In-place decode-step retries granted to each request before a
    /// transient `LmError` becomes its terminal error (default 0: fail
    /// fast). Retries are deterministic — a failed step consumes no RNG
    /// state, so a request that recovers produces the exact trace an
    /// error-free run would have.
    pub fn retry_budget(mut self, retries: u32) -> Self {
        self.retry_budget = retries;
        self
    }

    /// Spawn every shard's scheduler thread and return the running
    /// service. Each shard may step its lanes over the host's cores
    /// divided by the shard count (at least 1).
    pub fn build(self) -> InferenceService {
        let router = ShardRouter::new(self.shards, DEFAULT_PREFIX_WINDOW);
        let cores = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
        let step_threads = (cores / router.shards()).max(1);
        let shards = (0..router.shards())
            .map(|shard| {
                let models = self
                    .models
                    .iter()
                    .map(|(name, source)| {
                        let replica = match source {
                            ReplicaSource::Shared(m) => Arc::clone(m),
                            ReplicaSource::PerShard(f) => f(shard),
                        };
                        (name.clone(), replica)
                    })
                    .collect();
                Shard::spawn(models, &self, step_threads)
            })
            .collect();
        InferenceService { router, shards }
    }
}

/// One scheduler thread and the state its submitters share with it.
struct Shard {
    tx: Option<SyncSender<Envelope>>,
    policy: BackpressurePolicy,
    handle: Option<JoinHandle<()>>,
    stats: Arc<crate::sync::RankedMutex<ServeStats>>,
    draining: Arc<AtomicBool>,
}

impl Shard {
    fn spawn(
        models: HashMap<String, Arc<dyn LanguageModel>>,
        b: &ServiceBuilder,
        step_threads: usize,
    ) -> Self {
        let (tx, rx) = mpsc::sync_channel(b.queue_capacity);
        let stats = Arc::new(crate::sync::RankedMutex::new("stats", ServeStats::default()));
        let draining = Arc::new(AtomicBool::new(false));
        let scheduler = Scheduler::new(
            rx,
            models,
            SchedulerConfig {
                max_batch: b.max_batch,
                trie_capacity: b.trie_capacity,
                quarantine_after: b.quarantine_after,
                breaker_cooldown: b.breaker_cooldown,
                retry_budget: b.retry_budget,
                step_threads,
            },
            Arc::clone(&stats),
            Arc::clone(&draining),
        );
        let handle = std::thread::Builder::new()
            .name("lmpeel-serve".into())
            .spawn(move || scheduler.run())
            .expect("spawn scheduler thread");
        Self {
            tx: Some(tx),
            policy: b.policy,
            handle: Some(handle),
            stats,
            draining,
        }
    }

    fn submit(&self, request: GenerateRequest) -> Result<ResponseHandle, RequestError> {
        let tx = self.tx.as_ref().expect("sender lives until drop");
        let (rtx, rrx) = mpsc::channel();
        let cancel = Arc::new(AtomicBool::new(false));
        let env = Envelope {
            request,
            responder: rtx,
            cancel: Arc::clone(&cancel),
            submitted_at: Instant::now(),
        };
        // Count the submission *before* the envelope is visible to the
        // scheduler: a fast completion could otherwise make stats()
        // transiently report completed > submitted.
        self.stats.lock().submitted += 1;
        let enqueued = match self.policy {
            BackpressurePolicy::Block => tx.send(env).map_err(|_| RequestError::ShutDown),
            BackpressurePolicy::Reject => match tx.try_send(env) {
                Ok(()) => Ok(()),
                Err(TrySendError::Full(_)) => Err(RequestError::QueueFull),
                Err(TrySendError::Disconnected(_)) => Err(RequestError::ShutDown),
            },
        };
        if let Err(e) = enqueued {
            // The scheduler never saw this request: roll the submission
            // back and account for the shed instead.
            let mut stats = self.stats.lock();
            stats.submitted -= 1;
            stats.rejected += 1;
            return Err(e);
        }
        Ok(ResponseHandle {
            rx: rrx,
            cancel,
            cancel_on_drop: true,
            delivered: Cell::new(false),
        })
    }

    fn stats(&self) -> ServeStats {
        *self.stats.lock()
    }

    /// Close the queue and join the scheduler; returns the stringified
    /// panic payload if the scheduler thread died panicking.
    fn shutdown_inner(&mut self) -> Option<String> {
        drop(self.tx.take());
        let payload = self.handle.take()?.join().err()?;
        Some(panic_message(payload.as_ref()))
    }
}

impl Drop for Shard {
    fn drop(&mut self) {
        if let Some(reason) = self.shutdown_inner() {
            eprintln!("lmpeel-serve: scheduler thread panicked: {reason}");
        }
    }
}

/// A running continuous-batching inference service: one or more
/// scheduler shards behind a prefix-affinity [`ShardRouter`].
///
/// Submission is thread-safe behind `&self`; results come back through
/// per-request [`ResponseHandle`]s, so many callers can wait concurrently.
/// Traces are **topology-independent**: a request's response bytes are a
/// deterministic function of the request alone, whichever shard, batch
/// or admission interleaving served it (the sharded-vs-single
/// equivalence proptests pin this).
/// [`InferenceService::shutdown`] drains gracefully (stops admitting,
/// finishes in-flight work, surfaces scheduler panics); dropping the
/// service instead processes everything still queued, then joins (logging
/// any scheduler panic to stderr).
pub struct InferenceService {
    router: ShardRouter,
    shards: Vec<Shard>,
}

/// The multi-shard name of [`InferenceService`], kept because the
/// out-of-workspace benchmark package (`perfbench/`) still builds its
/// service through it.
pub type ShardedService = InferenceService;

impl InferenceService {
    /// Start configuring a service.
    pub fn builder() -> ServiceBuilder {
        ServiceBuilder::new()
    }

    /// The routing function in use (exposed so tests and the load
    /// generator can predict placements).
    pub fn router(&self) -> &ShardRouter {
        &self.router
    }

    /// Queue a request on its prefix-affine shard. Returns a handle to
    /// wait on; under the `Reject` policy a full queue fails fast with
    /// [`RequestError::QueueFull`].
    pub fn submit(&self, request: GenerateRequest) -> Result<ResponseHandle, RequestError> {
        self.shards[self.router.route(&request.prompt)].submit(request)
    }

    /// Submit and wait: the one-call path for sequential callers.
    pub fn generate(&self, request: GenerateRequest) -> Result<GenerateResponse, RequestError> {
        self.submit(request)?.wait()
    }

    /// Current counters summed over every shard (settled after each
    /// scheduling round).
    pub fn stats(&self) -> ServeStats {
        ServeStats::merged(&self.shard_stats())
    }

    /// Per-shard counter blocks, indexed like the router's shard indices
    /// (for load-balance reporting; the sum is [`InferenceService::stats`]).
    pub fn shard_stats(&self) -> Vec<ServeStats> {
        self.shards.iter().map(Shard::stats).collect()
    }

    /// Gracefully drain and join every shard: stop admitting, let
    /// in-flight generations finish, reject whatever is still queued with
    /// [`RequestError::ShutDown`] (counted in [`ServeStats::drained`]),
    /// and surface a scheduler-thread panic as an error instead of
    /// swallowing it. Every shard starts draining before any is joined,
    /// and every shard is joined even when one panicked; the first panic
    /// is returned, otherwise the final merged counters.
    ///
    /// Dropping the service without calling `shutdown` is the lossless
    /// variant: everything queued is still decoded before the join, and a
    /// scheduler panic is logged to stderr.
    pub fn shutdown(mut self) -> Result<ServeStats, SchedulerPanicked> {
        for shard in &self.shards {
            shard.draining.store(true, Ordering::SeqCst);
        }
        let mut first_panic = None;
        for shard in &mut self.shards {
            if let Some(reason) = shard.shutdown_inner() {
                first_panic.get_or_insert(SchedulerPanicked { reason });
            }
        }
        match first_panic {
            Some(p) => Err(p),
            None => Ok(self.stats()),
        }
    }
}

/// The receiving end of one request's result.
///
/// Dropping the handle cancels the request implicitly: if it has not yet
/// produced a result, the scheduler retires it with
/// [`RequestError::Cancelled`] at the next round and frees its batch
/// slot.
#[derive(Debug)]
pub struct ResponseHandle {
    rx: Receiver<Result<GenerateResponse, RequestError>>,
    cancel: Arc<AtomicBool>,
    cancel_on_drop: bool,
    /// Set once `try_wait` has handed out the result. The scheduler drops
    /// its sender only *after* sending, so without this flag a poll in
    /// between would see an empty, still-connected channel.
    delivered: Cell<bool>,
}

impl ResponseHandle {
    /// Block until the generation finishes (or fails).
    pub fn wait(mut self) -> Result<GenerateResponse, RequestError> {
        // The result (or disconnect) below is terminal either way; don't
        // also flip the cancel flag when `self` drops on return.
        self.cancel_on_drop = false;
        self.rx.recv().unwrap_or(Err(RequestError::ShutDown))
    }

    /// Non-blocking poll; `None` while the request is still in flight.
    ///
    /// A disconnected channel — the scheduler crashed, was shut down
    /// before answering, or already delivered this request's result to an
    /// earlier poll — yields `Some(Err(RequestError::ShutDown))` rather
    /// than `None`, so pollers can never spin forever on a response that
    /// will never come.
    pub fn try_wait(&self) -> Option<Result<GenerateResponse, RequestError>> {
        if self.delivered.get() {
            return Some(Err(RequestError::ShutDown));
        }
        match self.rx.try_recv() {
            Ok(result) => {
                self.delivered.set(true);
                Some(result)
            }
            Err(TryRecvError::Empty) => None,
            Err(TryRecvError::Disconnected) => Some(Err(RequestError::ShutDown)),
        }
    }

    /// Ask the scheduler to abandon this request. Checked once per
    /// scheduling round (and at admission): the request retires with
    /// [`RequestError::Cancelled`] and its batch slot frees up. A request
    /// that already finished is unaffected — `wait` returns its result.
    pub fn cancel(&self) {
        self.cancel.store(true, Ordering::SeqCst);
    }
}

impl Drop for ResponseHandle {
    fn drop(&mut self) {
        if self.cancel_on_drop {
            self.cancel.store(true, Ordering::SeqCst);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `shutdown` must report the scheduler thread's panic payload instead
    /// of discarding it in `join`. Forged directly (per-request panics are
    /// contained by the scheduler, so a real service only reaches this
    /// path through a scheduler bug).
    #[test]
    fn shutdown_surfaces_scheduler_panics() {
        crate::faults::silence_injected_panics();
        let (tx, _rx) = mpsc::sync_channel(1);
        let shard = Shard {
            tx: Some(tx),
            policy: BackpressurePolicy::Block,
            handle: Some(
                std::thread::Builder::new()
                    .name("lmpeel-serve-test".into())
                    .spawn(|| panic!("{} scheduler bug", crate::faults::INJECTED_PANIC))
                    .expect("spawn"),
            ),
            stats: Arc::new(crate::sync::RankedMutex::new("stats", ServeStats::default())),
            draining: Arc::new(AtomicBool::new(false)),
        };
        let service = InferenceService {
            router: ShardRouter::new(1, DEFAULT_PREFIX_WINDOW),
            shards: vec![shard],
        };
        let err = service.shutdown().unwrap_err();
        assert!(err.reason.contains("scheduler bug"), "got {err}");
        assert!(err.to_string().contains("scheduler thread panicked"));
    }

    /// A second poll after the result was delivered must report
    /// `ShutDown` even while the responder's sender is still alive — the
    /// window between the scheduler's `send` and its drop of the sender.
    #[test]
    fn try_wait_after_delivery_reports_shutdown_while_the_sender_lives() {
        let (tx, rx) = mpsc::channel();
        let handle = ResponseHandle {
            rx,
            cancel: Arc::new(AtomicBool::new(false)),
            cancel_on_drop: false,
            delivered: Cell::new(false),
        };
        assert_eq!(handle.try_wait(), None);
        tx.send(Err(RequestError::Cancelled)).unwrap();
        assert_eq!(handle.try_wait(), Some(Err(RequestError::Cancelled)));
        assert_eq!(handle.try_wait(), Some(Err(RequestError::ShutDown)));
        drop(tx);
    }

    #[test]
    fn terminal_counting_keeps_failed_and_breakdown_in_sync() {
        let mut stats = ServeStats::default();
        stats.count_terminal(&Err(RequestError::Cancelled));
        stats.count_terminal(&Err(RequestError::DeadlineExceeded));
        stats.count_terminal(&Err(RequestError::Panicked("x".into())));
        stats.count_terminal(&Err(RequestError::SubstrateQuarantined("s".into())));
        stats.count_terminal(&Err(RequestError::ShutDown));
        stats.count_terminal(&Err(RequestError::UnknownSubstrate("u".into())));
        assert_eq!(stats.failed, 6);
        assert_eq!(
            stats.cancelled
                + stats.deadline_exceeded
                + stats.panicked
                + stats.quarantined
                + stats.drained,
            5,
            "every kind-specific counter ticked exactly once"
        );
        assert_eq!(stats.completed, 0);
    }
}
