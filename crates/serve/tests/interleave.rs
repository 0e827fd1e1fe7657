//! Loom-style interleaving tests for the scheduler's control-flag races.
//!
//! Compiled only under `--cfg lint_loom` (CI runs them in the fault-inject
//! step via `RUSTFLAGS="--cfg lint_loom"`): each test replays the same race
//! under many *seeded schedule perturbations* — deterministic per-seed yield
//! patterns on both sides of the race — so the cross-thread orderings the
//! scheduler must tolerate actually occur, instead of whatever single
//! interleaving the test host happens to produce.
//!
//! The races covered are the ones the ownership system cannot rule out:
//!
//! * **cancel flag vs. scheduler round** — `ResponseHandle::cancel` flips
//!   the shared `AtomicBool` while the scheduler is admitting, stepping or
//!   retiring that very request;
//! * **handle drop vs. completion** — the implicit cancel-on-drop races the
//!   response send on the other side of the channel;
//! * **shutdown drain vs. queued submits** — `shutdown` flips the draining
//!   flag while the scheduler is still admitting a backlog the submitter
//!   just queued.
//!
//! Invariant checked everywhere: every accepted request terminates exactly
//! once, and the final counters reconcile (`submitted == completed +
//! failed`), no matter the interleaving.

#![cfg(lint_loom)]

use lmpeel_lm::{GenerateSpec, InductionLm, LanguageModel};
use lmpeel_serve::{GenerateRequest, InferenceService, RequestError};
use std::sync::Arc;

/// Schedules explored per race. Each seed yields a distinct perturbation
/// pattern on both the control thread and the submit thread.
const SCHEDULES: u64 = 64;

/// Deterministic per-seed yield count in `[0, 2 * spread)`: a tiny LCG so
/// the perturbation needs no OS entropy (rule LML0002 stays meaningful
/// even here).
fn perturb(seed: u64, salt: u64, spread: u64) -> u64 {
    let x = seed
        .wrapping_mul(6364136223846793005)
        .wrapping_add(salt.wrapping_mul(1442695040888963407) | 1);
    (x >> 33) % (2 * spread)
}

fn yield_n(n: u64) {
    for _ in 0..n {
        std::thread::yield_now();
    }
}

fn prompt(model: &dyn LanguageModel) -> Vec<lmpeel_tokenizer::TokenId> {
    model
        .tokenizer()
        .encode("Hyperparameter configuration: outer_loop_tiling_factor is 80\nPerformance: ")
}

fn spec(seed: u64, max_tokens: usize) -> GenerateSpec {
    GenerateSpec::builder()
        .max_tokens(max_tokens)
        .seed(seed)
        .build()
        .unwrap()
}

fn assert_reconciled(stats: lmpeel_serve::ServeStats) {
    assert_eq!(
        stats.submitted,
        stats.completed + stats.failed,
        "every accepted request must terminate exactly once: {stats:?}"
    );
}

/// `cancel()` races the scheduler's admit/step/retire round for the same
/// request: whatever the interleaving, `wait` returns exactly one terminal
/// result and the counters reconcile.
#[test]
fn cancel_flag_races_scheduler_rounds() {
    let model: Arc<dyn LanguageModel> = Arc::new(InductionLm::paper(0));
    let prompt = prompt(model.as_ref());
    for seed in 0..SCHEDULES {
        let service = InferenceService::builder()
            .model("default", Arc::clone(&model))
            .max_batch(4)
            .build();
        let handle = service
            .submit(GenerateRequest::new(
                "default",
                prompt.clone(),
                spec(seed, 48),
            ))
            .unwrap();
        // A second request keeps the batch non-trivial while the first is
        // being cancelled out from under the round.
        let bystander = service
            .submit(GenerateRequest::new(
                "default",
                prompt.clone(),
                spec(seed, 8),
            ))
            .unwrap();

        let canceller = std::thread::spawn({
            let n = perturb(seed, 1, 64);
            move || {
                yield_n(n);
                handle.cancel();
                handle.wait()
            }
        });
        yield_n(perturb(seed, 2, 64));
        let cancelled = canceller.join().expect("canceller thread");
        // Depending on the interleaving the request either finished first
        // or was cancelled mid-flight; both are terminal, nothing else is.
        match &cancelled {
            Ok(_) | Err(RequestError::Cancelled) => {}
            other => panic!("seed {seed}: unexpected terminal {other:?}"),
        }
        // The neighbour is never disturbed by the cancellation.
        bystander.wait().expect("bystander completes");
        assert_reconciled(service.shutdown().expect("clean join"));
    }
}

/// Dropping the handle (implicit cancel) races the scheduler's response
/// send: the slot is reclaimed and the scheduler keeps serving either way.
#[test]
fn handle_drop_races_completion() {
    let model: Arc<dyn LanguageModel> = Arc::new(InductionLm::paper(0));
    let prompt = prompt(model.as_ref());
    for seed in 0..SCHEDULES {
        let service = InferenceService::builder()
            .model("default", Arc::clone(&model))
            .max_batch(2)
            .build();
        let handle = service
            .submit(GenerateRequest::new(
                "default",
                prompt.clone(),
                spec(seed, 48),
            ))
            .unwrap();
        yield_n(perturb(seed, 3, 128));
        drop(handle);
        // The scheduler survives the orphaned response channel and the
        // freed slot admits new work.
        let after = service
            .generate(GenerateRequest::new(
                "default",
                prompt.clone(),
                spec(seed, 4),
            ))
            .expect("scheduler still serving after a dropped handle");
        assert!(!after.trace.steps.is_empty());
        assert_reconciled(service.shutdown().expect("clean join"));
    }
}

/// `shutdown`'s draining flag races the scheduler through a just-queued
/// backlog: every request lands either as a completed trace or as a
/// terminal error (`ShutDown` for the drained tail) — never neither.
#[test]
fn shutdown_drain_races_queued_submits() {
    let model: Arc<dyn LanguageModel> = Arc::new(InductionLm::paper(0));
    let prompt = prompt(model.as_ref());
    for seed in 0..SCHEDULES {
        let service = InferenceService::builder()
            .model("default", Arc::clone(&model))
            .max_batch(1)
            .queue_capacity(16)
            .build();
        let handles: Vec<_> = (0..8)
            .map(|i| {
                yield_n(perturb(seed, 10 + i, 8));
                service
                    .submit(GenerateRequest::new(
                        "default",
                        prompt.clone(),
                        spec(seed + i, 16),
                    ))
                    .expect("queue has room")
            })
            .collect();
        yield_n(perturb(seed, 4, 256));
        let stats = service.shutdown().expect("clean join");
        let mut terminals = 0u64;
        for (i, h) in handles.into_iter().enumerate() {
            match h.wait() {
                Ok(_) | Err(RequestError::ShutDown) => terminals += 1,
                other => panic!("seed {seed} request {i}: unexpected terminal {other:?}"),
            }
        }
        assert_eq!(terminals, 8, "every queued request terminates");
        assert_reconciled(stats);
        assert_eq!(stats.submitted, 8);
    }
}
