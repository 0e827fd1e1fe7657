//! Continuous-batching inference service over [`lmpeel_lm::LanguageModel`]
//! decode sessions.
//!
//! The papers this repo reproduces treat the LLM as a high-QPS sampling
//! service queried by an outer optimization loop: LLAMBO fans each prompt
//! out across sampling seeds, and the experiment grid re-decodes hundreds
//! of (task, seed) cells whose prompts share long ICL prefixes. This crate
//! is the serving layer that workload shape wants:
//!
//! * [`GenerateRequest`]s enter through a **bounded queue** with a
//!   configurable [`BackpressurePolicy`] (block or reject);
//! * a scheduler thread **continuously batches**: it admits requests
//!   between decode steps, advances every in-flight generation one token
//!   per round (spreading wide rounds' single-lane steps over scoped step
//!   threads), and retires finished traces immediately — no
//!   wait-for-the-batch barrier;
//! * a per-substrate **prefix cache**, a bounded LRU list of session
//!   snapshots keyed on prompt token ids, makes shared prompt prefixes pay
//!   prefill once: later requests fork the longest cached prefix's snapshot
//!   (a deep copy) and prefill only the remainder;
//! * results return through per-request [`ResponseHandle`]s, and every
//!   output is **deterministic and seed-stable**: traces are byte-identical
//!   to sequential [`lmpeel_lm::generate_session`] regardless of admission
//!   order or batch composition, because each request owns its session and
//!   its `(seed, prompt_len)`-keyed RNG.
//!
//! ```
//! use lmpeel_lm::{GenerateSpec, InductionLm, LanguageModel};
//! use lmpeel_serve::{GenerateRequest, InferenceService};
//! use std::sync::Arc;
//!
//! let model = Arc::new(InductionLm::paper(0));
//! let prompt = model.tokenizer().encode("Performance: ");
//! let service = InferenceService::builder()
//!     .model("default", model)
//!     .build();
//! let handle = service
//!     .submit(GenerateRequest::new("default", prompt, GenerateSpec::paper(1)))
//!     .unwrap();
//! let response = handle.wait().unwrap();
//! assert!(!response.trace.steps.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event_loop;
#[cfg(any(test, feature = "fault-inject"))]
pub mod faults;
pub mod frontend;
#[cfg(any(test, feature = "fault-inject"))]
pub mod netfault;
mod request;
mod scheduler;
mod service;
mod shard;
pub mod sync;
mod trie;

pub use frontend::{
    ExtRequest, ExtResponse, ExtensionHandler, FrameAssembler, Frontend, FrontendBuilder,
    FrontendClient, FrontendStats, LatencyHistogram, ReconnectPolicy,
};
pub use request::{
    BackpressurePolicy, Deadline, GenerateRequest, GenerateRequestBuilder, GenerateResponse,
    RequestError,
};
pub use service::{
    InferenceService, ResponseHandle, SchedulerPanicked, ServeStats, ServiceBuilder, ShardedService,
};
pub use shard::{shards_from_env, ShardRouter, DEFAULT_PREFIX_WINDOW};
pub use trie::TrieStats;

/// One-line import for service consumers: the service, its builder and
/// router, and the request/response vocabulary.
///
/// ```
/// use lmpeel_serve::prelude::*;
/// ```
pub mod prelude {
    pub use crate::request::{
        BackpressurePolicy, Deadline, GenerateRequest, GenerateRequestBuilder, GenerateResponse,
        RequestError,
    };
    pub use crate::service::{
        InferenceService, ResponseHandle, SchedulerPanicked, ServeStats, ServiceBuilder,
        ShardedService,
    };
    pub use crate::shard::{shards_from_env, ShardRouter};
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmpeel_lm::{generate, GenerateSpec, InductionLm, LanguageModel, LmError};
    use std::sync::Arc;

    fn icl_prompt(model: &InductionLm, values: &[&str]) -> Vec<lmpeel_tokenizer::TokenId> {
        let mut p = String::new();
        for v in values {
            p.push_str(&format!(
                "Hyperparameter configuration: outer_loop_tiling_factor is 80\n\
                 Performance: {v}\n"
            ));
        }
        p.push_str("Hyperparameter configuration: outer_loop_tiling_factor is 80\nPerformance: ");
        model.tokenizer().encode(&p)
    }

    fn spec(seed: u64) -> GenerateSpec {
        GenerateSpec::builder()
            .max_tokens(6)
            .seed(seed)
            .build()
            .unwrap()
    }

    #[test]
    fn service_output_matches_sequential_generate() {
        let model = Arc::new(InductionLm::paper(0));
        let prompt = icl_prompt(&model, &["0.0022155", "0.0051230"]);
        let service = InferenceService::builder()
            .model("default", model.clone())
            .build();
        for seed in 0..3 {
            let expected = generate(&model, &prompt, &spec(seed)).unwrap();
            let got = service
                .generate(GenerateRequest::new("default", prompt.clone(), spec(seed)))
                .unwrap();
            assert_eq!(got.trace, expected, "seed {seed}");
        }
    }

    #[test]
    fn shared_prefixes_hit_the_cache() {
        let model = Arc::new(InductionLm::paper(0));
        let prompt = icl_prompt(&model, &["0.0022155"]);
        let service = InferenceService::builder().model("default", model).build();
        let a = service
            .generate(GenerateRequest::new("default", prompt.clone(), spec(0)))
            .unwrap();
        assert_eq!(a.reused_tokens, 0, "first request misses");
        assert_eq!(a.prefilled_tokens, prompt.len());
        let b = service
            .generate(GenerateRequest::new("default", prompt.clone(), spec(1)))
            .unwrap();
        assert_eq!(b.reused_tokens, prompt.len(), "second request full-hits");
        assert_eq!(b.prefilled_tokens, 0);
    }

    #[test]
    fn model_seed_rekeys_like_a_per_seed_model() {
        let base = Arc::new(InductionLm::paper(0));
        let reseeded = Arc::new(InductionLm::paper(9));
        let prompt = icl_prompt(&base, &["0.0022155", "0.0051230"]);
        let service = InferenceService::builder().model("default", base).build();
        let expected = generate(&reseeded, &prompt, &spec(2)).unwrap();
        let got = service
            .generate(GenerateRequest::new("default", prompt, spec(2)).with_model_seed(9))
            .unwrap();
        assert_eq!(got.trace, expected);
    }

    #[test]
    fn unknown_substrate_is_rejected() {
        let model = Arc::new(InductionLm::paper(0));
        let prompt = icl_prompt(&model, &["0.0022155"]);
        let service = InferenceService::builder().model("default", model).build();
        let err = service
            .generate(GenerateRequest::new("nope", prompt, spec(0)))
            .unwrap_err();
        assert_eq!(err, RequestError::UnknownSubstrate("nope".into()));
    }

    #[test]
    fn rekey_unsupported_substrates_reject_seeded_requests() {
        // A model with only the default FallbackSession, which cannot
        // re-key.
        struct Plain(lmpeel_tokenizer::Tokenizer);
        impl LanguageModel for Plain {
            fn tokenizer(&self) -> &lmpeel_tokenizer::Tokenizer {
                &self.0
            }
            fn logits(&self, _c: &[lmpeel_tokenizer::TokenId]) -> Vec<f32> {
                let mut l = vec![f32::NEG_INFINITY; self.0.vocab().len()];
                l[0] = 0.0;
                l
            }
            fn name(&self) -> String {
                "plain".into()
            }
        }
        let model = Arc::new(Plain(lmpeel_tokenizer::Tokenizer::paper()));
        let prompt = model.0.encode("abc");
        let service = InferenceService::builder().model("plain", model).build();
        let err = service
            .generate(GenerateRequest::new("plain", prompt.clone(), spec(0)).with_model_seed(3))
            .unwrap_err();
        assert_eq!(err, RequestError::RekeyUnsupported("plain".into()));
        // Without a model seed the same request decodes fine.
        assert!(service
            .generate(GenerateRequest::new("plain", prompt, spec(0)))
            .is_ok());
    }

    #[test]
    fn decode_failures_surface_as_lm_errors() {
        // A model that refuses every token: the first decode step hits
        // EmptyVocab, which must come back as a rejected response rather
        // than killing the scheduler thread.
        struct Mute(lmpeel_tokenizer::Tokenizer);
        impl LanguageModel for Mute {
            fn tokenizer(&self) -> &lmpeel_tokenizer::Tokenizer {
                &self.0
            }
            fn logits(&self, _c: &[lmpeel_tokenizer::TokenId]) -> Vec<f32> {
                vec![f32::NEG_INFINITY; self.0.vocab().len()]
            }
            fn name(&self) -> String {
                "mute".into()
            }
        }
        let model = Arc::new(Mute(lmpeel_tokenizer::Tokenizer::paper()));
        let prompt = model.0.encode("abc");
        let service = InferenceService::builder().model("mute", model).build();
        let err = service
            .generate(GenerateRequest::new(
                "mute",
                prompt.clone(),
                GenerateSpec::paper(0),
            ))
            .unwrap_err();
        assert_eq!(err, RequestError::Lm(LmError::EmptyVocab));
        // The scheduler survives: a later request is still answered.
        let err = service
            .generate(GenerateRequest::new("mute", prompt, GenerateSpec::paper(1)))
            .unwrap_err();
        assert_eq!(err, RequestError::Lm(LmError::EmptyVocab));
    }

    /// A model whose `logits` blocks until the test opens a gate, and
    /// signals the test once the scheduler first enters it. Lets the
    /// backpressure tests stall the scheduler deterministically.
    struct GatedLm {
        tok: lmpeel_tokenizer::Tokenizer,
        gate: Arc<Gate>,
    }

    struct Gate {
        state: crate::sync::RankedMutex<GateState>,
        cv: std::sync::Condvar,
    }

    impl Default for Gate {
        fn default() -> Self {
            Self {
                state: crate::sync::RankedMutex::new("state", GateState::default()),
                cv: std::sync::Condvar::new(),
            }
        }
    }

    #[derive(Default)]
    struct GateState {
        entered: bool,
        open: bool,
    }

    impl Gate {
        fn wait_entered(&self) {
            let mut s = self.state.lock();
            while !s.entered {
                s = crate::sync::wait_ranked(&self.cv, s);
            }
        }

        fn open(&self) {
            self.state.lock().open = true;
            self.cv.notify_all();
        }
    }

    impl LanguageModel for GatedLm {
        fn tokenizer(&self) -> &lmpeel_tokenizer::Tokenizer {
            &self.tok
        }
        fn logits(&self, _c: &[lmpeel_tokenizer::TokenId]) -> Vec<f32> {
            let mut s = self.gate.state.lock();
            s.entered = true;
            self.gate.cv.notify_all();
            while !s.open {
                s = crate::sync::wait_ranked(&self.gate.cv, s);
            }
            vec![0.0; self.tok.vocab().len()]
        }
        fn name(&self) -> String {
            "gated".into()
        }
    }

    #[test]
    fn reject_backpressure_fails_fast_when_the_queue_is_full() {
        let gate = Arc::new(Gate::default());
        let model = Arc::new(GatedLm {
            tok: lmpeel_tokenizer::Tokenizer::paper(),
            gate: Arc::clone(&gate),
        });
        let prompt = model.tok.encode("ab");
        let service = InferenceService::builder()
            .model("gated", model)
            .queue_capacity(1)
            .max_batch(1)
            .backpressure(BackpressurePolicy::Reject)
            .build();
        let quick = GenerateSpec::builder()
            .max_tokens(1)
            .stop_tokens(vec![])
            .build()
            .unwrap();

        // First request: admitted, then stalls inside logits on the gate.
        let h1 = service
            .submit(GenerateRequest::new("gated", prompt.clone(), quick.clone()))
            .unwrap();
        gate.wait_entered();
        // Scheduler is stuck mid-decode with a full batch, so this one
        // parks in the single queue slot...
        let h2 = service
            .submit(GenerateRequest::new("gated", prompt.clone(), quick.clone()))
            .unwrap();
        // ...and the next submit finds the queue full and sheds load.
        let err = service
            .submit(GenerateRequest::new("gated", prompt.clone(), quick.clone()))
            .unwrap_err();
        assert_eq!(err, RequestError::QueueFull);

        gate.open();
        assert!(h1.wait().is_ok());
        assert!(h2.wait().is_ok());
        let stats = service.stats();
        assert_eq!(
            stats.submitted, 2,
            "the shed request never counted as submitted"
        );
        assert_eq!(stats.rejected, 1, "the shed request counts as rejected");
        assert_eq!(stats.completed, 2);
    }

    #[test]
    fn block_backpressure_is_lossless_past_the_queue_bound() {
        // Queue of 1, batch of 1: submissions far beyond capacity must all
        // park and eventually complete rather than erroring.
        let model = Arc::new(InductionLm::paper(0));
        let prompt = icl_prompt(&model, &["0.0022155"]);
        let service = InferenceService::builder()
            .model("default", model)
            .queue_capacity(1)
            .max_batch(1)
            .backpressure(BackpressurePolicy::Block)
            .build();
        let handles: Vec<_> = (0..6)
            .map(|seed| {
                service
                    .submit(GenerateRequest::new("default", prompt.clone(), spec(seed)))
                    .unwrap()
            })
            .collect();
        for h in handles {
            assert!(h.wait().is_ok());
        }
        assert_eq!(service.stats().completed, 6);
    }

    #[test]
    fn stats_track_the_lifecycle() {
        let model = Arc::new(InductionLm::paper(0));
        let prompt = icl_prompt(&model, &["0.0022155"]);
        let service = InferenceService::builder().model("default", model).build();
        for seed in 0..3 {
            service
                .generate(GenerateRequest::new("default", prompt.clone(), spec(seed)))
                .unwrap();
        }
        let _ = service
            .generate(GenerateRequest::new("nope", prompt.clone(), spec(0)))
            .unwrap_err();
        let stats = service.stats();
        assert_eq!(stats.submitted, 4);
        assert_eq!(stats.completed, 3);
        assert_eq!(stats.failed, 1);
        assert_eq!(stats.prefix.misses, 1);
        assert_eq!(stats.prefix.full_hits, 2);
        assert_eq!(stats.prefix.tokens_reused, 2 * prompt.len() as u64);
        assert_eq!(stats.prefix.tokens_prefilled, prompt.len() as u64);
    }

    #[test]
    fn try_wait_reports_shutdown_instead_of_spinning_forever() {
        let model = Arc::new(InductionLm::paper(0));
        let prompt = icl_prompt(&model, &["0.0022155"]);
        let service = InferenceService::builder().model("default", model).build();
        let handle = service
            .submit(GenerateRequest::new("default", prompt, spec(0)))
            .unwrap();
        // Poll until the in-flight request resolves.
        let result = loop {
            if let Some(r) = handle.try_wait() {
                break r;
            }
            std::thread::yield_now();
        };
        assert!(result.is_ok());
        // The result was already delivered, so the response channel is
        // disconnected: a further poll must say so, not return None and
        // leave the caller spinning.
        assert_eq!(handle.try_wait(), Some(Err(RequestError::ShutDown)));
    }

    #[test]
    fn zero_length_prompts_decode_like_sequential() {
        let model = Arc::new(InductionLm::paper(0));
        let service = InferenceService::builder()
            .model("default", model.clone())
            .build();
        let expected = generate(&model, &[], &spec(3)).unwrap();
        let got = service
            .generate(GenerateRequest::new("default", vec![], spec(3)))
            .unwrap();
        assert_eq!(got.trace, expected);
        assert_eq!(got.reused_tokens, 0);
        assert_eq!(got.prefilled_tokens, 0);
    }

    #[test]
    fn full_prefix_hit_then_rekey_unsupported_still_rejects() {
        // A substrate without re-keying: the first request populates the
        // trie, the second full-hits it *and then* fails the re-key — the
        // hit must not let an unsatisfiable request through.
        struct Plain(lmpeel_tokenizer::Tokenizer);
        impl LanguageModel for Plain {
            fn tokenizer(&self) -> &lmpeel_tokenizer::Tokenizer {
                &self.0
            }
            fn logits(&self, _c: &[lmpeel_tokenizer::TokenId]) -> Vec<f32> {
                let mut l = vec![f32::NEG_INFINITY; self.0.vocab().len()];
                l[0] = 0.0;
                l
            }
            fn name(&self) -> String {
                "plain".into()
            }
        }
        let model = Arc::new(Plain(lmpeel_tokenizer::Tokenizer::paper()));
        let prompt = model.0.encode("abc");
        let service = InferenceService::builder().model("plain", model).build();
        assert!(service
            .generate(GenerateRequest::new("plain", prompt.clone(), spec(0)))
            .is_ok());
        let err = service
            .generate(GenerateRequest::new("plain", prompt, spec(1)).with_model_seed(4))
            .unwrap_err();
        assert_eq!(err, RequestError::RekeyUnsupported("plain".into()));
        let stats = service.stats();
        assert_eq!(
            stats.prefix.full_hits, 1,
            "the hit happened before the reject"
        );
        assert_eq!(stats.failed, 1);
    }

    #[test]
    fn panic_mid_decode_fails_that_request_and_spares_the_rest() {
        use faults::{Fault, FaultyLm};
        faults::silence_injected_panics();
        let healthy = Arc::new(InductionLm::paper(0));
        let faulty = Arc::new(FaultyLm::new(
            Arc::new(InductionLm::paper(0)),
            Fault::PanicOnStep(2),
        ));
        let prompt = icl_prompt(&healthy, &["0.0022155", "0.0051230"]);
        let service = InferenceService::builder()
            .model("healthy", healthy.clone())
            .model("faulty", faulty)
            .max_batch(8)
            .build();
        // Interleave healthy and faulty requests in one batch.
        let h_good: Vec<_> = (0..3)
            .map(|seed| {
                service
                    .submit(GenerateRequest::new("healthy", prompt.clone(), spec(seed)))
                    .unwrap()
            })
            .collect();
        let h_bad = service
            .submit(GenerateRequest::new("faulty", prompt.clone(), spec(9)))
            .unwrap();
        let err = h_bad.wait().unwrap_err();
        assert!(
            matches!(&err, RequestError::Panicked(reason) if reason.contains("injected fault")),
            "got {err:?}"
        );
        for (seed, h) in h_good.into_iter().enumerate() {
            let expected = generate(&healthy, &prompt, &spec(seed as u64)).unwrap();
            assert_eq!(h.wait().unwrap().trace, expected, "seed {seed}");
        }
        let stats = service.stats();
        assert_eq!(stats.panicked, 1);
        assert_eq!(stats.completed, 3);
    }

    #[test]
    fn panic_during_prefill_is_contained_at_admission() {
        use faults::{Fault, FaultyLm};
        faults::silence_injected_panics();
        let inner = Arc::new(InductionLm::paper(0));
        let faulty = Arc::new(FaultyLm::new(inner.clone(), Fault::PanicOnExtend));
        let prompt = icl_prompt(&inner, &["0.0022155"]);
        let service = InferenceService::builder()
            .model("healthy", inner.clone())
            .model("faulty", faulty)
            .quarantine_after(10)
            .build();
        let err = service
            .generate(GenerateRequest::new("faulty", prompt.clone(), spec(0)))
            .unwrap_err();
        assert!(matches!(err, RequestError::Panicked(_)), "got {err:?}");
        // The scheduler thread survived: healthy work still completes.
        assert!(service
            .generate(GenerateRequest::new("healthy", prompt, spec(0)))
            .is_ok());
    }

    #[test]
    fn consecutive_panics_quarantine_the_substrate() {
        use faults::{Fault, FaultyLm};
        faults::silence_injected_panics();
        let inner = Arc::new(InductionLm::paper(0));
        let faulty = Arc::new(FaultyLm::new(inner.clone(), Fault::PanicOnExtend));
        let prompt = icl_prompt(&inner, &["0.0022155"]);
        let service = InferenceService::builder()
            .model("healthy", inner.clone())
            .model("faulty", faulty)
            .quarantine_after(2)
            .build();
        for _ in 0..2 {
            let err = service
                .generate(GenerateRequest::new("faulty", prompt.clone(), spec(0)))
                .unwrap_err();
            assert!(matches!(err, RequestError::Panicked(_)));
        }
        // Third request: the substrate is quarantined, no more prefills run.
        let err = service
            .generate(GenerateRequest::new("faulty", prompt.clone(), spec(0)))
            .unwrap_err();
        assert_eq!(err, RequestError::SubstrateQuarantined("faulty".into()));
        // The sibling substrate is unaffected.
        assert!(service
            .generate(GenerateRequest::new("healthy", prompt, spec(0)))
            .is_ok());
        let stats = service.stats();
        assert_eq!(stats.panicked, 2);
        assert_eq!(stats.quarantined, 1);
        assert_eq!(stats.failed, 3);
        assert_eq!(stats.completed, 1);
    }

    #[test]
    fn successful_completions_reset_the_panic_streak() {
        use faults::{Fault, FaultyLm};
        faults::silence_injected_panics();
        let inner = Arc::new(InductionLm::paper(0));
        // Panics only on the second decode step: requests capped at one
        // token always succeed, longer ones always panic.
        let faulty = Arc::new(FaultyLm::new(inner.clone(), Fault::PanicOnStep(2)));
        let prompt = icl_prompt(&inner, &["0.0022155"]);
        let service = InferenceService::builder()
            .model("faulty", faulty)
            .quarantine_after(2)
            .build();
        let short = GenerateSpec::builder()
            .max_tokens(1)
            .stop_tokens(vec![])
            .build()
            .unwrap();
        // panic, success, panic, success: streak never reaches 2.
        for _ in 0..2 {
            let err = service
                .generate(GenerateRequest::new("faulty", prompt.clone(), spec(0)))
                .unwrap_err();
            assert!(
                matches!(err, RequestError::Panicked(_)),
                "streak must have been reset, got {err:?}"
            );
            assert!(service
                .generate(GenerateRequest::new(
                    "faulty",
                    prompt.clone(),
                    short.clone()
                ))
                .is_ok());
        }
        assert_eq!(service.stats().quarantined, 0);
    }

    #[test]
    fn injected_decode_errors_do_not_count_toward_quarantine() {
        use faults::{Fault, FaultyLm};
        let inner = Arc::new(InductionLm::paper(0));
        let flaky = Arc::new(FaultyLm::new(inner.clone(), Fault::EmptyLogitsOnStep(1)));
        let prompt = icl_prompt(&inner, &["0.0022155"]);
        let service = InferenceService::builder()
            .model("flaky", flaky)
            .quarantine_after(1)
            .build();
        for _ in 0..3 {
            let err = service
                .generate(GenerateRequest::new("flaky", prompt.clone(), spec(0)))
                .unwrap_err();
            assert_eq!(
                err,
                RequestError::Lm(LmError::EmptyVocab),
                "decode errors are not panics and never quarantine"
            );
        }
        let stats = service.stats();
        assert_eq!(stats.panicked, 0);
        assert_eq!(stats.quarantined, 0);
        assert_eq!(stats.failed, 3);
    }

    #[test]
    fn step_budget_deadline_retires_long_generations() {
        let model = Arc::new(InductionLm::paper(0));
        let prompt = icl_prompt(&model, &["0.0022155"]);
        let service = InferenceService::builder().model("default", model).build();
        let budgeted = |steps| GenerateRequest {
            deadline: Deadline::steps(steps),
            ..GenerateRequest::new("default", prompt.clone(), spec(0))
        };
        let err = service.generate(budgeted(2)).unwrap_err();
        assert_eq!(err, RequestError::DeadlineExceeded);
        // A budget wider than max_tokens never trips.
        assert!(service.generate(budgeted(64)).is_ok());
        let stats = service.stats();
        assert_eq!(stats.deadline_exceeded, 1);
        assert_eq!(stats.completed, 1);
    }

    #[test]
    fn expired_wall_deadline_rejects_at_admission() {
        let model = Arc::new(InductionLm::paper(0));
        let prompt = icl_prompt(&model, &["0.0022155"]);
        let service = InferenceService::builder().model("default", model).build();
        let err = service
            .generate(GenerateRequest {
                deadline: Deadline::wall(std::time::Duration::ZERO),
                ..GenerateRequest::new("default", prompt, spec(0))
            })
            .unwrap_err();
        assert_eq!(err, RequestError::DeadlineExceeded);
        assert_eq!(service.stats().deadline_exceeded, 1);
    }

    #[test]
    fn cancel_retires_an_inflight_request() {
        use faults::{Fault, FaultGate, FaultyLm};
        let gate = FaultGate::new();
        let model = Arc::new(FaultyLm::new(
            Arc::new(InductionLm::paper(0)),
            Fault::HangUntilGate(Arc::clone(&gate)),
        ));
        let prompt = model.tokenizer().encode("Performance: ");
        let service = InferenceService::builder().model("gated", model).build();
        let handle = service
            .submit(GenerateRequest::new("gated", prompt, spec(0)))
            .unwrap();
        gate.wait_entered();
        handle.cancel();
        gate.open();
        let err = handle.wait().unwrap_err();
        assert_eq!(err, RequestError::Cancelled);
        assert_eq!(service.stats().cancelled, 1);
    }

    #[test]
    fn dropping_the_handle_mid_flight_reclaims_the_slot() {
        use faults::{Fault, FaultGate, FaultyLm};
        let gate = FaultGate::new();
        let model = Arc::new(FaultyLm::new(
            Arc::new(InductionLm::paper(0)),
            Fault::HangUntilGate(Arc::clone(&gate)),
        ));
        let prompt = model.tokenizer().encode("Performance: ");
        let service = InferenceService::builder()
            .model("gated", model)
            .max_batch(1)
            .build();
        // A occupies the only batch slot, stalled at the gate; B is queued.
        let a = service
            .submit(GenerateRequest::new("gated", prompt.clone(), spec(0)))
            .unwrap();
        gate.wait_entered();
        let b = service
            .submit(GenerateRequest::new("gated", prompt, spec(1)))
            .unwrap();
        drop(a); // implicit cancel
        gate.open();
        // B can only complete if A's slot was actually reclaimed.
        assert!(b.wait().is_ok());
        let stats = service.stats();
        assert_eq!(stats.cancelled, 1, "the dropped handle cancelled A");
        assert_eq!(stats.completed, 1);
    }

    #[test]
    fn shutdown_drains_queued_requests_and_reports_stats() {
        use faults::{Fault, FaultGate, FaultyLm};
        let gate = FaultGate::new();
        let model = Arc::new(FaultyLm::new(
            Arc::new(InductionLm::paper(0)),
            Fault::HangUntilGate(Arc::clone(&gate)),
        ));
        let prompt = model.tokenizer().encode("Performance: ");
        let service = InferenceService::builder()
            .model("gated", model)
            .max_batch(1)
            .queue_capacity(4)
            .build();
        // A is in flight (stalled at the gate); B and C sit in the queue.
        let a = service
            .submit(GenerateRequest::new("gated", prompt.clone(), spec(0)))
            .unwrap();
        gate.wait_entered();
        let b = service
            .submit(GenerateRequest::new("gated", prompt.clone(), spec(1)))
            .unwrap();
        let c = service
            .submit(GenerateRequest::new("gated", prompt, spec(2)))
            .unwrap();
        // Unblock the decode well after shutdown() has set the drain flag.
        let opener = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(250));
            gate.open();
        });
        let stats = service.shutdown().expect("clean join");
        opener.join().unwrap();
        // In-flight work finished; queued work was rejected, not decoded.
        assert!(a.wait().is_ok());
        assert_eq!(b.wait().unwrap_err(), RequestError::ShutDown);
        assert_eq!(c.wait().unwrap_err(), RequestError::ShutDown);
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.drained, 2);
        assert_eq!(stats.failed, 2);
    }

    #[test]
    fn breaker_recovers_through_a_successful_half_open_probe() {
        use faults::{Fault, FaultyLm};
        faults::silence_injected_panics();
        let inner = Arc::new(InductionLm::paper(0));
        // Panics on the first decode step, but only twice: exactly enough
        // to trip the breaker, after which the substrate is healthy again.
        let faulty =
            Arc::new(FaultyLm::new(inner.clone(), Fault::PanicOnStep(1)).with_fault_budget(2));
        let prompt = icl_prompt(&inner, &["0.0022155"]);
        let service = InferenceService::builder()
            .model("faulty", faulty)
            .quarantine_after(2)
            .breaker_cooldown(2)
            .build();
        // Two panics trip the breaker (round clock: admit, step, admit,
        // step -> trip at round 4 with until = 4 + 2).
        for _ in 0..2 {
            let err = service
                .generate(GenerateRequest::new("faulty", prompt.clone(), spec(0)))
                .unwrap_err();
            assert!(matches!(err, RequestError::Panicked(_)), "got {err:?}");
        }
        // Open: the next request (admitted at round 5 < 6) is rejected
        // without touching the substrate.
        let err = service
            .generate(GenerateRequest::new("faulty", prompt.clone(), spec(0)))
            .unwrap_err();
        assert_eq!(err, RequestError::SubstrateQuarantined("faulty".into()));
        // The rejection itself ticked the clock past the cooldown: the next
        // request is the half-open probe. The fault budget is spent, so it
        // succeeds and closes the breaker.
        let probed = service
            .generate(GenerateRequest::new("faulty", prompt.clone(), spec(0)))
            .expect("the half-open probe rides a now-healthy substrate");
        assert!(!probed.trace.steps.is_empty());
        // Closed again: normal service resumed.
        assert!(service
            .generate(GenerateRequest::new("faulty", prompt, spec(1)))
            .is_ok());
        let stats = service.stats();
        assert_eq!(stats.panicked, 2);
        assert_eq!(stats.quarantined, 1);
        assert_eq!(stats.breaker_recovered, 1);
        assert_eq!(stats.breaker_reopened, 0);
        assert_eq!(stats.completed, 2);
    }

    #[test]
    fn failed_probes_back_off_exponentially() {
        use faults::{Fault, FaultyLm};
        faults::silence_injected_panics();
        let inner = Arc::new(InductionLm::paper(0));
        // Every decode step panics, forever: each half-open probe fails and
        // doubles the cooldown.
        let faulty = Arc::new(FaultyLm::new(inner.clone(), Fault::PanicOnStep(1)));
        let prompt = icl_prompt(&inner, &["0.0022155"]);
        let service = InferenceService::builder()
            .model("faulty", faulty)
            .quarantine_after(1)
            .breaker_cooldown(1)
            .build();
        // Sequential requests tick the logical clock deterministically
        // (one tick per rejection, two per admitted-then-panicked probe).
        // Record which request indices actually reached the substrate.
        let mut panicked_at = Vec::new();
        for i in 0..80 {
            let err = service
                .generate(GenerateRequest::new("faulty", prompt.clone(), spec(0)))
                .unwrap_err();
            match err {
                RequestError::Panicked(_) => panicked_at.push(i as i64),
                RequestError::SubstrateQuarantined(_) => {}
                other => panic!("unexpected terminal error {other:?}"),
            }
        }
        assert!(
            panicked_at.len() >= 5,
            "80 requests admit at least 5 probes, got {panicked_at:?}"
        );
        // The quiet gap between consecutive admitted probes grows strictly:
        // cooldown doubles on every failed probe and jitter is bounded by a
        // quarter of it, so no later gap can shrink back.
        let gaps: Vec<i64> = panicked_at.windows(2).map(|w| w[1] - w[0]).collect();
        for pair in gaps.windows(2) {
            assert!(
                pair[1] > pair[0],
                "backoff gaps must grow, got {gaps:?} from probes at {panicked_at:?}"
            );
        }
        let stats = service.stats();
        assert_eq!(stats.breaker_recovered, 0);
        assert_eq!(
            stats.breaker_reopened,
            panicked_at.len() as u64 - 1,
            "every panic after the first trip is a failed half-open probe"
        );
    }

    #[test]
    fn retry_budget_absorbs_a_transient_decode_error_byte_identically() {
        use faults::{Fault, FaultyLm};
        let inner = Arc::new(InductionLm::paper(0));
        // One all:-inf logit vector on the second decode step, then healthy.
        let flaky = Arc::new(
            FaultyLm::new(inner.clone(), Fault::EmptyLogitsOnStep(2)).with_fault_budget(1),
        );
        let prompt = icl_prompt(&inner, &["0.0022155"]);
        let service = InferenceService::builder()
            .model("flaky", flaky)
            .retry_budget(1)
            .build();
        let got = service
            .generate(GenerateRequest::new("flaky", prompt.clone(), spec(0)))
            .expect("one retry absorbs the one injected error");
        // The failed step consumed no RNG state and appended nothing, so
        // the retried trace is byte-identical to an error-free run.
        let expected = generate(&inner, &prompt, &spec(0)).unwrap();
        assert_eq!(got.trace, expected);
        let stats = service.stats();
        assert_eq!(stats.retried, 1);
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.failed, 0);
        assert_eq!(stats.panicked, 0);
    }

    #[test]
    fn concurrent_batched_requests_all_match_sequential() {
        // Submit a pile of requests before waiting on any handle, so the
        // scheduler genuinely interleaves them in one batch.
        let model = Arc::new(InductionLm::paper(0));
        let prompt = icl_prompt(&model, &["0.0022155", "0.0051230", "0.0031999"]);
        let service = InferenceService::builder()
            .model("default", model.clone())
            .max_batch(8)
            .build();
        let handles: Vec<_> = (0..8)
            .map(|seed| {
                service
                    .submit(GenerateRequest::new("default", prompt.clone(), spec(seed)))
                    .unwrap()
            })
            .collect();
        for (seed, h) in handles.into_iter().enumerate() {
            let expected = generate(&model, &prompt, &spec(seed as u64)).unwrap();
            assert_eq!(h.wait().unwrap().trace, expected, "seed {seed}");
        }
    }
}
