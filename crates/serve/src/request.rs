//! Request/response surface of the inference service.

use lmpeel_lm::{GenerateSpec, GenerateSpecBuilder, GenerationTrace, LmError, Sampler};
use lmpeel_tokenizer::TokenId;
use std::time::Duration;

/// A per-request completion deadline, checked cooperatively by the
/// scheduler once per scheduling round.
///
/// Both limits default to `None` (no deadline). The logical budget is the
/// deterministic one — it counts scheduling rounds the request has been
/// stepped, independent of wall time, so deadline behaviour is
/// reproducible in tests. The wall-clock limit is measured from *submit*
/// (queue time counts), which is what a latency-budgeted caller means by
/// "give up after 50 ms".
///
/// Deadlines are cooperative: the scheduler checks them between decode
/// steps, so a substrate that blocks inside a single `logits` call is not
/// preempted — the request retires at the next round boundary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Deadline {
    /// Maximum decode steps (scheduling rounds) the request may consume
    /// after admission before retiring with
    /// [`RequestError::DeadlineExceeded`].
    pub max_steps: Option<u64>,
    /// Maximum wall-clock time since `submit` before retiring with
    /// [`RequestError::DeadlineExceeded`].
    pub wall: Option<Duration>,
}

impl Deadline {
    /// No deadline on either axis (the default).
    pub fn none() -> Self {
        Self::default()
    }

    /// A logical budget: at most `steps` decode steps after admission.
    pub fn steps(steps: u64) -> Self {
        Self {
            max_steps: Some(steps),
            wall: None,
        }
    }

    /// A wall-clock budget measured from submission.
    pub fn wall(limit: Duration) -> Self {
        Self {
            max_steps: None,
            wall: Some(limit),
        }
    }

    /// True when neither limit is set.
    pub fn is_none(&self) -> bool {
        self.max_steps.is_none() && self.wall.is_none()
    }
}

/// One generation request submitted to the service.
#[derive(Debug, Clone)]
pub struct GenerateRequest {
    /// Which registered model handles the request (the service can host
    /// several substrates side by side).
    pub substrate: String,
    /// Prompt token ids. Requests sharing a prompt prefix on the same
    /// substrate share its prefill through the prefix cache.
    pub prompt: Vec<TokenId>,
    /// Decoding parameters (already validated by the spec builder; the
    /// scheduler re-validates at admission).
    pub spec: GenerateSpec,
    /// Re-key the decode session's seed-dependent logit state to this seed
    /// before decoding, as if the substrate model had been constructed with
    /// it. Substrates that cannot re-key reject the request with
    /// [`RequestError::RekeyUnsupported`] so the caller can fall back to a
    /// per-seed model.
    pub model_seed: Option<u64>,
    /// Completion deadline; defaults to [`Deadline::none`].
    pub deadline: Deadline,
}

impl GenerateRequest {
    /// Start building a request: one fluent surface covering the decoding
    /// spec, the model seed and the deadline, so callers no longer
    /// assemble a [`GenerateSpec`] separately and thread it through
    /// [`GenerateRequest::new`], which remains for callers that already
    /// hold a validated spec.
    pub fn builder(substrate: impl Into<String>, prompt: Vec<TokenId>) -> GenerateRequestBuilder {
        GenerateRequestBuilder {
            substrate: substrate.into(),
            prompt,
            spec: GenerateSpec::builder(),
            model_seed: None,
            deadline: Deadline::none(),
        }
    }

    /// Request against `substrate` with no model re-keying and no deadline.
    pub fn new(substrate: impl Into<String>, prompt: Vec<TokenId>, spec: GenerateSpec) -> Self {
        Self {
            substrate: substrate.into(),
            prompt,
            spec,
            model_seed: None,
            deadline: Deadline::none(),
        }
    }

    /// Ask the scheduler to re-key the session to `seed` before decoding.
    pub fn with_model_seed(mut self, seed: u64) -> Self {
        self.model_seed = Some(seed);
        self
    }
}

/// Builds a [`GenerateRequest`], embedding the decoding-spec builder so
/// spec knobs and request knobs share one fluent chain:
///
/// ```
/// use lmpeel_serve::GenerateRequest;
///
/// let request = GenerateRequest::builder("default", vec![1, 2, 3])
///     .max_tokens(8)
///     .seed(42)
///     .model_seed(7)
///     .step_budget(64)
///     .build()
///     .unwrap();
/// assert_eq!(request.model_seed, Some(7));
/// ```
///
/// Spec validation happens once, at [`build`](GenerateRequestBuilder::build)
/// — the same [`LmError`]s [`GenerateSpecBuilder::build`] reports, mapped
/// through [`RequestError::Lm`].
#[derive(Debug, Clone)]
pub struct GenerateRequestBuilder {
    substrate: String,
    prompt: Vec<TokenId>,
    spec: GenerateSpecBuilder,
    model_seed: Option<u64>,
    deadline: Deadline,
}

impl GenerateRequestBuilder {
    /// Token-selection strategy; see [`GenerateSpecBuilder::sampler`].
    pub fn sampler(mut self, sampler: Sampler) -> Self {
        self.spec = self.spec.sampler(sampler);
        self
    }

    /// Generation length cap; see [`GenerateSpecBuilder::max_tokens`].
    pub fn max_tokens(mut self, max_tokens: usize) -> Self {
        self.spec = self.spec.max_tokens(max_tokens);
        self
    }

    /// Replace the stop set; see [`GenerateSpecBuilder::stop_tokens`].
    pub fn stop_tokens(mut self, stop_tokens: Vec<TokenId>) -> Self {
        self.spec = self.spec.stop_tokens(stop_tokens);
        self
    }

    /// Add one stop token; see [`GenerateSpecBuilder::stop_token`].
    pub fn stop_token(mut self, token: TokenId) -> Self {
        self.spec = self.spec.stop_token(token);
        self
    }

    /// Trace probability floor; see [`GenerateSpecBuilder::trace_min_prob`].
    pub fn trace_min_prob(mut self, p: f32) -> Self {
        self.spec = self.spec.trace_min_prob(p);
        self
    }

    /// Sampling seed; see [`GenerateSpecBuilder::seed`].
    pub fn seed(mut self, seed: u64) -> Self {
        self.spec = self.spec.seed(seed);
        self
    }

    /// Re-key the decode session to `seed`; see
    /// [`GenerateRequest::with_model_seed`].
    pub fn model_seed(mut self, seed: u64) -> Self {
        self.model_seed = Some(seed);
        self
    }

    /// Attach a complete [`Deadline`].
    pub fn deadline(mut self, deadline: Deadline) -> Self {
        self.deadline = deadline;
        self
    }

    /// Cap the request at `steps` decode steps after admission; see
    /// [`Deadline::max_steps`].
    pub fn step_budget(mut self, steps: u64) -> Self {
        self.deadline.max_steps = Some(steps);
        self
    }

    /// Cap the request at `limit` wall-clock time since submission; see
    /// [`Deadline::wall`].
    pub fn wall_deadline(mut self, limit: Duration) -> Self {
        self.deadline.wall = Some(limit);
        self
    }

    /// Validate the embedded spec and assemble the request.
    pub fn build(self) -> Result<GenerateRequest, RequestError> {
        Ok(GenerateRequest {
            substrate: self.substrate,
            prompt: self.prompt,
            spec: self.spec.build()?,
            model_seed: self.model_seed,
            deadline: self.deadline,
        })
    }
}

/// A finished generation, with prefix-cache accounting for this request.
#[derive(Debug, Clone, PartialEq)]
pub struct GenerateResponse {
    /// The trace — byte-identical to what sequential
    /// [`lmpeel_lm::generate_session`] would have produced for the same
    /// prompt, spec and (re-keyed) model.
    pub trace: GenerationTrace,
    /// Prompt tokens recovered from the prefix cache instead of prefilled.
    pub reused_tokens: usize,
    /// Prompt tokens this request actually prefilled
    /// (`prompt.len() - reused_tokens`).
    pub prefilled_tokens: usize,
}

/// Why a request was rejected or lost.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestError {
    /// The request named a substrate no model was registered under.
    UnknownSubstrate(String),
    /// `model_seed` was set but the substrate's sessions cannot re-key
    /// (the seed is baked into the weights). The payload names the
    /// substrate; callers should fall back to a per-seed model.
    RekeyUnsupported(String),
    /// The bounded request queue was full and the service runs the
    /// [`BackpressurePolicy::Reject`] policy.
    QueueFull,
    /// The service shut down (or entered its drain phase) before the
    /// request completed.
    ShutDown,
    /// The decode itself failed (empty vocabulary, invalid spec, ...).
    Lm(LmError),
    /// The substrate panicked while serving *this* request (during
    /// prefill, re-key, or a decode step). The panic was caught at the
    /// request boundary — the scheduler and every other in-flight request
    /// keep running. The payload is the stringified panic message.
    Panicked(String),
    /// The substrate was quarantined after too many consecutive panics
    /// (the builder's `quarantine_after` threshold), so the scheduler
    /// refuses to run further requests on it. The payload names the
    /// substrate.
    SubstrateQuarantined(String),
    /// The request's [`Deadline`] expired (logical step budget or
    /// wall-clock) before the generation finished.
    DeadlineExceeded,
    /// The request was cancelled via [`crate::ResponseHandle::cancel`] or
    /// by dropping its handle.
    Cancelled,
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RequestError::UnknownSubstrate(name) => {
                write!(f, "no model registered under substrate {name:?}")
            }
            RequestError::RekeyUnsupported(name) => {
                write!(
                    f,
                    "substrate {name:?} cannot re-key sessions; use a per-seed model"
                )
            }
            RequestError::QueueFull => write!(f, "request queue full (reject backpressure)"),
            RequestError::ShutDown => write!(f, "inference service shut down"),
            RequestError::Lm(e) => write!(f, "decode failed: {e}"),
            RequestError::Panicked(reason) => {
                write!(f, "substrate panicked while serving the request: {reason}")
            }
            RequestError::SubstrateQuarantined(name) => {
                write!(f, "substrate {name:?} is quarantined after repeated panics")
            }
            RequestError::DeadlineExceeded => {
                write!(f, "request deadline exceeded before completion")
            }
            RequestError::Cancelled => write!(f, "request cancelled by the caller"),
        }
    }
}

impl std::error::Error for RequestError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RequestError::Lm(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LmError> for RequestError {
    fn from(e: LmError) -> Self {
        RequestError::Lm(e)
    }
}

/// What `submit` does when the bounded request queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackpressurePolicy {
    /// Block the submitting thread until the scheduler drains a slot.
    /// Lossless; the natural choice for batch experiment drivers.
    #[default]
    Block,
    /// Fail fast with [`RequestError::QueueFull`]. The choice for
    /// latency-sensitive callers that would rather shed load.
    Reject,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display_their_context() {
        assert!(RequestError::UnknownSubstrate("x".into())
            .to_string()
            .contains("\"x\""));
        assert!(RequestError::RekeyUnsupported("y".into())
            .to_string()
            .contains("per-seed"));
        assert!(RequestError::from(LmError::EmptyVocab)
            .to_string()
            .contains("decode failed"));
        assert!(RequestError::Panicked("boom".into())
            .to_string()
            .contains("boom"));
        assert!(RequestError::SubstrateQuarantined("z".into())
            .to_string()
            .contains("quarantined"));
        assert!(RequestError::DeadlineExceeded
            .to_string()
            .contains("deadline"));
        assert!(RequestError::Cancelled.to_string().contains("cancelled"));
    }

    #[test]
    fn request_builder_sets_the_seed() {
        let spec = GenerateSpec::paper(0);
        let r = GenerateRequest::new("default", vec![1, 2], spec).with_model_seed(7);
        assert_eq!(r.model_seed, Some(7));
        assert_eq!(r.substrate, "default");
        assert!(r.deadline.is_none());
    }

    #[test]
    fn unified_builder_covers_spec_and_request_knobs() {
        let r = GenerateRequest::builder("default", vec![1, 2])
            .max_tokens(4)
            .seed(9)
            .trace_min_prob(1.0)
            .model_seed(7)
            .step_budget(16)
            .build()
            .unwrap();
        assert_eq!(r.spec.max_tokens(), 4);
        assert_eq!(r.spec.seed(), 9);
        assert_eq!(r.model_seed, Some(7));
        assert_eq!(r.deadline.max_steps, Some(16));

        // Spec validation errors surface as RequestError::Lm.
        let err = GenerateRequest::builder("default", vec![1])
            .max_tokens(0)
            .build()
            .unwrap_err();
        assert!(matches!(err, RequestError::Lm(_)));
    }

    #[test]
    fn deadline_builders_compose() {
        let r = GenerateRequest::builder("default", vec![1])
            .step_budget(5)
            .wall_deadline(Duration::from_millis(50))
            .build()
            .unwrap();
        assert_eq!(r.deadline.max_steps, Some(5));
        assert_eq!(r.deadline.wall, Some(Duration::from_millis(50)));
        assert!(!r.deadline.is_none());
        assert_eq!(Deadline::steps(3).max_steps, Some(3));
        assert_eq!(
            Deadline::wall(Duration::from_secs(1)).wall,
            Some(Duration::from_secs(1))
        );
        assert!(Deadline::none().is_none());
    }
}
