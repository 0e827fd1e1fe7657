//! Language-model abstraction and the calibrated `InductionLm` surrogate.
//!
//! The paper runs Meta-Llama 3.1 8B locally "to maintain complete control
//! over its operations and facilitate analyses requiring direct access to
//! model logits from generation". This crate is the Rust analogue of that
//! harness:
//!
//! * [`model::LanguageModel`] — anything that maps a token context to a
//!   full-vocabulary logit vector;
//! * [`sampler::Sampler`] — temperature / top-k / top-p sampling;
//! * [`trace::GenerationTrace`] — per-step recording of *every* token with
//!   non-negligible probability, the raw material for the paper's
//!   alternative-decoding analyses (Table II, Figures 3-4, §IV-C);
//! * [`generate()`] — the decoding loop;
//! * [`induction::InductionLm`] — a mechanistic surrogate for the
//!   instruction-tuned LLM's behaviour on LLAMBO-style prompts: an
//!   induction-head suffix-copy distribution over the in-context examples,
//!   attention-like weighting by example/query textual similarity, a
//!   "world-knowledge" numeric prior over runtime magnitudes, and
//!   seed-keyed logit jitter. Section-level doc comments spell out which
//!   published LLM behaviour each component reproduces.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod constrain;
pub mod error;
pub mod generate;
pub mod induction;
pub mod model;
pub mod sampler;
pub mod session;
pub mod trace;

pub use constrain::{generate_constrained, LogitConstraint, ValueGrammar};
pub use error::{LmError, MAX_TOKEN_BUDGET};
pub use generate::{
    generate, generate_session, GenerateSpec, GenerateSpecBuilder, GenerationStepper,
};
pub use induction::incremental::InductionLmSession;
pub use induction::{InductionConfig, InductionLm};
pub use model::LanguageModel;
pub use sampler::Sampler;
pub use session::{BatchDriver, BatchDriverRef, DecodeSession, FallbackSession};
pub use trace::{GenStep, GenerationTrace, TokenAlt};
