//! Statistics and metrics substrate for the LM-Peel reproduction.
//!
//! The paper evaluates every predictor — the XGBoost-style baseline, the
//! language model, and the hypothetical post-hoc decoders — with the same
//! three regression metrics: the coefficient of determination ([`r2_score`]),
//! Mean Absolute Relative Error ([`mare`]) and Mean Squared Relative Error
//! ([`msre`]). It then aggregates per-experiment metrics across all settings
//! with Central-Limit-Theorem style summaries (§IV-A). This crate provides
//! those primitives plus supporting machinery: streaming [`summary::Welford`]
//! accumulators, [`histogram`]s for the figure reproductions, the weighted
//! [`median`](histogram::weighted_median) for the mean/median-decoding study
//! (§IV-C), relative-error "needle" counting
//! (§IV-C.1), and deterministic seedable RNG plumbing used by every crate in
//! the workspace.
//!
//! Everything here is dependency-light and deterministic; no wall-clock, no
//! global state.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod histogram;
pub mod metrics;
pub mod needle;
pub mod rng;
pub mod summary;

pub use histogram::{Histogram, HistogramSpec};
pub use metrics::{mare, msre, r2_score, relative_error, RegressionReport};
pub use needle::NeedleReport;
pub use rng::{seeded_rng, SeedDomain};
pub use summary::{Summary, Welford};
