//! LM-Peel: the paper's experimental pipeline.
//!
//! Ties the substrates together into the study of "Is In-Context Learning
//! Feasible for HPC Performance Autotuning?":
//!
//! * [`prompt`] — the LLAMBO-style three-part prompts of Figure 1 (system
//!   instructions, problem description, user ICL examples + query);
//! * [`extract`] — "manual identification of all relevant portions of all
//!   outputs": robust recovery of the predicted runtime from raw
//!   generations, including format-drifted ones;
//! * [`decoding`] — the alternative-decoding machinery of §III-C/§IV-C:
//!   locating the value inside a trace, enumerating/sampling the generable
//!   value distribution, central decodes (mean/median), copy detection;
//! * [`tokenstats`] — Table II: per-position selectable-token statistics
//!   and permutation counts;
//! * [`experiment`] — the §IV-A driver: sizes x ICL counts x disjoint
//!   replicas x sampling seeds, random and curated, producing per-setting
//!   and overall reports;
//! * [`needles`] — §IV-C.1: error-bounded "needles in a haystack" oracle
//!   comparison against the boosted-tree baseline;
//! * [`llambo`] — the other two LLAMBO modes described in related work:
//!   generative N-ary classification and candidate sampling;
//! * [`autotune`] — surrogate-driven tuners (random search, boosted-tree
//!   surrogate search, LLM-surrogate search) over the performance datasets.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod autotune;
pub mod decoding;
pub mod experiment;
pub mod extract;
pub mod hybrid;
pub mod journal;
pub mod llambo;
pub mod needles;
pub mod prompt;
pub mod tokenstats;

pub use decoding::{value_distribution, value_span, ValueDistribution};
pub use experiment::{ExperimentPlan, OverallReport, PredictionRecord, SettingKey, SettingReport};
pub use extract::{extract_value, Extraction};
pub use journal::run_plan_journaled;
pub use prompt::{Prompt, PromptBuilder};
pub use tokenstats::{TokenPositionStats, TokenStatsTable};
