//! Autotuning configuration-space substrate.
//!
//! The paper tunes a compute-bound loop nest from Polybench/C `syr2k`
//! (Algorithm 1) with six tunable components: two independent optional array
//! packing operations, an optional interchange of the outermost two loops,
//! and three independent loop tile sizes drawn from eleven candidates each —
//! `11^3 * 2^3 = 10,648` unique configurations, matching the paper's dataset
//! cardinality exactly.
//!
//! The crate provides a small generic parameter-space layer
//! ([`param::ParamDef`], [`space::ConfigSpace`]) with mixed-radix
//! index↔configuration bijection, sampling and full enumeration; the
//! canonical [`syr2k`] space with a typed view; configuration
//! [`editdist`]ance and the curated minimal-edit-distance neighbourhood
//! selection of §III-B; and the exact natural-language and CSV
//! serializations from Figure 1 ([`text`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod editdist;
pub mod param;
pub mod size;
pub mod space;
pub mod syr2k;
pub mod text;

pub use editdist::{curated_neighborhood, edit_distance};
pub use param::{Config, ParamDef, ParamValue};
pub use size::ArraySize;
pub use space::ConfigSpace;
pub use syr2k::{syr2k_space, Syr2kConfig, TILE_CANDIDATES};
