//! Shared reporting helpers for the reproduction binaries.
//!
//! One binary per paper artifact lives in `src/bin/` (see DESIGN.md's
//! per-experiment index), beside the `loadgen` and `frontend_scaling`
//! serving drivers; per-layer timings live in the separate `perfbench`
//! workspace. This library holds the bits the binaries share: aligned
//! text tables, CSV emission, the shared CLI-flag dialect, and the
//! standard experiment-record cache.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod table;

pub use table::TextTable;

pub mod runs;
pub mod wireload;
