//! Executable syr2k kernel substrate.
//!
//! The paper's empirical data comes from compiling and running the
//! Polybench/C syr2k loop nest (Algorithm 1) under Polly source-level
//! transformations. This crate is the runnable analogue: a Rust
//! implementation of the same triangular loop nest whose tiling, loop
//! interchange and array packing are applied at runtime from a
//! [`lmpeel_configspace::Syr2kConfig`], plus a wall-clock measurement
//! harness. Every transformed variant is verified against the
//! untransformed reference nest (the transformations are
//! semantics-preserving up to floating-point reassociation).
//!
//! The full-lattice datasets in `lmpeel-perfdata` use the analytical model
//! instead (running all 10,648 XL configurations for real would take
//! hours); this crate exists so the *code path the paper measures* is
//! present, testable, and usable in examples.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arrays;
pub mod measure;
pub mod syr2k;

pub use arrays::Matrix;
pub use measure::{measure, MeasureSpec, Measurement};
pub use syr2k::Syr2kProblem;
