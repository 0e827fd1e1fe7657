//! Minimal f32 tensor operations for the transformer inference engine.
//!
//! Small by design: dense row-major matrices ([`matrix::Tensor2`]), a
//! blocked matmul and a matvec, and the pointwise/normalization
//! kernels a decoder layer needs ([`ops`]): numerically stable softmax,
//! layer/RMS norm, GELU/SiLU, and rotary position embedding. All routines
//! are deterministic and allocation-conscious (callers pass output buffers
//! where it matters on the hot path).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod matrix;
pub mod ops;
pub mod paged;

pub use matrix::Tensor2;
pub use ops::{argmax, gelu, layernorm, rmsnorm, rope_rotate, silu, softmax_in_place};
pub use paged::{PagedRows, ROWS_PER_PAGE};
