//! Tensor operations.
//!
//! Every op creates a new [`Tensor`](crate::Tensor) node whose backward
//! closure knows how to push gradients to the op's parents. Ops whose
//! inputs do not require gradients skip recording history entirely.

mod attention;
mod binary;
mod fused;
mod matmul;
mod reduce;
mod select;
mod shape_ops;
mod unary;

pub use fused::GRU_MIN_ROWS_PER_WORKER;
pub use matmul::ColBlock;
