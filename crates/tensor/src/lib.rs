#![warn(missing_docs)]
//! # cascade-tensor
//!
//! Dense `f32` tensors with reverse-mode automatic differentiation — the
//! numerical substrate of the [Cascade](https://doi.org/10.1145/3676641.3716250)
//! TGNN training framework reproduction.
//!
//! The design is a deliberately small dynamic-graph engine in the spirit of
//! PyTorch: every operation records its parents and a backward closure;
//! calling [`Tensor::backward`] on a scalar loss topologically sorts the
//! graph and accumulates gradients into every tensor created with
//! [`Tensor::requires_grad`].
//!
//! # Examples
//!
//! A two-parameter linear regression step:
//!
//! ```
//! use cascade_tensor::Tensor;
//!
//! let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [4, 1]);
//! let t = Tensor::from_vec(vec![3.0, 5.0, 7.0, 9.0], [4, 1]);
//! let w = Tensor::from_vec(vec![0.0], [1, 1]).requires_grad();
//! let b = Tensor::zeros([1]).requires_grad();
//!
//! let pred = x.matmul(&w).add(&b);
//! let loss = pred.sub(&t).square().mean();
//! loss.backward();
//!
//! assert!(w.grad().is_some());
//! assert!(b.grad().is_some());
//! ```
//!
//! # Scope
//!
//! Only what memory-based TGNNs need: broadcasting elementwise algebra,
//! rank-2 matmul, reductions, softmax, row gather/scatter, concatenation,
//! fused TGNN kernels (GRU cell, time encoding, attention scoring), and a
//! handful of activations. Tensors are `Send + Sync` (`Arc`-backed
//! storage) so a batch's independent event shards can be evaluated on
//! worker threads; the deterministic shard-parallel reduction
//! [`Tensor::sharded_sum_scaled`] keeps gradients bit-identical at any
//! thread count by merging per-shard gradient sinks in fixed shard-index
//! order.
//!
//! # Memory model
//!
//! Intermediate buffers — op outputs, gradients, scratch — come from a
//! thread-local recycling [`arena`] instead of the global allocator. When
//! a tensor's last handle drops (the autograd graph dying at the end of a
//! batch), its buffers flow back into the arena and are reused by the next
//! batch's ops. Reads take cheap `Arc` snapshots ([`Tensor::data`]), so
//! forward passes over frozen parameters never hold a lock; writes go
//! through copy-on-write. Call [`arena::reset`] at batch boundaries to
//! trim the pool to its steady-state working set.

pub mod arena;

mod autograd;
mod grad;
mod ops;
mod shape;
mod tensor;
mod workers;

pub use grad::AutogradError;
pub use ops::{ColBlock, GRU_MIN_ROWS_PER_WORKER};
pub use shape::Shape;
pub use tensor::{DataRef, Tensor};
pub use workers::{scoped_chunks, shard_chunk};

/// Cosine similarity between two equal-length vectors.
///
/// Returns 1.0 for two zero vectors (a stabilized node whose memory never
/// moved is by definition similar to itself), and 0.0 when exactly one of
/// the vectors is zero.
///
/// This runs outside the autograd graph: the SG-Filter of the Cascade
/// framework consumes raw memory snapshots.
///
/// # Panics
///
/// Panics if the slices have different lengths.
///
/// # Examples
///
/// ```
/// use cascade_tensor::cosine_similarity;
///
/// let sim = cosine_similarity(&[1.0, 0.0], &[1.0, 0.0]);
/// assert!((sim - 1.0).abs() < 1e-6);
/// assert!(cosine_similarity(&[1.0, 0.0], &[0.0, 1.0]).abs() < 1e-6);
/// ```
pub fn cosine_similarity(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "cosine_similarity length mismatch");
    let mut dot = 0.0f64;
    let mut na = 0.0f64;
    let mut nb = 0.0f64;
    for (&x, &y) in a.iter().zip(b.iter()) {
        dot += x as f64 * y as f64;
        na += x as f64 * x as f64;
        nb += y as f64 * y as f64;
    }
    if na == 0.0 && nb == 0.0 {
        return 1.0;
    }
    if na == 0.0 || nb == 0.0 {
        return 0.0;
    }
    (dot / (na.sqrt() * nb.sqrt())) as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cosine_similarity_basics() {
        assert!((cosine_similarity(&[1.0, 2.0], &[2.0, 4.0]) - 1.0).abs() < 1e-6);
        assert!((cosine_similarity(&[1.0, 0.0], &[-1.0, 0.0]) + 1.0).abs() < 1e-6);
        assert_eq!(cosine_similarity(&[0.0, 0.0], &[0.0, 0.0]), 1.0);
        assert_eq!(cosine_similarity(&[0.0, 0.0], &[1.0, 0.0]), 0.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn cosine_similarity_rejects_ragged() {
        let _ = cosine_similarity(&[1.0], &[1.0, 2.0]);
    }
}
