//! Gradient routing for the thread-capable autograd engine.
//!
//! The backward pass threads a [`GradCtx`] through every op closure. In the
//! ordinary (serial) case the context is a no-op passthrough: gradients
//! accumulate directly into each tensor's grad slot, exactly as the
//! original single-threaded engine did. In the shard-parallel case
//! ([`Tensor::sharded_sum_scaled`]) each worker runs its shard's backward
//! pass with a private [`GradSink`] that captures the gradients of every
//! *shared* tensor — trainable leaves (parameters) and explicit barrier
//! tensors — instead of touching the shared grad slots concurrently. After
//! all workers join, the sinks are merged serially in shard-index order, so
//! every float accumulation happens in one fixed order regardless of how
//! many threads ran the shards. That ordering argument is what makes
//! `compute_threads = N` bit-identical to `compute_threads = 1`.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use crate::shape::Shape;
use crate::tensor::Tensor;

/// Typed error for the fallible backward entry points.
///
/// [`Tensor::backward`] keeps its panicking contract for library misuse;
/// the shared train step calls [`Tensor::try_backward`], and the
/// streaming drivers map this error into a `SourceError` instead of
/// unwinding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AutogradError {
    /// `backward()` was called on a tensor that is not a scalar.
    NonScalarOutput {
        /// Display form of the offending shape.
        shape: String,
    },
    /// A backward pass was seeded with an upstream gradient of the wrong
    /// length.
    UpstreamLengthMismatch {
        /// The tensor's element count.
        expected: usize,
        /// The upstream gradient's length.
        got: usize,
    },
}

impl fmt::Display for AutogradError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AutogradError::NonScalarOutput { shape } => {
                write!(f, "backward() requires a scalar output, got {shape}")
            }
            AutogradError::UpstreamLengthMismatch { expected, got } => {
                write!(
                    f,
                    "upstream gradient length mismatch: tensor has {expected} elements, got {got}"
                )
            }
        }
    }
}

impl std::error::Error for AutogradError {}

/// Per-shard gradient buffer: gradients destined for tensors shared across
/// shards are parked here instead of being accumulated concurrently.
///
/// Keyed by tensor id in a `BTreeMap` so merging iterates in id order —
/// ids are assigned in creation order, and every sink-eligible tensor
/// (parameters, barrier tensors) is created on the driver thread before
/// any worker runs, so the merge order is identical across runs and thread
/// counts.
pub(crate) struct GradSink {
    slots: BTreeMap<u64, (Tensor, Vec<f32>)>,
}

impl GradSink {
    pub(crate) fn new() -> GradSink {
        GradSink {
            slots: BTreeMap::new(),
        }
    }

    /// Accumulates `g` into this sink's slot for `t`.
    pub(crate) fn accumulate(&mut self, t: &Tensor, g: &[f32]) {
        match self.slots.get_mut(&t.id()) {
            Some((_, existing)) => {
                for (e, &v) in existing.iter_mut().zip(g) {
                    *e += v;
                }
            }
            None => {
                self.slots
                    .insert(t.id(), (t.clone(), crate::arena::take_copy(g)));
            }
        }
    }

    /// Owned-buffer variant of [`GradSink::accumulate`]: the buffer becomes
    /// the slot when empty, else it is added and recycled.
    pub(crate) fn accumulate_owned(&mut self, t: &Tensor, g: Vec<f32>) {
        match self.slots.get_mut(&t.id()) {
            Some((_, existing)) => {
                for (e, &v) in existing.iter_mut().zip(g.iter()) {
                    *e += v;
                }
                crate::arena::recycle(g);
            }
            None => {
                self.slots.insert(t.id(), (t.clone(), g));
            }
        }
    }

    /// Flushes every parked gradient into its tensor's real grad slot, in
    /// ascending id order.
    pub(crate) fn merge(self) {
        for (_, (tensor, grad)) in self.slots {
            tensor.accumulate_grad_owned(grad);
        }
    }
}

/// The routing context threaded through every backward closure.
pub(crate) struct GradCtx<'a> {
    sink: Option<&'a mut GradSink>,
    barrier: Option<&'a BTreeSet<u64>>,
}

impl<'a> GradCtx<'a> {
    /// Direct accumulation: the serial engine's behavior.
    pub(crate) fn direct() -> GradCtx<'static> {
        GradCtx {
            sink: None,
            barrier: None,
        }
    }

    /// Shard-worker context: leaf and barrier gradients divert into
    /// `sink`, and the traversal stops at `barrier` ids.
    pub(crate) fn sharded(sink: &'a mut GradSink, barrier: &'a BTreeSet<u64>) -> GradCtx<'a> {
        GradCtx {
            sink: Some(sink),
            barrier: Some(barrier),
        }
    }

    /// Whether the backward traversal must not descend past `id` (it is a
    /// shared subgraph boundary that finishes serially on the driver).
    pub(crate) fn stops_at(&self, id: u64) -> bool {
        self.barrier.is_some_and(|b| b.contains(&id))
    }

    /// Accumulates `g` into `t`, diverting into the sink when this context
    /// belongs to a shard worker and `t` is shared (a leaf or a barrier).
    pub(crate) fn accumulate(&mut self, t: &Tensor, g: &[f32]) {
        if let Some(sink) = self.sink.as_deref_mut() {
            let shared = t.is_leaf() || self.barrier.is_some_and(|b| b.contains(&t.id()));
            if shared {
                sink.accumulate(t, g);
                return;
            }
        }
        t.accumulate_grad(g);
    }

    /// Owned-buffer variant of [`GradCtx::accumulate`]: moves the buffer
    /// into the destination slot instead of copying it, recycling it when
    /// the slot already holds a gradient.
    pub(crate) fn accumulate_owned(&mut self, t: &Tensor, g: Vec<f32>) {
        if let Some(sink) = self.sink.as_deref_mut() {
            let shared = t.is_leaf() || self.barrier.is_some_and(|b| b.contains(&t.id()));
            if shared {
                sink.accumulate_owned(t, g);
                return;
            }
        }
        t.accumulate_grad_owned(g);
    }
}

impl Tensor {
    /// Deterministic shard-parallel sum: `scale * Σᵢ shards[i]`, where every
    /// shard is a scalar (typically one shard's loss contribution).
    ///
    /// The forward value is a left-associated serial sum. The backward
    /// pass evaluates each shard's subgraph through
    /// [`scoped_chunks`](crate::scoped_chunks) (contiguous shard chunks
    /// per thread of the backward thread's
    /// [`compute_budget`](crate::compute_budget), out of its arena),
    /// parking gradients of shared tensors in per-shard
    /// gradient sinks, then merges the sinks serially in shard-index order —
    /// making gradients bit-identical at any thread count.
    ///
    /// `shared` lists tensors at the shard-subgraph boundary that are
    /// reachable from several shards *and* have autograd history of their
    /// own (for a memory TGNN: the mailbox-updated memory block). They
    /// become the node's parents, so after the merged gradients land, the
    /// outer engine continues through them serially. Trainable leaves need
    /// not be listed — leaf gradients always divert into the sinks.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is empty or any shard is not a scalar.
    pub fn sharded_sum_scaled(shards: &[Tensor], scale: f32, shared: &[Tensor]) -> Tensor {
        assert!(!shards.is_empty(), "sharded_sum_scaled of zero shards");
        for s in shards {
            assert_eq!(
                s.len(),
                1,
                "sharded_sum_scaled shard must be scalar, got {}",
                s.shape()
            );
        }
        let mut total = 0.0f32;
        for s in shards {
            total += s.item();
        }
        total *= scale;

        let shards: Vec<Tensor> = shards.to_vec();
        let barrier: BTreeSet<u64> = shared.iter().map(Tensor::id).collect();
        let parents: Vec<Tensor> = shared.to_vec();
        Tensor::from_op_rooted(
            vec![total],
            Shape::scalar(),
            parents,
            Box::new(move |_out, grad, _parents, _ctx| {
                let upstream = [grad[0] * scale];
                crate::arena::recycle(grad);
                let mut work: Vec<(&Tensor, GradSink)> =
                    shards.iter().map(|s| (s, GradSink::new())).collect();
                crate::scoped_chunks(&mut work, |_, part| {
                    for (shard, sink) in part {
                        let mut ctx = GradCtx::sharded(sink, &barrier);
                        shard
                            .run_backward(&upstream, &mut ctx)
                            .expect("shard upstream is scalar by construction");
                    }
                });
                // Fixed shard-index order, then fixed id order inside each
                // sink: the accumulation order is a pure function of the
                // graph, never of thread scheduling.
                for (_, sink) in work {
                    sink.merge();
                }
            }),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy "model": per-shard losses (w*x_i)^2 sharing parameter w.
    fn shard_losses(w: &Tensor, xs: &[f32]) -> Vec<Tensor> {
        xs.iter().map(|&x| w.mul_scalar(x).square().sum()).collect()
    }

    #[test]
    fn matches_serial_sum_forward() {
        let w = Tensor::from_vec(vec![2.0], [1]).requires_grad();
        let shards = shard_losses(&w, &[1.0, 2.0, 3.0]);
        let total = Tensor::sharded_sum_scaled(&shards, 0.5, &[]);
        // 0.5 * (4 + 16 + 36) = 28
        assert!((total.item() - 28.0).abs() < 1e-5);
    }

    #[test]
    fn gradients_bit_identical_across_thread_counts() {
        let grads: Vec<Vec<f32>> = [1usize, 2, 4]
            .iter()
            .map(|&threads| {
                let w = Tensor::from_vec(vec![1.5, -0.5], [2]).requires_grad();
                let shards: Vec<Tensor> = (0..8)
                    .map(|i| w.mul_scalar(i as f32 * 0.37 - 1.0).square().sum())
                    .collect();
                let _budget = crate::install_budget(threads);
                let loss = Tensor::sharded_sum_scaled(&shards, 0.125, &[]);
                loss.backward();
                w.grad().expect("w must receive a gradient")
            })
            .collect();
        assert_eq!(grads[0], grads[1]);
        assert_eq!(grads[0], grads[2]);
    }

    #[test]
    fn shared_barrier_continues_serially() {
        // base has history of its own (depends on w); shards branch off it.
        let w = Tensor::from_vec(vec![3.0], [1]).requires_grad();
        let base = w.mul_scalar(2.0); // 6, d(base)/dw = 2
        let shards: Vec<Tensor> = (1..=3).map(|i| base.mul_scalar(i as f32).sum()).collect();
        // loss = Σ i*base = 6*base ; dloss/dw = 12
        let _budget = crate::install_budget(2);
        let loss = Tensor::sharded_sum_scaled(&shards, 1.0, std::slice::from_ref(&base));
        assert!((loss.item() - 36.0).abs() < 1e-5);
        loss.backward();
        assert!((w.grad().expect("w grad")[0] - 12.0).abs() < 1e-4);
    }

    #[test]
    fn error_displays_match_panic_messages() {
        let e = AutogradError::NonScalarOutput {
            shape: "[2]".to_string(),
        };
        assert!(e.to_string().contains("requires a scalar output"));
        let e = AutogradError::UpstreamLengthMismatch {
            expected: 4,
            got: 2,
        };
        assert!(e.to_string().contains("length mismatch"));
    }
}
