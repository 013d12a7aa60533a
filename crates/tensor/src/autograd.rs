//! Reverse-mode automatic differentiation.

// cascade-lint: allow(det-hash-iter): membership test only, never iterated — traversal order comes from the parents vectors.
use std::collections::HashSet;

use crate::grad::{AutogradError, GradCtx};
use crate::tensor::Tensor;

impl Tensor {
    /// Runs reverse-mode autodiff from this scalar tensor, accumulating
    /// gradients into every reachable tensor that requires them.
    ///
    /// Gradients accumulate across calls; clear them between optimizer
    /// steps via [`Tensor::zero_grad`] (the optimizers in `cascade-nn` do
    /// this for you).
    ///
    /// # Panics
    ///
    /// Panics if the tensor does not hold exactly one element. Hot paths
    /// that must not unwind (the shared train step) use
    /// [`Tensor::try_backward`] instead.
    pub fn backward(&self) {
        self.try_backward().unwrap_or_else(|e| panic!("{e}"));
    }

    /// Runs backward with an explicit upstream gradient of this tensor's
    /// shape.
    ///
    /// # Panics
    ///
    /// Panics if `upstream.len()` differs from the element count.
    pub fn backward_with(&self, upstream: &[f32]) {
        self.try_backward_with(upstream)
            .unwrap_or_else(|e| panic!("{e}"));
    }

    /// Fallible [`Tensor::backward`]: returns a typed error instead of
    /// panicking when the output is not a scalar.
    pub fn try_backward(&self) -> Result<(), AutogradError> {
        if self.len() != 1 {
            return Err(AutogradError::NonScalarOutput {
                shape: self.shape().to_string(),
            });
        }
        self.try_backward_with(&[1.0])
    }

    /// Fallible [`Tensor::backward_with`]: returns a typed error instead of
    /// panicking on an upstream length mismatch.
    fn try_backward_with(&self, upstream: &[f32]) -> Result<(), AutogradError> {
        self.run_backward(upstream, &mut GradCtx::direct())
    }

    /// The engine: validates the upstream gradient, topologically orders
    /// the reachable graph, and fires each node's backward closure with
    /// `ctx` routing the accumulations (directly in the serial case, into
    /// per-shard sinks inside [`Tensor::sharded_sum_scaled`] workers).
    pub(crate) fn run_backward(
        &self,
        upstream: &[f32],
        ctx: &mut GradCtx,
    ) -> Result<(), AutogradError> {
        if upstream.len() != self.len() {
            return Err(AutogradError::UpstreamLengthMismatch {
                expected: self.len(),
                got: upstream.len(),
            });
        }
        if !self.is_requires_grad() {
            return Ok(());
        }
        ctx.accumulate(self, upstream);

        // Iterative post-order DFS to topologically order the graph. The
        // traversal stops at barrier ids (shared subgraph boundaries owned
        // by the driver thread); their gradients are diverted by `ctx` and
        // their subgraphs finish serially in the outer pass.
        let mut order: Vec<Tensor> = Vec::new();
        // cascade-lint: allow(det-hash-iter): membership test only, never
        // iterated — traversal order comes from the parents vectors.
        let mut visited: HashSet<u64> = HashSet::new();
        let mut stack: Vec<(Tensor, usize)> = vec![(self.clone(), 0)];
        visited.insert(self.id());
        while let Some((node, child)) = stack.pop() {
            if child < node.inner.parents.len() {
                stack.push((node.clone(), child + 1));
                let parent = node.inner.parents[child].clone();
                if parent.is_requires_grad()
                    && !ctx.stops_at(parent.id())
                    && visited.insert(parent.id())
                {
                    stack.push((parent, 0));
                }
            } else {
                order.push(node);
            }
        }

        // Reverse topological order: outputs before inputs. Each node's
        // gradient is *taken* out of its slot and handed to the closure as
        // an owned buffer: intermediate gradients are consumed exactly once
        // (so repeated backward passes accumulate only into leaves) and the
        // buffers flow back into the arena instead of the allocator.
        for node in order.iter().rev() {
            if let Some(backward) = &node.inner.backward {
                // Taking (not cloning) the gradient leaves non-leaf slots
                // empty after their closure fires; leaf slots are never
                // touched, so parameter gradients persist as before.
                if let Some(grad) = node.take_grad_raw() {
                    backward(node, grad, &node.inner.parents, ctx);
                }
            } else if !node.inner.parents.is_empty() {
                node.zero_grad();
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::grad::AutogradError;
    use crate::Tensor;

    fn close(a: f32, b: f32) -> bool {
        (a - b).abs() < 1e-4
    }

    #[test]
    fn chain_rule_through_composition() {
        // f(x) = (2x + 1)^2 ; f'(x) = 4(2x+1); at x=1 -> 12
        let x = Tensor::from_vec(vec![1.0], [1]).requires_grad();
        let y = x.mul_scalar(2.0).add_scalar(1.0).square().sum();
        y.backward();
        assert!(close(x.grad().unwrap()[0], 12.0));
    }

    #[test]
    fn diamond_graph_accumulates() {
        // f = x*x + x ; f' = 2x + 1 ; at x=3 -> 7
        let x = Tensor::from_vec(vec![3.0], [1]).requires_grad();
        let y = x.mul(&x).add(&x).sum();
        y.backward();
        assert!(close(x.grad().unwrap()[0], 7.0));
    }

    #[test]
    fn reused_subexpression() {
        // s = x + 1; f = s * s; f' = 2(x+1); at x=2 -> 6
        let x = Tensor::from_vec(vec![2.0], [1]).requires_grad();
        let s = x.add_scalar(1.0);
        s.mul(&s).sum().backward();
        assert!(close(x.grad().unwrap()[0], 6.0));
    }

    #[test]
    fn grads_accumulate_across_backwards() {
        let x = Tensor::from_vec(vec![1.0], [1]).requires_grad();
        let y = x.mul_scalar(3.0).sum();
        y.backward();
        y.backward();
        assert!(close(x.grad().unwrap()[0], 6.0));
        x.zero_grad();
        assert!(x.grad().is_none());
    }

    #[test]
    fn no_grad_inputs_are_skipped() {
        let x = Tensor::from_vec(vec![1.0], [1]); // leaf, no grad
        let y = x.mul_scalar(2.0).sum();
        y.backward(); // no-op, must not panic
        assert!(x.grad().is_none());
    }

    #[test]
    #[should_panic(expected = "requires a scalar output")]
    fn backward_rejects_non_scalar() {
        let x = Tensor::ones([2]).requires_grad();
        x.mul_scalar(1.0).backward();
    }

    #[test]
    fn try_backward_reports_non_scalar() {
        let x = Tensor::ones([2]).requires_grad();
        let err = x
            .mul_scalar(1.0)
            .try_backward()
            .expect_err("non-scalar output must be rejected");
        assert!(matches!(err, AutogradError::NonScalarOutput { .. }));
    }

    #[test]
    fn try_backward_with_reports_length_mismatch() {
        let x = Tensor::ones([3]).requires_grad();
        let y = x.mul_scalar(2.0);
        let err = y
            .try_backward_with(&[1.0])
            .expect_err("wrong upstream length must be rejected");
        assert_eq!(
            err,
            AutogradError::UpstreamLengthMismatch {
                expected: 3,
                got: 1
            }
        );
    }

    #[test]
    fn try_backward_matches_backward() {
        let x = Tensor::from_vec(vec![1.0], [1]).requires_grad();
        x.mul_scalar(2.0)
            .add_scalar(1.0)
            .square()
            .sum()
            .try_backward()
            .expect("scalar loss must succeed");
        assert!(close(x.grad().unwrap()[0], 12.0));
    }

    #[test]
    fn finite_difference_agreement() {
        // Random-ish composite function: f(x) = sum(sigmoid(W x) * tanh(x))
        let xs = vec![0.3, -0.7, 1.2];
        let x = Tensor::from_vec(xs.clone(), [3, 1]).requires_grad();
        let w = Tensor::from_vec(vec![0.5, -0.2, 0.8, 0.1, 0.9, -0.4, 0.0, 0.3, 0.7], [3, 3]);
        let f = |x: &Tensor| w.matmul(x).sigmoid().mul(&x.tanh()).sum();
        f(&x).backward();
        let analytic = x.grad().unwrap();

        let eps = 1e-3;
        for i in 0..3 {
            let mut plus = xs.clone();
            plus[i] += eps;
            let mut minus = xs.clone();
            minus[i] -= eps;
            let fp = f(&Tensor::from_vec(plus, [3, 1])).item();
            let fm = f(&Tensor::from_vec(minus, [3, 1])).item();
            let numeric = (fp - fm) / (2.0 * eps);
            assert!(
                (analytic[i] - numeric).abs() < 1e-2,
                "grad[{}]: analytic {} vs numeric {}",
                i,
                analytic[i],
                numeric
            );
        }
    }
}
