//! Reductions (`sum`, `mean`, per-axis variants) and row softmax.

use crate::arena;
use crate::grad::GradCtx;
use crate::shape::Shape;
use crate::tensor::Tensor;

impl Tensor {
    /// Sum of all elements, as a scalar tensor.
    pub fn sum(&self) -> Tensor {
        let total: f32 = self.data().iter().sum();
        let n = self.len();
        Tensor::from_op(
            vec![total],
            Shape::scalar(),
            vec![self.clone()],
            Box::new(move |_out, grad, parents, ctx: &mut GradCtx| {
                let g = grad[0];
                arena::recycle(grad);
                let p = &parents[0];
                if p.is_requires_grad() {
                    ctx.accumulate_owned(p, arena::take_filled(n, g));
                }
            }),
        )
    }

    /// Mean of all elements, as a scalar tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is empty.
    pub fn mean(&self) -> Tensor {
        let n = self.len();
        assert!(n > 0, "mean of empty tensor");
        self.sum().mul_scalar(1.0 / n as f32)
    }

    /// Sums over `axis`, removing that dimension.
    ///
    /// # Panics
    ///
    /// Panics if `axis` is out of range.
    pub fn sum_axis(&self, axis: usize) -> Tensor {
        let dims = self.dims();
        assert!(
            axis < dims.len(),
            "sum_axis axis {} out of range for {}",
            axis,
            self.shape()
        );
        let axis_len = dims[axis];
        let outer: usize = dims[..axis].iter().product();
        let inner: usize = dims[axis + 1..].iter().product();
        let mut out_dims: Vec<usize> = dims.to_vec();
        out_dims.remove(axis);

        let data = self.data();
        let mut out = arena::take_zeroed(outer * inner);
        for o in 0..outer {
            for a in 0..axis_len {
                let base = (o * axis_len + a) * inner;
                let out_base = o * inner;
                for i in 0..inner {
                    out[out_base + i] += data[base + i];
                }
            }
        }
        drop(data);

        Tensor::from_op(
            out,
            Shape::new(out_dims),
            vec![self.clone()],
            Box::new(move |_out, grad, parents, ctx: &mut GradCtx| {
                let p = &parents[0];
                if !p.is_requires_grad() {
                    arena::recycle(grad);
                    return;
                }
                let mut g = arena::take_zeroed(outer * axis_len * inner);
                for o in 0..outer {
                    for a in 0..axis_len {
                        let base = (o * axis_len + a) * inner;
                        let src_base = o * inner;
                        g[base..base + inner].copy_from_slice(&grad[src_base..src_base + inner]);
                    }
                }
                arena::recycle(grad);
                ctx.accumulate_owned(p, g);
            }),
        )
    }

    /// Numerically stable softmax over the last axis.
    ///
    /// For a rank-2 tensor this is the familiar row softmax used by
    /// attention layers.
    ///
    /// # Panics
    ///
    /// Panics on rank-0 tensors.
    pub fn softmax(&self) -> Tensor {
        let dims = self.dims();
        assert!(!dims.is_empty(), "softmax requires rank >= 1");
        let cols = *dims.last().unwrap();
        let rows = self.len() / cols.max(1);
        let data = self.data();
        let mut out = arena::take_zeroed(data.len());
        for r in 0..rows {
            let row = &data[r * cols..(r + 1) * cols];
            let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let mut denom = 0.0;
            for (o, &x) in out[r * cols..(r + 1) * cols].iter_mut().zip(row.iter()) {
                let e = (x - max).exp();
                *o = e;
                denom += e;
            }
            for o in &mut out[r * cols..(r + 1) * cols] {
                *o /= denom;
            }
        }
        drop(data);

        Tensor::from_op(
            out,
            self.shape().clone(),
            vec![self.clone()],
            Box::new(move |out, mut grad, parents, ctx: &mut GradCtx| {
                let p = &parents[0];
                if !p.is_requires_grad() {
                    arena::recycle(grad);
                    return;
                }
                // Per row: dot = y·g first, then g ← y ⊙ (g − dot), all in
                // place on the owned upstream buffer.
                let y = out.data();
                for r in 0..rows {
                    let ys = &y[r * cols..(r + 1) * cols];
                    let gs = &mut grad[r * cols..(r + 1) * cols];
                    let dot: f32 = ys.iter().zip(gs.iter()).map(|(&a, &b)| a * b).sum();
                    for (g, &yi) in gs.iter_mut().zip(ys.iter()) {
                        *g = yi * (*g - dot);
                    }
                }
                drop(y);
                ctx.accumulate_owned(p, grad);
            }),
        )
    }
}

#[cfg(test)]
mod tests {
    use crate::Tensor;

    fn close(a: f32, b: f32) -> bool {
        (a - b).abs() < 1e-5
    }

    #[test]
    fn sum_and_mean() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2]);
        assert_eq!(t.sum().item(), 10.0);
        assert_eq!(t.mean().item(), 2.5);
    }

    #[test]
    fn sum_axis_rows_and_cols() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [2, 3]);
        assert_eq!(t.sum_axis(0).to_vec(), vec![5.0, 7.0, 9.0]);
        assert_eq!(t.sum_axis(1).to_vec(), vec![6.0, 15.0]);
    }

    #[test]
    fn sum_axis_backward_broadcasts() {
        let t = Tensor::ones([2, 3]).requires_grad();
        t.sum_axis(0).sum().backward();
        assert_eq!(t.grad().unwrap(), vec![1.0; 6]);
    }

    #[test]
    fn softmax_rows_normalize() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 1.0, 1.0, 1.0], [2, 3]);
        let s = t.softmax();
        let v = s.to_vec();
        assert!(close(v[0] + v[1] + v[2], 1.0));
        assert!(close(v[3], 1.0 / 3.0));
        assert!(v[2] > v[1] && v[1] > v[0]);
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0], [1, 3]).softmax();
        let b = Tensor::from_vec(vec![101.0, 102.0, 103.0], [1, 3]).softmax();
        for (x, y) in a.to_vec().iter().zip(b.to_vec().iter()) {
            assert!(close(*x, *y));
        }
    }

    #[test]
    fn softmax_backward_sums_to_zero() {
        // Softmax Jacobian rows sum to zero, so uniform upstream grad
        // yields zero input grad.
        let t = Tensor::from_vec(vec![0.3, -1.2, 2.0], [1, 3]).requires_grad();
        t.softmax().sum().backward();
        for g in t.grad().unwrap() {
            assert!(g.abs() < 1e-5);
        }
    }

    #[test]
    fn mean_backward_scales() {
        let t = Tensor::from_vec(vec![1.0, 3.0], [2]).requires_grad();
        t.mean().backward();
        assert_eq!(t.grad().unwrap(), vec![0.5, 0.5]);
    }
}
