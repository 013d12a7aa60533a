//! Shape manipulation: `reshape`, `concat`, and row slicing.
//!
//! `reshape` (and full-range `slice_rows`) are zero-copy views: they share
//! the source's `Arc` buffer and rely on copy-on-write in the storage
//! layer, so reinterpreting a batch tensor costs one refcount bump instead
//! of a full copy.

use crate::arena;
use crate::grad::GradCtx;
use crate::shape::Shape;
use crate::tensor::Tensor;

impl Tensor {
    /// Returns a tensor with the same data viewed under a new shape.
    ///
    /// Zero-copy: the view shares the source buffer (copy-on-write makes
    /// later writes to either side unobservable from the other).
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn reshape(&self, shape: impl Into<Shape>) -> Tensor {
        let shape = shape.into();
        assert_eq!(
            shape.len(),
            self.len(),
            "reshape from {} to {} changes element count",
            self.shape(),
            shape
        );
        Tensor::from_op_arc(
            self.share_data(),
            shape,
            vec![self.clone()],
            Box::new(|_out, grad, parents, ctx: &mut GradCtx| {
                let p = &parents[0];
                if p.is_requires_grad() {
                    // A reshape is the identity on the flat buffer: the
                    // owned upstream moves straight through.
                    ctx.accumulate_owned(p, grad);
                } else {
                    arena::recycle(grad);
                }
            }),
        )
    }

    /// Concatenates rank-2 tensors along columns (`axis = 1`).
    ///
    /// All operands must have the same number of rows.
    ///
    /// # Panics
    ///
    /// Panics on empty input, rank ≠ 2, or row-count mismatch.
    pub fn concat_cols(tensors: &[&Tensor]) -> Tensor {
        assert!(!tensors.is_empty(), "concat_cols of zero tensors");
        let rows = tensors[0].dims()[0];
        for t in tensors {
            assert_eq!(t.dims().len(), 2, "concat_cols requires rank-2 tensors");
            assert_eq!(t.dims()[0], rows, "concat_cols row mismatch");
        }
        let widths: Vec<usize> = tensors.iter().map(|t| t.dims()[1]).collect();
        let total_w: usize = widths.iter().sum();
        let mut out = arena::take_zeroed(rows * total_w);
        let mut col = 0;
        for (t, &w) in tensors.iter().zip(widths.iter()) {
            let data = t.data();
            for r in 0..rows {
                out[r * total_w + col..r * total_w + col + w]
                    .copy_from_slice(&data[r * w..(r + 1) * w]);
            }
            col += w;
        }
        let parents: Vec<Tensor> = tensors.iter().map(|t| (*t).clone()).collect();
        Tensor::from_op(
            out,
            Shape::new(vec![rows, total_w]),
            parents,
            Box::new(move |_out, grad, parents, ctx: &mut GradCtx| {
                let mut col = 0;
                for (p, &w) in parents.iter().zip(widths.iter()) {
                    if p.is_requires_grad() {
                        let mut g = arena::take_zeroed(rows * w);
                        for r in 0..rows {
                            g[r * w..(r + 1) * w]
                                .copy_from_slice(&grad[r * total_w + col..r * total_w + col + w]);
                        }
                        ctx.accumulate_owned(p, g);
                    }
                    col += w;
                }
                arena::recycle(grad);
            }),
        )
    }

    /// Concatenates rank-2 tensors along rows (`axis = 0`).
    ///
    /// All operands must have the same number of columns.
    ///
    /// # Panics
    ///
    /// Panics on empty input, rank ≠ 2, or column-count mismatch.
    pub fn concat_rows(tensors: &[&Tensor]) -> Tensor {
        assert!(!tensors.is_empty(), "concat_rows of zero tensors");
        let cols = tensors[0].dims()[1];
        for t in tensors {
            assert_eq!(t.dims().len(), 2, "concat_rows requires rank-2 tensors");
            assert_eq!(t.dims()[1], cols, "concat_rows column mismatch");
        }
        let heights: Vec<usize> = tensors.iter().map(|t| t.dims()[0]).collect();
        let total_h: usize = heights.iter().sum();
        let mut out = arena::take_empty(total_h * cols);
        for t in tensors {
            out.extend_from_slice(&t.data());
        }
        let parents: Vec<Tensor> = tensors.iter().map(|t| (*t).clone()).collect();
        Tensor::from_op(
            out,
            Shape::new(vec![total_h, cols]),
            parents,
            Box::new(move |_out, grad, parents, ctx: &mut GradCtx| {
                let mut row = 0;
                for (p, &h) in parents.iter().zip(heights.iter()) {
                    if p.is_requires_grad() {
                        ctx.accumulate(p, &grad[row * cols..(row + h) * cols]);
                    }
                    row += h;
                }
                arena::recycle(grad);
            }),
        )
    }

    /// Extracts rows `[start, end)` of a rank-2 tensor.
    ///
    /// A full-range slice is a zero-copy view of the source buffer.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or the tensor is not rank-2.
    pub fn slice_rows(&self, start: usize, end: usize) -> Tensor {
        assert_eq!(self.dims().len(), 2, "slice_rows requires rank-2");
        let (rows, cols) = (self.dims()[0], self.dims()[1]);
        assert!(
            start <= end && end <= rows,
            "slice_rows range {}..{} out of {} rows",
            start,
            end,
            rows
        );
        let full = start == 0 && end == rows;
        let backward = Box::new(
            move |_out: &Tensor, grad: Vec<f32>, parents: &[Tensor], ctx: &mut GradCtx| {
                let p = &parents[0];
                if !p.is_requires_grad() {
                    arena::recycle(grad);
                    return;
                }
                if full {
                    ctx.accumulate_owned(p, grad);
                    return;
                }
                let mut g = arena::take_zeroed(rows * cols);
                g[start * cols..end * cols].copy_from_slice(&grad);
                arena::recycle(grad);
                ctx.accumulate_owned(p, g);
            },
        );
        let shape = Shape::new(vec![end - start, cols]);
        if full {
            Tensor::from_op_arc(self.share_data(), shape, vec![self.clone()], backward)
        } else {
            let data = arena::take_copy(&self.data()[start * cols..end * cols]);
            Tensor::from_op(data, shape, vec![self.clone()], backward)
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::Tensor;

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2]);
        let r = t.reshape([4]);
        assert_eq!(r.dims(), &[4]);
        assert_eq!(r.to_vec(), t.to_vec());
    }

    #[test]
    #[should_panic(expected = "changes element count")]
    fn reshape_rejects_bad_count() {
        let _ = Tensor::zeros([2, 2]).reshape([3]);
    }

    #[test]
    fn reshape_backward_flows() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2]).requires_grad();
        t.reshape([4]).mul_scalar(2.0).sum().backward();
        assert_eq!(t.grad().unwrap(), vec![2.0; 4]);
    }

    #[test]
    fn concat_cols_layout() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2]);
        let b = Tensor::from_vec(vec![9.0, 8.0], [2, 1]);
        let c = Tensor::concat_cols(&[&a, &b]);
        assert_eq!(c.dims(), &[2, 3]);
        assert_eq!(c.to_vec(), vec![1.0, 2.0, 9.0, 3.0, 4.0, 8.0]);
    }

    #[test]
    fn concat_cols_backward_splits() {
        let a = Tensor::ones([2, 2]).requires_grad();
        let b = Tensor::ones([2, 1]).requires_grad();
        Tensor::concat_cols(&[&a, &b]).sum().backward();
        assert_eq!(a.grad().unwrap(), vec![1.0; 4]);
        assert_eq!(b.grad().unwrap(), vec![1.0; 2]);
    }

    #[test]
    fn concat_rows_layout() {
        let a = Tensor::from_vec(vec![1.0, 2.0], [1, 2]);
        let b = Tensor::from_vec(vec![3.0, 4.0, 5.0, 6.0], [2, 2]);
        let c = Tensor::concat_rows(&[&a, &b]);
        assert_eq!(c.dims(), &[3, 2]);
        assert_eq!(c.to_vec(), vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
    }

    #[test]
    fn slice_rows_extracts() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [3, 2]);
        let s = t.slice_rows(1, 3);
        assert_eq!(s.dims(), &[2, 2]);
        assert_eq!(s.to_vec(), vec![3.0, 4.0, 5.0, 6.0]);
    }

    #[test]
    fn slice_rows_backward_pads() {
        let t = Tensor::ones([3, 2]).requires_grad();
        t.slice_rows(0, 1).sum().backward();
        assert_eq!(t.grad().unwrap(), vec![1.0, 1.0, 0.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn slice_rows_full_range_is_view() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2]).requires_grad();
        let s = t.slice_rows(0, 2);
        assert_eq!(s.to_vec(), t.to_vec());
        s.sum().backward();
        assert_eq!(t.grad().unwrap(), vec![1.0; 4]);
    }

    #[test]
    #[should_panic(expected = "row mismatch")]
    fn concat_cols_rejects_row_mismatch() {
        let a = Tensor::zeros([2, 2]);
        let b = Tensor::zeros([3, 2]);
        let _ = Tensor::concat_cols(&[&a, &b]);
    }
}
