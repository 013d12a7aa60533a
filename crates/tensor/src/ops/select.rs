//! Row gathering, merging and scattering — the embedding-table primitives
//! TGNN memory reads and write-backs rely on.

use crate::arena;
use crate::grad::GradCtx;
use crate::shape::Shape;
use crate::tensor::Tensor;

impl Tensor {
    /// Gathers rows of a rank-2 tensor: `out[i] = self[indices[i]]`.
    ///
    /// The gradient scatter-adds rows back, so repeated indices accumulate
    /// (matching embedding-lookup semantics).
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank-2 or any index is out of bounds.
    pub fn index_select(&self, indices: &[usize]) -> Tensor {
        assert_eq!(
            self.dims().len(),
            2,
            "index_select requires rank-2, got {}",
            self.shape()
        );
        let (rows, cols) = (self.dims()[0], self.dims()[1]);
        let data = self.data();
        let mut out = arena::take_empty(indices.len() * cols);
        for &i in indices {
            assert!(i < rows, "index {} out of bounds for {} rows", i, rows);
            out.extend_from_slice(&data[i * cols..(i + 1) * cols]);
        }
        drop(data);
        let idx = indices.to_vec();
        Tensor::from_op(
            out,
            Shape::new(vec![idx.len(), cols]),
            vec![self.clone()],
            Box::new(move |_out, grad, parents, ctx: &mut GradCtx| {
                let p = &parents[0];
                if !p.is_requires_grad() {
                    arena::recycle(grad);
                    return;
                }
                let mut g = arena::take_zeroed(rows * cols);
                for (r, &i) in idx.iter().enumerate() {
                    for c in 0..cols {
                        g[i * cols + c] += grad[r * cols + c];
                    }
                }
                arena::recycle(grad);
                ctx.accumulate_owned(p, g);
            }),
        )
    }

    /// `self` with row `rows[i]` replaced by row `i` of `src`: a rank-2
    /// row merge by index, for `rows` distinct. `src`'s gradient is the
    /// upstream gradient of the rows it landed in, and `self`'s is the
    /// upstream gradient with those rows zeroed.
    ///
    /// # Panics
    ///
    /// Panics if either tensor is not rank-2, their widths differ, `src`
    /// does not have `rows.len()` rows, or a row is out of bounds.
    pub fn merge_rows(&self, rows: &[usize], src: &Tensor) -> Tensor {
        assert_eq!(
            self.dims().len(),
            2,
            "merge_rows requires rank-2, got {}",
            self.shape()
        );
        let (n, cols) = (self.dims()[0], self.dims()[1]);
        assert_eq!(
            src.dims(),
            &[rows.len(), cols],
            "merge_rows: src must be [rows, {cols}]"
        );
        let mut out = arena::take_copy(&self.data());
        let data = src.data();
        for (s, &r) in rows.iter().enumerate() {
            assert!(r < n, "index {} out of bounds for {} rows", r, n);
            out[r * cols..(r + 1) * cols].copy_from_slice(&data[s * cols..(s + 1) * cols]);
        }
        drop(data);
        let idx = rows.to_vec();
        Tensor::from_op(
            out,
            self.shape().clone(),
            vec![self.clone(), src.clone()],
            Box::new(move |_out, mut grad, parents, ctx: &mut GradCtx| {
                let (base, src) = (&parents[0], &parents[1]);
                if src.is_requires_grad() {
                    let mut g = arena::take_empty(idx.len() * cols);
                    for &r in &idx {
                        g.extend_from_slice(&grad[r * cols..(r + 1) * cols]);
                    }
                    ctx.accumulate_owned(src, g);
                }
                if base.is_requires_grad() {
                    for &r in &idx {
                        grad[r * cols..(r + 1) * cols].fill(0.0);
                    }
                    ctx.accumulate_owned(base, grad);
                } else {
                    arena::recycle(grad);
                }
            }),
        )
    }

    /// Copies row `r` out of a rank-2 tensor (no autograd).
    ///
    /// # Panics
    ///
    /// Panics if out of bounds or not rank-2.
    pub fn row(&self, r: usize) -> Vec<f32> {
        assert_eq!(self.dims().len(), 2, "row() requires rank-2");
        let cols = self.dims()[1];
        assert!(r < self.dims()[0], "row {} out of bounds", r);
        self.data()[r * cols..(r + 1) * cols].to_vec()
    }
}

#[cfg(test)]
mod tests {
    use crate::Tensor;

    #[test]
    fn gather_rows() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [3, 2]);
        let g = t.index_select(&[2, 0, 2]);
        assert_eq!(g.dims(), &[3, 2]);
        assert_eq!(g.to_vec(), vec![5.0, 6.0, 1.0, 2.0, 5.0, 6.0]);
    }

    #[test]
    fn gather_backward_scatter_adds() {
        let t = Tensor::ones([3, 2]).requires_grad();
        t.index_select(&[1, 1, 0]).sum().backward();
        // row 1 selected twice -> grad 2, row 0 once -> 1, row 2 never -> 0
        assert_eq!(t.grad().unwrap(), vec![1.0, 1.0, 2.0, 2.0, 0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn gather_rejects_oob() {
        let _ = Tensor::zeros([2, 2]).index_select(&[2]);
    }

    #[test]
    fn merge_rows_replaces_and_routes_gradients() {
        let base = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [3, 2]).requires_grad();
        let src = Tensor::from_vec(vec![-1.0, -2.0, -3.0, -4.0], [2, 2]).requires_grad();
        let out = base.merge_rows(&[2, 0], &src);
        assert_eq!(out.to_vec(), vec![-3.0, -4.0, 3.0, 4.0, -1.0, -2.0]);
        let up = Tensor::from_vec(vec![10.0, 20.0, 30.0, 40.0, 50.0, 60.0], [3, 2]);
        out.mul(&up).sum().backward();
        assert_eq!(src.grad().unwrap(), vec![50.0, 60.0, 10.0, 20.0]);
        assert_eq!(base.grad().unwrap(), vec![0.0, 0.0, 30.0, 40.0, 0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn merge_rows_rejects_oob() {
        let _ = Tensor::zeros([2, 2]).merge_rows(&[2], &Tensor::zeros([1, 2]));
    }

    #[test]
    fn row_copies() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2]);
        assert_eq!(t.row(1), vec![3.0, 4.0]);
    }
}
