//! Elementwise binary operations: `add`, `sub`, `mul`.
//!
//! The operands take one of three [`Layout`]s, the ones the models run:
//! identical shapes, an `[R, C] op [C]` bias row (`[R, 1] + [1]` is its
//! one-column case) and an `[R, C] op [R, 1]` column of per-row weights.
//! Any other pair panics. The layout is classified once at forward time
//! so both passes run a fused chunked-slice loop. Backward closures own
//! their upstream buffer and transform it in place for `a`, whose shape
//! is always the output's, so `a`'s gradient moves without a copy.

use crate::arena;
use crate::grad::GradCtx;
use crate::tensor::Tensor;

#[derive(Clone, Copy, PartialEq, Eq)]
enum BinOp {
    Add,
    Sub,
    Mul,
}

impl BinOp {
    fn apply(self, a: f32, b: f32) -> f32 {
        match self {
            BinOp::Add => a + b,
            BinOp::Sub => a - b,
            BinOp::Mul => a * b,
        }
    }
}

/// How `b` lines up with `a`; the output always has `a`'s shape.
#[derive(Clone, Copy)]
enum Layout {
    /// Identical shapes.
    Same,
    /// `[R, C] op [C]`: bias-style row broadcast.
    Row { rows: usize, cols: usize },
    /// `[R, C] op [R, 1]`: attention-style column broadcast.
    Col { rows: usize, cols: usize },
}

fn layout(a: &Tensor, b: &Tensor) -> Layout {
    if a.shape() == b.shape() {
        return Layout::Same;
    }
    match (a.dims(), b.dims()) {
        (&[rows, cols], &[c]) if c == cols => Layout::Row { rows, cols },
        (&[rows, cols], &[r, 1]) if r == rows => Layout::Col { rows, cols },
        _ => panic!("cannot broadcast {} with {}", a.shape(), b.shape()),
    }
}

/// Column sums: `out[c] = Σ_r w[r·cols + c]` in ascending-`r` order — the
/// gradient of a row broadcast, and of every bias in the fused kernels.
pub(crate) fn reduce_to_row(w: &[f32], rows: usize, cols: usize) -> Vec<f32> {
    let mut out = arena::take_zeroed(cols);
    for r in 0..rows {
        for (o, &v) in out.iter_mut().zip(&w[r * cols..(r + 1) * cols]) {
            *o += v;
        }
    }
    out
}

/// Row sums: `out[r] = Σ_c w[r·cols + c]` in ascending-`c` order.
fn reduce_to_col(w: &[f32], rows: usize, cols: usize) -> Vec<f32> {
    let mut out = arena::take_empty(rows);
    for r in 0..rows {
        let mut acc = 0.0;
        for &v in &w[r * cols..(r + 1) * cols] {
            acc += v;
        }
        out.push(acc);
    }
    out
}

fn binary(a: &Tensor, b: &Tensor, op: BinOp) -> Tensor {
    let layout = layout(a, b);
    let a_data = a.data();
    let b_data = b.data();
    let mut out = arena::take_empty(a.len());
    match layout {
        Layout::Same => {
            out.extend(
                a_data
                    .iter()
                    .zip(b_data.iter())
                    .map(|(&x, &y)| op.apply(x, y)),
            );
        }
        Layout::Row { rows, cols } => {
            for r in 0..rows {
                out.extend(
                    a_data[r * cols..(r + 1) * cols]
                        .iter()
                        .zip(b_data.iter())
                        .map(|(&x, &y)| op.apply(x, y)),
                );
            }
        }
        Layout::Col { rows, cols } => {
            for r in 0..rows {
                let y = b_data[r];
                out.extend(
                    a_data[r * cols..(r + 1) * cols]
                        .iter()
                        .map(|&x| op.apply(x, y)),
                );
            }
        }
    }
    drop(a_data);
    drop(b_data);

    Tensor::from_op(
        out,
        a.shape().clone(),
        vec![a.clone(), b.clone()],
        Box::new(move |_out, grad, parents, ctx: &mut GradCtx| {
            backward(op, layout, grad, parents, ctx);
        }),
    )
}

/// Routes the owned upstream buffer into the operand gradients.
///
/// `b`'s gradient is computed *before* the buffer is consumed for `a`, and
/// accumulation order is always `a` then `b`, so the float accumulation
/// order is a pure function of the shapes.
fn backward(op: BinOp, layout: Layout, mut grad: Vec<f32>, parents: &[Tensor], ctx: &mut GradCtx) {
    let (a, b) = (&parents[0], &parents[1]);
    let (a_req, b_req) = (a.is_requires_grad(), b.is_requires_grad());
    if !a_req && !b_req {
        arena::recycle(grad);
        return;
    }
    // d/db: ±g (Add, Sub) or g ⊙ a (Mul), reduced to b's shape. Reducing
    // first and negating the (exact) sums afterwards is bit-identical to
    // negating before reducing.
    let gb = b_req.then(|| match op {
        BinOp::Add | BinOp::Sub => {
            let mut gb = match layout {
                Layout::Same => arena::take_copy(&grad),
                Layout::Row { rows, cols } => reduce_to_row(&grad, rows, cols),
                Layout::Col { rows, cols } => reduce_to_col(&grad, rows, cols),
            };
            if op == BinOp::Sub {
                for g in gb.iter_mut() {
                    *g = -*g;
                }
            }
            gb
        }
        BinOp::Mul => mul_grad_for_b(layout, &grad, &a.data()),
    });
    // d/da: g (Add, Sub) or g ⊙ b (Mul), already a's shape.
    if a_req {
        if op == BinOp::Mul {
            scale_by_b(layout, &mut grad, &b.data());
        }
        ctx.accumulate_owned(a, grad);
    } else {
        arena::recycle(grad);
    }
    if let Some(gb) = gb {
        ctx.accumulate_owned(b, gb);
    }
}

/// `Mul` backward for `b`: `g ⊙ a` reduced to `b`'s shape.
fn mul_grad_for_b(layout: Layout, grad: &[f32], a_data: &[f32]) -> Vec<f32> {
    match layout {
        Layout::Same => {
            let mut gb = arena::take_empty(grad.len());
            gb.extend(grad.iter().zip(a_data.iter()).map(|(&g, &x)| g * x));
            gb
        }
        Layout::Row { rows, cols } => {
            let mut gb = arena::take_zeroed(cols);
            for r in 0..rows {
                let base = r * cols;
                for c in 0..cols {
                    gb[c] += grad[base + c] * a_data[base + c];
                }
            }
            gb
        }
        Layout::Col { rows, cols } => {
            let mut gb = arena::take_empty(rows);
            for r in 0..rows {
                let base = r * cols;
                let mut acc = 0.0;
                for c in 0..cols {
                    acc += grad[base + c] * a_data[base + c];
                }
                gb.push(acc);
            }
            gb
        }
    }
}

/// Scales the owned upstream by broadcast `b` in place (`Mul` backward
/// for `a`).
fn scale_by_b(layout: Layout, grad: &mut [f32], b_data: &[f32]) {
    match layout {
        Layout::Same => {
            for (g, &bv) in grad.iter_mut().zip(b_data.iter()) {
                *g *= bv;
            }
        }
        Layout::Row { rows, cols } => {
            for r in 0..rows {
                for (g, &bv) in grad[r * cols..(r + 1) * cols].iter_mut().zip(b_data.iter()) {
                    *g *= bv;
                }
            }
        }
        Layout::Col { rows, cols } => {
            for r in 0..rows {
                let bv = b_data[r];
                for g in grad[r * cols..(r + 1) * cols].iter_mut() {
                    *g *= bv;
                }
            }
        }
    }
}

impl Tensor {
    /// Elementwise addition: `other` has this tensor's shape, is a `[C]`
    /// row added to every row of this `[R, C]` tensor, or is an `[R, 1]`
    /// column added across each row.
    ///
    /// # Panics
    ///
    /// Panics if the shapes form none of those three layouts.
    pub fn add(&self, other: &Tensor) -> Tensor {
        binary(self, other, BinOp::Add)
    }

    /// Elementwise subtraction, in the layouts of [`Tensor::add`].
    ///
    /// # Panics
    ///
    /// Panics if the shapes form none of those three layouts.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        binary(self, other, BinOp::Sub)
    }

    /// Elementwise multiplication, in the layouts of [`Tensor::add`].
    ///
    /// # Panics
    ///
    /// Panics if the shapes form none of those three layouts.
    pub fn mul(&self, other: &Tensor) -> Tensor {
        binary(self, other, BinOp::Mul)
    }

    /// Adds a scalar to every element (single-parent fused op: no scalar
    /// tensor, no broadcast machinery).
    pub fn add_scalar(&self, v: f32) -> Tensor {
        scalar_op(self, move |x| x + v, ScalarGrad::PassThrough)
    }

    /// Multiplies every element by a scalar.
    pub fn mul_scalar(&self, v: f32) -> Tensor {
        scalar_op(self, move |x| x * v, ScalarGrad::Scale(v))
    }

    /// Subtracts a scalar from every element.
    pub fn sub_scalar(&self, v: f32) -> Tensor {
        scalar_op(self, move |x| x - v, ScalarGrad::PassThrough)
    }
}

enum ScalarGrad {
    PassThrough,
    Scale(f32),
}

fn scalar_op(t: &Tensor, forward: impl Fn(f32) -> f32, grad_rule: ScalarGrad) -> Tensor {
    let src = t.data();
    let mut out = arena::take_empty(src.len());
    out.extend(src.iter().map(|&x| forward(x)));
    drop(src);
    Tensor::from_op(
        out,
        t.shape().clone(),
        vec![t.clone()],
        Box::new(move |_out, mut grad, parents, ctx: &mut GradCtx| {
            let p = &parents[0];
            if !p.is_requires_grad() {
                arena::recycle(grad);
                return;
            }
            if let ScalarGrad::Scale(v) = grad_rule {
                for g in grad.iter_mut() {
                    *g *= v;
                }
            }
            ctx.accumulate_owned(p, grad);
        }),
    )
}

#[cfg(test)]
mod tests {
    use crate::Tensor;

    #[test]
    fn add_same_shape() {
        let a = Tensor::from_vec(vec![1.0, 2.0], [2]);
        let b = Tensor::from_vec(vec![3.0, 4.0], [2]);
        assert_eq!(a.add(&b).to_vec(), vec![4.0, 6.0]);
    }

    #[test]
    fn sub_mul() {
        let a = Tensor::from_vec(vec![6.0, 8.0], [2]);
        let b = Tensor::from_vec(vec![2.0, 4.0], [2]);
        assert_eq!(a.sub(&b).to_vec(), vec![4.0, 4.0]);
        assert_eq!(a.mul(&b).to_vec(), vec![12.0, 32.0]);
    }

    #[test]
    fn add_row_broadcast() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2]);
        let bias = Tensor::from_vec(vec![10.0, 20.0], [2]);
        assert_eq!(a.add(&bias).to_vec(), vec![11.0, 22.0, 13.0, 24.0]);
    }

    #[test]
    fn mul_column_broadcast() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2]);
        let col = Tensor::from_vec(vec![10.0, 100.0], [2, 1]);
        assert_eq!(a.mul(&col).to_vec(), vec![10.0, 20.0, 300.0, 400.0]);
    }

    #[test]
    fn scalar_helpers() {
        let a = Tensor::from_vec(vec![1.0, 2.0], [2]);
        assert_eq!(a.add_scalar(1.0).to_vec(), vec![2.0, 3.0]);
        assert_eq!(a.mul_scalar(2.0).to_vec(), vec![2.0, 4.0]);
        assert_eq!(a.sub_scalar(1.0).to_vec(), vec![0.0, 1.0]);
    }

    #[test]
    fn incompatible_shapes_panic() {
        // Every pair outside the three layouts, including the shapes
        // general NumPy broadcasting, a scalar on the left and a scalar
        // on the right of a matrix would accept.
        type Op = fn(&Tensor, &Tensor) -> Tensor;
        let cases: [(&[usize], &[usize], Op); 5] = [
            (&[2, 3], &[2, 4], Tensor::add),
            (&[2, 1], &[3], Tensor::mul),
            (&[1], &[2], Tensor::sub),
            (&[2, 3], &[1], Tensor::add),
            (&[4], &[1], Tensor::add),
        ];
        for (a, b, op) in cases {
            let (a, b) = (Tensor::zeros(a), Tensor::zeros(b));
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| op(&a, &b)))
                .expect_err(&format!("{} with {} should panic", a.shape(), b.shape()));
            let msg = err.downcast_ref::<String>().expect("formatted panic");
            assert!(msg.contains("cannot broadcast"), "{}", msg);
        }
    }

    #[test]
    fn add_backward_broadcast_sums() {
        let a = Tensor::ones([2, 2]).requires_grad();
        let bias = Tensor::ones([2]).requires_grad();
        let out = a.add(&bias);
        out.sum().backward();
        assert_eq!(a.grad().unwrap(), vec![1.0; 4]);
        // bias gradient sums over the broadcast (row) axis
        assert_eq!(bias.grad().unwrap(), vec![2.0, 2.0]);
    }

    #[test]
    fn one_column_bias_matches_a_hand_written_loop() {
        // `[R, 1] + [1]`: the predictor's last layer. Forward adds the
        // one bias to every row; the bias gradient sums the upstream in
        // ascending row order from 0.0.
        let rows = 7;
        let x = Tensor::randn([rows, 1], 3).requires_grad();
        let bias = Tensor::randn([1], 4).requires_grad();
        let up = Tensor::randn([rows, 1], 5);
        let out = x.add(&bias);
        let (xv, bv, upv) = (x.to_vec(), bias.to_vec(), up.to_vec());
        let want: Vec<u32> = xv.iter().map(|&v| (v + bv[0]).to_bits()).collect();
        let got: Vec<u32> = out.to_vec().iter().map(|v| v.to_bits()).collect();
        assert_eq!(got, want);

        out.mul(&up).sum().backward();
        let mut bias_grad = 0.0f32;
        for &g in &upv {
            bias_grad += g;
        }
        let bits = |v: Vec<f32>| v.iter().map(|g| g.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(x.grad().unwrap()), bits(upv));
        assert_eq!(bits(bias.grad().unwrap()), bits(vec![bias_grad]));
    }

    #[test]
    fn mul_backward_products() {
        let a = Tensor::from_vec(vec![2.0, 3.0], [2]).requires_grad();
        let b = Tensor::from_vec(vec![5.0, 7.0], [2]).requires_grad();
        a.mul(&b).sum().backward();
        assert_eq!(a.grad().unwrap(), vec![5.0, 7.0]);
        assert_eq!(b.grad().unwrap(), vec![2.0, 3.0]);
    }

    #[test]
    fn mul_column_broadcast_backward() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2]).requires_grad();
        let col = Tensor::from_vec(vec![10.0, 100.0], [2, 1]).requires_grad();
        a.mul(&col).sum().backward();
        assert_eq!(a.grad().unwrap(), vec![10.0, 10.0, 100.0, 100.0]);
        // column grad is the row sum of a
        assert_eq!(col.grad().unwrap(), vec![3.0, 7.0]);
    }
}
