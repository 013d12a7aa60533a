//! Broadcasting elementwise binary operations: `add`, `sub`, `mul`, `div`.
//!
//! The forward pass classifies the operand shapes once into a
//! [`Broadcast`] kind; the hot TGNN shapes — identical shapes, `[R, C] op
//! [C]` bias rows, `[R, C] op [R, 1]` attention columns, and scalar
//! operands — run as fused chunked-slice loops, while arbitrary NumPy
//! broadcasting falls back to the general odometer walk. Backward closures
//! own their upstream buffer and transform it in place wherever an operand
//! shape matches the output, so the common case moves gradients without a
//! single copy. Every fast-path reduction sweeps the output in flat
//! row-major order, matching the general path bit for bit.

use crate::arena;
use crate::grad::GradCtx;
use crate::shape::{advance_index, broadcast_offset, Shape};
use crate::tensor::Tensor;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
}

impl BinOp {
    fn apply(self, a: f32, b: f32) -> f32 {
        match self {
            BinOp::Add => a + b,
            BinOp::Sub => a - b,
            BinOp::Mul => a * b,
            BinOp::Div => a / b,
        }
    }
}

/// Shape relationship of the two operands, classified once at forward
/// time so both passes dispatch to the right fused loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Broadcast {
    /// Identical shapes.
    Same,
    /// `[R, C] op [C]`: bias-style row broadcast.
    Row { rows: usize, cols: usize },
    /// `[R, C] op [R, 1]`: attention-style column broadcast.
    Col { rows: usize, cols: usize },
    /// `b` is a single element and the output has `a`'s shape.
    ScalarB,
    /// `a` is a single element and the output has `b`'s shape.
    ScalarA,
    /// Anything else: general odometer broadcasting.
    General,
}

fn classify(a: &Tensor, b: &Tensor, out_dims: &[usize]) -> Broadcast {
    if a.shape() == b.shape() {
        return Broadcast::Same;
    }
    if b.len() == 1 && out_dims == a.dims() {
        return Broadcast::ScalarB;
    }
    if a.len() == 1 && out_dims == b.dims() {
        return Broadcast::ScalarA;
    }
    if a.dims().len() == 2 && b.dims().len() == 1 && a.dims()[1] == b.dims()[0] {
        return Broadcast::Row {
            rows: a.dims()[0],
            cols: a.dims()[1],
        };
    }
    if a.dims().len() == 2 && b.dims().len() == 2 && a.dims()[0] == b.dims()[0] && b.dims()[1] == 1
    {
        return Broadcast::Col {
            rows: a.dims()[0],
            cols: a.dims()[1],
        };
    }
    Broadcast::General
}

/// Sums `grad` (shaped `out_dims`) over the axes that were broadcast from
/// `src_dims`, producing a gradient of the source shape (arena-backed).
pub(crate) fn reduce_broadcast_grad(
    grad: &[f32],
    out_dims: &[usize],
    src_dims: &[usize],
) -> Vec<f32> {
    if out_dims == src_dims {
        return arena::take_copy(grad);
    }
    let src_len: usize = src_dims.iter().product::<usize>().max(1);
    let mut out = arena::take_zeroed(src_len);
    let src_shape = Shape::new(src_dims.to_vec());
    let src_strides = src_shape.strides();
    let mut idx = vec![0usize; out_dims.len()];
    let mut flat = 0usize;
    loop {
        let off = broadcast_offset(&idx, src_dims, &src_strides);
        out[off] += grad[flat];
        flat += 1;
        if !advance_index(&mut idx, out_dims) {
            break;
        }
    }
    out
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

fn total(w: &[f32]) -> f32 {
    let mut acc = 0.0;
    for &v in w {
        acc += v;
    }
    acc
}

/// Materializes `src` (shaped `src_dims`) broadcast to `out_dims`
/// (general path only; fast paths never expand).
fn expand_slice(src: &[f32], src_dims: &[usize], out_dims: &[usize]) -> Vec<f32> {
    if src_dims == out_dims {
        return arena::take_copy(src);
    }
    let shape = Shape::new(src_dims.to_vec());
    let strides = shape.strides();
    let total: usize = out_dims.iter().product::<usize>().max(1);
    let mut out = arena::take_empty(total);
    let mut idx = vec![0usize; out_dims.len()];
    loop {
        out.push(src[broadcast_offset(&idx, src_dims, &strides)]);
        if !advance_index(&mut idx, out_dims) {
            break;
        }
    }
    out
}

fn binary(a: &Tensor, b: &Tensor, op: BinOp) -> Tensor {
    let out_shape = a
        .shape()
        .broadcast(b.shape())
        .unwrap_or_else(|| panic!("cannot broadcast {} with {}", a.shape(), b.shape()));
    let kind = classify(a, b, out_shape.dims());

    let a_data = a.data();
    let b_data = b.data();
    let mut out = arena::take_empty(out_shape.len());
    match kind {
        Broadcast::Same => {
            out.extend(
                a_data
                    .iter()
                    .zip(b_data.iter())
                    .map(|(&x, &y)| op.apply(x, y)),
            );
        }
        Broadcast::Row { rows, cols } => {
            for r in 0..rows {
                out.extend(
                    a_data[r * cols..(r + 1) * cols]
                        .iter()
                        .zip(b_data.iter())
                        .map(|(&x, &y)| op.apply(x, y)),
                );
            }
        }
        Broadcast::Col { rows, cols } => {
            for r in 0..rows {
                let y = b_data[r];
                out.extend(
                    a_data[r * cols..(r + 1) * cols]
                        .iter()
                        .map(|&x| op.apply(x, y)),
                );
            }
        }
        Broadcast::ScalarB => {
            let y = b_data[0];
            out.extend(a_data.iter().map(|&x| op.apply(x, y)));
        }
        Broadcast::ScalarA => {
            let x = a_data[0];
            out.extend(b_data.iter().map(|&y| op.apply(x, y)));
        }
        Broadcast::General => {
            let out_dims = out_shape.dims();
            let a_strides = a.shape().strides();
            let b_strides = b.shape().strides();
            if !out_shape.is_empty() {
                let mut idx = vec![0usize; out_dims.len()];
                loop {
                    let ai = broadcast_offset(&idx, a.dims(), &a_strides);
                    let bi = broadcast_offset(&idx, b.dims(), &b_strides);
                    out.push(op.apply(a_data[ai], b_data[bi]));
                    if !advance_index(&mut idx, out_dims) {
                        break;
                    }
                }
            }
        }
    }
    drop(a_data);
    drop(b_data);

    let out_dims = out_shape.dims().to_vec();
    Tensor::from_op(
        out,
        out_shape,
        vec![a.clone(), b.clone()],
        Box::new(move |_out, grad, parents, ctx: &mut GradCtx| {
            backward(op, kind, grad, &out_dims, parents, ctx);
        }),
    )
}

/// Routes the owned upstream buffer into the operand gradients.
///
/// Accumulation order is always `a` then `b` for every kind, and `b`'s
/// reductions are computed *before* the buffer is consumed for `a`, so the
/// float accumulation order is a pure function of the shapes.
fn backward(
    op: BinOp,
    kind: Broadcast,
    mut grad: Vec<f32>,
    out_dims: &[usize],
    parents: &[Tensor],
    ctx: &mut GradCtx,
) {
    let (a, b) = (&parents[0], &parents[1]);
    let (a_req, b_req) = (a.is_requires_grad(), b.is_requires_grad());
    if !a_req && !b_req {
        arena::recycle(grad);
        return;
    }
    if kind == Broadcast::General {
        general_backward(op, grad, out_dims, a, b, a_req, b_req, ctx);
        return;
    }
    match op {
        BinOp::Add | BinOp::Sub => {
            // d/da = g; d/db = ±g reduced over the broadcast axes. Reducing
            // first and negating the (exact) sums afterwards is bit-identical
            // to negating before reducing.
            let negate_b = op == BinOp::Sub;
            if kind == Broadcast::ScalarA {
                if a_req {
                    ctx.accumulate(a, &[total(&grad)]);
                }
                if b_req {
                    if negate_b {
                        for g in grad.iter_mut() {
                            *g = -*g;
                        }
                    }
                    ctx.accumulate_owned(b, grad);
                } else {
                    arena::recycle(grad);
                }
                return;
            }
            let gb = if b_req {
                let mut gb = match kind {
                    Broadcast::Same => arena::take_copy(&grad),
                    Broadcast::Row { rows, cols } => reduce_to_row(&grad, rows, cols),
                    Broadcast::Col { rows, cols } => reduce_to_col(&grad, rows, cols),
                    Broadcast::ScalarB => arena::take_copy(&[total(&grad)]),
                    Broadcast::ScalarA | Broadcast::General => unreachable!(),
                };
                if negate_b {
                    for g in gb.iter_mut() {
                        *g = -*g;
                    }
                }
                Some(gb)
            } else {
                None
            };
            if a_req {
                ctx.accumulate_owned(a, grad);
            } else {
                arena::recycle(grad);
            }
            if let Some(gb) = gb {
                ctx.accumulate_owned(b, gb);
            }
        }
        BinOp::Mul => {
            // d/da = g ⊙ b (reduced to a); d/db = g ⊙ a (reduced to b).
            let a_data = a.data();
            let b_data = b.data();
            let gb = if b_req {
                Some(mul_grad_for_b(kind, &grad, &a_data))
            } else {
                None
            };
            if a_req {
                scale_by_b(kind, &mut grad, &b_data);
                if kind == Broadcast::ScalarA {
                    ctx.accumulate(a, &[total(&grad)]);
                    arena::recycle(grad);
                } else {
                    ctx.accumulate_owned(a, grad);
                }
            } else {
                arena::recycle(grad);
            }
            if let Some(gb) = gb {
                ctx.accumulate_owned(b, gb);
            }
        }
        BinOp::Div => {
            // d/da = g / b; d/db = -g ⊙ a / b² (reduced to b).
            let a_data = a.data();
            let b_data = b.data();
            let gb = if b_req {
                Some(div_grad_for_b(kind, &grad, &a_data, &b_data))
            } else {
                None
            };
            if a_req {
                inv_scale_by_b(kind, &mut grad, &b_data);
                if kind == Broadcast::ScalarA {
                    ctx.accumulate(a, &[total(&grad)]);
                    arena::recycle(grad);
                } else {
                    ctx.accumulate_owned(a, grad);
                }
            } else {
                arena::recycle(grad);
            }
            if let Some(gb) = gb {
                ctx.accumulate_owned(b, gb);
            }
        }
    }
}

/// General-path backward: materialize the broadcast weights with the
/// odometer walk, reduce in flat row-major order. This is byte-for-byte
/// the historical semantics; it only runs for exotic shape pairs.
#[allow(clippy::too_many_arguments)]
fn general_backward(
    op: BinOp,
    grad: Vec<f32>,
    out_dims: &[usize],
    a: &Tensor,
    b: &Tensor,
    a_req: bool,
    b_req: bool,
    ctx: &mut GradCtx,
) {
    match op {
        BinOp::Add | BinOp::Sub => {
            if a_req {
                ctx.accumulate_owned(a, reduce_broadcast_grad(&grad, out_dims, a.dims()));
            }
            if b_req {
                let mut gb = reduce_broadcast_grad(&grad, out_dims, b.dims());
                if op == BinOp::Sub {
                    for g in gb.iter_mut() {
                        *g = -*g;
                    }
                }
                ctx.accumulate_owned(b, gb);
            }
        }
        BinOp::Mul => {
            let a_data = a.data();
            let b_data = b.data();
            if a_req {
                let b_vals = expand_slice(&b_data, b.dims(), out_dims);
                let mut w = arena::take_empty(grad.len());
                w.extend(grad.iter().zip(b_vals.iter()).map(|(&g, &v)| g * v));
                arena::recycle(b_vals);
                let ga = reduce_broadcast_grad(&w, out_dims, a.dims());
                arena::recycle(w);
                ctx.accumulate_owned(a, ga);
            }
            if b_req {
                let a_vals = expand_slice(&a_data, a.dims(), out_dims);
                let mut w = arena::take_empty(grad.len());
                w.extend(grad.iter().zip(a_vals.iter()).map(|(&g, &v)| g * v));
                arena::recycle(a_vals);
                let gb = reduce_broadcast_grad(&w, out_dims, b.dims());
                arena::recycle(w);
                ctx.accumulate_owned(b, gb);
            }
        }
        BinOp::Div => {
            let a_data = a.data();
            let b_data = b.data();
            let b_vals = expand_slice(&b_data, b.dims(), out_dims);
            if a_req {
                let mut w = arena::take_empty(grad.len());
                w.extend(grad.iter().zip(b_vals.iter()).map(|(&g, &bv)| g / bv));
                let ga = reduce_broadcast_grad(&w, out_dims, a.dims());
                arena::recycle(w);
                ctx.accumulate_owned(a, ga);
            }
            if b_req {
                let a_vals = expand_slice(&a_data, a.dims(), out_dims);
                let mut w = arena::take_empty(grad.len());
                w.extend(
                    grad.iter()
                        .zip(a_vals.iter().zip(b_vals.iter()))
                        .map(|(&g, (&av, &bv))| -g * av / (bv * bv)),
                );
                arena::recycle(a_vals);
                let gb = reduce_broadcast_grad(&w, out_dims, b.dims());
                arena::recycle(w);
                ctx.accumulate_owned(b, gb);
            }
            arena::recycle(b_vals);
        }
    }
    arena::recycle(grad);
}

/// `Mul` backward for `b`: `g ⊙ a` reduced to `b`'s shape (fast kinds).
fn mul_grad_for_b(kind: Broadcast, grad: &[f32], a_data: &[f32]) -> Vec<f32> {
    match kind {
        Broadcast::Same => {
            let mut gb = arena::take_empty(grad.len());
            gb.extend(grad.iter().zip(a_data.iter()).map(|(&g, &x)| g * x));
            gb
        }
        Broadcast::ScalarA => {
            // a is the scalar: b's gradient has the output shape.
            let av = a_data[0];
            let mut gb = arena::take_empty(grad.len());
            gb.extend(grad.iter().map(|&g| g * av));
            gb
        }
        Broadcast::Row { rows, cols } => {
            let mut gb = arena::take_zeroed(cols);
            for r in 0..rows {
                let base = r * cols;
                for c in 0..cols {
                    gb[c] += grad[base + c] * a_data[base + c];
                }
            }
            gb
        }
        Broadcast::Col { rows, cols } => {
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
        Broadcast::ScalarB => {
            let mut acc = 0.0;
            for (&g, &x) in grad.iter().zip(a_data.iter()) {
                acc += g * x;
            }
            arena::take_copy(&[acc])
        }
        Broadcast::General => unreachable!("general kind handled by general_backward"),
    }
}

/// `Div` backward for `b`: `-g ⊙ a / b²` reduced to `b`'s shape.
fn div_grad_for_b(kind: Broadcast, grad: &[f32], a_data: &[f32], b_data: &[f32]) -> Vec<f32> {
    match kind {
        Broadcast::Same => {
            let mut gb = arena::take_empty(grad.len());
            gb.extend(
                grad.iter()
                    .zip(a_data.iter().zip(b_data.iter()))
                    .map(|(&g, (&av, &bv))| -g * av / (bv * bv)),
            );
            gb
        }
        Broadcast::ScalarA => {
            let av = a_data[0];
            let mut gb = arena::take_empty(grad.len());
            gb.extend(
                grad.iter()
                    .zip(b_data.iter())
                    .map(|(&g, &bv)| -g * av / (bv * bv)),
            );
            gb
        }
        Broadcast::Row { rows, cols } => {
            let mut gb = arena::take_zeroed(cols);
            for r in 0..rows {
                let base = r * cols;
                for c in 0..cols {
                    let bv = b_data[c];
                    gb[c] += -grad[base + c] * a_data[base + c] / (bv * bv);
                }
            }
            gb
        }
        Broadcast::Col { rows, cols } => {
            let mut gb = arena::take_empty(rows);
            for (r, &bv) in b_data.iter().enumerate().take(rows) {
                let base = r * cols;
                let mut acc = 0.0;
                for c in 0..cols {
                    acc += -grad[base + c] * a_data[base + c] / (bv * bv);
                }
                gb.push(acc);
            }
            gb
        }
        Broadcast::ScalarB => {
            let bv = b_data[0];
            let mut acc = 0.0;
            for (&g, &av) in grad.iter().zip(a_data.iter()) {
                acc += -g * av / (bv * bv);
            }
            arena::take_copy(&[acc])
        }
        Broadcast::General => unreachable!("general kind handled by general_backward"),
    }
}

/// Scales the owned upstream by broadcast `b` in place (`Mul` backward
/// for `a`; for `ScalarA` the result still needs a total reduction).
fn scale_by_b(kind: Broadcast, grad: &mut [f32], b_data: &[f32]) {
    match kind {
        Broadcast::Same | Broadcast::ScalarA => {
            for (g, &bv) in grad.iter_mut().zip(b_data.iter()) {
                *g *= bv;
            }
        }
        Broadcast::Row { rows, cols } => {
            for r in 0..rows {
                for (g, &bv) in grad[r * cols..(r + 1) * cols].iter_mut().zip(b_data.iter()) {
                    *g *= bv;
                }
            }
        }
        Broadcast::Col { rows, cols } => {
            for r in 0..rows {
                let bv = b_data[r];
                for g in grad[r * cols..(r + 1) * cols].iter_mut() {
                    *g *= bv;
                }
            }
        }
        Broadcast::ScalarB => {
            let bv = b_data[0];
            for g in grad.iter_mut() {
                *g *= bv;
            }
        }
        Broadcast::General => unreachable!("general kind handled by general_backward"),
    }
}

/// Divides the owned upstream by broadcast `b` in place (`Div` backward
/// for `a`).
fn inv_scale_by_b(kind: Broadcast, grad: &mut [f32], b_data: &[f32]) {
    match kind {
        Broadcast::Same | Broadcast::ScalarA => {
            for (g, &bv) in grad.iter_mut().zip(b_data.iter()) {
                *g /= bv;
            }
        }
        Broadcast::Row { rows, cols } => {
            for r in 0..rows {
                for (g, &bv) in grad[r * cols..(r + 1) * cols].iter_mut().zip(b_data.iter()) {
                    *g /= bv;
                }
            }
        }
        Broadcast::Col { rows, cols } => {
            for r in 0..rows {
                let bv = b_data[r];
                for g in grad[r * cols..(r + 1) * cols].iter_mut() {
                    *g /= bv;
                }
            }
        }
        Broadcast::ScalarB => {
            let bv = b_data[0];
            for g in grad.iter_mut() {
                *g /= bv;
            }
        }
        Broadcast::General => unreachable!("general kind handled by general_backward"),
    }
}

impl Tensor {
    /// Elementwise addition with NumPy-style broadcasting.
    ///
    /// # Panics
    ///
    /// Panics if the shapes cannot be broadcast together.
    pub fn add(&self, other: &Tensor) -> Tensor {
        binary(self, other, BinOp::Add)
    }

    /// Elementwise subtraction with broadcasting.
    ///
    /// # Panics
    ///
    /// Panics if the shapes cannot be broadcast together.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        binary(self, other, BinOp::Sub)
    }

    /// Elementwise multiplication with broadcasting.
    ///
    /// # Panics
    ///
    /// Panics if the shapes cannot be broadcast together.
    pub fn mul(&self, other: &Tensor) -> Tensor {
        binary(self, other, BinOp::Mul)
    }

    /// Elementwise division with broadcasting.
    ///
    /// # Panics
    ///
    /// Panics if the shapes cannot be broadcast together.
    pub fn div(&self, other: &Tensor) -> Tensor {
        binary(self, other, BinOp::Div)
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
    fn sub_mul_div() {
        let a = Tensor::from_vec(vec![6.0, 8.0], [2]);
        let b = Tensor::from_vec(vec![2.0, 4.0], [2]);
        assert_eq!(a.sub(&b).to_vec(), vec![4.0, 4.0]);
        assert_eq!(a.mul(&b).to_vec(), vec![12.0, 32.0]);
        assert_eq!(a.div(&b).to_vec(), vec![3.0, 2.0]);
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
    #[should_panic(expected = "cannot broadcast")]
    fn incompatible_shapes_panic() {
        let a = Tensor::zeros([2, 3]);
        let b = Tensor::zeros([2, 4]);
        let _ = a.add(&b);
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
    fn mul_backward_products() {
        let a = Tensor::from_vec(vec![2.0, 3.0], [2]).requires_grad();
        let b = Tensor::from_vec(vec![5.0, 7.0], [2]).requires_grad();
        a.mul(&b).sum().backward();
        assert_eq!(a.grad().unwrap(), vec![5.0, 7.0]);
        assert_eq!(b.grad().unwrap(), vec![2.0, 3.0]);
    }

    #[test]
    fn div_backward() {
        let a = Tensor::from_vec(vec![6.0], [1]).requires_grad();
        let b = Tensor::from_vec(vec![2.0], [1]).requires_grad();
        a.div(&b).sum().backward();
        assert_eq!(a.grad().unwrap(), vec![0.5]);
        assert_eq!(b.grad().unwrap(), vec![-1.5]);
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

    #[test]
    fn scalar_tensor_operand_backward() {
        // [2,2] op [1] exercises the ScalarB kind on both passes.
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2]).requires_grad();
        let s = Tensor::from_vec(vec![2.0], [1]).requires_grad();
        a.mul(&s).sum().backward();
        assert_eq!(a.grad().unwrap(), vec![2.0; 4]);
        assert_eq!(s.grad().unwrap(), vec![10.0]);

        // ScalarA: scalar on the left of a subtraction.
        let s2 = Tensor::from_vec(vec![5.0], [1]).requires_grad();
        let b = Tensor::from_vec(vec![1.0, 2.0], [2]).requires_grad();
        s2.sub(&b).sum().backward();
        assert_eq!(s2.grad().unwrap(), vec![2.0]);
        assert_eq!(b.grad().unwrap(), vec![-1.0, -1.0]);
    }

    #[test]
    fn general_broadcast_backward() {
        // [2,1] * [3] -> [2,3] takes the general odometer path.
        let a = Tensor::from_vec(vec![2.0, 3.0], [2, 1]).requires_grad();
        let b = Tensor::from_vec(vec![1.0, 10.0, 100.0], [3]).requires_grad();
        let out = a.mul(&b);
        assert_eq!(out.to_vec(), vec![2.0, 20.0, 200.0, 3.0, 30.0, 300.0]);
        out.sum().backward();
        assert_eq!(a.grad().unwrap(), vec![111.0, 111.0]);
        assert_eq!(b.grad().unwrap(), vec![5.0, 5.0, 5.0]);
    }
}
