//! Dense matrix multiplication.
//!
//! Three `+=` layouts — `A·B` (forward), `Aᵀ·B` (weight gradient) and
//! `A·Bᵀ` (input gradient) — over ONE inner loop, [`axpy_quad`]: an output
//! row takes four scaled operand rows at once, `o[j] += c₀·r₀[j]; … ;
//! o[j] += c₃·r₃[j]` as four *separate* additions, so every output element
//! sees its contributions in ascending order of the shared index with the
//! rounding of the naive triple loop, while the lanes of a vector run
//! across distinct output elements. Each layout only arranges for its
//! operand rows to be contiguous:
//!
//! * [`matmul_into`] already has them (rows of `b`), and blocks the shared
//!   dimension into `KC`-row panels of `b` that stay hot across all rows
//!   of `a`;
//! * [`matmul_at_b`] walks the shared dimension outermost: four
//!   consecutive rows of `a` supply the coefficients, the same four rows
//!   of `b` the operand rows, and the small `[m×n]` output stays resident;
//! * [`matmul_a_bt`] transposes its small `[k×n]` operand into arena
//!   scratch first, after which it is `matmul_into` on a private row
//!   accumulator.
//!
//! Because every output element keeps its own ascending sequence of
//! additions, each layout also runs on a *part* of its output with no
//! bit moved: [`matmul_cols_into`] projects a column-blocked input
//! `[x₀ | x₁ | …]` block by block and never touches a block known to be
//! zero, [`matmul_a_bt_cols`] computes only the input-gradient columns of
//! one block, and [`matmul_at_b_rows`] only a range of weight-gradient
//! rows — the pieces [`Tensor::matmul_cols`] and the fused GRU cell split
//! their work into.
//!
//! Zero handling is part of the contract (a skipped `0·∞` is not a NaN):
//! `matmul_into` and `matmul_at_b` skip `a`-side zeros as the naive
//! skip-zero loop does, `matmul_a_bt` is a plain dot product and skips
//! nothing. The naive loops themselves live on in [`oracle`] (test builds
//! only) and every layout is held to them bit for bit.

use std::ops::Range;

use crate::arena;
use crate::grad::GradCtx;
use crate::shape::Shape;
use crate::tensor::Tensor;

/// Panel width over the shared dimension: 128 rows of `b` (at the typical
/// `n ≤ 256` of TGNN hidden layers) fit comfortably in L2.
const KC: usize = 128;

/// `out_row[j] += c · row[j]`, unless `SKIP_ZERO` and `c == 0`.
#[inline(always)]
fn axpy_one<const SKIP_ZERO: bool>(c: f32, row: &[f32], out_row: &mut [f32]) {
    if SKIP_ZERO && c == 0.0 {
        return;
    }
    for (o, &v) in out_row.iter_mut().zip(row.iter()) {
        *o += c * v;
    }
}

/// The shared inner loop: `out_row[j] += c[q] · rows[q·n + j]` for
/// `q = 0, 1, 2, 3` in that order, `n = out_row.len()`.
///
/// With `SKIP_ZERO`, terms whose coefficient is `0.0` or `-0.0` are left
/// out, exactly as the naive skip-zero loop leaves them out.
///
/// `inline(always)`, here and on the two helpers around it: at `n = 32` a
/// quad is some forty cycles of work, and with a plain `#[inline]` LLVM
/// keeps the `SKIP_ZERO` instantiation out of line, which costs the
/// callers a third of their FLOP rate (20 → 12 GFLOP/s).
#[inline(always)]
fn axpy_quad<const SKIP_ZERO: bool>(c: [f32; 4], rows: &[f32], out_row: &mut [f32]) {
    let n = out_row.len();
    let r0 = &rows[..n];
    let r1 = &rows[n..][..n];
    let r2 = &rows[2 * n..][..n];
    let r3 = &rows[3 * n..][..n];
    if !SKIP_ZERO || (c[0] != 0.0 && c[1] != 0.0 && c[2] != 0.0 && c[3] != 0.0) {
        for j in 0..n {
            // Four separate additions: identical rounding to the
            // sequential loop, but independent loads per lane.
            let mut acc = out_row[j];
            acc += c[0] * r0[j];
            acc += c[1] * r1[j];
            acc += c[2] * r2[j];
            acc += c[3] * r3[j];
            out_row[j] = acc;
        }
    } else {
        // A zero in the quad: one term at a time, so the additions
        // performed match the naive skip-zero kernel.
        for (&cv, row) in c.iter().zip([r0, r1, r2, r3]) {
            axpy_one::<true>(cv, row, out_row);
        }
    }
}

/// `out_row += coef · rows`, where `rows` is `[coef.len() × n]` row-major:
/// the quads through [`axpy_quad`], the `coef.len() % 4` tail one term at
/// a time, all in ascending order.
#[inline(always)]
fn axpy_rows<const SKIP_ZERO: bool>(coef: &[f32], rows: &[f32], out_row: &mut [f32]) {
    let n = out_row.len();
    debug_assert_eq!(rows.len(), coef.len() * n);
    let quads = coef.len() / 4 * 4;
    for q in (0..quads).step_by(4) {
        let c = [coef[q], coef[q + 1], coef[q + 2], coef[q + 3]];
        axpy_quad::<SKIP_ZERO>(c, &rows[q * n..][..4 * n], out_row);
    }
    for q in quads..coef.len() {
        axpy_one::<SKIP_ZERO>(coef[q], &rows[q * n..][..n], out_row);
    }
}

/// `out[m×n] += a[m×k] · b[k×n]`, skipping `a`-side zeros.
pub(crate) fn matmul_into(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    #[cfg(test)]
    if oracle::active() {
        return oracle::matmul_into(a, b, out, m, k, n);
    }
    let mut p0 = 0;
    while p0 < k {
        let p_end = (p0 + KC).min(k);
        let panel = &b[p0 * n..p_end * n];
        for i in 0..m {
            let coef = &a[i * k + p0..i * k + p_end];
            axpy_rows::<true>(coef, panel, &mut out[i * n..][..n]);
        }
        p0 = p_end;
    }
}

/// `out[m×n] += a[k×m]ᵀ · b[k×n]` (A transposed): the weight gradient
/// `dB = Aᵀ·dOut`. Skips `a`-side zeros. See [`matmul_at_b_rows`].
pub(crate) fn matmul_at_b(a: &[f32], b: &[f32], out: &mut [f32], k: usize, m: usize, n: usize) {
    matmul_at_b_rows(a, b, out, k, m, n, 0..m);
}

/// The output rows `rows` of `a[k×m]ᵀ · b[k×n]`, added into the
/// `[rows.len() × n]` block `out`. Skips `a`-side zeros.
///
/// The shared dimension `p` runs outermost, four rows at a time: rows
/// `p..p+4` of `a` hold the coefficients of every output row (read
/// contiguously, not at stride `m`), rows `p..p+4` of `b` are the operand
/// rows, and `a` and `b` are each streamed once while the output block —
/// (part of) a weight matrix — stays in cache. Every output element still
/// receives its terms in ascending `p`, so disjoint row ranges may run on
/// different threads and together equal [`matmul_at_b`] to the bit.
pub(crate) fn matmul_at_b_rows(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    k: usize,
    m: usize,
    n: usize,
    rows: Range<usize>,
) {
    debug_assert_eq!(a.len(), k * m);
    debug_assert_eq!(b.len(), k * n);
    debug_assert!(rows.end <= m);
    debug_assert_eq!(out.len(), rows.len() * n);
    #[cfg(test)]
    if oracle::active() {
        return oracle::matmul_at_b_rows(a, b, out, k, m, n, rows);
    }
    let quads = k / 4 * 4;
    for p in (0..quads).step_by(4) {
        let a0 = &a[p * m..][..m];
        let a1 = &a[(p + 1) * m..][..m];
        let a2 = &a[(p + 2) * m..][..m];
        let a3 = &a[(p + 3) * m..][..m];
        let b_rows = &b[p * n..][..4 * n];
        for (o, i) in rows.clone().enumerate() {
            let c = [a0[i], a1[i], a2[i], a3[i]];
            axpy_quad::<true>(c, b_rows, &mut out[o * n..][..n]);
        }
    }
    for p in quads..k {
        let b_row = &b[p * n..][..n];
        for (o, &c) in a[p * m..][rows.clone()].iter().enumerate() {
            axpy_one::<true>(c, b_row, &mut out[o * n..][..n]);
        }
    }
}

/// `out[m×k] += a[m×n] · b[k×n]ᵀ` (B transposed): the input gradient
/// `dA = dOut·Bᵀ`. Skips nothing — each output element is a full dot
/// product, so `0·∞` contributes its NaN.
///
/// `b` (a weight matrix) is transposed into arena scratch so that the
/// shared index walks contiguous rows; each output row is then summed in
/// a zeroed private accumulator in ascending order of the shared index and
/// added to `out` once — per element the same `acc = 0; acc += …;
/// out += acc` as the dot-product loop. Scratch is `k·n + k` floats.
pub(crate) fn matmul_a_bt(a: &[f32], b: &[f32], out: &mut [f32], m: usize, n: usize, k: usize) {
    debug_assert_eq!(a.len(), m * n);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * k);
    #[cfg(test)]
    if oracle::active() {
        return oracle::matmul_a_bt(a, b, out, m, n, k);
    }
    let mut bt = arena::take_empty(n * k);
    for q in 0..n {
        bt.extend(b.iter().skip(q).step_by(n));
    }
    let mut acc = arena::take_zeroed(k);
    for i in 0..m {
        acc.fill(0.0);
        axpy_rows::<false>(&a[i * n..(i + 1) * n], &bt, &mut acc);
        for (o, &v) in out[i * k..(i + 1) * k].iter_mut().zip(acc.iter()) {
            *o += v;
        }
    }
    arena::recycle(bt);
    arena::recycle(acc);
}

/// The columns `cols` of `a[m×n] · b[k×n]ᵀ`, added into the
/// `[m × cols.len()]` block `out`: the input gradient of one column block
/// of a projection. Each column of [`matmul_a_bt`] is its own dot
/// product, so the block's columns are those of the full product to the
/// bit, and the other `k − cols.len()` are never computed.
pub(crate) fn matmul_a_bt_cols(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    n: usize,
    cols: Range<usize>,
) {
    matmul_a_bt(a, &b[cols.start * n..cols.end * n], out, m, n, cols.len());
}

/// `out[m×n] += [x₀ | x₁ | …] · w[K×n]` for the `[m × len(spans[b])]`
/// blocks `xs[b]`, where `spans[b]` is the ascending, disjoint range of
/// `w`'s rows block `b` meets. Rows of `w` no span covers belong to a
/// block known to be zero: the skip-zero kernel would skip every one of
/// their terms, so leaving the block out is exact (an `∞` in those rows
/// of `w` never meets a `0`).
pub(crate) fn matmul_cols_into(
    xs: &[&[f32]],
    spans: &[Range<usize>],
    w: &[f32],
    out: &mut [f32],
    m: usize,
    n: usize,
) {
    for (x, span) in xs.iter().zip(spans) {
        matmul_into(x, &w[span.start * n..span.end * n], out, m, span.len(), n);
    }
}

/// One column block of a projection's input (see [`Tensor::matmul_cols`]):
/// the columns of a rank-2 tensor, or a run of columns known to be zero,
/// which is never materialised, multiplied or differentiated.
#[derive(Clone, Debug)]
pub enum ColBlock {
    /// The columns of this `[rows, width]` tensor.
    Dense(Tensor),
    /// This many all-zero columns.
    Zeros(usize),
}

impl ColBlock {
    /// Number of columns the block contributes.
    fn width(&self) -> usize {
        match self {
            ColBlock::Dense(t) => t.dims()[1],
            ColBlock::Zeros(w) => *w,
        }
    }

    /// `[rows, total width]` of the concatenation `blocks` stands for.
    ///
    /// # Panics
    ///
    /// Panics if no block is a tensor, a tensor is not rank-2, or two
    /// tensors disagree on their row count.
    pub fn shape_of(blocks: &[ColBlock]) -> [usize; 2] {
        let mut rows = None;
        for block in blocks {
            if let ColBlock::Dense(t) = block {
                assert_eq!(t.dims().len(), 2, "column blocks must be rank-2");
                let r = *rows.get_or_insert(t.dims()[0]);
                assert_eq!(t.dims()[0], r, "column blocks disagree on rows");
            }
        }
        let rows = rows.expect("column blocks need at least one tensor");
        [rows, blocks.iter().map(ColBlock::width).sum()]
    }

    /// The tensor blocks and, for each, the range of the concatenation's
    /// columns (= rows of the weight) it covers; zero blocks only shift
    /// the ranges of the blocks after them.
    pub(crate) fn spans(blocks: &[ColBlock]) -> (Vec<Tensor>, Vec<Range<usize>>) {
        let mut tensors = Vec::new();
        let mut spans = Vec::new();
        let mut col = 0;
        for block in blocks {
            let w = block.width();
            if let ColBlock::Dense(t) = block {
                tensors.push(t.clone());
                spans.push(col..col + w);
            }
            col += w;
        }
        (tensors, spans)
    }
}

impl From<&Tensor> for ColBlock {
    fn from(t: &Tensor) -> ColBlock {
        ColBlock::Dense(t.clone())
    }
}

impl Tensor {
    /// Matrix product of two rank-2 tensors: `[m, k] × [k, n] → [m, n]`.
    ///
    /// # Panics
    ///
    /// Panics if either operand is not rank-2 or the inner dimensions
    /// disagree.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        assert_eq!(
            self.dims().len(),
            2,
            "matmul lhs must be rank-2, got {}",
            self.shape()
        );
        assert_eq!(
            other.dims().len(),
            2,
            "matmul rhs must be rank-2, got {}",
            other.shape()
        );
        assert_eq!(
            self.dims()[1],
            other.dims()[0],
            "matmul inner dimensions disagree: {} vs {}",
            self.shape(),
            other.shape()
        );
        Tensor::matmul_cols(&[ColBlock::from(self)], other)
    }

    /// `[x₀ | x₁ | …] · w`: the product of the column-wise concatenation
    /// of `blocks` with the `[K, n]` weight `w`, without building the
    /// concatenation. A [`ColBlock::Zeros`] block costs nothing, and the
    /// backward pass computes an input gradient only for the blocks whose
    /// tensors require one. Bit-identical to
    /// `Tensor::concat_cols(blocks).matmul(w)` in value and in every
    /// gradient (see the module docs).
    ///
    /// # Panics
    ///
    /// Panics if the blocks' shapes disagree (see [`ColBlock::shape_of`]),
    /// `w` is not rank-2, or the total width differs from `w`'s rows.
    pub fn matmul_cols(blocks: &[ColBlock], w: &Tensor) -> Tensor {
        let [m, k] = ColBlock::shape_of(blocks);
        assert_eq!(
            w.dims().len(),
            2,
            "matmul rhs must be rank-2, got {}",
            w.shape()
        );
        assert_eq!(
            w.dims()[0],
            k,
            "matmul_cols: blocks are {k} columns wide, the weight is {}",
            w.shape()
        );
        let n = w.dims()[1];
        let (mut parents, spans) = ColBlock::spans(blocks);

        let mut out = arena::take_zeroed(m * n);
        {
            let xs: Vec<_> = parents.iter().map(Tensor::data).collect();
            let xs: Vec<&[f32]> = xs.iter().map(|x| &**x).collect();
            matmul_cols_into(&xs, &spans, &w.data(), &mut out, m, n);
        }

        parents.push(w.clone());
        Tensor::from_op(
            out,
            Shape::new(vec![m, n]),
            parents,
            Box::new(move |_out, grad, parents, ctx: &mut GradCtx| {
                let (xs, w) = parents.split_at(parents.len() - 1);
                let w = &w[0];
                let wd = w.data();
                for (x, span) in xs.iter().zip(&spans) {
                    if x.is_requires_grad() {
                        // dX = dOut · W[span]ᵀ : [m,n]·[w,n]ᵀ → [m,w]
                        let mut gx = arena::take_zeroed(m * span.len());
                        matmul_a_bt_cols(&grad, &wd, &mut gx, m, n, span.clone());
                        ctx.accumulate_owned(x, gx);
                    }
                }
                drop(wd);
                if w.is_requires_grad() {
                    // dW[span] = Xᵀ · dOut, rows of zero blocks stay 0.
                    let mut gw = arena::take_zeroed(k * n);
                    for (x, span) in xs.iter().zip(&spans) {
                        let rows = &mut gw[span.start * n..span.end * n];
                        matmul_at_b(&x.data(), &grad, rows, m, span.len(), n);
                    }
                    ctx.accumulate_owned(w, gw);
                }
                arena::recycle(grad);
            }),
        )
    }
}

/// The naive loops the kernels above replaced, kept as the reference every
/// layout is compared against bit for bit. Inside [`with`](oracle::with)
/// the three entry points run these instead, which is how the gradient
/// pins below obtain "the gradient the old kernels produced".
#[cfg(test)]
pub(crate) mod oracle {
    use std::cell::Cell;

    thread_local! {
        static ACTIVE: Cell<bool> = const { Cell::new(false) };
    }

    pub(crate) fn active() -> bool {
        ACTIVE.with(Cell::get)
    }

    /// Runs `f` with this thread's matmul entry points routed to the
    /// oracle loops.
    pub(crate) fn with<R>(f: impl FnOnce() -> R) -> R {
        ACTIVE.with(|a| a.set(true));
        let r = f();
        ACTIVE.with(|a| a.set(false));
        r
    }

    /// `out[m×n] += a[m×k] · b[k×n]`: the `ikj` triple loop, `a`-side
    /// zeros skipped.
    pub(crate) fn matmul_into(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
        for i in 0..m {
            for p in 0..k {
                let av = a[i * k + p];
                if av == 0.0 {
                    continue;
                }
                for j in 0..n {
                    out[i * n + j] += av * b[p * n + j];
                }
            }
        }
    }

    /// `out[m×n] += a[k×m]ᵀ · b[k×n]`: ascending `p` per element, `a`-side
    /// zeros skipped.
    pub(crate) fn matmul_at_b(a: &[f32], b: &[f32], out: &mut [f32], k: usize, m: usize, n: usize) {
        matmul_at_b_rows(a, b, out, k, m, n, 0..m);
    }

    /// Output rows `rows` of the loop above, into a `[rows.len() × n]`
    /// block.
    pub(crate) fn matmul_at_b_rows(
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        k: usize,
        m: usize,
        n: usize,
        rows: std::ops::Range<usize>,
    ) {
        for (o, i) in rows.enumerate() {
            for p in 0..k {
                let av = a[p * m + i];
                if av == 0.0 {
                    continue;
                }
                for j in 0..n {
                    out[o * n + j] += av * b[p * n + j];
                }
            }
        }
    }

    /// `out[m×k] += a[m×n] · b[k×n]ᵀ`: one ascending dot product per
    /// element, nothing skipped.
    pub(crate) fn matmul_a_bt(a: &[f32], b: &[f32], out: &mut [f32], m: usize, n: usize, k: usize) {
        for i in 0..m {
            for j in 0..k {
                let mut acc = 0.0;
                for q in 0..n {
                    acc += a[i * n + q] * b[j * n + q];
                }
                out[i * k + j] += acc;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{oracle, ColBlock, KC};
    use crate::Tensor;

    #[test]
    fn small_product() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2]);
        let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], [2, 2]);
        assert_eq!(a.matmul(&b).to_vec(), vec![19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn rectangular_product() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [2, 3]);
        let b = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0], [3, 2]);
        assert_eq!(a.matmul(&b).dims(), &[2, 2]);
        assert_eq!(a.matmul(&b).to_vec(), vec![4.0, 5.0, 10.0, 11.0]);
    }

    #[test]
    fn identity_is_neutral() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2]);
        let i = Tensor::eye(2);
        assert_eq!(a.matmul(&i).to_vec(), a.to_vec());
        assert_eq!(i.matmul(&a).to_vec(), a.to_vec());
    }

    #[test]
    #[should_panic(expected = "inner dimensions disagree")]
    fn mismatched_inner_dims_panic() {
        let a = Tensor::zeros([2, 3]);
        let b = Tensor::zeros([4, 2]);
        let _ = a.matmul(&b);
    }

    #[test]
    fn backward_matches_manual() {
        // f = sum(A·B); dA = 1·Bᵀ-row-sums, dB = Aᵀ-col-sums
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2]).requires_grad();
        let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], [2, 2]).requires_grad();
        a.matmul(&b).sum().backward();
        // dA[i][p] = sum_j B[p][j]
        assert_eq!(a.grad().unwrap(), vec![11.0, 15.0, 11.0, 15.0]);
        // dB[p][j] = sum_i A[i][p]
        assert_eq!(b.grad().unwrap(), vec![4.0, 4.0, 6.0, 6.0]);
    }

    #[test]
    fn zero_rows_ok() {
        let a = Tensor::zeros([0, 3]);
        let b = Tensor::zeros([3, 2]);
        let c = a.matmul(&b);
        assert_eq!(c.dims(), &[0, 2]);
        assert!(c.is_empty());
    }

    /// Seeded values in `[-0.5, 0.5)` with about one exact `0.0` in 25.
    fn lcg(seed: u64) -> impl FnMut() -> f32 {
        let mut rng = seed;
        move || {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let v = ((rng >> 33) as f32) / ((1u64 << 31) as f32) - 0.5;
            if v.abs() < 0.02 {
                0.0
            } else {
                v
            }
        }
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    type Kernel = fn(&[f32], &[f32], &mut [f32], usize, usize, usize);

    /// One layout: the kernel, its oracle, and the order in which it
    /// takes a case's `(rows, shared, cols)`. In every layout `a` holds
    /// `rows·shared` floats, `b` `shared·cols` and `out` `rows·cols`.
    struct Layout {
        name: &'static str,
        fast: Kernel,
        naive: Kernel,
        dims: fn(usize, usize, usize) -> [usize; 3],
    }

    const LAYOUTS: [Layout; 3] = [
        Layout {
            name: "matmul_into",
            fast: super::matmul_into,
            naive: oracle::matmul_into,
            dims: |r, s, c| [r, s, c],
        },
        Layout {
            name: "matmul_at_b",
            fast: super::matmul_at_b,
            naive: oracle::matmul_at_b,
            dims: |r, s, c| [s, r, c],
        },
        Layout {
            name: "matmul_a_bt",
            fast: super::matmul_a_bt,
            naive: oracle::matmul_a_bt,
            dims: |r, s, c| [r, s, c],
        },
    ];

    /// Runs `layout` and its oracle on the same operands and a non-zero
    /// starting `out` (the kernels accumulate) and demands equal bits.
    /// `rsc` is the case's `[rows, shared, cols]`.
    fn assert_layout_bitwise(layout: &Layout, a: &[f32], b: &[f32], rsc: [usize; 3], what: &str) {
        let [r, s, c] = rsc;
        let mut seed = lcg(0xfeed);
        let start: Vec<f32> = (0..r * c).map(|_| seed()).collect();
        let (mut fast, mut naive) = (start.clone(), start);
        let [d0, d1, d2] = (layout.dims)(r, s, c);
        (layout.fast)(a, b, &mut fast, d0, d1, d2);
        (layout.naive)(a, b, &mut naive, d0, d1, d2);
        assert_eq!(
            bits(&fast),
            bits(&naive),
            "{} differs from its oracle at rows {r}, shared {s}, cols {c} ({what})",
            layout.name,
        );
    }

    #[test]
    fn unrolled_kernel_matches_naive_reference() {
        // rows × shared × cols straddling 1, the unroll factor (4), the
        // SSE/AVX lane widths (4, 8) and the panel width KC, with empty
        // dimensions and the cols = 1 GAT score-vector shape. The seeded
        // operands carry exact zeros, so quads with and without a zero
        // coefficient both occur.
        let sizes = [0usize, 1, 2, 3, 4, 5, 7, 8, 9, 17];
        let shared = [
            0usize,
            1,
            3,
            4,
            5,
            8,
            13,
            KC - 1,
            KC,
            KC + 1,
            KC + 2,
            2 * KC + 1,
        ];
        let mut next = lcg(0x12345);
        for layout in &LAYOUTS {
            for &r in &sizes {
                for &s in &shared {
                    for &c in &sizes {
                        let a: Vec<f32> = (0..r * s).map(|_| next()).collect();
                        let b: Vec<f32> = (0..s * c).map(|_| next()).collect();
                        assert_layout_bitwise(layout, &a, &b, [r, s, c], "seeded");
                    }
                }
            }
        }
    }

    #[test]
    fn special_values_follow_each_layouts_zero_rule() {
        // Planted ±0, subnormals, ±∞ and NaN on either side. Where the
        // layout skips `a`-side zeros, `0·∞` must stay out of the sum;
        // where it does not (`matmul_a_bt`), it must poison the element
        // with NaN — and in both cases bit-for-bit as the naive loop.
        let specials = [
            0.0f32,
            -0.0,
            f32::MIN_POSITIVE / 2.0,
            -f32::MIN_POSITIVE / 4.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
        ];
        let (r, s, c) = (6, 11, 9);
        let mut next = lcg(0xabcdef);
        for layout in &LAYOUTS {
            for side in 0..2 {
                for &sp in &specials {
                    for stride in [1usize, 3, 4, 7] {
                        let mut a: Vec<f32> = (0..r * s).map(|_| next()).collect();
                        let mut b: Vec<f32> = (0..s * c).map(|_| next()).collect();
                        let target = if side == 0 { &mut a } else { &mut b };
                        target.iter_mut().step_by(stride).for_each(|v| *v = sp);
                        let what = format!("{sp:e} every {stride} on side {side}");
                        assert_layout_bitwise(layout, &a, &b, [r, s, c], &what);
                    }
                }
            }
        }

        // The rule itself, not just agreement with the oracle: a zero
        // coefficient against an infinite operand.
        let a = [0.0f32, 1.0];
        let b = [f32::INFINITY, 2.0];
        let mut into = [0.0f32];
        super::matmul_into(&a, &b, &mut into, 1, 2, 1);
        assert_eq!(into, [2.0], "matmul_into skips a-side zeros");
        let mut at_b = [0.0f32];
        super::matmul_at_b(&a, &b, &mut at_b, 2, 1, 1);
        assert_eq!(at_b, [2.0], "matmul_at_b skips a-side zeros");
        let mut a_bt = [0.0f32];
        super::matmul_a_bt(&a, &b, &mut a_bt, 1, 2, 1);
        assert!(a_bt[0].is_nan(), "matmul_a_bt skips nothing");
    }

    /// ±0, subnormals and ±∞, the values whose products the zero rule
    /// decides, and NaN.
    const SPECIALS: [f32; 7] = [
        0.0,
        -0.0,
        f32::MIN_POSITIVE / 2.0,
        -f32::MIN_POSITIVE / 4.0,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
    ];

    /// Column spans of a `[3 | zero 5 | 7 | zero 2 | 13]` input, 30 wide:
    /// every edge but 0 and 30 is off the 4-wide quad grid, and the zero
    /// blocks sit between dense ones and at neither end.
    const BLOCKS: [(usize, bool); 5] = [(3, true), (5, false), (7, true), (2, false), (13, true)];

    /// The dense spans of [`BLOCKS`] and the total width.
    fn dense_spans() -> (Vec<std::ops::Range<usize>>, usize) {
        let mut spans = Vec::new();
        let mut col = 0;
        for (w, dense) in BLOCKS {
            if dense {
                spans.push(col..col + w);
            }
            col += w;
        }
        (spans, col)
    }

    /// Seeded operands with `sp` planted every `stride` elements on
    /// `side` 0 (`a`) or 1 (`b`); no plant for `side` 2.
    fn planted(
        next: &mut impl FnMut() -> f32,
        a_len: usize,
        b_len: usize,
        plant: (usize, f32, usize),
    ) -> (Vec<f32>, Vec<f32>) {
        let mut a: Vec<f32> = (0..a_len).map(|_| next()).collect();
        let mut b: Vec<f32> = (0..b_len).map(|_| next()).collect();
        let (side, sp, stride) = plant;
        match side {
            0 => a.iter_mut().step_by(stride).for_each(|v| *v = sp),
            1 => b.iter_mut().step_by(stride).for_each(|v| *v = sp),
            _ => {}
        }
        (a, b)
    }

    /// Every plant the block oracles run: none, then each special value
    /// on either side at strides on and off the quad grid.
    fn plants() -> Vec<(usize, f32, usize)> {
        let mut plants = vec![(2, 0.0, 1)];
        for side in 0..2 {
            for sp in SPECIALS {
                for stride in [1, 3, 4, 7] {
                    plants.push((side, sp, stride));
                }
            }
        }
        plants
    }

    #[test]
    fn column_block_forward_matches_the_oracle_on_the_concatenation() {
        // `[x₀ | 0 | x₁ | 0 | x₂] · w` block by block against the naive
        // loop over the materialised concatenation. An ∞ planted in the
        // rows of `w` a zero block meets must stay out of the sum.
        let (spans, k) = dense_spans();
        let n = 9;
        let mut next = lcg(0xb10c);
        for m in [0usize, 1, 5, 8] {
            for plant in plants() {
                let (cat, w) = planted(&mut next, m * k, k * n, plant);
                let mut cat = cat;
                let mut col = 0;
                for (width, dense) in BLOCKS {
                    if !dense {
                        for row in cat.chunks_mut(k) {
                            row[col..col + width].fill(0.0);
                        }
                    }
                    col += width;
                }
                let xs: Vec<Vec<f32>> = spans
                    .iter()
                    .map(|s| {
                        cat.chunks(k)
                            .flat_map(|row| row[s.clone()].to_vec())
                            .collect()
                    })
                    .collect();
                let xs: Vec<&[f32]> = xs.iter().map(Vec::as_slice).collect();
                let mut seed = lcg(0xfeed);
                let start: Vec<f32> = (0..m * n).map(|_| seed()).collect();
                let (mut fast, mut naive) = (start.clone(), start);
                super::matmul_cols_into(&xs, &spans, &w, &mut fast, m, n);
                oracle::matmul_into(&cat, &w, &mut naive, m, k, n);
                assert_eq!(bits(&fast), bits(&naive), "rows {m}, plant {plant:?}");
            }
        }
    }

    #[test]
    fn block_restricted_a_bt_matches_the_oracles_columns() {
        // Each block's columns of a·bᵀ alone, against the same columns of
        // the naive full product; `matmul_a_bt` skips nothing, so a 0·∞
        // inside the block's own terms still poisons its element.
        let (spans, k) = dense_spans();
        let mut next = lcg(0xa_b7);
        for (m, n) in [(0usize, 5usize), (1, 1), (6, 4), (7, 11)] {
            for plant in plants() {
                let (a, b) = planted(&mut next, m * n, k * n, plant);
                let mut seed = lcg(0xfeed);
                let start: Vec<f32> = (0..m * k).map(|_| seed()).collect();
                let mut naive = start.clone();
                oracle::matmul_a_bt(&a, &b, &mut naive, m, n, k);
                for s in &spans {
                    let cols = |v: &[f32]| -> Vec<f32> {
                        v.chunks(k)
                            .flat_map(|row| row[s.clone()].to_vec())
                            .collect()
                    };
                    let mut fast = cols(&start);
                    super::matmul_a_bt_cols(&a, &b, &mut fast, m, n, s.clone());
                    assert_eq!(
                        bits(&fast),
                        bits(&cols(&naive)),
                        "m {m}, n {n}, columns {s:?}, plant {plant:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn output_row_range_at_b_matches_the_oracles_rows() {
        // Ranges of aᵀ·b's output rows, cut at every edge of `BLOCKS`
        // (zero spans included), against the same rows of the naive full
        // product, with the shared dimension on and off the quad grid.
        let (_, m) = dense_spans();
        let mut cuts = vec![0];
        for (w, _) in BLOCKS {
            cuts.push(cuts.last().unwrap() + w);
        }
        let n = 6;
        let mut next = lcg(0x40b5);
        for k in [0usize, 1, 3, 4, 5, 13] {
            for plant in plants() {
                let (a, b) = planted(&mut next, k * m, k * n, plant);
                let mut seed = lcg(0xfeed);
                let start: Vec<f32> = (0..m * n).map(|_| seed()).collect();
                let mut naive = start.clone();
                oracle::matmul_at_b(&a, &b, &mut naive, k, m, n);
                let mut fast = start.clone();
                for w in cuts.windows(2) {
                    let rows = w[0]..w[1];
                    let out = &mut fast[rows.start * n..rows.end * n];
                    super::matmul_at_b_rows(&a, &b, out, k, m, n, rows);
                }
                assert_eq!(bits(&fast), bits(&naive), "k {k}, plant {plant:?}");
            }
        }
    }

    #[test]
    fn column_block_product_gradients_match_the_concatenated_product() {
        // `Tensor::matmul_cols` against `concat_cols(..).matmul(..)` with
        // the zero blocks materialised: the same value and, for every
        // block that wants one and the weight, the same gradient bits;
        // the rows of the weight gradient a zero block meets are +0.
        let (m, n) = (37, 11);
        let x0 = Tensor::randn([m, 3], 30);
        let x1 = Tensor::randn([m, 7], 31).requires_grad();
        let x2 = Tensor::randn([m, 13], 32).requires_grad();
        let w = Tensor::randn([30, n], 33).requires_grad();
        let up = Tensor::randn([m, n], 34);
        let blocks = [
            ColBlock::from(&x0),
            ColBlock::Zeros(5),
            ColBlock::from(&x1),
            ColBlock::Zeros(2),
            ColBlock::from(&x2),
        ];
        let grads = |loss: Tensor| {
            for t in [&x1, &x2, &w] {
                t.zero_grad();
            }
            loss.backward();
            [&x1, &x2, &w].map(|t| bits(&t.grad().expect("a gradient")))
        };
        let blocked = Tensor::matmul_cols(&blocks, &w);
        let (z5, z2) = (Tensor::zeros([m, 5]), Tensor::zeros([m, 2]));
        let cat = Tensor::concat_cols(&[&x0, &z5, &x1, &z2, &x2]).matmul(&w);
        assert_eq!(bits(&blocked.to_vec()), bits(&cat.to_vec()));
        let fast = grads(blocked.mul(&up).sum());
        assert_eq!(fast, grads(cat.mul(&up).sum()));
        assert!(
            x0.grad().is_none(),
            "a block that wants no gradient gets none"
        );
        assert!(
            fast[2][3 * n..8 * n].iter().all(|&b| b == 0),
            "zero-block rows are +0"
        );
    }

    /// Gradient bits of every tensor in `leaves` after `loss` is built
    /// and back-propagated; `None` for a leaf that received no gradient.
    fn grad_bits(leaves: &[&Tensor], loss: impl FnOnce() -> Tensor) -> Vec<Option<Vec<u32>>> {
        for t in leaves {
            t.zero_grad();
        }
        loss().backward();
        leaves.iter().map(|t| t.grad().map(|g| bits(&g))).collect()
    }

    /// Asserts that `loss` yields the same gradient bits on every leaf
    /// through the kernels and through their oracles.
    fn assert_gradients_pinned(leaves: &[&Tensor], loss: impl Fn() -> Tensor) {
        let fast = grad_bits(leaves, &loss);
        let naive = oracle::with(|| grad_bits(leaves, &loss));
        assert!(fast.iter().all(Option::is_some), "a leaf got no gradient");
        for (i, (f, n)) in fast.iter().zip(naive.iter()).enumerate() {
            assert_eq!(f, n, "gradient of leaf {i} differs from the oracle's");
        }
    }

    #[test]
    fn shard_product_gradients_match_oracle_kernels() {
        // The steady_narrow shard product: 646×96 · 96×32.
        let a = Tensor::randn([646, 96], 1).requires_grad();
        let b = Tensor::randn([96, 32], 2).requires_grad();
        let w = Tensor::randn([646, 32], 3);
        assert_gradients_pinned(&[&a, &b], || a.matmul(&b).mul(&w).sum());
    }

    #[test]
    fn gru_step_gradients_match_oracle_kernels() {
        // A 3 446-row GRU step. Memory rows start at zero, so `h` is zero
        // except for a few rows: whole quads of hᵀ·dpre are skipped.
        let (rows, in_dim, hd) = (3446, 128, 32);
        let x = Tensor::randn([rows, in_dim], 4).requires_grad();
        let mut hv = vec![0.0f32; rows * hd];
        let mut next = lcg(5);
        for row in hv.chunks_mut(hd).step_by(7) {
            row.iter_mut().for_each(|v| *v = next());
        }
        let h = Tensor::from_vec(hv, [rows, hd]).requires_grad();
        let params: Vec<Tensor> = (0..9u64)
            .map(|i| match i % 3 {
                0 => Tensor::randn([in_dim, hd], 10 + i),
                1 => Tensor::randn([hd, hd], 10 + i),
                _ => Tensor::randn([hd], 10 + i),
            })
            .map(|t| t.mul_scalar(0.1).detach().requires_grad())
            .collect();
        let refs: [&Tensor; 9] = std::array::from_fn(|i| &params[i]);
        let w = Tensor::randn([rows, hd], 6);
        let mut leaves = vec![&x, &h];
        leaves.extend(params.iter());
        assert_gradients_pinned(&leaves, || {
            Tensor::gru_cell_fused(&[ColBlock::from(&x)], &h, &refs, 1)
                .mul(&w)
                .sum()
        });
    }

    #[test]
    fn gat_layer_gradients_match_oracle_kernels() {
        // `cascade_nn::GatLayer::forward`, op for op (the layer itself
        // lives downstream of this crate): two projections through one
        // weight, two [·, 1] score products, fused score assembly,
        // softmax, fused combine.
        let (b, k, d_in, d_out) = (646, 8, 32, 32);
        let center = Tensor::randn([b, d_in], 20).requires_grad();
        let neighbors = Tensor::randn([b * k, d_in], 21).requires_grad();
        let weight = Tensor::randn([d_in, d_out], 22).requires_grad();
        let attn_src = Tensor::randn([d_out, 1], 23).requires_grad();
        let attn_dst = Tensor::randn([d_out, 1], 24).requires_grad();
        let mask: Vec<f32> = (0..b * k)
            .map(|i| if i % 5 == 0 { 0.0 } else { 1.0 })
            .collect();
        let w = Tensor::randn([b, d_out], 25);
        let leaves = [&center, &neighbors, &weight, &attn_src, &attn_dst];
        assert_gradients_pinned(&leaves, || {
            let wh_c = center.matmul(&weight);
            let e0 = wh_c.matmul(&attn_src);
            let e_self = e0.mul_scalar(2.0).leaky_relu(0.2);
            let wh_n = neighbors.matmul(&weight);
            let e_dst = wh_n.matmul(&attn_dst);
            let e_all = Tensor::attn_scores_fused(&e_self, &e0, &e_dst, &mask, k);
            let alpha = e_all.softmax();
            Tensor::attn_combine_fused(&wh_c, &wh_n, &alpha, k)
                .mul(&w)
                .sum()
        });
    }
}
