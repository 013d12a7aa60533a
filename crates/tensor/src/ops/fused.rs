//! Fused TGNN kernels: GRU cell and sinusoidal time encoding as single
//! graph nodes (the attention kernels live in `ops::attention`).
//!
//! The composed-op forms of these layers (see `cascade-nn`) build 10–20
//! graph nodes per call, each with its own output buffer, parent vector,
//! and boxed backward closure. For the small `[B, H]` working sets of TGNN
//! batches the node bookkeeping costs as much as the arithmetic. Each
//! kernel here runs the whole forward as chunked slice loops over a
//! handful of arena buffers and records ONE node whose backward closure
//! replays the chain rule in place.
//!
//! Numerics: every kernel performs the same per-element float operations
//! in the same order as the op chain it replaces (matmuls go through the
//! same three kernels of `ops::matmul` as [`Tensor::matmul`] and its
//! backward, elementwise chains keep their evaluation order), so swapping
//! a layer to its fused form does not perturb training trajectories.

use std::ops::Range;

use crate::arena;
use crate::grad::GradCtx;
use crate::ops::binary::reduce_to_row;
use crate::ops::matmul::{
    matmul_a_bt, matmul_a_bt_cols, matmul_at_b_rows, matmul_cols_into, matmul_into, ColBlock,
};
use crate::shape::Shape;
use crate::tensor::{DataRef, Tensor};
use crate::workers::{compute_budget, scoped_chunks};

/// Fewest rows each worker of a fanned-out [`Tensor::gru_cell_fused`]
/// runs: a cell of fewer than twice this many rows stays on the calling
/// thread. A constant, not an option — the fan-out never moves a bit, it
/// only decides where a spawn pays for itself, and a dependency-bound
/// batch of ~20 events (a few dozen rows) never fans out.
pub const GRU_MIN_ROWS_PER_WORKER: usize = 128;

/// Row bounds of a [`Tensor::gru_cell_fused`] fan-out over at most the
/// calling thread's [`compute_budget`] workers: balanced contiguous
/// ranges of at least [`GRU_MIN_ROWS_PER_WORKER`] rows, or the one range
/// `0..rows`.
fn row_bounds(rows: usize) -> Vec<usize> {
    let parts = compute_budget().min(rows / GRU_MIN_ROWS_PER_WORKER);
    balanced(rows, parts.max(1))
}

/// The bounds of `parts` balanced contiguous ranges covering `0..len`.
fn balanced(len: usize, parts: usize) -> Vec<usize> {
    (0..=parts).map(|c| c * len / parts).collect()
}

/// `buf` (`[rows × width]`, row-major) cut at the row `bounds`.
fn row_chunks<'a>(
    buf: &'a mut [f32],
    width: usize,
    bounds: &[usize],
) -> std::vec::IntoIter<&'a mut [f32]> {
    let mut rest = buf;
    let mut chunks = Vec::with_capacity(bounds.len());
    for w in bounds.windows(2) {
        let (head, tail) = std::mem::take(&mut rest).split_at_mut((w[1] - w[0]) * width);
        chunks.push(head);
        rest = tail;
    }
    chunks.into_iter()
}

/// One row range of the fused GRU cell's backward row phase.
struct RowGrads<'a> {
    rows: Range<usize>,
    /// The rows of `dpre_r`, `dpre_z`, `dpre_n` and `dhn`.
    dpre: [&'a mut [f32]; 4],
    /// The rows of `dh`, if `h` wants a gradient.
    dh: Option<&'a mut [f32]>,
    /// Per input block, the rows of its gradient, if it wants one.
    dx: Vec<Option<&'a mut [f32]>>,
}

/// One range of output rows of a weight gradient `aᵀ·dpre`.
struct AtBRows<'a> {
    /// `[k × m]`: the layer input block.
    a: &'a [f32],
    m: usize,
    /// `[k × n]`: a gate's pre-activation gradient.
    dpre: &'a [f32],
    rows: Range<usize>,
    /// `[rows.len() × n]`.
    out: &'a mut [f32],
}

impl<'a> AtBRows<'a> {
    /// Deals `out = aᵀ·dpre` (`[m × n]`) out as one balanced range of
    /// output rows per worker list in `tasks`.
    fn deal(
        tasks: &mut [Vec<AtBRows<'a>>],
        a: &'a [f32],
        dpre: &'a [f32],
        out: &'a mut [f32],
        m: usize,
        n: usize,
    ) {
        let bounds = balanced(m, tasks.len());
        let parts = row_chunks(out, n, &bounds).zip(bounds.windows(2));
        for (list, (out, w)) in tasks.iter_mut().zip(parts) {
            let rows = w[0]..w[1];
            list.push(AtBRows {
                a,
                m,
                dpre,
                rows,
                out,
            });
        }
    }

    fn run(&mut self, k: usize, n: usize) {
        matmul_at_b_rows(self.a, self.dpre, self.out, k, self.m, n, self.rows.clone());
    }
}

impl Tensor {
    /// Fused GRU cell step: the single-node form of
    /// [`GruCell`](../../cascade_nn/struct.GruCell.html)'s recurrence
    ///
    /// ```text
    /// r  = σ(x·W_xr + h·W_hr + b_r)
    /// z  = σ(x·W_xz + h·W_hz + b_z)
    /// n  = tanh(x·W_xn + r ⊙ (h·W_hn) + b_n)
    /// h' = (1 − z) ⊙ n + z ⊙ h
    /// ```
    ///
    /// `x` is given as column blocks (see [`Tensor::matmul_cols`]): no
    /// concatenation is built, a [`ColBlock::Zeros`] block is skipped, and
    /// only blocks whose tensors require a gradient get one. `params` is
    /// `[w_xr, w_hr, b_r, w_xz, w_hz, b_z, w_xn, w_hn, b_n]` with weights
    /// `[in, H]` / `[H, H]` and biases `[H]`.
    ///
    /// Forward and backward each fan out over up to the running thread's
    /// [`compute_budget`](crate::compute_budget) threads through
    /// [`scoped_chunks`](crate::scoped_chunks), at least
    /// [`GRU_MIN_ROWS_PER_WORKER`] rows each: the projections, gates,
    /// gate gradients and input gradients by contiguous row ranges, the
    /// weight gradients `Aᵀ·dpre` by ranges of their output rows. Every
    /// output element keeps its sequence of float operations, so the
    /// result and every gradient are the same bits at any budget. A shard
    /// worker's budget is 1, so a cell inside one stays on its thread.
    ///
    /// # Panics
    ///
    /// Panics on any shape inconsistency.
    pub fn gru_cell_fused(x: &[ColBlock], h: &Tensor, params: &[&Tensor; 9]) -> Tensor {
        let [w_xr, w_hr, b_r, w_xz, w_hz, b_z, w_xn, w_hn, b_n] = *params;
        assert_eq!(h.dims().len(), 2, "gru_cell_fused h must be rank-2");
        let [b, in_dim] = ColBlock::shape_of(x);
        let hd = h.dims()[1];
        assert_eq!(h.dims()[0], b, "gru_cell_fused batch mismatch");
        for (w, rows, name) in [
            (w_xr, in_dim, "w_xr"),
            (w_hr, hd, "w_hr"),
            (w_xz, in_dim, "w_xz"),
            (w_hz, hd, "w_hz"),
            (w_xn, in_dim, "w_xn"),
            (w_hn, hd, "w_hn"),
        ] {
            assert_eq!(w.dims(), &[rows, hd], "gru_cell_fused {name} shape");
        }
        for (bias, name) in [(b_r, "b_r"), (b_z, "b_z"), (b_n, "b_n")] {
            assert_eq!(bias.len(), hd, "gru_cell_fused {name} length");
        }

        let bh = b * hd;
        let (xs, spans) = ColBlock::spans(x);
        let bounds = row_bounds(b);

        // Six projections, the three gates and the output, every buffer
        // cut at the same row bounds.
        let mut xr = arena::take_zeroed(bh);
        let mut hr = arena::take_zeroed(bh);
        let mut xz = arena::take_zeroed(bh);
        let mut hz = arena::take_zeroed(bh);
        let mut xn = arena::take_zeroed(bh);
        let mut hn = arena::take_zeroed(bh);
        let mut r = arena::take_zeroed(bh);
        let mut z = arena::take_zeroed(bh);
        let mut n = arena::take_zeroed(bh);
        let mut out = arena::take_zeroed(bh);
        {
            let xd: Vec<DataRef> = xs.iter().map(Tensor::data).collect();
            let hdat = h.data();
            let [wxr, whr, wxz, whz, wxn, whn, brd, bzd, bnd] =
                [w_xr, w_hr, w_xz, w_hz, w_xn, w_hn, b_r, b_z, b_n].map(Tensor::data);
            let mut bufs = [
                &mut xr, &mut hr, &mut xz, &mut hz, &mut xn, &mut hn, &mut r, &mut z, &mut n,
                &mut out,
            ]
            .map(|buf| row_chunks(buf, hd, &bounds));
            let mut slots: Vec<_> = bounds
                .windows(2)
                .map(|w| {
                    (
                        w[0]..w[1],
                        bufs.each_mut().map(|c| c.next().expect("one per range")),
                    )
                })
                .collect();
            let rows_job = |rows: Range<usize>, bufs: [&mut [f32]; 10]| {
                let [xr, hr, xz, hz, xn, hn, r, z, n, out] = bufs;
                let m = rows.len();
                let xrows: Vec<&[f32]> = xd
                    .iter()
                    .zip(&spans)
                    .map(|(x, s)| &x[rows.start * s.len()..rows.end * s.len()])
                    .collect();
                let hrows = &hdat[rows.start * hd..rows.end * hd];
                // The shared skip-zero matmul kernel, block by block.
                matmul_cols_into(&xrows, &spans, &wxr, xr, m, hd);
                matmul_into(hrows, &whr, hr, m, hd, hd);
                matmul_cols_into(&xrows, &spans, &wxz, xz, m, hd);
                matmul_into(hrows, &whz, hz, m, hd, hd);
                matmul_cols_into(&xrows, &spans, &wxn, xn, m, hd);
                matmul_into(hrows, &whn, hn, m, hd, hd);

                // Gate chains, elementwise, same evaluation order as the
                // op chain: ((x·W + h·W) + bias) then the activation.
                for i in 0..m * hd {
                    let j = i % hd;
                    let pre_r = (xr[i] + hr[i]) + brd[j];
                    r[i] = 1.0 / (1.0 + (-pre_r).exp());
                    let pre_z = (xz[i] + hz[i]) + bzd[j];
                    z[i] = 1.0 / (1.0 + (-pre_z).exp());
                }
                for i in 0..m * hd {
                    let pre_n = (xn[i] + (r[i] * hn[i])) + bnd[i % hd];
                    n[i] = pre_n.tanh();
                }
                for i in 0..m * hd {
                    out[i] = ((-z[i] + 1.0) * n[i]) + (z[i] * hrows[i]);
                }
            };
            scoped_chunks(&mut slots, |_, part| {
                for (rows, bufs) in part {
                    rows_job(rows.clone(), bufs.each_mut().map(std::mem::take));
                }
            });
        }
        arena::recycle(xr);
        arena::recycle(hr);
        arena::recycle(xz);
        arena::recycle(hz);
        arena::recycle(xn);

        let mut parents = xs;
        parents.push(h.clone());
        parents.extend(params.iter().map(|&p| p.clone()));
        Tensor::from_op(
            out,
            Shape::new(vec![b, hd]),
            parents,
            Box::new(move |_out, grad, parents, ctx: &mut GradCtx| {
                let (px, rest) = parents.split_at(spans.len());
                let ph = &rest[0];
                let [pwxr, pwhr, pbr, pwxz, pwhz, pbz, pwxn, pwhn, pbn] =
                    std::array::from_fn(|i| &rest[1 + i]);
                let bounds = row_bounds(b);
                let hdat = ph.data();
                let xd: Vec<DataRef> = px.iter().map(Tensor::data).collect();

                // Row phase: the gates' pre-activation gradients, then the
                // input gradients of every block and of `h` that want one.
                let mut dpre_n = arena::take_zeroed(bh);
                let mut dpre_z = arena::take_zeroed(bh);
                let mut dpre_r = arena::take_zeroed(bh);
                let mut dhn = arena::take_zeroed(bh);
                let mut dx: Vec<Option<Vec<f32>>> = px
                    .iter()
                    .zip(&spans)
                    .map(|(p, s)| {
                        p.is_requires_grad()
                            .then(|| arena::take_zeroed(b * s.len()))
                    })
                    .collect();
                let mut dh = ph.is_requires_grad().then(|| arena::take_zeroed(bh));
                {
                    let [wxr, whr, wxz, whz, wxn, whn] =
                        [pwxr, pwhr, pwxz, pwhz, pwxn, pwhn].map(|w| w.data());
                    let mut dpre = [&mut dpre_r, &mut dpre_z, &mut dpre_n, &mut dhn]
                        .map(|buf| row_chunks(buf, hd, &bounds));
                    let mut dh_rows = dh.as_mut().map(|buf| row_chunks(buf, hd, &bounds));
                    let mut dx_rows: Vec<_> = dx
                        .iter_mut()
                        .zip(&spans)
                        .map(|(buf, s)| buf.as_mut().map(|buf| row_chunks(buf, s.len(), &bounds)))
                        .collect();
                    let mut slots: Vec<RowGrads> = bounds
                        .windows(2)
                        .map(|w| RowGrads {
                            rows: w[0]..w[1],
                            dpre: dpre.each_mut().map(|c| c.next().expect("one per range")),
                            dh: dh_rows.as_mut().and_then(Iterator::next),
                            dx: dx_rows
                                .iter_mut()
                                .map(|c| c.as_mut().and_then(Iterator::next))
                                .collect(),
                        })
                        .collect();
                    let rows_job = |slot: &mut RowGrads| {
                        let (lo, hi) = (slot.rows.start * hd, slot.rows.end * hd);
                        let m = slot.rows.len();
                        let (g, z, n, r, hn) = (
                            &grad[lo..hi],
                            &z[lo..hi],
                            &n[lo..hi],
                            &r[lo..hi],
                            &hn[lo..hi],
                        );
                        let h = &hdat[lo..hi];
                        let [dpre_r, dpre_z, dpre_n, dhn] = slot.dpre.each_mut().map(|d| &mut **d);
                        for i in 0..m * hd {
                            let dn = g[i] * (1.0 - z[i]);
                            dpre_n[i] = dn * (1.0 - n[i] * n[i]);
                            let dz = g[i] * (h[i] - n[i]);
                            dpre_z[i] = dz * z[i] * (1.0 - z[i]);
                        }
                        for i in 0..m * hd {
                            let dr = dpre_n[i] * hn[i];
                            dpre_r[i] = dr * r[i] * (1.0 - r[i]);
                            dhn[i] = dpre_n[i] * r[i];
                        }
                        for (dx, s) in slot.dx.iter_mut().zip(&spans) {
                            if let Some(dx) = dx {
                                matmul_a_bt_cols(dpre_r, &wxr, dx, m, hd, s.clone());
                                matmul_a_bt_cols(dpre_z, &wxz, dx, m, hd, s.clone());
                                matmul_a_bt_cols(dpre_n, &wxn, dx, m, hd, s.clone());
                            }
                        }
                        if let Some(dh) = slot.dh.as_deref_mut() {
                            for i in 0..m * hd {
                                dh[i] = g[i] * z[i];
                            }
                            matmul_a_bt(dhn, &whn, dh, m, hd, hd);
                            matmul_a_bt(dpre_r, &whr, dh, m, hd, hd);
                            matmul_a_bt(dpre_z, &whz, dh, m, hd, hd);
                        }
                    };
                    scoped_chunks(&mut slots, |_, part| part.iter_mut().for_each(&rows_job));
                }
                for (p, dx) in px.iter().zip(dx) {
                    if let Some(dx) = dx {
                        ctx.accumulate_owned(p, dx);
                    }
                }
                if let Some(dh) = dh {
                    ctx.accumulate_owned(ph, dh);
                }
                arena::recycle(grad);

                // Weight phase: dW_x* = xᵀ·dpre_*, dW_h* = hᵀ·dpre_* (hᵀ·dhn
                // for the candidate gate), each cut into ranges of output
                // rows; rows of zero blocks stay 0.
                let workers = bounds.len() - 1;
                let x_side = [(pwxr, &dpre_r), (pwxz, &dpre_z), (pwxn, &dpre_n)];
                let h_side = [(pwhr, &dpre_r), (pwhz, &dpre_z), (pwhn, &dhn)];
                let mut dw_x = x_side.map(|(w, _)| {
                    w.is_requires_grad()
                        .then(|| arena::take_zeroed(in_dim * hd))
                });
                let mut dw_h =
                    h_side.map(|(w, _)| w.is_requires_grad().then(|| arena::take_zeroed(hd * hd)));
                {
                    let mut tasks: Vec<Vec<AtBRows>> = (0..workers).map(|_| Vec::new()).collect();
                    // Cut at `0, start₀, end₀, start₁, …`: every second
                    // piece is a block's rows, the others a zero block's.
                    let edges: Vec<usize> = std::iter::once(0)
                        .chain(spans.iter().flat_map(|s| [s.start, s.end]))
                        .collect();
                    for ((_, dpre), dw) in x_side.iter().zip(dw_x.iter_mut()) {
                        let Some(dw) = dw else { continue };
                        let blocks = row_chunks(dw, hd, &edges).skip(1).step_by(2);
                        for ((x, s), rows) in xd.iter().zip(&spans).zip(blocks) {
                            AtBRows::deal(&mut tasks, x, dpre, rows, s.len(), hd);
                        }
                    }
                    for ((_, dpre), dw) in h_side.iter().zip(dw_h.iter_mut()) {
                        if let Some(dw) = dw {
                            AtBRows::deal(&mut tasks, &hdat, dpre, dw, hd, hd);
                        }
                    }
                    scoped_chunks(&mut tasks, |_, part| {
                        for task in part.iter_mut().flatten() {
                            task.run(b, hd);
                        }
                    });
                }
                drop((hdat, xd));
                for ((w, _), dw) in x_side.iter().zip(dw_x).chain(h_side.iter().zip(dw_h)) {
                    if let Some(dw) = dw {
                        ctx.accumulate_owned(w, dw);
                    }
                }
                for (bias, dpre) in [(pbr, &dpre_r), (pbz, &dpre_z), (pbn, &dpre_n)] {
                    if bias.is_requires_grad() {
                        ctx.accumulate_owned(bias, reduce_to_row(dpre, b, hd));
                    }
                }
                arena::recycle(dpre_n);
                arena::recycle(dpre_z);
                arena::recycle(dpre_r);
                arena::recycle(dhn);
            }),
        )
    }

    /// Fused sinusoidal time encoding: `out[b][j] = cos(Δt_b·ω_j + φ_j)`
    /// for `dts: [B, 1]`, `omega: [1, D]`, `phase: [D]`.
    ///
    /// # Panics
    ///
    /// Panics on any shape inconsistency.
    pub fn time_encode_fused(dts: &Tensor, omega: &Tensor, phase: &Tensor) -> Tensor {
        assert_eq!(dts.dims().len(), 2, "time_encode_fused dts must be [B, 1]");
        assert_eq!(dts.dims()[1], 1, "time_encode_fused dts must be [B, 1]");
        let b = dts.dims()[0];
        assert_eq!(
            omega.dims().len(),
            2,
            "time_encode_fused omega must be [1, D]"
        );
        assert_eq!(omega.dims()[0], 1, "time_encode_fused omega must be [1, D]");
        let d = omega.dims()[1];
        assert_eq!(phase.len(), d, "time_encode_fused phase length mismatch");

        let dt = dts.data();
        let w = omega.data();
        let ph = phase.data();
        let mut pre = arena::take_empty(b * d);
        let mut out = arena::take_empty(b * d);
        for bi in 0..b {
            let t = dt[bi];
            for j in 0..d {
                let p = t * w[j] + ph[j];
                pre.push(p);
                out.push(p.cos());
            }
        }
        drop((dt, w, ph));

        Tensor::from_op(
            out,
            Shape::new(vec![b, d]),
            vec![dts.clone(), omega.clone(), phase.clone()],
            Box::new(move |_out, mut grad, parents, ctx: &mut GradCtx| {
                let (pdts, pomega, pphase) = (&parents[0], &parents[1], &parents[2]);
                // In place: grad ← −sin(pre) ⊙ grad (cosine backward).
                for (g, &p) in grad.iter_mut().zip(pre.iter()) {
                    *g *= -p.sin();
                }
                if pdts.is_requires_grad() {
                    let w = pomega.data();
                    let mut ddt = arena::take_empty(b);
                    for bi in 0..b {
                        let row = &grad[bi * d..(bi + 1) * d];
                        let mut acc = 0.0;
                        for (&g, &wj) in row.iter().zip(w.iter()) {
                            acc += g * wj;
                        }
                        ddt.push(acc);
                    }
                    ctx.accumulate_owned(pdts, ddt);
                }
                if pomega.is_requires_grad() {
                    let dt = pdts.data();
                    let mut dw = arena::take_zeroed(d);
                    for bi in 0..b {
                        let t = dt[bi];
                        let row = &grad[bi * d..(bi + 1) * d];
                        for (o, &g) in dw.iter_mut().zip(row.iter()) {
                            *o += t * g;
                        }
                    }
                    ctx.accumulate_owned(pomega, dw);
                }
                if pphase.is_requires_grad() {
                    ctx.accumulate_owned(pphase, reduce_to_row(&grad, b, d));
                }
                arena::recycle(grad);
            }),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::GRU_MIN_ROWS_PER_WORKER;
    use crate::{ColBlock, Tensor};

    fn lcg(seed: u64) -> impl FnMut() -> f32 {
        let mut s = seed;
        move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 33) as f32) / ((1u64 << 31) as f32) - 0.5
        }
    }

    fn rand_tensor(dims: [usize; 2], seed: u64) -> Tensor {
        let mut next = lcg(seed);
        let n = dims[0] * dims[1];
        Tensor::from_vec((0..n).map(|_| next()).collect(), dims).requires_grad()
    }

    fn assert_close(a: &[f32], b: &[f32], tol: f32, what: &str) {
        assert_eq!(a.len(), b.len(), "{what} length");
        for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
            assert!((x - y).abs() <= tol, "{what}[{i}]: {x} vs {y}");
        }
    }

    /// The composed-op GRU recurrence the fused kernel replaces.
    fn gru_composed(x: &Tensor, h: &Tensor, p: &[&Tensor; 9]) -> Tensor {
        let [w_xr, w_hr, b_r, w_xz, w_hz, b_z, w_xn, w_hn, b_n] = *p;
        let r = x.matmul(w_xr).add(&h.matmul(w_hr)).add(b_r).sigmoid();
        let z = x.matmul(w_xz).add(&h.matmul(w_hz)).add(b_z).sigmoid();
        let n = x.matmul(w_xn).add(&r.mul(&h.matmul(w_hn))).add(b_n).tanh();
        z.neg().add_scalar(1.0).mul(&n).add(&z.mul(h))
    }

    #[test]
    fn gru_fused_matches_composed() {
        let (b, in_dim, hd) = (3, 4, 5);
        let make = || {
            let x = rand_tensor([b, in_dim], 1);
            let h = rand_tensor([b, hd], 2);
            let params = [
                rand_tensor([in_dim, hd], 3),
                rand_tensor([hd, hd], 4),
                Tensor::from_vec(vec![0.1, -0.2, 0.3, 0.0, -0.1], [hd]).requires_grad(),
                rand_tensor([in_dim, hd], 5),
                rand_tensor([hd, hd], 6),
                Tensor::from_vec(vec![-0.3, 0.2, 0.0, 0.1, 0.2], [hd]).requires_grad(),
                rand_tensor([in_dim, hd], 7),
                rand_tensor([hd, hd], 8),
                Tensor::from_vec(vec![0.05, 0.0, -0.05, 0.15, -0.15], [hd]).requires_grad(),
            ];
            (x, h, params)
        };

        let (x1, h1, p1) = make();
        let refs1: [&Tensor; 9] = std::array::from_fn(|i| &p1[i]);
        let fused = Tensor::gru_cell_fused(&[ColBlock::from(&x1)], &h1, &refs1);
        let (x2, h2, p2) = make();
        let refs2: [&Tensor; 9] = std::array::from_fn(|i| &p2[i]);
        let composed = gru_composed(&x2, &h2, &refs2);

        // Forward replicates the op chain exactly.
        assert_eq!(fused.to_vec(), composed.to_vec());

        fused
            .mul(&rand_tensor([b, hd], 99).detach())
            .sum()
            .backward();
        composed
            .mul(&rand_tensor([b, hd], 99).detach())
            .sum()
            .backward();
        assert_close(&x1.grad().unwrap(), &x2.grad().unwrap(), 1e-5, "dx");
        assert_close(&h1.grad().unwrap(), &h2.grad().unwrap(), 1e-5, "dh");
        for (i, (a, b)) in p1.iter().zip(p2.iter()).enumerate() {
            assert_close(
                &a.grad().unwrap(),
                &b.grad().unwrap(),
                1e-5,
                &format!("param {i}"),
            );
        }
    }

    fn bits(t: &[f32]) -> Vec<u32> {
        t.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn blocked_gru_matches_the_concatenated_input_at_any_thread_count() {
        // The updater's input `[agg | φ]`: `agg` wants no gradient, φ and
        // `h` do; one memory row in three is still zero. The blocked cell
        // at 1, 2 and 4 threads against the old `concat_cols` input on one
        // thread, on both sides of each fan-out edge: the output and all
        // eleven gradients (six weights, three biases, φ, h) to the bit.
        // Then once more with a 3-wide zero block between the two, which
        // the blocked cell never materialises.
        let (da, dp, hd) = (10, 6, 8);
        let floor = GRU_MIN_ROWS_PER_WORKER;
        for (gap, rows) in [0, 3].into_iter().flat_map(|gap| {
            [1, floor - 1, floor, 2 * floor - 1, 2 * floor, 3000].map(|rows| (gap, rows))
        }) {
            let agg = rand_tensor([rows, da], 40).detach();
            let phi = rand_tensor([rows, dp], 41);
            let mut hv = rand_tensor([rows, hd], 42).to_vec();
            hv.chunks_mut(hd).step_by(3).for_each(|row| row.fill(0.0));
            let h = Tensor::from_vec(hv, [rows, hd]).requires_grad();
            let params: Vec<Tensor> = (0..9u64)
                .map(|i| match i % 3 {
                    0 => rand_tensor([da + gap + dp, hd], 50 + i),
                    1 => rand_tensor([hd, hd], 50 + i),
                    _ => rand_tensor([1, hd], 50 + i)
                        .reshape([hd])
                        .detach()
                        .requires_grad(),
                })
                .collect();
            let refs: [&Tensor; 9] = std::array::from_fn(|i| &params[i]);
            let up = rand_tensor([rows, hd], 43).detach();
            let run = |x: &[ColBlock], threads: usize| {
                let mut leaves: Vec<&Tensor> = params.iter().collect();
                leaves.extend([&phi, &h]);
                leaves.iter().for_each(|t| t.zero_grad());
                let _budget = crate::install_budget(threads);
                let out = Tensor::gru_cell_fused(x, &h, &refs);
                out.mul(&up).sum().backward();
                let grads: Vec<Vec<u32>> = leaves
                    .iter()
                    .map(|t| bits(&t.grad().expect("every leaf gets a gradient")))
                    .collect();
                (bits(&out.to_vec()), grads)
            };
            let cat = Tensor::concat_cols(&[&agg, &Tensor::zeros([rows, gap]), &phi]);
            let reference = run(&[ColBlock::from(&cat)], 1);
            assert_eq!(reference.1.len(), 11);
            let blocks = [
                ColBlock::from(&agg),
                ColBlock::Zeros(gap),
                ColBlock::from(&phi),
            ];
            for threads in [1, 2, 4] {
                let blocked = run(&blocks, threads);
                assert_eq!(
                    reference, blocked,
                    "{rows} rows, gap {gap}, {threads} threads"
                );
            }
        }
    }

    #[test]
    fn gru_fused_skips_frozen_inputs() {
        let x = Tensor::ones([2, 3]);
        let h = Tensor::zeros([2, 4]);
        let params: Vec<Tensor> = vec![
            rand_tensor([3, 4], 1),
            rand_tensor([4, 4], 2),
            Tensor::zeros([4]).requires_grad(),
            rand_tensor([3, 4], 3),
            rand_tensor([4, 4], 4),
            Tensor::zeros([4]).requires_grad(),
            rand_tensor([3, 4], 5),
            rand_tensor([4, 4], 6),
            Tensor::zeros([4]).requires_grad(),
        ];
        let refs: [&Tensor; 9] = std::array::from_fn(|i| &params[i]);
        Tensor::gru_cell_fused(&[ColBlock::from(&x)], &h, &refs)
            .sum()
            .backward();
        assert!(x.grad().is_none(), "frozen x must receive no grad");
        assert!(h.grad().is_none(), "frozen h must receive no grad");
        for p in &params {
            assert!(p.grad().is_some(), "parameter missing grad");
        }
    }

    #[test]
    fn time_encode_fused_matches_composed() {
        let d = 6;
        let make = || {
            let dts = Tensor::from_vec(vec![0.0, 1.5, 100.0, -2.0], [4, 1]).requires_grad();
            let omega = rand_tensor([1, d], 11);
            let phase =
                Tensor::from_vec((0..d).map(|i| i as f32 * 0.1).collect(), [d]).requires_grad();
            (dts, omega, phase)
        };
        let (d1, o1, p1) = make();
        let fused = Tensor::time_encode_fused(&d1, &o1, &p1);
        let (d2, o2, p2) = make();
        let composed = d2.matmul(&o2).add(&p2).cos();

        assert_eq!(fused.dims(), &[4, d]);
        assert_close(&fused.to_vec(), &composed.to_vec(), 1e-6, "forward");

        fused.sum().backward();
        composed.sum().backward();
        assert_close(&d1.grad().unwrap(), &d2.grad().unwrap(), 1e-5, "ddts");
        assert_close(&o1.grad().unwrap(), &o2.grad().unwrap(), 1e-5, "domega");
        assert_close(&p1.grad().unwrap(), &p2.grad().unwrap(), 1e-5, "dphase");
    }

    #[test]
    #[should_panic(expected = "batch mismatch")]
    fn gru_fused_rejects_batch_mismatch() {
        let params: Vec<Tensor> = vec![
            Tensor::zeros([2, 2]),
            Tensor::zeros([2, 2]),
            Tensor::zeros([2]),
            Tensor::zeros([2, 2]),
            Tensor::zeros([2, 2]),
            Tensor::zeros([2]),
            Tensor::zeros([2, 2]),
            Tensor::zeros([2, 2]),
            Tensor::zeros([2]),
        ];
        let refs: [&Tensor; 9] = std::array::from_fn(|i| &params[i]);
        let _ = Tensor::gru_cell_fused(
            &[ColBlock::Dense(Tensor::zeros([2, 2]))],
            &Tensor::zeros([3, 2]),
            &refs,
        );
    }
}
