//! Fused TGNN kernels: GRU cell, sinusoidal time encoding, and attention
//! scoring/combination as single graph nodes.
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

use crate::arena;
use crate::grad::GradCtx;
use crate::ops::binary::reduce_to_row;
use crate::ops::matmul::{matmul_a_bt, matmul_at_b, matmul_into};
use crate::shape::Shape;
use crate::tensor::Tensor;

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
    /// `params` is `[w_xr, w_hr, b_r, w_xz, w_hz, b_z, w_xn, w_hn, b_n]`
    /// with weights `[in, H]` / `[H, H]` and biases `[H]`.
    ///
    /// # Panics
    ///
    /// Panics on any shape inconsistency.
    pub fn gru_cell_fused(x: &Tensor, h: &Tensor, params: &[&Tensor; 9]) -> Tensor {
        let [w_xr, w_hr, b_r, w_xz, w_hz, b_z, w_xn, w_hn, b_n] = *params;
        assert_eq!(x.dims().len(), 2, "gru_cell_fused x must be rank-2");
        assert_eq!(h.dims().len(), 2, "gru_cell_fused h must be rank-2");
        let (b, in_dim) = (x.dims()[0], x.dims()[1]);
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
        let xd = x.data();
        let hdat = h.data();

        // Six projections through the shared skip-zero matmul kernel.
        let mut xr = arena::take_zeroed(bh);
        matmul_into(&xd, &w_xr.data(), &mut xr, b, in_dim, hd);
        let mut hr = arena::take_zeroed(bh);
        matmul_into(&hdat, &w_hr.data(), &mut hr, b, hd, hd);
        let mut xz = arena::take_zeroed(bh);
        matmul_into(&xd, &w_xz.data(), &mut xz, b, in_dim, hd);
        let mut hz = arena::take_zeroed(bh);
        matmul_into(&hdat, &w_hz.data(), &mut hz, b, hd, hd);
        let mut xn = arena::take_zeroed(bh);
        matmul_into(&xd, &w_xn.data(), &mut xn, b, in_dim, hd);
        let mut hn = arena::take_zeroed(bh);
        matmul_into(&hdat, &w_hn.data(), &mut hn, b, hd, hd);

        // Gate chains, elementwise, same evaluation order as the op chain:
        // ((x·W + h·W) + bias) then the activation.
        let brd = b_r.data();
        let bzd = b_z.data();
        let bnd = b_n.data();
        let mut r = arena::take_empty(bh);
        let mut z = arena::take_empty(bh);
        for i in 0..bh {
            let j = i % hd;
            let pre_r = (xr[i] + hr[i]) + brd[j];
            r.push(1.0 / (1.0 + (-pre_r).exp()));
            let pre_z = (xz[i] + hz[i]) + bzd[j];
            z.push(1.0 / (1.0 + (-pre_z).exp()));
        }
        let mut n = arena::take_empty(bh);
        for i in 0..bh {
            let j = i % hd;
            let pre_n = (xn[i] + (r[i] * hn[i])) + bnd[j];
            n.push(pre_n.tanh());
        }
        let mut out = arena::take_empty(bh);
        for i in 0..bh {
            out.push(((-z[i] + 1.0) * n[i]) + (z[i] * hdat[i]));
        }
        drop((brd, bzd, bnd, xd, hdat));
        arena::recycle(xr);
        arena::recycle(hr);
        arena::recycle(xz);
        arena::recycle(hz);
        arena::recycle(xn);

        let parents = vec![
            x.clone(),
            h.clone(),
            w_xr.clone(),
            w_hr.clone(),
            b_r.clone(),
            w_xz.clone(),
            w_hz.clone(),
            b_z.clone(),
            w_xn.clone(),
            w_hn.clone(),
            b_n.clone(),
        ];
        Tensor::from_op(
            out,
            Shape::new(vec![b, hd]),
            parents,
            Box::new(move |_out, grad, parents, ctx: &mut GradCtx| {
                let (px, ph) = (&parents[0], &parents[1]);
                let (pwxr, pwhr, pbr) = (&parents[2], &parents[3], &parents[4]);
                let (pwxz, pwhz, pbz) = (&parents[5], &parents[6], &parents[7]);
                let (pwxn, pwhn, pbn) = (&parents[8], &parents[9], &parents[10]);
                let need_x = px.is_requires_grad();
                let need_h = ph.is_requires_grad();
                let hdat = ph.data();

                // Pre-activation gradients for the three gates.
                let mut dpre_n = arena::take_empty(bh);
                let mut dpre_z = arena::take_empty(bh);
                for i in 0..bh {
                    let dn = grad[i] * (1.0 - z[i]);
                    dpre_n.push(dn * (1.0 - n[i] * n[i]));
                    let dz = grad[i] * (hdat[i] - n[i]);
                    dpre_z.push(dz * z[i] * (1.0 - z[i]));
                }
                let mut dpre_r = arena::take_empty(bh);
                let mut dhn = arena::take_empty(bh);
                for i in 0..bh {
                    let dr = dpre_n[i] * hn[i];
                    dpre_r.push(dr * r[i] * (1.0 - r[i]));
                    dhn.push(dpre_n[i] * r[i]);
                }

                // Input-side gradients.
                if need_x {
                    let mut dx = arena::take_zeroed(b * in_dim);
                    matmul_a_bt(&dpre_r, &pwxr.data(), &mut dx, b, hd, in_dim);
                    matmul_a_bt(&dpre_z, &pwxz.data(), &mut dx, b, hd, in_dim);
                    matmul_a_bt(&dpre_n, &pwxn.data(), &mut dx, b, hd, in_dim);
                    ctx.accumulate_owned(px, dx);
                }
                if need_h {
                    let mut dh = arena::take_empty(bh);
                    for i in 0..bh {
                        dh.push(grad[i] * z[i]);
                    }
                    matmul_a_bt(&dhn, &pwhn.data(), &mut dh, b, hd, hd);
                    matmul_a_bt(&dpre_r, &pwhr.data(), &mut dh, b, hd, hd);
                    matmul_a_bt(&dpre_z, &pwhz.data(), &mut dh, b, hd, hd);
                    ctx.accumulate_owned(ph, dh);
                }
                arena::recycle(grad);

                // Parameter gradients: dW_x* = xᵀ·dpre_*, dW_h* = hᵀ·dpre_*
                // (hᵀ·dhn for the candidate gate), db_* = column sums.
                let xd = px.data();
                for (w, dpre) in [(pwxr, &dpre_r), (pwxz, &dpre_z), (pwxn, &dpre_n)] {
                    if w.is_requires_grad() {
                        let mut dw = arena::take_zeroed(in_dim * hd);
                        matmul_at_b(&xd, dpre, &mut dw, b, in_dim, hd);
                        ctx.accumulate_owned(w, dw);
                    }
                }
                drop(xd);
                for (w, dpre) in [(pwhr, &dpre_r), (pwhz, &dpre_z), (pwhn, &dhn)] {
                    if w.is_requires_grad() {
                        let mut dw = arena::take_zeroed(hd * hd);
                        matmul_at_b(&hdat, dpre, &mut dw, b, hd, hd);
                        ctx.accumulate_owned(w, dw);
                    }
                }
                drop(hdat);
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

    /// Fused attention score assembly for a `B × K` sampled neighborhood
    /// with a self-loop in column 0:
    ///
    /// ```text
    /// out[b][0]   = e_self[b]
    /// out[b][1+j] = LeakyReLU₀.₂(e_src[b] + e_dst[b·K+j]) · m + (m − 1)·1e9
    /// ```
    ///
    /// where `m = mask[b·K + j]` (1.0 valid, 0.0 padding — padded slots
    /// score −1e9 so softmax zeroes them). `e_self`/`e_src` are `[B, 1]`,
    /// `e_dst` is `[B·K, 1]`.
    ///
    /// # Panics
    ///
    /// Panics on any shape inconsistency or `k == 0`.
    pub fn attn_scores_fused(
        e_self: &Tensor,
        e_src: &Tensor,
        e_dst: &Tensor,
        mask: &[f32],
        k: usize,
    ) -> Tensor {
        assert!(k > 0, "attn_scores_fused requires k > 0");
        assert_eq!(
            e_self.dims().len(),
            2,
            "attn_scores_fused e_self must be [B, 1]"
        );
        assert_eq!(
            e_self.dims()[1],
            1,
            "attn_scores_fused e_self must be [B, 1]"
        );
        let b = e_self.dims()[0];
        assert_eq!(
            e_src.dims(),
            &[b, 1],
            "attn_scores_fused e_src must be [B, 1]"
        );
        assert_eq!(
            e_dst.len(),
            b * k,
            "attn_scores_fused e_dst must be [B*K, 1]"
        );
        assert_eq!(mask.len(), b * k, "attn_scores_fused mask length mismatch");

        let es = e_self.data();
        let ec = e_src.data();
        let ed = e_dst.data();
        let cols = k + 1;
        let mut pre = arena::take_empty(b * k);
        let mut out = arena::take_empty(b * cols);
        for bi in 0..b {
            out.push(es[bi]);
            for j in 0..k {
                let p = ec[bi] + ed[bi * k + j];
                pre.push(p);
                let lr = if p > 0.0 { p } else { 0.2 * p };
                let m = mask[bi * k + j];
                out.push(lr * m + (m - 1.0) * 1e9);
            }
        }
        drop((es, ec, ed));
        let mask: Vec<f32> = mask.to_vec();

        Tensor::from_op(
            out,
            Shape::new(vec![b, cols]),
            vec![e_self.clone(), e_src.clone(), e_dst.clone()],
            Box::new(move |_out, grad, parents, ctx: &mut GradCtx| {
                let (pself, psrc, pdst) = (&parents[0], &parents[1], &parents[2]);
                if pself.is_requires_grad() {
                    let mut gs = arena::take_empty(b);
                    for bi in 0..b {
                        gs.push(grad[bi * cols]);
                    }
                    ctx.accumulate_owned(pself, gs);
                }
                let need_src = psrc.is_requires_grad();
                let need_dst = pdst.is_requires_grad();
                if need_src || need_dst {
                    let mut gsrc = arena::take_empty(if need_src { b } else { 0 });
                    let mut gdst = arena::take_empty(if need_dst { b * k } else { 0 });
                    for bi in 0..b {
                        let mut acc = 0.0;
                        for j in 0..k {
                            let p = pre[bi * k + j];
                            let slope = if p > 0.0 { 1.0 } else { 0.2 };
                            let gpre = grad[bi * cols + 1 + j] * mask[bi * k + j] * slope;
                            acc += gpre;
                            if need_dst {
                                gdst.push(gpre);
                            }
                        }
                        if need_src {
                            gsrc.push(acc);
                        }
                    }
                    if need_src {
                        ctx.accumulate_owned(psrc, gsrc);
                    } else {
                        arena::recycle(gsrc);
                    }
                    if need_dst {
                        ctx.accumulate_owned(pdst, gdst);
                    } else {
                        arena::recycle(gdst);
                    }
                }
                arena::recycle(grad);
            }),
        )
    }

    /// Fused attention-weighted combine with the self-loop in `alpha`
    /// column 0 and a ReLU on the way out:
    ///
    /// ```text
    /// out[b][o] = ReLU(α[b][0]·wh_c[b][o] + Σ_j α[b][1+j]·wh_n[b·K+j][o])
    /// ```
    ///
    /// `wh_c: [B, out]`, `wh_n: [B·K, out]`, `alpha: [B, K+1]`.
    ///
    /// # Panics
    ///
    /// Panics on any shape inconsistency or `k == 0`.
    pub fn attn_combine_fused(wh_c: &Tensor, wh_n: &Tensor, alpha: &Tensor, k: usize) -> Tensor {
        assert!(k > 0, "attn_combine_fused requires k > 0");
        assert_eq!(
            wh_c.dims().len(),
            2,
            "attn_combine_fused wh_c must be rank-2"
        );
        let (b, od) = (wh_c.dims()[0], wh_c.dims()[1]);
        assert_eq!(
            wh_n.dims(),
            &[b * k, od],
            "attn_combine_fused wh_n must be [B*K, out]"
        );
        assert_eq!(
            alpha.dims(),
            &[b, k + 1],
            "attn_combine_fused alpha must be [B, K+1]"
        );

        let wc = wh_c.data();
        let wn = wh_n.data();
        let al = alpha.data();
        let cols = k + 1;
        let mut out = arena::take_empty(b * od);
        for bi in 0..b {
            let a0 = al[bi * cols];
            for o in 0..od {
                // Ascending-j accumulation matches the composed
                // mul-then-sum_axis evaluation order.
                let mut nv = 0.0;
                for j in 0..k {
                    nv += wn[(bi * k + j) * od + o] * al[bi * cols + 1 + j];
                }
                out.push((wc[bi * od + o] * a0 + nv).max(0.0));
            }
        }
        drop((wc, wn, al));

        Tensor::from_op(
            out,
            Shape::new(vec![b, od]),
            vec![wh_c.clone(), wh_n.clone(), alpha.clone()],
            Box::new(move |out, mut grad, parents, ctx: &mut GradCtx| {
                let (pc, pn, pa) = (&parents[0], &parents[1], &parents[2]);
                // ReLU gate in place on the owned upstream buffer.
                let y = out.data();
                for (g, &yv) in grad.iter_mut().zip(y.iter()) {
                    if yv <= 0.0 {
                        *g = 0.0;
                    }
                }
                drop(y);
                let al = pa.data();
                if pc.is_requires_grad() {
                    let mut gc = arena::take_empty(b * od);
                    for bi in 0..b {
                        let a0 = al[bi * cols];
                        for o in 0..od {
                            gc.push(grad[bi * od + o] * a0);
                        }
                    }
                    ctx.accumulate_owned(pc, gc);
                }
                if pn.is_requires_grad() {
                    let mut gn = arena::take_empty(b * k * od);
                    for bi in 0..b {
                        for j in 0..k {
                            let a = al[bi * cols + 1 + j];
                            for o in 0..od {
                                gn.push(grad[bi * od + o] * a);
                            }
                        }
                    }
                    ctx.accumulate_owned(pn, gn);
                }
                drop(al);
                if pa.is_requires_grad() {
                    let wc = pc.data();
                    let wn = pn.data();
                    let mut ga = arena::take_empty(b * cols);
                    for bi in 0..b {
                        let grow = &grad[bi * od..(bi + 1) * od];
                        let mut acc = 0.0;
                        for (&g, &w) in grow.iter().zip(wc[bi * od..].iter()) {
                            acc += g * w;
                        }
                        ga.push(acc);
                        for j in 0..k {
                            let wrow = &wn[(bi * k + j) * od..(bi * k + j + 1) * od];
                            let mut acc = 0.0;
                            for (&g, &w) in grow.iter().zip(wrow.iter()) {
                                acc += g * w;
                            }
                            ga.push(acc);
                        }
                    }
                    ctx.accumulate_owned(pa, ga);
                }
                arena::recycle(grad);
            }),
        )
    }
}

#[cfg(test)]
mod tests {
    use crate::Tensor;

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
        let fused = Tensor::gru_cell_fused(&x1, &h1, &refs1);
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
        Tensor::gru_cell_fused(&x, &h, &refs).sum().backward();
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
    fn attn_scores_fused_matches_composed() {
        let (b, k) = (3, 2);
        let mask = [1.0, 0.0, 1.0, 1.0, 0.0, 0.0];
        let make = || {
            (
                rand_tensor([b, 1], 21),
                rand_tensor([b, 1], 22),
                rand_tensor([b * k, 1], 23),
            )
        };
        let (s1, c1, d1) = make();
        let fused = Tensor::attn_scores_fused(&s1, &c1, &d1, &mask, k);
        let (s2, c2, d2) = make();
        let e_neigh = c2.add(&d2.reshape([b, k])).leaky_relu(0.2);
        let mask_t = Tensor::from_vec(mask.to_vec(), [b, k]);
        let neg_inf = mask_t.sub_scalar(1.0).mul_scalar(1e9);
        let e_neigh = e_neigh.mul(&mask_t).add(&neg_inf);
        let composed = Tensor::concat_cols(&[&s2, &e_neigh]);

        assert_eq!(fused.dims(), &[b, k + 1]);
        assert_eq!(fused.to_vec(), composed.to_vec());

        fused.softmax().sum().backward();
        composed.softmax().sum().backward();
        assert_close(&s1.grad().unwrap(), &s2.grad().unwrap(), 1e-5, "de_self");
        assert_close(&c1.grad().unwrap(), &c2.grad().unwrap(), 1e-5, "de_src");
        assert_close(&d1.grad().unwrap(), &d2.grad().unwrap(), 1e-5, "de_dst");
    }

    #[test]
    fn attn_combine_fused_matches_composed() {
        let (b, k, od) = (2, 3, 4);
        let make = || {
            let logits = rand_tensor([b, k + 1], 33);
            (
                rand_tensor([b, od], 31),
                rand_tensor([b * k, od], 32),
                logits.softmax(),
                logits,
            )
        };
        let (c1, n1, a1, l1) = make();
        let fused = Tensor::attn_combine_fused(&c1, &n1, &a1, k);
        let (c2, n2, a2, l2) = make();
        let alpha_self = a2.slice_cols(0, 1);
        let alpha_n = a2.slice_cols(1, k + 1).reshape([b * k, 1]);
        let composed = c2
            .mul(&alpha_self)
            .add(&n2.mul(&alpha_n).reshape([b, k, od]).sum_axis(1))
            .relu();

        assert_eq!(fused.dims(), &[b, od]);
        assert_close(&fused.to_vec(), &composed.to_vec(), 1e-6, "forward");

        fused.sum().backward();
        composed.sum().backward();
        assert_close(&c1.grad().unwrap(), &c2.grad().unwrap(), 1e-5, "dwh_c");
        assert_close(&n1.grad().unwrap(), &n2.grad().unwrap(), 1e-5, "dwh_n");
        assert_close(&l1.grad().unwrap(), &l2.grad().unwrap(), 1e-5, "dlogits");
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
        let _ = Tensor::gru_cell_fused(&Tensor::zeros([2, 2]), &Tensor::zeros([3, 2]), &refs);
    }

    #[test]
    #[should_panic(expected = "mask length mismatch")]
    fn attn_scores_fused_rejects_bad_mask() {
        let _ = Tensor::attn_scores_fused(
            &Tensor::zeros([2, 1]),
            &Tensor::zeros([2, 1]),
            &Tensor::zeros([4, 1]),
            &[1.0; 3],
            2,
        );
    }
}
