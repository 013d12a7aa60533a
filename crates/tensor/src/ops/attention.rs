//! Ragged neighbour attention: a GAT layer's score assembly, segment
//! softmax and weighted combine over neighbourhoods of varying size.
//!
//! Center `b` of `B` owns rows `offsets[b]..offsets[b + 1]` of the
//! neighbour tensors (`offsets` holds `B + 1` ascending bounds from 0) and
//! attends over its *segment*: the self-loop first, then those rows in
//! order. The attention weights of all segments lie back to back in one
//! `[B + V]` vector, so center `b`'s self-loop weight sits at
//! `offsets[b] + b` and its neighbours' weights follow it. Nothing is
//! padded and nothing is masked: a center without neighbours attends over
//! its self-loop alone.
//!
//! Numerics: every segment sees exactly the float operations, in the same
//! order, that the masked `[B, K]` formulation these ops replace (kept as
//! [`masked`], test builds only) performs on the center's valid slots.
//! Everything the masked form does beyond that is an exact zero: a padded
//! slot scores −1e9, so its softmax weight `exp(−1e9 − max)` is `0.0`, and
//! each term it adds to a sum (a denominator, a weighted combine, a
//! gradient dot product) is `±0` added to an accumulator that is not `−0`
//! (each starts at `+0`, except the softmax backward's `y·g`, whose first
//! term is the self-loop's); its upstream gradients are `±0` too.
//! Dropping the slot moves no bit of the output or of any gradient.

use crate::arena;
use crate::grad::GradCtx;
use crate::shape::Shape;
use crate::tensor::Tensor;

/// Checks that `offsets` bounds the segments of `b` centers and returns
/// the neighbour-row count `V = offsets[b]`.
fn segment_rows(offsets: &[usize], b: usize, op: &str) -> usize {
    assert_eq!(offsets.len(), b + 1, "{op}: offsets must hold B + 1 bounds");
    assert_eq!(offsets[0], 0, "{op}: offsets must start at 0");
    assert!(
        offsets.windows(2).all(|w| w[0] <= w[1]),
        "{op}: offsets must ascend"
    );
    offsets[b]
}

/// Center `c`'s segment of the `[B + V]` weight vector: its self-loop,
/// then its neighbours.
fn segment(offsets: &[usize], c: usize) -> std::ops::Range<usize> {
    offsets[c] + c..offsets[c + 1] + c + 1
}

impl Tensor {
    /// Attention weights of ragged neighbourhoods with a self-loop:
    ///
    /// ```text
    /// s_self = e_self[b]
    /// s_j    = LeakyReLU₀.₂(e_src[b] + e_dst[j])    j ∈ offsets[b]..offsets[b+1]
    /// α      = softmax over (s_self, s_j…)           per center
    /// ```
    ///
    /// `e_self`/`e_src` are `[B, 1]`, `e_dst` is `[V, 1]`; the result is
    /// the `[B + V]` weight vector (see the module docs for its layout).
    /// Every parent that wants a gradient gets one, an empty one when
    /// `V = 0`, so a parameter behind `e_dst` is reached even when no
    /// center has a neighbour.
    ///
    /// # Panics
    ///
    /// Panics on any shape inconsistency or malformed `offsets`.
    pub fn attn_weights_ragged(
        e_self: &Tensor,
        e_src: &Tensor,
        e_dst: &Tensor,
        offsets: &[usize],
    ) -> Tensor {
        assert_eq!(
            e_self.dims().len(),
            2,
            "attn_weights_ragged e_self must be [B, 1]"
        );
        assert_eq!(
            e_self.dims()[1],
            1,
            "attn_weights_ragged e_self must be [B, 1]"
        );
        let b = e_self.dims()[0];
        assert_eq!(
            e_src.dims(),
            &[b, 1],
            "attn_weights_ragged e_src must be [B, 1]"
        );
        let v = segment_rows(offsets, b, "attn_weights_ragged");
        assert_eq!(
            e_dst.dims(),
            &[v, 1],
            "attn_weights_ragged e_dst must be [V, 1]"
        );

        let es = e_self.data();
        let ec = e_src.data();
        let ed = e_dst.data();
        let mut pre = arena::take_empty(v);
        let mut out = arena::take_empty(b + v);
        for c in 0..b {
            let start = out.len();
            out.push(es[c]);
            for &d in &ed[offsets[c]..offsets[c + 1]] {
                let p = ec[c] + d;
                pre.push(p);
                out.push(if p > 0.0 { p } else { 0.2 * p });
            }
            let seg = &mut out[start..];
            let max = seg.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let mut denom = 0.0;
            for o in seg.iter_mut() {
                let e = (*o - max).exp();
                *o = e;
                denom += e;
            }
            for o in seg.iter_mut() {
                *o /= denom;
            }
        }
        drop((es, ec, ed));
        let offsets = offsets.to_vec();

        Tensor::from_op(
            out,
            Shape::new(vec![b + v]),
            vec![e_self.clone(), e_src.clone(), e_dst.clone()],
            Box::new(move |out, mut grad, parents, ctx: &mut GradCtx| {
                let (pself, psrc, pdst) = (&parents[0], &parents[1], &parents[2]);
                // Softmax backward per segment, in place on the owned
                // upstream buffer: dot = y·g first, then g ← y ⊙ (g − dot).
                let y = out.data();
                for c in 0..b {
                    let seg = segment(&offsets, c);
                    let ys = &y[seg.clone()];
                    let gs = &mut grad[seg];
                    let dot: f32 = ys.iter().zip(gs.iter()).map(|(&a, &b)| a * b).sum();
                    for (g, &yi) in gs.iter_mut().zip(ys.iter()) {
                        *g = yi * (*g - dot);
                    }
                }
                drop(y);
                if pself.is_requires_grad() {
                    let mut gs = arena::take_empty(b);
                    for c in 0..b {
                        gs.push(grad[offsets[c] + c]);
                    }
                    ctx.accumulate_owned(pself, gs);
                }
                let need_src = psrc.is_requires_grad();
                let need_dst = pdst.is_requires_grad();
                if need_src || need_dst {
                    let mut gsrc = arena::take_empty(if need_src { b } else { 0 });
                    let mut gdst = arena::take_empty(if need_dst { v } else { 0 });
                    for c in 0..b {
                        let mut acc = 0.0;
                        for j in offsets[c]..offsets[c + 1] {
                            let slope = if pre[j] > 0.0 { 1.0 } else { 0.2 };
                            let gpre = grad[j + c + 1] * slope;
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

    /// Attention-weighted combine of ragged neighbourhoods with a ReLU on
    /// the way out:
    ///
    /// ```text
    /// out[b][o] = ReLU(α_self·wh_c[b][o] + Σ_j α_j·wh_n[j][o])    j ∈ offsets[b]..offsets[b+1]
    /// ```
    ///
    /// `wh_c: [B, out]`, `wh_n: [V, out]`, and `alpha` the `[B + V]`
    /// weights of [`Tensor::attn_weights_ragged`].
    ///
    /// # Panics
    ///
    /// Panics on any shape inconsistency or malformed `offsets`.
    pub fn attn_combine_ragged(
        wh_c: &Tensor,
        wh_n: &Tensor,
        alpha: &Tensor,
        offsets: &[usize],
    ) -> Tensor {
        assert_eq!(
            wh_c.dims().len(),
            2,
            "attn_combine_ragged wh_c must be rank-2"
        );
        let (b, od) = (wh_c.dims()[0], wh_c.dims()[1]);
        let v = segment_rows(offsets, b, "attn_combine_ragged");
        assert_eq!(
            wh_n.dims(),
            &[v, od],
            "attn_combine_ragged wh_n must be [V, out]"
        );
        assert_eq!(
            alpha.dims(),
            &[b + v],
            "attn_combine_ragged alpha must be [B + V]"
        );

        let wc = wh_c.data();
        let wn = wh_n.data();
        let al = alpha.data();
        let mut out = arena::take_zeroed(b * od);
        for (c, row) in out.chunks_exact_mut(od).enumerate() {
            // Ascending-j accumulation per output element, as the masked
            // combine's inner loop; the self-loop term is added last.
            for j in offsets[c]..offsets[c + 1] {
                let a = al[j + c + 1];
                for (o, &w) in row.iter_mut().zip(&wn[j * od..(j + 1) * od]) {
                    *o += w * a;
                }
            }
            let a0 = al[offsets[c] + c];
            for (o, &w) in row.iter_mut().zip(&wc[c * od..(c + 1) * od]) {
                *o = (w * a0 + *o).max(0.0);
            }
        }
        drop((wc, wn, al));
        let offsets = offsets.to_vec();

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
                    for c in 0..b {
                        let a0 = al[offsets[c] + c];
                        gc.extend(grad[c * od..(c + 1) * od].iter().map(|&g| g * a0));
                    }
                    ctx.accumulate_owned(pc, gc);
                }
                if pn.is_requires_grad() {
                    let mut gn = arena::take_empty(v * od);
                    for c in 0..b {
                        let grow = &grad[c * od..(c + 1) * od];
                        for j in offsets[c]..offsets[c + 1] {
                            let a = al[j + c + 1];
                            gn.extend(grow.iter().map(|&g| g * a));
                        }
                    }
                    ctx.accumulate_owned(pn, gn);
                }
                drop(al);
                if pa.is_requires_grad() {
                    let wc = pc.data();
                    let wn = pn.data();
                    let dot = |g: &[f32], w: &[f32]| {
                        let mut acc = 0.0;
                        for (&g, &w) in g.iter().zip(w.iter()) {
                            acc += g * w;
                        }
                        acc
                    };
                    let mut ga = arena::take_empty(b + v);
                    for c in 0..b {
                        let grow = &grad[c * od..(c + 1) * od];
                        ga.push(dot(grow, &wc[c * od..(c + 1) * od]));
                        for j in offsets[c]..offsets[c + 1] {
                            ga.push(dot(grow, &wn[j * od..(j + 1) * od]));
                        }
                    }
                    ctx.accumulate_owned(pa, ga);
                }
                arena::recycle(grad);
            }),
        )
    }
}

/// The masked `[B, K]` attention kernels the ragged ops replaced, kept as
/// the reference they are held to bit for bit: every center has `K`
/// slots, `mask[b·K + j]` is `1.0` for a valid slot and `0.0` for padding,
/// and a padded slot scores −1e9 so that the (separate, generic) softmax
/// zeroes it.
#[cfg(test)]
pub(crate) mod masked {
    use crate::arena;
    use crate::grad::GradCtx;
    use crate::shape::Shape;
    use crate::tensor::Tensor;

    /// `out[b][0] = e_self[b]`,
    /// `out[b][1+j] = LeakyReLU₀.₂(e_src[b] + e_dst[b·K+j]) · m + (m − 1)·1e9`.
    pub(crate) fn scores(
        e_self: &Tensor,
        e_src: &Tensor,
        e_dst: &Tensor,
        mask: &[f32],
        k: usize,
    ) -> Tensor {
        let b = e_self.dims()[0];
        assert_eq!(mask.len(), b * k, "masked scores mask length mismatch");
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
                    }
                    if need_dst {
                        ctx.accumulate_owned(pdst, gdst);
                    }
                }
                arena::recycle(grad);
            }),
        )
    }

    /// `out[b][o] = ReLU(α[b][0]·wh_c[b][o] + Σ_j α[b][1+j]·wh_n[b·K+j][o])`.
    pub(crate) fn combine(wh_c: &Tensor, wh_n: &Tensor, alpha: &Tensor, k: usize) -> Tensor {
        let (b, od) = (wh_c.dims()[0], wh_c.dims()[1]);
        let wc = wh_c.data();
        let wn = wh_n.data();
        let al = alpha.data();
        let cols = k + 1;
        let mut out = arena::take_empty(b * od);
        for bi in 0..b {
            let a0 = al[bi * cols];
            for o in 0..od {
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

    /// The masked GAT layer, op for op: `[B, in]` centers over `[B·K, in]`
    /// neighbour slots, projected by `weight` and scored by `a_src`/`a_dst`.
    pub(crate) fn gat(
        center: &Tensor,
        neighbors: &Tensor,
        [weight, a_src, a_dst]: [&Tensor; 3],
        mask: &[f32],
        k: usize,
    ) -> Tensor {
        let wh_c = center.matmul(weight);
        let e0 = wh_c.matmul(a_src);
        let e_self = e0.mul_scalar(2.0).leaky_relu(0.2);
        let wh_n = neighbors.matmul(weight);
        let e_dst = wh_n.matmul(a_dst);
        let alpha = scores(&e_self, &e0, &e_dst, mask, k).softmax();
        combine(&wh_c, &wh_n, &alpha, k)
    }
}

/// The ragged GAT layer, op for op: `[B, in]` centers over the `[V, in]`
/// rows of `offsets`' segments.
#[cfg(test)]
pub(crate) fn ragged_gat(
    center: &Tensor,
    neighbors: &Tensor,
    [weight, a_src, a_dst]: [&Tensor; 3],
    offsets: &[usize],
) -> Tensor {
    let wh_c = center.matmul(weight);
    let e0 = wh_c.matmul(a_src);
    let e_self = e0.mul_scalar(2.0).leaky_relu(0.2);
    let wh_n = neighbors.matmul(weight);
    let e_dst = wh_n.matmul(a_dst);
    let alpha = Tensor::attn_weights_ragged(&e_self, &e0, &e_dst, offsets);
    Tensor::attn_combine_ragged(&wh_c, &wh_n, &alpha, offsets)
}

#[cfg(test)]
mod tests {
    use super::{masked, ragged_gat};
    use crate::Tensor;

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// A mask of `b` centers × `k` slots: centers cycle through all
    /// padded, fully valid, and a scattered mix (not a prefix).
    fn mask_for(b: usize, k: usize) -> Vec<f32> {
        (0..b * k)
            .map(|i| {
                let (c, j) = (i / k, i % k);
                let valid = match c % 3 {
                    0 => false,
                    1 => true,
                    _ => (c + 2 * j) % 3 != 0,
                };
                valid as u8 as f32
            })
            .collect()
    }

    /// The valid rows of `mask` and the per-center segment bounds.
    fn compact(mask: &[f32], k: usize) -> (Vec<usize>, Vec<usize>) {
        let rows: Vec<usize> = (0..mask.len()).filter(|&i| mask[i] != 0.0).collect();
        let mut offsets = vec![0];
        for seg in mask.chunks(k) {
            offsets.push(offsets.last().unwrap() + seg.iter().filter(|&&m| m != 0.0).count());
        }
        (rows, offsets)
    }

    /// Output and gradient bits of both formulations on the same operands:
    /// the masked layer over all `B·K` slots, and the ragged layer over a
    /// separate leaf holding only the valid rows. `None` marks a leaf that
    /// got no gradient.
    #[allow(clippy::type_complexity)]
    fn both(b: usize, k: usize, mask: &[f32], seed: u64) -> [(Vec<u32>, Vec<Option<Vec<f32>>>); 2] {
        let (d_in, d_out) = (7, 5);
        let center = Tensor::randn([b, d_in], seed).requires_grad();
        let neighbors = Tensor::randn([b * k, d_in], seed + 1).requires_grad();
        let params = [
            Tensor::randn([d_in, d_out], seed + 2).requires_grad(),
            Tensor::randn([d_out, 1], seed + 3).requires_grad(),
            Tensor::randn([d_out, 1], seed + 4).requires_grad(),
        ];
        let p = [&params[0], &params[1], &params[2]];
        let up = Tensor::randn([b, d_out], seed + 5);
        let (rows, offsets) = compact(mask, k);
        let valid = neighbors.index_select(&rows).detach().requires_grad();
        let run = |out: Tensor, nb: &Tensor| {
            let leaves = [&center, nb, p[0], p[1], p[2]];
            leaves.iter().for_each(|t| t.zero_grad());
            out.mul(&up).sum().backward();
            (
                bits(&out.to_vec()),
                leaves.iter().map(|t| t.grad()).collect::<Vec<_>>(),
            )
        };
        let masked = run(masked::gat(&center, &neighbors, p, mask, k), &neighbors);
        let ragged = run(ragged_gat(&center, &valid, p, &offsets), &valid);
        // The masked neighbour gradient, cut down to the valid rows; its
        // padded rows must be zeros.
        let mut masked = masked;
        if let Some(g) = masked.1[1].take() {
            let d_in = g.len() / (b * k);
            for (i, row) in g.chunks(d_in).enumerate() {
                if mask[i] == 0.0 {
                    assert!(
                        row.iter().all(|&x| x == 0.0),
                        "padded row {i} got a gradient"
                    );
                }
            }
            let kept = rows
                .iter()
                .flat_map(|&r| g[r * d_in..(r + 1) * d_in].to_vec())
                .collect();
            masked.1[1] = Some(kept);
        }
        [masked, ragged]
    }

    #[test]
    fn ragged_gat_matches_the_masked_reference_to_the_bit() {
        // 13 centers cycling through all-padded, fully valid and mixed;
        // output and all five gradients (center, valid neighbour rows,
        // weight, both attention vectors) to the bit, at k = 1, 4, 10.
        for k in [1, 4, 10] {
            let b = 13;
            let mask = mask_for(b, k);
            let [masked, ragged] = both(b, k, &mask, 40 + k as u64);
            assert_eq!(masked.0, ragged.0, "output at k = {k}");
            for (i, (m, r)) in masked.1.iter().zip(&ragged.1).enumerate() {
                let (m, r) = (m.as_deref().map(bits), r.as_deref().map(bits));
                assert!(m.is_some(), "masked leaf {i} got no gradient at k = {k}");
                assert_eq!(m, r, "gradient of leaf {i} at k = {k}");
            }
        }
    }

    #[test]
    fn a_call_with_no_valid_slot_grads_what_the_masked_call_grads() {
        // Every slot padded: the output is the self-loop, and every
        // parameter the masked call reaches, `a_dst` included (through an
        // all-zero gradient), is reached by the ragged call too, with the
        // same bits.
        let (b, k) = (6, 4);
        let [masked, ragged] = both(b, k, &vec![0.0; b * k], 70);
        assert_eq!(masked.0, ragged.0, "output");
        let has: Vec<bool> = ragged.1.iter().map(Option::is_some).collect();
        assert_eq!(has, [true, true, true, true, true], "gradient presence");
        assert_eq!(
            ragged.1[4].as_deref(),
            Some(&[0.0; 5][..]),
            "a_dst's gradient is all zeros"
        );
        assert_eq!(ragged.1[1].as_deref(), Some(&[][..]), "no neighbour rows");
        for (i, (m, r)) in masked.1.iter().zip(&ragged.1).enumerate() {
            let (m, r) = (m.as_deref().map(bits), r.as_deref().map(bits));
            assert_eq!(m, r, "gradient of leaf {i}");
        }
    }

    #[test]
    fn a_center_without_neighbours_is_its_projected_self_loop() {
        let wh_c = Tensor::randn([3, 4], 1);
        let alpha = Tensor::attn_weights_ragged(
            &Tensor::randn([3, 1], 2),
            &Tensor::randn([3, 1], 3),
            &Tensor::zeros([0, 1]),
            &[0, 0, 0, 0],
        );
        assert_eq!(alpha.to_vec(), vec![1.0; 3]);
        let out = Tensor::attn_combine_ragged(&wh_c, &Tensor::zeros([0, 4]), &alpha, &[0; 4]);
        assert_eq!(bits(&out.to_vec()), bits(&wh_c.relu().to_vec()));
    }

    #[test]
    #[should_panic(expected = "offsets must ascend")]
    fn attn_weights_ragged_rejects_descending_offsets() {
        let _ = Tensor::attn_weights_ragged(
            &Tensor::zeros([2, 1]),
            &Tensor::zeros([2, 1]),
            &Tensor::zeros([1, 1]),
            &[0, 2, 1],
        );
    }

    #[test]
    #[should_panic(expected = "e_dst must be [V, 1]")]
    fn attn_weights_ragged_rejects_a_short_e_dst() {
        let _ = Tensor::attn_weights_ragged(
            &Tensor::zeros([2, 1]),
            &Tensor::zeros([2, 1]),
            &Tensor::zeros([2, 1]),
            &[0, 1, 3],
        );
    }
}
