//! Graph attention over sampled temporal neighborhoods.
//!
//! TGN, DySAT, and TGAT embed node memories with attention modules
//! (Table 1 of the paper). [`GatLayer`] implements single-head GATv1-style
//! attention over a fixed-width sampled neighborhood with a validity mask,
//! always including the center node as an attention target (self-loop).

use cascade_tensor::{ColBlock, Tensor};

use crate::module::{xavier_uniform, Module};

/// A single-head graph attention layer.
///
/// For a batch of `B` center nodes, each with `K` sampled neighbor slots
/// (invalid slots masked out), computes
///
/// ```text
/// e_j   = LeakyReLU(a_srcᵀ·W h_center + a_dstᵀ·W h_j)
/// α     = softmax over {self} ∪ neighbors
/// out   = ReLU(α_self · W h_center + Σ_j α_j · W h_j)
/// ```
///
/// # Examples
///
/// ```
/// use cascade_nn::GatLayer;
/// use cascade_tensor::Tensor;
///
/// let gat = GatLayer::new(8, 16, 4);
/// let center = Tensor::ones([2, 8]);
/// let neighbors = Tensor::ones([2 * 3, 8]);
/// let mask = vec![1.0; 6];
/// let out = gat.forward(&center, &neighbors, &mask, 3);
/// assert_eq!(out.dims(), &[2, 16]);
/// ```
#[derive(Clone, Debug)]
pub struct GatLayer {
    weight: Tensor,
    attn_src: Tensor,
    attn_dst: Tensor,
    in_dim: usize,
    out_dim: usize,
}

impl GatLayer {
    /// Creates a layer with Xavier-initialized projection and attention
    /// vectors.
    pub fn new(in_dim: usize, out_dim: usize, seed: u64) -> Self {
        GatLayer {
            weight: xavier_uniform(in_dim, out_dim, seed.wrapping_add(1)),
            attn_src: xavier_uniform(out_dim, 1, seed.wrapping_add(2)),
            attn_dst: xavier_uniform(out_dim, 1, seed.wrapping_add(3)),
            in_dim,
            out_dim,
        }
    }

    /// Attends each of the `B` center rows over its `K` neighbor slots.
    ///
    /// * `center`: `[B, in_dim]`
    /// * `neighbors`: `[B·K, in_dim]`, row `i·K + j` is neighbor `j` of
    ///   center `i`
    /// * `mask`: length `B·K`; `1.0` for valid slots, `0.0` for padding
    /// * `k`: neighbor slots per center
    ///
    /// Returns `[B, out_dim]`.
    ///
    /// # Panics
    ///
    /// Panics on any dimension inconsistency.
    pub fn forward(&self, center: &Tensor, neighbors: &Tensor, mask: &[f32], k: usize) -> Tensor {
        self.forward_cols(
            &[ColBlock::from(center)],
            &[ColBlock::from(neighbors)],
            mask,
            k,
        )
    }

    /// [`forward`](Self::forward) on center and neighbor rows given as
    /// column blocks: both projections run through
    /// [`Tensor::matmul_cols`], so no concatenation is built, zero blocks
    /// cost nothing and only blocks that want a gradient get one.
    /// Bit-identical to `forward` on the concatenations.
    ///
    /// # Panics
    ///
    /// Panics on any dimension inconsistency.
    pub fn forward_cols(
        &self,
        center: &[ColBlock],
        neighbors: &[ColBlock],
        mask: &[f32],
        k: usize,
    ) -> Tensor {
        let [b, width] = ColBlock::shape_of(center);
        assert_eq!(width, self.in_dim, "GatLayer center width mismatch");
        assert_eq!(
            ColBlock::shape_of(neighbors),
            [b * k, self.in_dim],
            "GatLayer neighbors must be [B*K, in]"
        );
        assert_eq!(mask.len(), b * k, "GatLayer mask length mismatch");

        let wh_c = Tensor::matmul_cols(center, &self.weight); // [B, out]
        if k == 0 {
            // No neighborhood: attention collapses onto the self-loop, and
            // the attention vectors take no part (and get no gradient).
            return wh_c.relu();
        }

        let e0 = wh_c.matmul(&self.attn_src); // [B, 1], shared by e_self and e_src
        let e_self = e0.mul_scalar(2.0).leaky_relu(0.2); // [B, 1]
        let wh_n = Tensor::matmul_cols(neighbors, &self.weight); // [B*K, out]
        let e_dst = wh_n.matmul(&self.attn_dst); // [B*K, 1]

        // Score assembly (leaky-ReLU, mask to -1e9, self-loop in column 0)
        // and the attention-weighted combine run as fused kernels.
        let e_all = Tensor::attn_scores_fused(&e_self, &e0, &e_dst, mask, k); // [B, K+1]
        let alpha = e_all.softmax(); // [B, K+1]
        Tensor::attn_combine_fused(&wh_c, &wh_n, &alpha, k)
    }

    /// Output width.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Input width.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }
}

impl Module for GatLayer {
    fn parameters(&self) -> Vec<Tensor> {
        vec![
            self.weight.clone(),
            self.attn_src.clone(),
            self.attn_dst.clone(),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_shape() {
        let g = GatLayer::new(4, 6, 0);
        let c = Tensor::ones([3, 4]);
        let n = Tensor::ones([6, 4]);
        assert_eq!(g.forward(&c, &n, &[1.0; 6], 2).dims(), &[3, 6]);
    }

    #[test]
    fn zero_neighbors_uses_self_only() {
        let g = GatLayer::new(4, 6, 1);
        let c = Tensor::ones([2, 4]);
        let n = Tensor::zeros([0, 4]);
        let out = g.forward(&c, &n, &[], 0);
        assert_eq!(out.dims(), &[2, 6]);
    }

    #[test]
    fn zero_neighbors_is_the_projected_self_loop() {
        // k = 0 is relu(center · W) to the bit, in value and in gradient;
        // the attention vectors are never reached.
        let g = GatLayer::new(4, 6, 1);
        let c = Tensor::randn([5, 4], 7).requires_grad();
        let w = Tensor::randn([5, 6], 8);
        let bits = |v: Vec<f32>| v.into_iter().map(f32::to_bits).collect::<Vec<_>>();

        let out = g.forward(&c, &Tensor::zeros([0, 4]), &[], 0);
        out.mul(&w).sum().backward();
        let (out, dc, dw) = (out.to_vec(), c.grad().unwrap(), g.weight.grad().unwrap());
        assert!(g.attn_src.grad().is_none() && g.attn_dst.grad().is_none());

        c.zero_grad();
        g.weight.zero_grad();
        let want = c.matmul(&g.weight).relu();
        want.mul(&w).sum().backward();
        assert_eq!(bits(out), bits(want.to_vec()));
        assert_eq!(bits(dc), bits(c.grad().unwrap()));
        assert_eq!(bits(dw), bits(g.weight.grad().unwrap()));
    }

    #[test]
    fn column_blocks_match_the_concatenated_rows() {
        // The memory model's rows: centers `[base | 0 | φ]`, neighbours
        // `[mem | feat | φ]`, where `base` and both φ want gradients and
        // `mem` and `feat` do not. Blocked against `concat_cols` with the
        // zero block materialised: output, every parameter gradient and
        // every input gradient to the bit, at a row count off the quad grid.
        let (b, k, d, f, td) = (13, 3, 5, 6, 3);
        let g = GatLayer::new(d + f + td, 4, 5);
        let base = Tensor::randn([b, d], 1).requires_grad();
        let phi_c = Tensor::randn([b, td], 2).requires_grad();
        let mem = Tensor::randn([b * k, d], 3);
        let feat = Tensor::randn([b * k, f], 4);
        let phi_n = Tensor::randn([b * k, td], 5).requires_grad();
        let mask: Vec<f32> = (0..b * k).map(|i| (i % 4 != 1) as u8 as f32).collect();
        let up = Tensor::randn([b, 4], 6);
        let bits = |v: Vec<f32>| v.into_iter().map(f32::to_bits).collect::<Vec<_>>();
        let mut leaves = g.parameters();
        leaves.extend([base.clone(), phi_c.clone(), phi_n.clone()]);
        let run = |out: Tensor| {
            leaves.iter().for_each(Tensor::zero_grad);
            out.mul(&up).sum().backward();
            let grads: Vec<_> = leaves.iter().map(|t| bits(t.grad().unwrap())).collect();
            (bits(out.to_vec()), grads)
        };

        let center = [
            ColBlock::from(&base),
            ColBlock::Zeros(f),
            ColBlock::from(&phi_c),
        ];
        let neighbors = [&mem, &feat, &phi_n].map(ColBlock::from);
        let blocked = run(g.forward_cols(&center, &neighbors, &mask, k));
        let zeros = Tensor::zeros([b, f]);
        let c_in = Tensor::concat_cols(&[&base, &zeros, &phi_c]);
        let n_in = Tensor::concat_cols(&[&mem, &feat, &phi_n]);
        assert_eq!(blocked, run(g.forward(&c_in, &n_in, &mask, k)));
    }

    #[test]
    fn fully_masked_neighbors_match_self_only() {
        // All-invalid mask should attend (almost) only to the self-loop.
        let g = GatLayer::new(3, 5, 2);
        let c = Tensor::from_vec(vec![0.5, -0.2, 0.9, 0.1, 0.4, -0.6], [2, 3]);
        let noise = Tensor::randn([4, 3], 9);
        let masked = g.forward(&c, &noise, &[0.0; 4], 2);
        let selfonly = g.forward(&c, &Tensor::zeros([0, 3]), &[], 0);
        for (a, b) in masked.to_vec().iter().zip(selfonly.to_vec().iter()) {
            assert!((a - b).abs() < 1e-3, "{} vs {}", a, b);
        }
    }

    #[test]
    fn masked_slot_has_no_influence() {
        let g = GatLayer::new(3, 4, 3);
        let c = Tensor::ones([1, 3]);
        let n1 = Tensor::from_vec(vec![1.0, 2.0, 3.0, 0.0, 0.0, 0.0], [2, 3]);
        let n2 = Tensor::from_vec(vec![1.0, 2.0, 3.0, 9.0, -9.0, 9.0], [2, 3]);
        let mask = [1.0, 0.0];
        let o1 = g.forward(&c, &n1, &mask, 2);
        let o2 = g.forward(&c, &n2, &mask, 2);
        for (a, b) in o1.to_vec().iter().zip(o2.to_vec().iter()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn gradients_reach_parameters() {
        let g = GatLayer::new(3, 4, 4);
        let c = Tensor::ones([2, 3]);
        let n = Tensor::ones([4, 3]);
        g.forward(&c, &n, &[1.0; 4], 2).sum().backward();
        for p in g.parameters() {
            assert!(p.grad().is_some());
        }
    }

    #[test]
    #[should_panic(expected = "mask length mismatch")]
    fn rejects_bad_mask() {
        let g = GatLayer::new(3, 4, 0);
        let _ = g.forward(&Tensor::ones([2, 3]), &Tensor::ones([4, 3]), &[1.0; 3], 2);
    }
}
