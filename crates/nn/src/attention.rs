//! Graph attention over sampled temporal neighborhoods.
//!
//! TGN, DySAT, and TGAT embed node memories with attention modules
//! (Table 1 of the paper). [`GatLayer`] implements single-head GATv1-style
//! attention over ragged sampled neighbourhoods — each center attends
//! over its valid neighbours only, with no padded slot computed — always
//! including the center node as an attention target (self-loop).

use cascade_tensor::{ColBlock, Tensor};

use crate::module::{xavier_uniform, Module};

/// A single-head graph attention layer.
///
/// For a batch of `B` center nodes, each with its own list of sampled
/// neighbours, computes
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
/// use cascade_tensor::{ColBlock, Tensor};
///
/// let gat = GatLayer::new(8, 16, 4);
/// let center = Tensor::ones([2, 8]);
/// // Center 0 has three neighbours, center 1 none.
/// let neighbors = Tensor::ones([3, 8]);
/// let out = gat.forward_ragged(&[ColBlock::from(&center)], &[ColBlock::from(&neighbors)], &[0, 3, 3]);
/// assert_eq!(out.dims(), &[2, 16]);
/// ```
#[derive(Clone, Debug)]
pub struct GatLayer {
    weight: Tensor,
    attn_src: Tensor,
    attn_dst: Tensor,
    in_dim: usize,
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
        }
    }

    /// Attends each of the `B` center rows over its neighbour rows.
    ///
    /// * `center`: `[B, in_dim]`, as column blocks
    /// * `neighbors`: `[V, in_dim]`, as column blocks; rows
    ///   `offsets[i]..offsets[i + 1]` are the neighbours of center `i`
    /// * `offsets`: `B + 1` ascending bounds from 0 to `V`
    ///
    /// Both projections run through [`Tensor::matmul_cols`], so no
    /// concatenation is built, zero blocks cost nothing and only blocks
    /// that want a gradient get one; the scores, the per-center softmax
    /// and the combine run as [`Tensor::attn_weights_ragged`] and
    /// [`Tensor::attn_combine_ragged`]. A center with no neighbour
    /// attends over its self-loop alone, and both attention vectors get a
    /// gradient even when no center has one. Returns `[B, out_dim]`.
    ///
    /// # Panics
    ///
    /// Panics on any dimension inconsistency or malformed `offsets`.
    pub fn forward_ragged(
        &self,
        center: &[ColBlock],
        neighbors: &[ColBlock],
        offsets: &[usize],
    ) -> Tensor {
        let [b, width] = ColBlock::shape_of(center);
        assert_eq!(width, self.in_dim, "GatLayer center width mismatch");
        assert_eq!(offsets.len(), b + 1, "GatLayer needs B + 1 offsets");
        assert_eq!(
            ColBlock::shape_of(neighbors),
            [offsets[b], self.in_dim],
            "GatLayer neighbors must be [offsets[B], in]"
        );

        let wh_c = Tensor::matmul_cols(center, &self.weight); // [B, out]
        let e0 = wh_c.matmul(&self.attn_src); // [B, 1], shared by e_self and e_src
        let e_self = e0.mul_scalar(2.0).leaky_relu(0.2); // [B, 1]
        let wh_n = Tensor::matmul_cols(neighbors, &self.weight); // [V, out]
        let e_dst = wh_n.matmul(&self.attn_dst); // [V, 1]
        let alpha = Tensor::attn_weights_ragged(&e_self, &e0, &e_dst, offsets); // [B + V]
        Tensor::attn_combine_ragged(&wh_c, &wh_n, &alpha, offsets)
    }

    /// [`forward_ragged`](Self::forward_ragged) on a padded neighbourhood:
    /// `neighbors` is `[B·K, in_dim]` (row `i·K + j` is slot `j` of center
    /// `i`) and `mask[i·K + j]` is `0.0` for a padded slot. Gathers the
    /// valid rows and attends over those; `k = 0` is the projected
    /// self-loop alone, which the attention vectors take no part in (and
    /// get no gradient from).
    ///
    /// # Panics
    ///
    /// Panics on any dimension inconsistency.
    pub fn forward(&self, center: &Tensor, neighbors: &Tensor, mask: &[f32], k: usize) -> Tensor {
        let b = center.dims()[0];
        assert_eq!(
            neighbors.dims(),
            &[b * k, self.in_dim],
            "GatLayer neighbors must be [B*K, in]"
        );
        assert_eq!(mask.len(), b * k, "GatLayer mask length mismatch");
        if k == 0 {
            return center.matmul(&self.weight).relu();
        }
        let rows: Vec<usize> = (0..b * k).filter(|&i| mask[i] != 0.0).collect();
        let mut offsets = Vec::with_capacity(b + 1);
        offsets.push(0);
        for slots in mask.chunks(k) {
            let valid = slots.iter().filter(|&&m| m != 0.0).count();
            offsets.push(offsets[offsets.len() - 1] + valid);
        }
        self.forward_ragged(
            &[ColBlock::from(center)],
            &[ColBlock::Dense(neighbors.index_select(&rows))],
            &offsets,
        )
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
        // every input gradient to the bit, at a row count off the quad grid
        // and with neighbourhoods of 0 to 3 rows.
        let (b, d, f, td) = (13, 5, 6, 3);
        let lens = [3, 0, 2, 3, 1, 0, 3, 2, 1, 3, 0, 2, 3];
        let offsets: Vec<usize> = (0..=b).map(|i| lens[..i].iter().sum()).collect();
        let v = offsets[b];
        let g = GatLayer::new(d + f + td, 4, 5);
        let base = Tensor::randn([b, d], 1).requires_grad();
        let phi_c = Tensor::randn([b, td], 2).requires_grad();
        let mem = Tensor::randn([v, d], 3);
        let feat = Tensor::randn([v, f], 4);
        let phi_n = Tensor::randn([v, td], 5).requires_grad();
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
        let blocked = run(g.forward_ragged(&center, &neighbors, &offsets));
        let zeros = Tensor::zeros([b, f]);
        let c_in = Tensor::concat_cols(&[&base, &zeros, &phi_c]);
        let n_in = Tensor::concat_cols(&[&mem, &feat, &phi_n]);
        let cat = [ColBlock::from(&c_in)];
        assert_eq!(
            blocked,
            run(g.forward_ragged(&cat, &[ColBlock::from(&n_in)], &offsets))
        );
    }

    #[test]
    fn fully_masked_neighbors_match_self_only() {
        // An all-padded neighbourhood attends over the self-loop alone:
        // exactly the k = 0 projection, to the bit.
        let g = GatLayer::new(3, 5, 2);
        let c = Tensor::from_vec(vec![0.5, -0.2, 0.9, 0.1, 0.4, -0.6], [2, 3]);
        let noise = Tensor::randn([4, 3], 9);
        let masked = g.forward(&c, &noise, &[0.0; 4], 2);
        let selfonly = g.forward(&c, &Tensor::zeros([0, 3]), &[], 0);
        let bits = |t: Tensor| t.to_vec().into_iter().map(f32::to_bits).collect::<Vec<_>>();
        assert_eq!(bits(masked), bits(selfonly));
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
