//! Affine layers and multi-layer perceptrons.

use cascade_tensor::{ColBlock, Tensor};

use crate::module::{xavier_uniform, zeros_bias, Module};

/// A fully-connected affine layer: `y = x·W + b`.
///
/// # Examples
///
/// ```
/// use cascade_nn::{Linear, Module};
/// use cascade_tensor::Tensor;
///
/// let layer = Linear::new(4, 2, 7);
/// let x = Tensor::ones([3, 4]);
/// assert_eq!(layer.forward(&x).dims(), &[3, 2]);
/// assert_eq!(layer.parameter_count(), 4 * 2 + 2);
/// ```
#[derive(Clone, Debug)]
pub struct Linear {
    weight: Tensor,
    bias: Tensor,
    in_dim: usize,
    out_dim: usize,
}

impl Linear {
    /// Creates a layer with Xavier-initialized weights.
    pub fn new(in_dim: usize, out_dim: usize, seed: u64) -> Self {
        Linear {
            weight: xavier_uniform(in_dim, out_dim, seed),
            bias: zeros_bias(out_dim),
            in_dim,
            out_dim,
        }
    }

    /// Applies the layer to a `[batch, in_dim]` input.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not rank-2 with `in_dim` columns.
    pub fn forward(&self, x: &Tensor) -> Tensor {
        assert_eq!(
            x.dims().last(),
            Some(&self.in_dim),
            "Linear({} -> {}) got input {}",
            self.in_dim,
            self.out_dim,
            x.shape()
        );
        self.forward_cols(&[ColBlock::from(x)])
    }

    /// Applies the layer to the column-wise concatenation of `x` without
    /// building it (see [`Tensor::matmul_cols`]): bit-identical to
    /// `forward(&Tensor::concat_cols(..))`, with zero blocks skipped and
    /// input gradients only for the blocks that want one.
    ///
    /// # Panics
    ///
    /// Panics if the blocks are not `in_dim` columns wide in total or
    /// disagree on their row count.
    pub fn forward_cols(&self, x: &[ColBlock]) -> Tensor {
        Tensor::matmul_cols(x, &self.weight).add(&self.bias)
    }
}

impl Module for Linear {
    fn parameters(&self) -> Vec<Tensor> {
        vec![self.weight.clone(), self.bias.clone()]
    }
}

/// A multi-layer perceptron with ReLU activations between layers.
///
/// The paper's TGNN models use MLPs as message functions and link
/// predictors (§2.2).
///
/// # Examples
///
/// ```
/// use cascade_nn::{Mlp, Module};
/// use cascade_tensor::Tensor;
///
/// let mlp = Mlp::new(&[8, 16, 1], 3);
/// let x = Tensor::ones([5, 8]);
/// assert_eq!(mlp.forward(&x).dims(), &[5, 1]);
/// ```
#[derive(Clone, Debug)]
pub struct Mlp {
    layers: Vec<Linear>,
}

impl Mlp {
    /// Creates an MLP with the given layer widths (`dims.len() - 1` layers).
    ///
    /// # Panics
    ///
    /// Panics if fewer than two widths are given.
    pub fn new(dims: &[usize], seed: u64) -> Self {
        assert!(
            dims.len() >= 2,
            "Mlp needs at least input and output widths"
        );
        let layers = dims
            .windows(2)
            .enumerate()
            .map(|(i, w)| Linear::new(w[0], w[1], seed.wrapping_add(i as u64 * 7919)))
            .collect();
        Mlp { layers }
    }

    /// Applies the network; ReLU between layers, no activation on the last.
    pub fn forward(&self, x: &Tensor) -> Tensor {
        let mut h = x.clone();
        for (i, layer) in self.layers.iter().enumerate() {
            h = layer.forward(&h);
            if i + 1 < self.layers.len() {
                h = h.relu();
            }
        }
        h
    }
}

impl Module for Mlp {
    fn parameters(&self) -> Vec<Tensor> {
        self.layers.iter().flat_map(Linear::parameters).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_shapes() {
        let l = Linear::new(3, 5, 0);
        let x = Tensor::ones([2, 3]);
        assert_eq!(l.forward(&x).dims(), &[2, 5]);
    }

    #[test]
    #[should_panic(expected = "got input")]
    fn linear_rejects_wrong_width() {
        let l = Linear::new(3, 5, 0);
        let _ = l.forward(&Tensor::ones([2, 4]));
    }

    #[test]
    fn linear_bias_applied() {
        let l = Linear::new(2, 2, 0);
        // zero input -> output equals bias (zeros)
        let y = l.forward(&Tensor::zeros([1, 2]));
        assert_eq!(y.to_vec(), vec![0.0, 0.0]);
    }

    #[test]
    fn linear_gradients_flow() {
        let l = Linear::new(2, 1, 1);
        let x = Tensor::ones([4, 2]);
        l.forward(&x).sum().backward();
        for p in l.parameters() {
            assert!(p.grad().is_some());
        }
    }

    #[test]
    fn mlp_params() {
        let m = Mlp::new(&[4, 8, 2], 0);
        assert_eq!(m.parameter_count(), 4 * 8 + 8 + 8 * 2 + 2);
    }

    #[test]
    fn mlp_trains_xor_direction() {
        // One gradient step reduces the loss on a fixed batch.
        let m = Mlp::new(&[2, 8, 1], 5);
        let x = Tensor::from_vec(vec![0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0], [4, 2]);
        let t = Tensor::from_vec(vec![0.0, 1.0, 1.0, 0.0], [4, 1]);
        let loss0 = m.forward(&x).sub(&t).square().mean();
        loss0.backward();
        for p in m.parameters() {
            let g = p.grad().unwrap();
            p.update_data(|d| {
                for (d, g) in d.iter_mut().zip(g.iter()) {
                    *d -= 0.1 * g;
                }
            });
            p.zero_grad();
        }
        let loss1 = m.forward(&x).sub(&t).square().mean();
        assert!(loss1.item() < loss0.item());
    }

    #[test]
    #[should_panic(expected = "at least input and output")]
    fn mlp_rejects_single_width() {
        let _ = Mlp::new(&[4], 0);
    }
}
