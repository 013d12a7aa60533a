//! Layer normalization: [`LayerNorm`].

use cascade_tensor::Tensor;

use crate::module::{zeros_bias, Module};

/// Layer normalization over the last axis of a `[B, D]` tensor, with
/// learnable gain and bias:
///
/// ```text
/// y = γ ⊙ (x − μ) / √(σ² + ε) + β
/// ```
///
/// # Examples
///
/// ```
/// use cascade_nn::LayerNorm;
/// use cascade_tensor::Tensor;
///
/// let ln = LayerNorm::new(4);
/// let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [1, 4]);
/// let y = ln.forward(&x);
/// // Initially γ = 1, β = 0: output is standardized.
/// assert!(y.to_vec().iter().sum::<f32>().abs() < 1e-4);
/// ```
#[derive(Clone, Debug)]
pub struct LayerNorm {
    gain: Tensor,
    bias: Tensor,
    dim: usize,
    eps: f32,
}

impl LayerNorm {
    /// Creates a layer with γ = 1, β = 0, ε = 1e-5.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "LayerNorm dim must be positive");
        LayerNorm {
            gain: Tensor::ones([dim]).requires_grad(),
            bias: zeros_bias(dim),
            dim,
            eps: 1e-5,
        }
    }

    /// Normalizes each row of a `[B, dim]` tensor.
    ///
    /// # Panics
    ///
    /// Panics on width mismatch.
    pub fn forward(&self, x: &Tensor) -> Tensor {
        assert_eq!(x.dims()[1], self.dim, "LayerNorm width mismatch");
        let b = x.dims()[0];
        let mean = x.mean_axis(1).reshape([b, 1]);
        let centered = x.sub(&mean);
        let var = centered.square().mean_axis(1).reshape([b, 1]);
        let normed = centered.div(&var.add_scalar(self.eps).sqrt());
        normed.mul(&self.gain).add(&self.bias)
    }
}

impl Module for LayerNorm {
    fn parameters(&self) -> Vec<Tensor> {
        vec![self.gain.clone(), self.bias.clone()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layernorm_standardizes_rows() {
        let ln = LayerNorm::new(4);
        let x = Tensor::from_vec(vec![10.0, 20.0, 30.0, 40.0, -1.0, 0.0, 1.0, 2.0], [2, 4]);
        let y = ln.forward(&x).to_vec();
        for r in 0..2 {
            let row = &y[r * 4..(r + 1) * 4];
            let mean: f32 = row.iter().sum::<f32>() / 4.0;
            let var: f32 = row.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / 4.0;
            assert!(mean.abs() < 1e-4, "row {} mean {}", r, mean);
            assert!((var - 1.0).abs() < 1e-2, "row {} var {}", r, var);
        }
    }

    #[test]
    fn layernorm_gradients_flow() {
        let ln = LayerNorm::new(3);
        let x = Tensor::from_vec(vec![1.0, 2.0, 4.0], [1, 3]).requires_grad();
        ln.forward(&x).square().sum().backward();
        assert!(x.grad().is_some());
        for p in ln.parameters() {
            assert!(p.grad().is_some());
        }
    }

    #[test]
    fn layernorm_scale_invariance() {
        // Standardization makes the output invariant to input scaling.
        let ln = LayerNorm::new(4);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 5.0], [1, 4]);
        let x10 = x.mul_scalar(10.0);
        let a = ln.forward(&x).to_vec();
        let b = ln.forward(&x10).to_vec();
        for (u, v) in a.iter().zip(b.iter()) {
            assert!((u - v).abs() < 1e-3);
        }
    }
}
