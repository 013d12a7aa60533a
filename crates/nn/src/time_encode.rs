//! Sinusoidal time encoding (TGAT-style Bochner features).
//!
//! The paper's TGAT "adopts positional encoding to abstract edge temporal
//! information" (§5.1); TGN's message function consumes `ΔT` through the
//! same kind of encoder.

use cascade_tensor::Tensor;

use crate::module::Module;

/// Learnable sinusoidal encoder mapping a time delta to a `dim`-vector:
/// `φ(Δt) = cos(Δt · ω + b)` with log-spaced initial frequencies.
///
/// # Examples
///
/// ```
/// use cascade_nn::TimeEncode;
/// use cascade_tensor::Tensor;
///
/// let enc = TimeEncode::new(8);
/// let dts = Tensor::from_vec(vec![0.0, 1.5, 100.0], [3, 1]);
/// assert_eq!(enc.forward(&dts).dims(), &[3, 8]);
/// ```
#[derive(Clone, Debug)]
pub struct TimeEncode {
    omega: Tensor,
    phase: Tensor,
}

impl TimeEncode {
    /// Creates an encoder with frequencies `ω_i = 1 / 10^(4i/dim)`.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "TimeEncode dim must be positive");
        let omega: Vec<f32> = (0..dim)
            .map(|i| 1.0 / 10f32.powf(4.0 * i as f32 / dim as f32))
            .collect();
        TimeEncode {
            omega: Tensor::from_vec(omega, [1, dim]).requires_grad(),
            phase: Tensor::zeros([dim]).requires_grad(),
        }
    }

    /// Encodes a column of time deltas `[B, 1]` into `[B, dim]`.
    ///
    /// # Panics
    ///
    /// Panics if `dts` is not a `[B, 1]` tensor.
    pub fn forward(&self, dts: &Tensor) -> Tensor {
        assert_eq!(dts.dims().len(), 2, "TimeEncode input must be [B, 1]");
        assert_eq!(dts.dims()[1], 1, "TimeEncode input must be [B, 1]");
        Tensor::time_encode_fused(dts, &self.omega, &self.phase)
    }
}

impl Module for TimeEncode {
    fn parameters(&self) -> Vec<Tensor> {
        vec![self.omega.clone(), self.phase.clone()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_delta_encodes_to_ones() {
        // cos(0 + 0) = 1 for every component.
        let e = TimeEncode::new(4);
        let out = e.forward(&Tensor::zeros([2, 1]));
        for v in out.to_vec() {
            assert!((v - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn output_bounded() {
        let e = TimeEncode::new(8);
        let out = e.forward(&Tensor::from_vec(vec![1e6, -3.0, 42.0], [3, 1]));
        assert!(out.to_vec().iter().all(|&x| x.abs() <= 1.0 + 1e-6));
    }

    #[test]
    fn distinct_deltas_distinct_codes() {
        let e = TimeEncode::new(16);
        let out = e.forward(&Tensor::from_vec(vec![1.0, 2.0], [2, 1]));
        assert_ne!(out.row(0), out.row(1));
    }

    #[test]
    fn gradients_flow() {
        let e = TimeEncode::new(4);
        e.forward(&Tensor::ones([2, 1])).sum().backward();
        for p in e.parameters() {
            assert!(p.grad().is_some());
        }
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn rejects_zero_dim() {
        let _ = TimeEncode::new(0);
    }
}
