//! Recurrent memory updaters: [`GruCell`] (TGN) and [`RnnCell`] (JODIE,
//! DySAT).
//!
//! The paper's `UPDT(·)` of Equation 3 is "usually implemented by a
//! recurrent neural network such as a Gated-Recurrent-Unit" (§2.2).

use cascade_tensor::{ColBlock, Tensor};

use crate::module::{xavier_uniform, zeros_bias, Module};

/// A Gated Recurrent Unit cell.
///
/// Given input `x ∈ [B, in]` and hidden state `h ∈ [B, hidden]`:
///
/// ```text
/// r  = σ(x·W_xr + h·W_hr + b_r)
/// z  = σ(x·W_xz + h·W_hz + b_z)
/// n  = tanh(x·W_xn + r ⊙ (h·W_hn) + b_n)
/// h' = (1 − z) ⊙ n + z ⊙ h
/// ```
///
/// # Examples
///
/// ```
/// use cascade_nn::GruCell;
/// use cascade_tensor::Tensor;
///
/// let cell = GruCell::new(4, 8, 2);
/// let x = Tensor::ones([3, 4]);
/// let h = Tensor::zeros([3, 8]);
/// assert_eq!(cell.forward(&x, &h).dims(), &[3, 8]);
/// ```
#[derive(Clone, Debug)]
pub struct GruCell {
    w_xr: Tensor,
    w_hr: Tensor,
    b_r: Tensor,
    w_xz: Tensor,
    w_hz: Tensor,
    b_z: Tensor,
    w_xn: Tensor,
    w_hn: Tensor,
    b_n: Tensor,
    in_dim: usize,
    hidden_dim: usize,
}

impl GruCell {
    /// Creates a GRU cell with Xavier-initialized weights.
    pub fn new(in_dim: usize, hidden_dim: usize, seed: u64) -> Self {
        let s = |i: u64| seed.wrapping_mul(31).wrapping_add(i);
        GruCell {
            w_xr: xavier_uniform(in_dim, hidden_dim, s(1)),
            w_hr: xavier_uniform(hidden_dim, hidden_dim, s(2)),
            b_r: zeros_bias(hidden_dim),
            w_xz: xavier_uniform(in_dim, hidden_dim, s(3)),
            w_hz: xavier_uniform(hidden_dim, hidden_dim, s(4)),
            b_z: zeros_bias(hidden_dim),
            w_xn: xavier_uniform(in_dim, hidden_dim, s(5)),
            w_hn: xavier_uniform(hidden_dim, hidden_dim, s(6)),
            b_n: zeros_bias(hidden_dim),
            in_dim,
            hidden_dim,
        }
    }

    /// One recurrence step.
    ///
    /// # Panics
    ///
    /// Panics if `x` or `h` widths disagree with the cell configuration or
    /// their batch sizes differ.
    pub fn forward(&self, x: &Tensor, h: &Tensor) -> Tensor {
        self.forward_cols(&[ColBlock::from(x)], h)
    }

    /// One recurrence step on the column-wise concatenation of `x`,
    /// without building it, fanned out over up to the calling thread's
    /// compute budget (see [`Tensor::gru_cell_fused`]). Bit-identical to
    /// `forward` on the concatenation at any budget.
    ///
    /// # Panics
    ///
    /// Panics if `x` or `h` widths disagree with the cell configuration or
    /// their batch sizes differ.
    pub fn forward_cols(&self, x: &[ColBlock], h: &Tensor) -> Tensor {
        let [rows, width] = ColBlock::shape_of(x);
        assert_eq!(width, self.in_dim, "GruCell input width mismatch");
        assert_eq!(
            h.dims()[1],
            self.hidden_dim,
            "GruCell hidden width mismatch"
        );
        assert_eq!(rows, h.dims()[0], "GruCell batch mismatch");
        Tensor::gru_cell_fused(
            x,
            h,
            &[
                &self.w_xr, &self.w_hr, &self.b_r, &self.w_xz, &self.w_hz, &self.b_z, &self.w_xn,
                &self.w_hn, &self.b_n,
            ],
        )
    }
}

impl Module for GruCell {
    fn parameters(&self) -> Vec<Tensor> {
        vec![
            self.w_xr.clone(),
            self.w_hr.clone(),
            self.b_r.clone(),
            self.w_xz.clone(),
            self.w_hz.clone(),
            self.b_z.clone(),
            self.w_xn.clone(),
            self.w_hn.clone(),
            self.b_n.clone(),
        ]
    }
}

/// A vanilla (Elman) RNN cell: `h' = tanh(x·W_x + h·W_h + b)`.
///
/// JODIE uses plain RNN updaters for its node memories (§5.1, Table 1).
#[derive(Clone, Debug)]
pub struct RnnCell {
    w_x: Tensor,
    w_h: Tensor,
    b: Tensor,
    in_dim: usize,
    hidden_dim: usize,
}

impl RnnCell {
    /// Creates an RNN cell with Xavier-initialized weights.
    pub fn new(in_dim: usize, hidden_dim: usize, seed: u64) -> Self {
        RnnCell {
            w_x: xavier_uniform(in_dim, hidden_dim, seed.wrapping_add(11)),
            w_h: xavier_uniform(hidden_dim, hidden_dim, seed.wrapping_add(13)),
            b: zeros_bias(hidden_dim),
            in_dim,
            hidden_dim,
        }
    }

    /// One recurrence step.
    ///
    /// # Panics
    ///
    /// Panics on width or batch mismatches.
    pub fn forward(&self, x: &Tensor, h: &Tensor) -> Tensor {
        self.forward_cols(&[ColBlock::from(x)], h)
    }

    /// One recurrence step on the column-wise concatenation of `x`,
    /// without building it (see [`Tensor::matmul_cols`]); bit-identical
    /// to `forward` on the concatenation.
    ///
    /// # Panics
    ///
    /// Panics on width or batch mismatches.
    pub fn forward_cols(&self, x: &[ColBlock], h: &Tensor) -> Tensor {
        let [rows, width] = ColBlock::shape_of(x);
        assert_eq!(width, self.in_dim, "RnnCell input width mismatch");
        assert_eq!(
            h.dims()[1],
            self.hidden_dim,
            "RnnCell hidden width mismatch"
        );
        assert_eq!(rows, h.dims()[0], "RnnCell batch mismatch");
        Tensor::matmul_cols(x, &self.w_x)
            .add(&h.matmul(&self.w_h))
            .add(&self.b)
            .tanh()
    }
}

impl Module for RnnCell {
    fn parameters(&self) -> Vec<Tensor> {
        vec![self.w_x.clone(), self.w_h.clone(), self.b.clone()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gru_shapes_and_params() {
        let g = GruCell::new(3, 5, 0);
        let h = g.forward(&Tensor::ones([2, 3]), &Tensor::zeros([2, 5]));
        assert_eq!(h.dims(), &[2, 5]);
        assert_eq!(g.parameters().len(), 9);
        assert_eq!(g.parameter_count(), 3 * (3 * 5 + 5 * 5 + 5));
    }

    #[test]
    fn gru_outputs_bounded() {
        // h' is a convex combination of tanh(n) and h=0, so |h'| <= 1.
        let g = GruCell::new(4, 4, 1);
        let h = g.forward(&Tensor::full([2, 4], 100.0), &Tensor::zeros([2, 4]));
        assert!(h.to_vec().iter().all(|&x| x.abs() <= 1.0));
    }

    #[test]
    fn gru_identity_when_update_gate_saturated() {
        // With large positive z-bias, h' ≈ h.
        let g = GruCell::new(2, 2, 2);
        g.parameters()[5].set_data(&[50.0, 50.0]); // b_z
        let h0 = Tensor::from_vec(vec![0.3, -0.7, 0.9, 0.1], [2, 2]);
        let h1 = g.forward(&Tensor::ones([2, 2]), &h0);
        for (a, b) in h1.to_vec().iter().zip(h0.to_vec().iter()) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn gru_gradients_reach_all_parameters() {
        let g = GruCell::new(2, 3, 3);
        let h = g.forward(&Tensor::ones([2, 2]), &Tensor::ones([2, 3]));
        h.sum().backward();
        for p in g.parameters() {
            assert!(p.grad().is_some(), "missing grad");
        }
    }

    #[test]
    fn rnn_shapes_and_bounds() {
        let r = RnnCell::new(3, 4, 0);
        let h = r.forward(&Tensor::full([2, 3], 10.0), &Tensor::zeros([2, 4]));
        assert_eq!(h.dims(), &[2, 4]);
        assert!(h.to_vec().iter().all(|&x| x.abs() <= 1.0));
        assert_eq!(r.parameters().len(), 3);
    }

    #[test]
    #[should_panic(expected = "batch mismatch")]
    fn gru_rejects_batch_mismatch() {
        let g = GruCell::new(2, 2, 0);
        let _ = g.forward(&Tensor::ones([2, 2]), &Tensor::ones([3, 2]));
    }
}
