//! The optimizer, [`Adam`] (the paper's choice, §2.3), and gradient
//! clipping.

use cascade_tensor::Tensor;
use cascade_util::{ByteReader, ByteWriter, DecodeError};

/// The Adam optimizer (Kingma & Ba, 2014).
///
/// # Examples
///
/// ```
/// use cascade_nn::{Adam, Linear, Module};
/// use cascade_tensor::Tensor;
///
/// let layer = Linear::new(2, 1, 0);
/// let mut opt = Adam::new(layer.parameters(), 1e-2);
/// let x = Tensor::ones([4, 2]);
/// let loss = layer.forward(&x).square().mean();
/// loss.backward();
/// opt.step();
/// ```
#[derive(Debug)]
pub struct Adam {
    params: Vec<Tensor>,
    m: Vec<Vec<f32>>,
    v: Vec<Vec<f32>>,
    t: u64,
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
}

impl Adam {
    /// Creates an optimizer over `params` with the given learning rate and
    /// default moments `β₁ = 0.9`, `β₂ = 0.999`, `ε = 1e-8`.
    pub fn new(params: Vec<Tensor>, lr: f32) -> Self {
        let m = params.iter().map(|p| vec![0.0; p.len()]).collect();
        let v = params.iter().map(|p| vec![0.0; p.len()]).collect();
        Adam {
            params,
            m,
            v,
            t: 0,
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
        }
    }

    /// Applies one update using the accumulated gradients, then clears
    /// them. Parameters with no gradient are skipped.
    pub fn step(&mut self) {
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for (i, p) in self.params.iter().enumerate() {
            let m = &mut self.m[i];
            let v = &mut self.v[i];
            let (b1, b2, lr, eps) = (self.beta1, self.beta2, self.lr, self.eps);
            // Borrow the gradient in place rather than copying it out; the
            // data write happens under the (separate) storage lock.
            let stepped = p
                .with_grad(|grad| {
                    p.update_data(|data| {
                        assert_eq!(grad.len(), data.len(), "gradient shape mismatch");
                        // Zipped, not indexed: with no bounds checks left
                        // LLVM vectorises the loop, and `div`/`sqrt` are
                        // IEEE-exact per lane, so every element sees the
                        // same operations in the same order as a scalar
                        // loop — bit-identical parameters.
                        let state = m.iter_mut().zip(v.iter_mut());
                        for ((d, &g), (m, v)) in data.iter_mut().zip(grad).zip(state) {
                            *m = b1 * *m + (1.0 - b1) * g;
                            *v = b2 * *v + (1.0 - b2) * g * g;
                            let m_hat = *m / bc1;
                            let v_hat = *v / bc2;
                            *d -= lr * m_hat / (v_hat.sqrt() + eps);
                        }
                    });
                })
                .is_some();
            if stepped {
                p.zero_grad();
            }
        }
    }

    /// Clears all parameter gradients without stepping.
    pub fn zero_grad(&self) {
        for p in &self.params {
            p.zero_grad();
        }
    }

    /// The learning rate.
    pub fn lr(&self) -> f32 {
        self.lr
    }

    /// Updates the learning rate (batch-size scaling, schedules).
    pub fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }

    /// Serializes the optimizer's moment estimates and step counter for
    /// a mid-training checkpoint. The learning rate and betas are
    /// configuration, not state, and are excluded.
    pub fn export_state(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.u64(self.t);
        w.usize(self.params.len());
        for (m, v) in self.m.iter().zip(&self.v) {
            w.f32s(m);
            w.f32_array(v);
        }
        w.into_bytes()
    }

    /// Restores state captured by [`export_state`](Adam::export_state).
    ///
    /// # Errors
    ///
    /// A [`DecodeError`] when the blob is truncated, has trailing bytes,
    /// or its parameter shapes do not match this optimizer; the
    /// optimizer is unchanged in that case.
    pub fn import_state(&mut self, bytes: &[u8]) -> Result<(), DecodeError> {
        let mut r = ByteReader::new(bytes);
        let t = r.u64()?;
        let count = r.count(8)?;
        if count != self.params.len() {
            return Err(DecodeError::Invalid(format!(
                "optimizer state has {} parameters, expected {}",
                count,
                self.params.len()
            )));
        }
        let mut m = Vec::with_capacity(count);
        let mut v = Vec::with_capacity(count);
        for (i, p) in self.params.iter().enumerate() {
            let first = r.f32s()?;
            if first.len() != p.len() {
                return Err(DecodeError::Invalid(format!(
                    "optimizer state parameter {} has {} values, expected {}",
                    i,
                    first.len(),
                    p.len()
                )));
            }
            m.push(first);
            v.push(r.f32_array(p.len())?);
        }
        r.finish()?;
        self.t = t;
        self.m = m;
        self.v = v;
        Ok(())
    }
}

/// Rescales gradients in place so their global L2 norm is at most
/// `max_norm`. Returns the pre-clip norm.
pub fn clip_grad_norm(params: &[Tensor], max_norm: f32) -> f32 {
    let mut total = 0.0f64;
    for p in params {
        total += p
            .with_grad(|g| g.iter().map(|&x| (x as f64) * (x as f64)).sum::<f64>())
            .unwrap_or(0.0);
    }
    let norm = total.sqrt() as f32;
    if norm > max_norm && norm > 0.0 {
        let scale = max_norm / norm;
        for p in params {
            p.scale_grad(scale);
        }
    }
    norm
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quadratic_param(start: f32) -> Tensor {
        Tensor::from_vec(vec![start], [1]).requires_grad()
    }

    #[test]
    fn adam_minimizes_quadratic() {
        let p = quadratic_param(5.0);
        let mut opt = Adam::new(vec![p.clone()], 0.5);
        for _ in 0..200 {
            let loss = p.square().sum();
            loss.backward();
            opt.step();
        }
        assert!(p.at(0).abs() < 0.1, "param stuck at {}", p.at(0));
    }

    /// The indexed loop `Adam::step` ran before it was zipped — the
    /// scalar order of operations the vectorised loop must reproduce.
    #[allow(clippy::needless_range_loop)]
    fn indexed_step(
        opt: &Adam,
        t: u64,
        data: &mut [f32],
        grad: &[f32],
        m: &mut [f32],
        v: &mut [f32],
    ) {
        let (b1, b2, lr, eps) = (opt.beta1, opt.beta2, opt.lr, opt.eps);
        let bc1 = 1.0 - b1.powi(t as i32);
        let bc2 = 1.0 - b2.powi(t as i32);
        for j in 0..data.len() {
            let g = grad[j];
            m[j] = b1 * m[j] + (1.0 - b1) * g;
            v[j] = b2 * v[j] + (1.0 - b2) * g * g;
            let m_hat = m[j] / bc1;
            let v_hat = v[j] / bc2;
            data[j] -= lr * m_hat / (v_hat.sqrt() + eps);
        }
    }

    #[test]
    fn zipped_step_is_bit_identical_to_the_indexed_loop() {
        let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        let mut rng = cascade_util::DetRng::new(18);
        for len in [0usize, 1, 3, 4, 5, 31, 3584] {
            let mut data: Vec<f32> = (0..len).map(|_| rng.range_f32(-2.0, 2.0)).collect();
            let p = Tensor::from_vec(data.clone(), [len]).requires_grad();
            let mut opt = Adam::new(vec![p.clone()], 1e-2);
            let (mut m, mut v) = (vec![0.0; len], vec![0.0; len]);
            for step in 1..=5u64 {
                let mut grad: Vec<f32> = (0..len).map(|_| rng.range_f32(-1.0, 1.0)).collect();
                // One NaN and one negative zero, moving through the lanes.
                if len > 0 {
                    grad[(step as usize * 7) % len] = -0.0;
                    grad[(step as usize * 3) % len] = f32::NAN;
                }
                p.set_grad(&grad);
                opt.step();
                indexed_step(&opt, step, &mut data, &grad, &mut m, &mut v);
                assert_eq!(
                    bits(&p.to_vec()),
                    bits(&data),
                    "data, len {len} step {step}"
                );
                assert_eq!(bits(&opt.m[0]), bits(&m), "m, len {len} step {step}");
                assert_eq!(bits(&opt.v[0]), bits(&v), "v, len {len} step {step}");
            }
        }
    }

    #[test]
    fn step_clears_gradients() {
        let p = quadratic_param(1.0);
        let mut opt = Adam::new(vec![p.clone()], 0.1);
        p.square().sum().backward();
        opt.step();
        assert!(p.grad().is_none());
    }

    #[test]
    fn step_skips_gradientless_params() {
        let p = quadratic_param(2.0);
        let mut opt = Adam::new(vec![p.clone()], 0.1);
        opt.step(); // must not panic or move the parameter
        assert_eq!(p.at(0), 2.0);
    }

    #[test]
    fn clip_caps_norm() {
        let p = Tensor::from_vec(vec![3.0, 4.0], [2]).requires_grad();
        p.square().sum().backward(); // grad = [6, 8], norm 10
        let pre = clip_grad_norm(std::slice::from_ref(&p), 5.0);
        assert!((pre - 10.0).abs() < 1e-4);
        let g = p.grad().unwrap();
        let norm = (g[0] * g[0] + g[1] * g[1]).sqrt();
        assert!((norm - 5.0).abs() < 1e-3);
    }

    #[test]
    fn adam_state_roundtrip_resumes_identically() {
        let p = quadratic_param(5.0);
        let mut opt = Adam::new(vec![p.clone()], 0.2);
        let mut state = Vec::new();
        let mut mid = 0.0;
        for i in 0..20 {
            if i == 10 {
                state = opt.export_state();
                mid = p.at(0);
            }
            p.square().sum().backward();
            opt.step();
        }
        let uninterrupted = p.at(0);

        let p2 = quadratic_param(mid);
        let mut o2 = Adam::new(vec![p2.clone()], 0.2);
        o2.import_state(&state).expect("state roundtrips");
        for _ in 10..20 {
            p2.square().sum().backward();
            o2.step();
        }
        assert_eq!(uninterrupted.to_bits(), p2.at(0).to_bits());
    }

    #[test]
    fn adam_import_rejects_shape_mismatch() {
        let p = quadratic_param(1.0);
        let mut a = Adam::new(vec![p.clone()], 0.1);
        let b = Adam::new(
            vec![Tensor::from_vec(vec![0.0, 1.0], [2]).requires_grad()],
            0.1,
        );
        assert!(a.import_state(&b.export_state()).is_err());
        assert!(a.import_state(&[1, 2, 3]).is_err());
    }

    #[test]
    fn adam_import_survives_the_hostile_input_battery() {
        let p = Tensor::from_vec(vec![3.0, 4.0, 5.0], [3]).requires_grad();
        let q = quadratic_param(1.0);
        let mut opt = Adam::new(vec![p.clone(), q.clone()], 0.1);
        p.square().sum().backward();
        q.square().sum().backward();
        opt.step();
        cascade_util::check_decoder("adam_state", &opt.export_state(), |bytes| {
            let before = opt.export_state();
            let imported = opt.import_state(bytes);
            if imported.is_err() {
                assert_eq!(opt.export_state(), before, "failed import mutates nothing");
            }
            imported.ok().map(|()| opt.export_state())
        });
    }

    #[test]
    fn clip_leaves_small_grads() {
        let p = Tensor::from_vec(vec![0.3], [1]).requires_grad();
        p.square().sum().backward(); // grad 0.6
        clip_grad_norm(std::slice::from_ref(&p), 5.0);
        assert!((p.grad().unwrap()[0] - 0.6).abs() < 1e-5);
    }
}
