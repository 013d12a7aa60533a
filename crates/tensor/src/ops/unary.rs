//! Elementwise unary operations and activations.

use crate::arena;
use crate::grad::GradCtx;
use crate::tensor::Tensor;

fn unary(
    t: &Tensor,
    forward: impl Fn(f32) -> f32,
    // dy/dx expressed from (x, y) so activations can reuse the output.
    backward: impl Fn(f32, f32) -> f32 + Send + Sync + 'static,
) -> Tensor {
    let src = t.data();
    let mut data = arena::take_empty(src.len());
    data.extend(src.iter().map(|&x| forward(x)));
    drop(src);
    let shape = t.shape().clone();
    Tensor::from_op(
        data,
        shape,
        vec![t.clone()],
        Box::new(move |out, mut grad, parents, ctx: &mut GradCtx| {
            let p = &parents[0];
            if !p.is_requires_grad() {
                arena::recycle(grad);
                return;
            }
            // The upstream buffer is owned: scale it by dy/dx in place and
            // pass it along without a copy.
            let x = p.data();
            let y = out.data();
            for (g, (&x, &y)) in grad.iter_mut().zip(x.iter().zip(y.iter())) {
                *g *= backward(x, y);
            }
            drop(x);
            drop(y);
            ctx.accumulate_owned(p, grad);
        }),
    )
}

impl Tensor {
    /// Elementwise negation.
    pub fn neg(&self) -> Tensor {
        unary(self, |x| -x, |_, _| -1.0)
    }

    /// Elementwise natural exponential.
    pub fn exp(&self) -> Tensor {
        unary(self, f32::exp, |_, y| y)
    }

    /// Elementwise natural logarithm.
    ///
    /// Inputs must be positive for meaningful gradients; non-positive
    /// inputs produce `-inf`/`NaN` as in IEEE arithmetic.
    pub fn log(&self) -> Tensor {
        unary(self, f32::ln, |x, _| 1.0 / x)
    }

    /// Elementwise square.
    pub fn square(&self) -> Tensor {
        unary(self, |x| x * x, |x, _| 2.0 * x)
    }

    /// Elementwise absolute value (subgradient 0 at 0).
    pub fn abs(&self) -> Tensor {
        unary(self, f32::abs, |x, _| {
            if x > 0.0 {
                1.0
            } else if x < 0.0 {
                -1.0
            } else {
                0.0
            }
        })
    }

    /// Elementwise hyperbolic tangent.
    pub fn tanh(&self) -> Tensor {
        unary(self, f32::tanh, |_, y| 1.0 - y * y)
    }

    /// Elementwise logistic sigmoid.
    pub fn sigmoid(&self) -> Tensor {
        unary(self, |x| 1.0 / (1.0 + (-x).exp()), |_, y| y * (1.0 - y))
    }

    /// Elementwise rectified linear unit.
    pub fn relu(&self) -> Tensor {
        unary(self, |x| x.max(0.0), |x, _| if x > 0.0 { 1.0 } else { 0.0 })
    }

    /// Elementwise leaky ReLU with slope `alpha` on the negative side.
    pub fn leaky_relu(&self, alpha: f32) -> Tensor {
        unary(
            self,
            move |x| if x > 0.0 { x } else { alpha * x },
            move |x, _| if x > 0.0 { 1.0 } else { alpha },
        )
    }

    /// Elementwise cosine (used by sinusoidal time encodings).
    pub fn cos(&self) -> Tensor {
        unary(self, f32::cos, |x, _| -x.sin())
    }
}

#[cfg(test)]
mod tests {
    use crate::Tensor;

    fn close(a: f32, b: f32) -> bool {
        (a - b).abs() < 1e-5
    }

    #[test]
    fn neg_exp_log() {
        let t = Tensor::from_vec(vec![1.0, 2.0], [2]);
        assert_eq!(t.neg().to_vec(), vec![-1.0, -2.0]);
        assert!(close(t.exp().at(0), std::f32::consts::E));
        assert!(close(t.log().at(0), 0.0));
    }

    #[test]
    fn sigmoid_values() {
        let t = Tensor::from_vec(vec![0.0], [1]);
        assert!(close(t.sigmoid().item(), 0.5));
    }

    #[test]
    fn relu_and_leaky() {
        let t = Tensor::from_vec(vec![-2.0, 3.0], [2]);
        assert_eq!(t.relu().to_vec(), vec![0.0, 3.0]);
        assert_eq!(t.leaky_relu(0.1).to_vec(), vec![-0.2, 3.0]);
    }

    #[test]
    fn tanh_backward() {
        let t = Tensor::from_vec(vec![0.5], [1]).requires_grad();
        t.tanh().sum().backward();
        let y = 0.5f32.tanh();
        assert!(close(t.grad().unwrap()[0], 1.0 - y * y));
    }

    #[test]
    fn sigmoid_backward() {
        let t = Tensor::from_vec(vec![0.0], [1]).requires_grad();
        t.sigmoid().sum().backward();
        assert!(close(t.grad().unwrap()[0], 0.25));
    }

    #[test]
    fn relu_backward_gates() {
        let t = Tensor::from_vec(vec![-1.0, 2.0], [2]).requires_grad();
        t.relu().sum().backward();
        assert_eq!(t.grad().unwrap(), vec![0.0, 1.0]);
    }

    #[test]
    fn square_backward() {
        let t = Tensor::from_vec(vec![3.0], [1]).requires_grad();
        t.square().sum().backward();
        assert!(close(t.grad().unwrap()[0], 6.0));
    }

    #[test]
    fn trig_roundtrip() {
        let t = Tensor::from_vec(vec![0.0], [1]);
        assert!(close(t.cos().item(), 1.0));
    }
}
