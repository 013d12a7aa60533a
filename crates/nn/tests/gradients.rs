//! Finite-difference gradient verification for every layer: the analytic
//! parameter gradients must agree with numeric central differences of a
//! scalar loss.

use cascade_nn::{GatLayer, GruCell, Linear, Module, RnnCell, TimeEncode};
use cascade_tensor::Tensor;

const EPS: f32 = 1e-2;
const TOL: f32 = 2e-2;

/// Checks d(loss)/d(param[j]) for a few entries of every parameter.
fn check_module_gradients<M: Module>(module: &M, loss_fn: impl Fn() -> Tensor, label: &str) {
    let loss = loss_fn();
    loss.backward();
    let params = module.parameters();
    let grads: Vec<Option<Vec<f32>>> = params.iter().map(|p| p.grad()).collect();
    module.zero_grad();

    for (pi, p) in params.iter().enumerate() {
        let grad = grads[pi]
            .as_ref()
            .unwrap_or_else(|| panic!("{}: parameter {} received no gradient", label, pi));
        // Probe a handful of coordinates.
        let len = p.len();
        let probes = [0, len / 2, len - 1];
        for &j in probes.iter() {
            let orig = p.to_vec();
            let mut plus = orig.clone();
            plus[j] += EPS;
            p.set_data(&plus);
            let fp = loss_fn().item();
            let mut minus = orig.clone();
            minus[j] -= EPS;
            p.set_data(&minus);
            let fm = loss_fn().item();
            p.set_data(&orig);

            let numeric = (fp - fm) / (2.0 * EPS);
            let analytic = grad[j];
            assert!(
                (numeric - analytic).abs() <= TOL * (1.0 + numeric.abs().max(analytic.abs())),
                "{}: param {} coord {}: analytic {} vs numeric {}",
                label,
                pi,
                j,
                analytic,
                numeric
            );
        }
    }
}

#[test]
fn linear_gradients_match_finite_differences() {
    let layer = Linear::new(3, 2, 7);
    let x = Tensor::randn([4, 3], 1);
    check_module_gradients(&layer, || layer.forward(&x).square().mean(), "Linear");
}

#[test]
fn gru_gradients_match_finite_differences() {
    let cell = GruCell::new(3, 4, 11);
    let x = Tensor::randn([2, 3], 2);
    let h = Tensor::randn([2, 4], 3);
    check_module_gradients(&cell, || cell.forward(&x, &h).square().mean(), "GruCell");
}

#[test]
fn rnn_gradients_match_finite_differences() {
    let cell = RnnCell::new(3, 4, 13);
    let x = Tensor::randn([2, 3], 4);
    let h = Tensor::randn([2, 4], 5);
    check_module_gradients(&cell, || cell.forward(&x, &h).square().mean(), "RnnCell");
}

#[test]
fn gat_gradients_match_finite_differences() {
    let gat = GatLayer::new(3, 4, 17);
    let center = Tensor::randn([2, 3], 6);
    let neighbors = Tensor::randn([4, 3], 7);
    let mask = [1.0, 1.0, 1.0, 0.0];
    check_module_gradients(
        &gat,
        || gat.forward(&center, &neighbors, &mask, 2).square().mean(),
        "GatLayer",
    );
}

#[test]
fn time_encode_gradients_match_finite_differences() {
    let enc = TimeEncode::new(6);
    let dts = Tensor::from_vec(vec![0.5, 2.0, 7.0], [3, 1]);
    check_module_gradients(&enc, || enc.forward(&dts).square().mean(), "TimeEncode");
}

#[test]
fn input_gradients_flow_through_stacked_layers() {
    // A small end-to-end composite: GRU(x, Linear(x)) — input grads must
    // agree with finite differences too.
    let lin = Linear::new(3, 4, 21);
    let gru = GruCell::new(3, 4, 22);

    let x0 = vec![0.3f32, -0.8, 1.1, 0.5, 0.2, -0.4];
    let f = |v: &[f32]| {
        let x = Tensor::from_vec(v.to_vec(), [2, 3]);
        gru.forward(&x, &lin.forward(&x)).square().mean()
    };

    let x = Tensor::from_vec(x0.clone(), [2, 3]).requires_grad();
    gru.forward(&x, &lin.forward(&x)).square().mean().backward();
    let g = x.grad().unwrap();

    for j in [0usize, 3, 5] {
        let mut p = x0.clone();
        p[j] += EPS;
        let mut m = x0.clone();
        m[j] -= EPS;
        let numeric = (f(&p).item() - f(&m).item()) / (2.0 * EPS);
        assert!(
            (numeric - g[j]).abs() <= TOL * (1.0 + numeric.abs()),
            "coord {}: analytic {} vs numeric {}",
            j,
            g[j],
            numeric
        );
    }
}
