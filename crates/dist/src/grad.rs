//! Deterministic gradient exchange: collect, all-reduce in worker-index
//! order, install.
//!
//! Every worker trains a full parameter replica initialized from the
//! same seed; replicas stay bit-identical because each installs the
//! *same* reduced gradients and steps its own optimizer identically.
//! The reduction is a fixed-order sum — contribution `w` is always added
//! before contribution `w+1` — scaled by the reciprocal of the
//! contributor count, so the result depends only on (worker count,
//! event stream, seed), never on thread scheduling. With a single
//! contributor the gradients are installed **verbatim** (no sum, no
//! scale), which is what makes an N=1 dist run bit-identical to the
//! serial trainer.

use cascade_tensor::Tensor;

/// One worker's gradients, one entry per parameter in
/// `model.parameters()` order; `None` where the backward pass left no
/// gradient (unused parameter).
pub(crate) type GradSet = Vec<Option<Vec<f32>>>;

/// Copies the current gradients out of `params` (after `backward()`,
/// before any optimizer step clears them).
pub(crate) fn collect_grads(params: &[Tensor]) -> GradSet {
    params.iter().map(|p| p.grad()).collect()
}

/// Reduces the active workers' gradient sets in worker-index order.
///
/// `contributions` must be ordered by worker index (the caller drops
/// idle workers but never reorders). Per parameter: the present
/// gradients are summed in that fixed order and scaled by
/// `1 / contributor_count`; parameters no contributor touched stay
/// `None`. A single contribution is returned verbatim.
///
/// # Panics
///
/// Panics if `contributions` is empty or two contributions disagree on
/// a parameter's length.
pub(crate) fn all_reduce(contributions: &[&GradSet]) -> GradSet {
    assert!(!contributions.is_empty(), "all_reduce over zero workers");
    if contributions.len() == 1 {
        return contributions[0].clone();
    }
    let num_params = contributions[0].len();
    for c in contributions {
        assert_eq!(
            c.len(),
            num_params,
            "gradient sets disagree on parameter count"
        );
    }
    let mut reduced: GradSet = Vec::with_capacity(num_params);
    for i in 0..num_params {
        let mut acc: Option<Vec<f32>> = None;
        let mut count = 0usize;
        for c in contributions {
            if let Some(g) = &c[i] {
                match &mut acc {
                    None => acc = Some(g.clone()),
                    Some(sum) => {
                        assert_eq!(sum.len(), g.len(), "gradient length mismatch");
                        for (a, b) in sum.iter_mut().zip(g) {
                            *a += b;
                        }
                    }
                }
                count += 1;
            }
        }
        if let Some(sum) = &mut acc {
            if count > 1 {
                let scale = 1.0 / count as f32;
                for a in sum.iter_mut() {
                    *a *= scale;
                }
            }
        }
        reduced.push(acc);
    }
    reduced
}

/// Installs a reduced gradient set into `params`: `Some` entries
/// overwrite the parameter's gradient, `None` entries clear it, so the
/// subsequent clip + step sees exactly the reduced state on every
/// worker regardless of what its own backward pass produced.
///
/// # Panics
///
/// Panics if `reduced` and `params` disagree in length.
pub(crate) fn install_grads(params: &[Tensor], reduced: &GradSet) {
    assert_eq!(
        params.len(),
        reduced.len(),
        "gradient set / parameter count mismatch"
    );
    for (p, g) in params.iter().zip(reduced) {
        match g {
            Some(g) => p.set_grad(g),
            None => p.zero_grad(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_contribution_is_verbatim() {
        let a: GradSet = vec![Some(vec![0.1, -0.2]), None];
        let out = all_reduce(&[&a]);
        assert_eq!(out, a);
    }

    #[test]
    fn reduction_averages_in_worker_order() {
        let a: GradSet = vec![Some(vec![1.0, 3.0]), None, Some(vec![2.0])];
        let b: GradSet = vec![Some(vec![3.0, 5.0]), Some(vec![7.0]), None];
        let out = all_reduce(&[&a, &b]);
        assert_eq!(out[0], Some(vec![2.0, 4.0]));
        // Only worker 1 touched parameter 1: its gradient is verbatim.
        assert_eq!(out[1], Some(vec![7.0]));
        assert_eq!(out[2], Some(vec![2.0]));
    }

    #[test]
    fn install_round_trips_through_tensors() {
        let p = Tensor::from_vec(vec![0.0; 3], [3]).requires_grad();
        let q = Tensor::from_vec(vec![0.0; 2], [2]).requires_grad();
        let params = [p, q];
        let reduced: GradSet = vec![Some(vec![0.5, 0.25, 0.125]), None];
        install_grads(&params, &reduced);
        assert_eq!(collect_grads(&params), reduced);
    }
}
