//! Property-based tests for tensor algebra and autograd, running on the
//! in-repo `cascade-util` harness (seeded cases, `CASCADE_PROP_CASES`
//! controls the count, default 64).

use cascade_tensor::{cosine_similarity, Tensor};
use cascade_util::{check, prop_assert, prop_assert_eq, Gen};

fn small_vec(g: &mut Gen, len: usize) -> Vec<f32> {
    g.vec_f32(len, -10.0..10.0)
}

#[test]
fn add_commutes() {
    check("add_commutes", |g| {
        let ta = Tensor::from_vec(small_vec(g, 12), [3, 4]);
        let tb = Tensor::from_vec(small_vec(g, 12), [3, 4]);
        prop_assert_eq!(ta.add(&tb).to_vec(), tb.add(&ta).to_vec());
        Ok(())
    });
}

#[test]
fn mul_commutes() {
    check("mul_commutes", |g| {
        let ta = Tensor::from_vec(small_vec(g, 8), [8]);
        let tb = Tensor::from_vec(small_vec(g, 8), [8]);
        prop_assert_eq!(ta.mul(&tb).to_vec(), tb.mul(&ta).to_vec());
        Ok(())
    });
}

#[test]
fn add_associates_approximately() {
    check("add_associates_approximately", |g| {
        let ta = Tensor::from_vec(small_vec(g, 6), [6]);
        let tb = Tensor::from_vec(small_vec(g, 6), [6]);
        let tc = Tensor::from_vec(small_vec(g, 6), [6]);
        let lhs = ta.add(&tb).add(&tc).to_vec();
        let rhs = ta.add(&tb.add(&tc)).to_vec();
        for (x, y) in lhs.iter().zip(rhs.iter()) {
            prop_assert!((x - y).abs() < 1e-4, "{} vs {}", x, y);
        }
        Ok(())
    });
}

#[test]
fn matmul_identity_is_neutral() {
    check("matmul_identity_is_neutral", |g| {
        let t = Tensor::from_vec(small_vec(g, 9), [3, 3]);
        let i = Tensor::from_vec(vec![1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0], [3, 3]);
        let lhs = t.matmul(&i).to_vec();
        for (x, y) in lhs.iter().zip(t.to_vec().iter()) {
            prop_assert!((x - y).abs() < 1e-5, "{} vs {}", x, y);
        }
        Ok(())
    });
}

#[test]
fn matmul_distributes_over_add() {
    check("matmul_distributes_over_add", |g| {
        let ta = Tensor::from_vec(small_vec(g, 6), [2, 3]);
        let tb = Tensor::from_vec(small_vec(g, 6), [3, 2]);
        let tc = Tensor::from_vec(small_vec(g, 6), [3, 2]);
        let lhs = ta.matmul(&tb.add(&tc)).to_vec();
        let rhs = ta.matmul(&tb).add(&ta.matmul(&tc)).to_vec();
        for (x, y) in lhs.iter().zip(rhs.iter()) {
            prop_assert!((x - y).abs() < 1e-3, "{} vs {}", x, y);
        }
        Ok(())
    });
}

#[test]
fn softmax_rows_are_distributions() {
    check("softmax_rows_are_distributions", |g| {
        let s = Tensor::from_vec(small_vec(g, 12), [3, 4]).softmax();
        let v = s.to_vec();
        for r in 0..3 {
            let sum: f32 = v[r * 4..(r + 1) * 4].iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4, "row {} sums to {}", r, sum);
            prop_assert!(v[r * 4..(r + 1) * 4].iter().all(|&x| x >= 0.0));
        }
        Ok(())
    });
}

#[test]
fn sum_axis_agrees_with_total() {
    check("sum_axis_agrees_with_total", |g| {
        let t = Tensor::from_vec(small_vec(g, 12), [3, 4]);
        let via_axis: f32 = t.sum_axis(0).sum().item();
        let total = t.sum().item();
        prop_assert!((via_axis - total).abs() < 1e-3, "{} vs {}", via_axis, total);
        Ok(())
    });
}

#[test]
fn broadcast_is_consistent_with_explicit_tile() {
    check("broadcast_is_consistent_with_explicit_tile", |g| {
        let row = small_vec(g, 4);
        let mat = small_vec(g, 12);
        let m = Tensor::from_vec(mat.clone(), [3, 4]);
        let r = Tensor::from_vec(row.clone(), [4]);
        let tiled: Vec<f32> = (0..12).map(|i| mat[i] + row[i % 4]).collect();
        prop_assert_eq!(m.add(&r).to_vec(), tiled);
        Ok(())
    });
}

#[test]
fn autograd_matches_finite_differences() {
    check("autograd_matches_finite_differences", |g| {
        let x0 = g.f32_in(-2.0..2.0);
        let x1 = g.f32_in(-2.0..2.0);
        let f = |v: &[f32]| {
            let t = Tensor::from_vec(v.to_vec(), [2]);
            t.tanh().mul(&t.sigmoid()).add(&t.square()).sum()
        };
        let t = Tensor::from_vec(vec![x0, x1], [2]).requires_grad();
        t.tanh().mul(&t.sigmoid()).add(&t.square()).sum().backward();
        let grad = t.grad().unwrap();
        let eps = 1e-2f32;
        for i in 0..2 {
            let mut p = [x0, x1];
            p[i] += eps;
            let mut m = [x0, x1];
            m[i] -= eps;
            let numeric = (f(&p).item() - f(&m).item()) / (2.0 * eps);
            prop_assert!(
                (grad[i] - numeric).abs() < 0.05,
                "analytic {} numeric {}",
                grad[i],
                numeric
            );
        }
        Ok(())
    });
}

#[test]
fn index_select_roundtrip() {
    check("index_select_roundtrip", |g| {
        let t = Tensor::from_vec(small_vec(g, 12), [3, 4]);
        let idx_len = g.usize_in(1..6);
        let idx = g.vec_usize(idx_len, 0..3);
        let gathered = t.index_select(&idx);
        prop_assert_eq!(gathered.dims(), &[idx.len(), 4]);
        for (r, &i) in idx.iter().enumerate() {
            prop_assert_eq!(gathered.row(r), t.row(i));
        }
        Ok(())
    });
}

#[test]
fn cosine_similarity_bounded() {
    check("cosine_similarity_bounded", |g| {
        let a = small_vec(g, 8);
        let b = small_vec(g, 8);
        let s = cosine_similarity(&a, &b);
        prop_assert!((-1.0001..=1.0001).contains(&s), "cosine {}", s);
        Ok(())
    });
}

#[test]
fn cosine_similarity_scale_invariant() {
    check("cosine_similarity_scale_invariant", |g| {
        let a = small_vec(g, 8);
        let k = g.f32_in(0.1..10.0);
        let scaled: Vec<f32> = a.iter().map(|x| x * k).collect();
        let s = cosine_similarity(&a, &scaled);
        // Zero vectors are defined as similarity 1.
        prop_assert!((s - 1.0).abs() < 1e-3, "cosine {}", s);
        Ok(())
    });
}
