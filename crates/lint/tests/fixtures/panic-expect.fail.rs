//@ path: crates/models/src/plane.rs
//@ expect: panic-expect
pub fn last_update(times: &[f64]) -> f64 {
    times.last().copied().expect("boom")
}
