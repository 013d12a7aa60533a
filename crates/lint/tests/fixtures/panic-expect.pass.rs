//@ path: crates/models/src/plane.rs
pub fn last_update(times: &[f64]) -> f64 {
    times
        .last()
        .copied()
        .expect("memory tables are created with one row per node")
}
