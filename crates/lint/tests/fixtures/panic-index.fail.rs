//@ path: crates/core/src/streaming.rs
//@ expect: panic-index
pub fn pick(plans: &[u32], i: usize) -> u32 {
    plans[i]
}
