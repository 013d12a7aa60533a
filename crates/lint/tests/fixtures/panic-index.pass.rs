//@ path: crates/core/src/streaming.rs
pub fn pick(plans: &[u32], i: usize) -> Option<u32> {
    // `.get()` and range slicing are both fine; only `expr[i]` panics.
    let window = &plans[0..plans.len().min(8)];
    window.get(i).copied()
}
