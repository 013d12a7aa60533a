//@ path: crates/core/src/abs.rs
//@ expect: policy-bare-suppression
//@ expect: panic-unwrap
//@ expect: policy-bare-suppression
pub fn head(v: &[u32]) -> u32 {
    *v.first().unwrap() // cascade-lint: allow(panic-unwrap)
}

// A suppression naming a rule that no longer exists is a finding, so no
// dead suppression can linger after a rule is removed.
// cascade-lint: allow(det-taint): the clock value never reaches training state
pub fn tail(v: &[u32]) -> Option<u32> {
    v.last().copied()
}
