//@ path: crates/core/src/step.rs
// The shared train step is the designated reset site: every driver's
// batch boundary runs through it, after the optimizer step and the
// memory apply.
pub fn run() {
    cascade_tensor::arena::reset();
}
