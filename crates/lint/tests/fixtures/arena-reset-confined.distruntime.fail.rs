//@ path: crates/dist/src/runtime.rs
//@ expect: arena-reset-confined
// The dist replica ends a round through the shared train step's close
// (core/src/step.rs), after the apply fences; a trim of its own would be
// a second definition of where the batch boundary is.
pub fn after_round() {
    cascade_tensor::arena::reset();
}
