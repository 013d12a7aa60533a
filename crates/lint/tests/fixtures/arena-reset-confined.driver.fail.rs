//@ path: crates/core/src/streaming.rs
//@ expect: arena-reset-confined
// Drivers do not own a batch boundary: the streaming driver calls the
// shared train step (core/src/step.rs), and a second trim here would
// run while the step's graph buffers are still in flight.
pub fn after_batch() {
    cascade_tensor::arena::reset();
}
