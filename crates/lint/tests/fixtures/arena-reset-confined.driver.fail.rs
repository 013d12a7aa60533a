//@ path: crates/exec/src/pipeline.rs
//@ expect: arena-reset-confined
// Drivers no longer own a batch boundary: the pipelined executor calls
// the shared train step (core/src/step.rs), and a second trim here
// would run while the step's graph buffers are still in flight.
pub fn after_stage_c() {
    cascade_tensor::arena::reset();
}
