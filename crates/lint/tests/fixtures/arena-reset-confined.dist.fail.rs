//@ path: crates/dist/src/grad.rs
//@ expect: arena-reset-confined
// Trimming the arena mid-reduction would recycle buffers the current
// round's backward graph still owns; the reset belongs to the train
// step's close (core/src/step.rs), after apply + barrier.
use cascade_tensor::arena;

pub fn reduce_and_trim() {
    arena::reset();
}
