//@ path: crates/models/src/plane.rs
//@ expect: arena-reset-confined
// The memory plane is written mid-batch by every driver's apply; a reset
// here would recycle buffers the batch's loss graph still holds.
pub fn writeback_and_trim() {
    cascade_tensor::arena::reset();
}
