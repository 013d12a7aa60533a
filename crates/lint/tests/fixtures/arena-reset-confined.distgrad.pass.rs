//@ path: crates/dist/src/grad.rs
// The gradient exchange works on owned buffers and leaves arena
// lifecycle to the train step's close (core/src/step.rs).
pub fn ordered_sum(slots: &[Vec<f32>], out: &mut [f32]) {
    for slot in slots {
        for (o, v) in out.iter_mut().zip(slot.iter()) {
            *o += *v;
        }
    }
}
