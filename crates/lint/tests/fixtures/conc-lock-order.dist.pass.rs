//@ path: crates/dist/src/runtime.rs
use std::sync::RwLock;

pub struct RoundBoard {
    slot_a: RwLock<Vec<f32>>,
    slot_b: RwLock<Vec<f32>>,
}

impl RoundBoard {
    // The round-board idiom: locks are taken one at a time and dropped
    // before the next acquisition, so no held -> acquired edge exists.
    pub fn snapshot(&self) -> f32 {
        let first = {
            let a = self.slot_a.read().expect("round slots are never poisoned");
            a.first().copied().unwrap_or(0.0)
        };
        let second = {
            let b = self.slot_b.read().expect("round slots are never poisoned");
            b.first().copied().unwrap_or(0.0)
        };
        first + second
    }

    pub fn publish(&self, value: f32) {
        {
            let mut a = self.slot_a.write().expect("round slots are never poisoned");
            a.push(value);
        }
        let mut b = self.slot_b.write().expect("round slots are never poisoned");
        b.push(value);
    }
}
