//@ path: crates/dist/src/runtime.rs
//@ expect: conc-lock-order
//@ expect: conc-lock-order
use std::sync::RwLock;

pub struct RoundBoard {
    slot_a: RwLock<Vec<f32>>,
    slot_b: RwLock<Vec<f32>>,
}

impl RoundBoard {
    // Swapping nests the slot locks a -> b …
    pub fn swap(&self) {
        let a = self.slot_a.write().expect("round slots are never poisoned");
        let b = self.slot_b.write().expect("round slots are never poisoned");
        drop(b);
        drop(a);
    }

    // … while rotate nests them b -> a: first interleaving deadlocks.
    pub fn rotate(&self) {
        let b = self.slot_b.write().expect("round slots are never poisoned");
        let a = self.slot_a.write().expect("round slots are never poisoned");
        drop(a);
        drop(b);
    }
}
