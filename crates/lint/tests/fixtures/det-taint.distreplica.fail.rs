//@ path: crates/dist/src/runtime.rs
//@ expect: det-hash-iter
//@ expect: det-taint
pub struct Replica {
    plane: Plane,
}

impl Replica {
    // `value` flows straight into a node-memory write: this parameter
    // position is a sink (receiver `plane`, sink fn `memory_write`).
    fn write_state(&mut self, value: f32) {
        self.plane.memory_write(0, value);
    }

    // Hash-iteration order decides which value lands in the replica's
    // node memory; the taint crosses the helper boundary interprocedurally.
    pub fn refresh(&mut self) {
        let pending = std::collections::HashMap::from([(1u64, 0.5f32)]);
        let first = pending.values().next().copied().unwrap_or(0.0);
        self.write_state(first);
    }
}
