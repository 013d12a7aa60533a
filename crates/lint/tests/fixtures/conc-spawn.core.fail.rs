//@ path: crates/core/src/scheduler.rs
//@ expect: conc-spawn
// cascade-core spawns no detached threads: table builds overlap training
// on train_streaming's scoped loader, not on a builder inside the
// scheduler.
pub fn build_tables_in_background() {
    std::thread::spawn(|| {});
}
