//@ path: crates/core/src/scheduler.rs
//@ expect: conc-spawn
// cascade-core spawns no threads: table builds overlap training on
// cascade-exec's loader, not on a detached builder inside the scheduler.
pub fn build_tables_in_background() {
    std::thread::spawn(|| {});
}
