//@ path: crates/core/src/streaming.rs
//@ expect: conc-spawn
// Not even the loader's module may detach a thread: only a scoped one is
// joined on every return path.
pub fn detach() {
    std::thread::spawn(|| {});
}
