//@ path: crates/exec/src/stream.rs
// The loader module owns its thread's lifecycle and is allowlisted.
pub fn loader() -> std::thread::JoinHandle<()> {
    std::thread::spawn(|| {})
}
