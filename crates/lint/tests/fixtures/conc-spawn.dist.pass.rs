//@ path: crates/dist/src/runtime.rs
// The dist runtime module owns the worker thread lifecycles and is
// allowlisted, mirroring serve/server.rs.
pub fn worker() -> std::thread::JoinHandle<()> {
    std::thread::spawn(|| {})
}
