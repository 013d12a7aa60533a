//@ path: crates/serve/src/server.rs
// The server module owns the accept/worker/ingest thread lifecycles and
// is allowlisted, mirroring dist/runtime.rs.
pub fn worker() -> std::thread::JoinHandle<()> {
    std::thread::spawn(|| {})
}
