//@ path: crates/core/src/streaming.rs
// The training loader is a scoped thread: `thread::scope` joins it on
// every return path, and `s.spawn` is not the detached `thread::spawn`
// the rule bans.
pub fn with_loader(load: impl FnOnce() + Send) {
    std::thread::scope(|s| {
        s.spawn(load);
    });
}
