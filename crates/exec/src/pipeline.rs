//! The loader thread's one knob.

/// Read-ahead policy of [`train_streamed`](crate::train_streamed).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PipelineConfig {
    /// Prefetch depth: how many loaded chunks (each with its prebuilt
    /// dependency table) the loader may queue ahead of the driver — the
    /// chunk channel's capacity. Clamped to at least 1. Any depth gives
    /// the same results; only the overlap differs.
    pub depth: usize,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig { depth: 2 }
    }
}

impl PipelineConfig {
    /// Sets the prefetch depth.
    pub fn with_depth(mut self, depth: usize) -> Self {
        self.depth = depth;
        self
    }
}
