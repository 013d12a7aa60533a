#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # cascade-exec
//!
//! A shim: the loader thread now runs inside every
//! [`cascade_core::train_streaming`] call. The crate is deleted once the
//! benchmark package stops importing these two names.

use cascade_core::{train_streaming, BatchingStrategy, TrainConfig, TrainReport};
use cascade_models::MemoryTgnn;
use cascade_tgraph::{EventSource, SourceError};

/// Accepted and ignored: the loader's depth is fixed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PipelineConfig;

/// Forwards to [`train_streaming`].
///
/// # Errors
///
/// As [`train_streaming`].
pub fn train_streamed<S: EventSource + Send>(
    model: &mut MemoryTgnn,
    source: &mut S,
    strategy: &mut dyn BatchingStrategy,
    cfg: &TrainConfig,
    _pipe: &PipelineConfig,
) -> Result<TrainReport, SourceError> {
    train_streaming(model, source, strategy, cfg)
}
