#![warn(missing_docs)]
//! # cascade
//!
//! Umbrella crate for the Cascade TGNN training framework — a from-scratch
//! Rust reproduction of *"Cascade: A Dependency-Aware Efficient Training
//! Framework for Temporal Graph Neural Networks"* (ASPLOS 2025).
//!
//! Each subsystem lives in its own crate and is re-exported here under a
//! short module name:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`tensor`] | `cascade-tensor` | dense f32 tensors + autograd |
//! | [`nn`] | `cascade-nn` | layers, losses, optimizers |
//! | [`tgraph`] | `cascade-tgraph` | event streams, datasets, samplers |
//! | [`models`] | `cascade-models` | JODIE / TGN / APAN / DySAT / TGAT |
//! | [`core`] | `cascade-core` | the Cascade scheduler + the streaming trainer and its loader thread |
//! | [`store`] | `cascade-store` | chunked on-disk event store + WAL |
//! | [`serve`] | `cascade-serve` | online serving with live ingest |
//! | [`baselines`] | `cascade-baselines` | TGL, TGLite, NeutronStream, ETC |
//!
//! The [`prelude`] collects the handful of types a typical training
//! program needs.
//!
//! # Examples
//!
//! ```
//! use cascade::prelude::*;
//!
//! let data = SynthConfig::wiki().with_scale(0.003).generate(1);
//! let mut model = MemoryTgnn::new(
//!     ModelConfig::tgn().with_dims(8, 4).with_neighbors(2),
//!     data.num_nodes(),
//!     data.features().dim(),
//!     7,
//! );
//! let mut scheduler = CascadeScheduler::new(CascadeConfig {
//!     preset_batch_size: 64,
//!     ..CascadeConfig::default()
//! });
//! let report = train(
//!     &mut model,
//!     &data,
//!     &mut scheduler,
//!     &TrainConfig { epochs: 1, eval_batch_size: 64, ..TrainConfig::default() },
//! );
//! assert!(report.num_batches > 0);
//! ```

pub use cascade_baselines as baselines;
pub use cascade_core as core;
pub use cascade_models as models;
pub use cascade_nn as nn;
pub use cascade_serve as serve;
pub use cascade_store as store;
pub use cascade_tensor as tensor;
pub use cascade_tgraph as tgraph;

/// The types most training programs need, in one import.
pub mod prelude {
    pub use cascade_core::{
        evaluate, train, train_streaming, BatchingStrategy, CascadeConfig, CascadeScheduler,
        FixedBatching, TrainConfig, TrainReport,
    };
    pub use cascade_models::{MemoryTgnn, ModelConfig};
    pub use cascade_nn::{Adam, Module};
    pub use cascade_tgraph::{Dataset, Event, EventStream, InMemorySource, NodeId, SynthConfig};
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_covers_the_training_loop() {
        use crate::prelude::*;
        let data = SynthConfig::mooc().with_scale(0.0008).generate(1);
        let mut model = MemoryTgnn::new(
            ModelConfig::jodie().with_dims(4, 2),
            data.num_nodes(),
            data.features().dim(),
            1,
        );
        let mut s = FixedBatching::new(32);
        let report = train(
            &mut model,
            &data,
            &mut s,
            &TrainConfig {
                epochs: 1,
                eval_batch_size: 32,
                ..TrainConfig::default()
            },
        );
        assert!(report.val_loss.is_finite());
    }
}
