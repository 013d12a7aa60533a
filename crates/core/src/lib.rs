#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # cascade-core
//!
//! The Cascade dependency-aware TGNN training framework (ASPLOS'25) —
//! the primary contribution of the paper this workspace reproduces.
//!
//! Cascade adaptively grows training batches without staling node
//! memories, through three cooperating mechanisms (§4):
//!
//! * [`DependencyTable`] + [`TgDiffuser`] — the Topology-Aware Graph
//!   Diffuser packs spatially independent events into one batch by giving
//!   every node a per-batch relevant-event budget (`Max_r`) and ending the
//!   batch at the first intolerable event (Algorithms 2–3).
//! * [`SgFilter`] — the Similarity-Aware Graph Filter breaks temporal
//!   dependencies on nodes whose memories have stabilized (cosine
//!   similarity of pre/post-update memories above θ_sim).
//! * [`Abs`] — the Adaptive Batch Sensor profiles Maximum Revisit
//!   Endurance statistics at the preset batch size and decays `Max_r`
//!   logarithmically when convergence stalls (Equations 5–7).
//!
//! [`CascadeScheduler`] composes all three behind the
//! [`BatchingStrategy`] trait, whose one protocol is the chunk protocol
//! of Cascade_EX (§4.2). One driver, [`train_streaming`], runs any
//! strategy against any [`MemoryTgnn`](cascade_models::MemoryTgnn) model
//! from any chunked event source through the one [`TrainStep`], and
//! measures what the paper's figures report. One loader thread per call
//! reads the source and builds the next chunk's dependency table while
//! the current chunk trains (Cascade_EX's overlap); [`train`] is that
//! driver over an in-memory dataset as one chunk. The modelled A100 latency the
//! figures plot is `cascade-bench`'s view of a finished report.
//!
//! # Examples
//!
//! ```
//! use cascade_core::{train, CascadeConfig, CascadeScheduler, TrainConfig};
//! use cascade_models::{MemoryTgnn, ModelConfig};
//! use cascade_tgraph::SynthConfig;
//!
//! let data = SynthConfig::wiki().with_scale(0.004).generate(1);
//! let mut model = MemoryTgnn::new(
//!     ModelConfig::tgn().at_width(8).with_neighbors(3),
//!     data.num_nodes(),
//!     data.features().dim(),
//!     7,
//! );
//! let mut cascade = CascadeScheduler::new(CascadeConfig {
//!     preset_batch_size: 64,
//!     ..CascadeConfig::default()
//! });
//! let report = train(
//!     &mut model,
//!     &data,
//!     &mut cascade,
//!     &TrainConfig { epochs: 1, eval_batch_size: 64, ..TrainConfig::default() },
//! );
//! assert!(report.num_batches >= 1);
//! assert!(report.val_loss.is_finite());
//! ```

mod abs;
mod batching;
mod dependency;
mod diffuser;
mod instrument;
mod scheduler;
mod sgfilter;
mod step;
mod streaming;
mod trainer;

pub use abs::{max_endurance_profiling, Abs, EnduranceStats};
pub use batching::{
    announce_chunks, BatchingStrategy, FixedBatching, PrebuiltTable, StrategySpace, StrategyTimers,
    TableSpec,
};
pub use dependency::DependencyTable;
pub use diffuser::TgDiffuser;
pub use instrument::{SpaceBreakdown, StageTiming, StageTimings};
pub use scheduler::{CascadeConfig, CascadeScheduler};
pub use sgfilter::SgFilter;
pub use step::{CheckpointProgress, RunFacts, StepOutput, TrainStep};
pub use streaming::{
    train_streaming, train_streaming_with_options, StreamCheckpoint, StreamOptions, StreamOutcome,
};
pub use trainer::{evaluate, evaluate_range, train, EvalReport, TrainConfig, TrainReport};
