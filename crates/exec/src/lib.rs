#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # cascade-exec
//!
//! A staleness-aware pipelined training executor for the Cascade TGNN
//! framework, in the spirit of MSPipe's bounded-staleness pipeline and
//! DistTGL's prefetch/worker split.
//!
//! Cascade decomposes every batch into three steps (§2.2, Figure 3):
//!
//! * **Stage A — scan**: the batching strategy decides where the batch
//!   ends (TG-Diffuser boundary lookup over the dependency table) and
//!   ingests feedback (losses for ABS, memory deltas for the SG-Filter).
//! * **Stage B — compute**: message consumption, embedding, link
//!   prediction, loss, backward, optimizer step.
//! * **Stage C — update**: detached memory write-back, message
//!   generation, temporal-adjacency registration.
//!
//! The serial [`train`](cascade_core::train) loop runs A→B→C on one
//! thread, batch after batch, so the boundary scan and every SG-Filter
//! refresh sit on the critical path. [`train_pipelined`] moves Stage A
//! onto a *scout* thread connected to the driver by two bounded
//! [`std::sync::mpsc::sync_channel`] queues: the scout prefetches up to
//! [`PipelineConfig::depth`] batch boundaries ahead while the driver runs
//! Stages B and C, and batch feedback flows back to the scout, which
//! also absorbs the SG-Filter's cosine-similarity refresh off the
//! critical path.
//!
//! Overlap is governed by a **staleness bound**: the scout never scans a
//! boundary whose scheduler state (stable flags, `Max_r`) is more than
//! [`PipelineConfig::staleness_bound`] batches behind the training
//! frontier. Feedback is consumed on a fixed schedule (batch *j*'s
//! feedback right before scanning batch *j + bound + 1*), so for every
//! bound the produced batch partition is a deterministic function of the
//! configuration — and `staleness_bound = 0` reproduces the serial
//! trainer bit for bit.
//!
//! ```
//! use cascade_core::{train, CascadeConfig, CascadeScheduler, TrainConfig};
//! use cascade_exec::{train_pipelined, PipelineConfig};
//! use cascade_models::{MemoryTgnn, ModelConfig};
//! use cascade_tgraph::SynthConfig;
//!
//! let data = SynthConfig::wiki().with_scale(0.004).generate(1);
//! let mk_model = || MemoryTgnn::new(
//!     ModelConfig::tgn().with_dims(8, 4).with_neighbors(3),
//!     data.num_nodes(),
//!     data.features().dim(),
//!     7,
//! );
//! let cfg = TrainConfig { epochs: 1, eval_batch_size: 64, ..TrainConfig::default() };
//!
//! // Staleness 0: bit-identical to the serial trainer.
//! let mut serial_model = mk_model();
//! let mut s1 = CascadeScheduler::new(CascadeConfig {
//!     preset_batch_size: 64, ..CascadeConfig::default()
//! });
//! let serial = train(&mut serial_model, &data, &mut s1, &cfg);
//!
//! let mut pipe_model = mk_model();
//! let mut s2 = CascadeScheduler::new(CascadeConfig {
//!     preset_batch_size: 64, ..CascadeConfig::default()
//! });
//! let piped = train_pipelined(
//!     &mut pipe_model,
//!     &data,
//!     &mut s2,
//!     &cfg,
//!     &PipelineConfig::default().with_staleness(0),
//! ).unwrap();
//! assert_eq!(serial.epoch_losses, piped.epoch_losses);
//! ```

mod pipeline;
mod stream;

pub use pipeline::{train_pipelined, PipelineConfig, PipelineError, PipelineStage};
pub use stream::train_streamed;
