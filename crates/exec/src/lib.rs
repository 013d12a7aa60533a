#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # cascade-exec
//!
//! The loader thread for streaming Cascade training: the paper's chunk
//! variant (Cascade_EX, §4.2), which "pipelines table building with
//! training".
//!
//! [`cascade_core::train_streaming`] consumes an
//! [`EventSource`](cascade_tgraph::EventSource) chunk by chunk on one
//! thread: read chunk `k`, build its dependency table, train on it, read
//! chunk `k + 1`, … [`train_streamed`] runs the same driver but moves the
//! first two steps onto a scoped *loader* thread connected by one bounded
//! [`std::sync::mpsc::sync_channel`]: while the driver trains on chunk
//! `k`, the loader reads chunk `k + 1` and builds its table, up to
//! [`PipelineConfig::depth`] chunks ahead. The chunk geometry is the
//! source's — a store file's, or whatever an
//! [`InMemorySource`](cascade_tgraph::InMemorySource) was given — and only
//! the current chunk's table is resident.
//!
//! Nothing about the schedule moves off the driver thread: the boundary
//! scan and the SG-Filter / ABS feedback stay where the serial loop has
//! them (together they measure 1–6 % of training time on this
//! repository's workloads — too little to be worth a thread of their
//! own, DESIGN.md §6). The loader therefore changes wall-clock only, and
//! a run is bit-identical to `train_streaming` over the same source at
//! every depth.
//!
//! ```
//! use cascade_core::{train_streaming, CascadeConfig, CascadeScheduler, TrainConfig};
//! use cascade_exec::{train_streamed, PipelineConfig};
//! use cascade_models::{MemoryTgnn, ModelConfig};
//! use cascade_tgraph::{InMemorySource, SynthConfig};
//!
//! let data = SynthConfig::wiki().with_scale(0.004).generate(1);
//! let mk_model = || MemoryTgnn::new(
//!     ModelConfig::tgn().with_dims(8, 4).with_neighbors(3),
//!     data.num_nodes(),
//!     data.features().dim(),
//!     7,
//! );
//! let mk_strategy = || CascadeScheduler::new(CascadeConfig {
//!     preset_batch_size: 64, ..CascadeConfig::default()
//! });
//! let cfg = TrainConfig { epochs: 1, eval_batch_size: 64, ..TrainConfig::default() };
//!
//! // Cascade_EX: 128-event chunks, one table resident at a time.
//! let mut serial_model = mk_model();
//! let mut source = InMemorySource::from_dataset(&data, 128);
//! let serial = train_streaming(&mut serial_model, &mut source, &mut mk_strategy(), &cfg).unwrap();
//!
//! // The same run with the loader building table k + 1 during chunk k.
//! let mut piped_model = mk_model();
//! let mut source = InMemorySource::from_dataset(&data, 128);
//! let piped = train_streamed(
//!     &mut piped_model,
//!     &mut source,
//!     &mut mk_strategy(),
//!     &cfg,
//!     &PipelineConfig::default(),
//! ).unwrap();
//! assert_eq!(piped.strategy, "Cascade_EX");
//! assert_eq!(serial.epoch_losses, piped.epoch_losses);
//! ```

mod pipeline;
mod stream;

pub use pipeline::PipelineConfig;
pub use stream::train_streamed;
