#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # cascade-tgraph
//!
//! The continuous-time dynamic graph (CTDG) substrate of the Cascade TGNN
//! training framework: event streams, datasets with chronological splits
//! and edge features, synthetic generators standing in for the paper's
//! seven datasets (Table 2), temporal neighbor sampling, and the dataset
//! statistics behind Figures 3 and the Table 2 reproduction.
//!
//! # Examples
//!
//! Generate a scaled-down Wikipedia-profile graph and inspect it:
//!
//! ```
//! use cascade_tgraph::{DatasetStats, SynthConfig};
//!
//! let data = SynthConfig::wiki().with_scale(0.02).generate(42);
//! let stats = DatasetStats::of(&data);
//! assert_eq!(stats.name, "WIKI");
//! assert!(stats.events > 1000);
//! ```

mod dataset;
mod event;
mod ingest;
mod sampler;
mod source;
mod stats;
mod synth;

pub use dataset::{chronological_split, synth_features, CsvError, Dataset, EdgeFeatures};
pub use event::{Event, EventId, EventStream, NodeId, OrderError};
pub use ingest::{ReorderPolicy, ReorderingSource};
// `DetRng` lives in `cascade-util` (so `cascade-tensor` can seed without
// depending on this crate) and is re-exported here for its historical
// users.
pub use cascade_util::DetRng;
pub use sampler::{AdjacencyStore, NegativeSampler, NeighborRef};
pub use source::{EventChunk, EventSource, InMemorySource, PartitionedSource, SourceError};
pub use stats::{batch_degree_histogram, max_batch_degree, DatasetStats};
pub use synth::SynthConfig;
