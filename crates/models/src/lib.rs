#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # cascade-models
//!
//! Memory-based temporal graph neural networks — the five models the
//! Cascade paper evaluates (Table 1): JODIE, TGN, APAN, DySAT, and TGAT,
//! realized as configurations of one unified [`MemoryTgnn`].
//!
//! Each model keeps a per-node *memory* vector updated from event-derived
//! *messages* (Equations 2–3) and embeds nodes for link prediction
//! (Equation 4). Batches follow the three-step pipeline of Figure 1.
//!
//! # Examples
//!
//! Train TGN for a few batches on a synthetic graph:
//!
//! ```
//! use cascade_models::{MemoryTgnn, ModelConfig};
//! use cascade_nn::{Adam, Module};
//! use cascade_tgraph::SynthConfig;
//!
//! let data = SynthConfig::wiki().with_scale(0.002).generate(1);
//! let cfg = ModelConfig::tgn().with_dims(16, 8);
//! let mut model = MemoryTgnn::new(cfg, data.num_nodes(), data.features().dim(), 7);
//! let mut opt = Adam::new(model.parameters(), 1e-3);
//!
//! for chunk in data.stream().events().chunks(64).take(3) {
//!     let first_id = 0; // illustrative; real loops track stream offsets
//!     let out = model.process_batch(chunk, first_id, data.features());
//!     out.loss.backward();
//!     opt.step();
//! }
//! ```

mod checkpoint;
mod classifier;
mod config;
mod model;
mod plane;

pub use checkpoint::{load_checkpoint, save_parameters, save_state, CheckpointError};
pub use classifier::NodeClassifier;
pub use config::{EmbedderKind, ModelConfig, Sampling, UpdaterKind};
pub use model::{BatchForward, BatchOutput, BatchPending, MemoryDelta, MemoryTgnn};
pub use plane::MemoryPlane;
