#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # cascade-store
//!
//! Chunked, checksummed on-disk event store for out-of-core TGNN
//! training. A `CEVT` file is a fixed little-endian header followed by
//! per-chunk frames — each carrying its event count, time range, a
//! touched-node summary, and a CRC32 over header and payload — so
//! corruption anywhere in a chunk is detected and reported as a typed
//! [`StoreError`], never a panic.
//!
//! [`ChunkWriter`]/[`export_dataset`] produce store files;
//! [`ChunkReader`]/[`import_dataset`] read them back; and
//! [`StreamingEventSource`] feeds training directly from disk one chunk
//! at a time, yielding chunks bit-identical to the
//! in-memory [`InMemorySource`](cascade_tgraph::InMemorySource) over the
//! same events. [`ChunkWriter::sync`] and [`recover_log`] turn the same
//! format into a crash-consistent write-ahead log: every synced frame
//! survives a kill, and recovery returns the valid frame prefix while
//! discarding a torn tail.
//!
//! # Examples
//!
//! Round-trip a dataset through a store file:
//!
//! ```
//! use cascade_store::{export_dataset, import_dataset};
//! use cascade_tgraph::SynthConfig;
//!
//! let data = SynthConfig::wiki().with_scale(0.002).generate(7);
//! let path = std::env::temp_dir().join(format!("doc_{}.evt", std::process::id()));
//! let summary = export_dataset(&data, &path, 256).expect("export succeeds");
//! assert_eq!(summary.events, data.num_events());
//!
//! let back = import_dataset(&path, "roundtrip").expect("import succeeds");
//! assert_eq!(back.stream().events(), data.stream().events());
//! std::fs::remove_file(&path).ok();
//! ```

mod crc;
mod error;
mod format;
mod reader;
mod source;
mod wal;
mod writer;

pub use crc::{crc32, Crc32};
pub use error::StoreError;
pub use format::{FrameHeader, StoreMeta, MAGIC, VERSION};
pub use reader::{import_dataset, ChunkReader, StoredChunk};
pub use source::StreamingEventSource;
pub use wal::{recover_log, WalRecovery};
pub use writer::{export_dataset, ChunkWriter, StoreSummary};
