//! The out-of-core event source: a store file read chunk by chunk.

use std::path::{Path, PathBuf};

use cascade_tgraph::{EventChunk, EventSource, SourceError};

use crate::error::StoreError;
use crate::format::StoreMeta;
use crate::reader::ChunkReader;

/// An [`EventSource`] that streams a `CEVT` file chunk by chunk.
///
/// Each [`next_chunk`](EventSource::next_chunk) reads and checksums one
/// frame on the caller's thread; the training driver calls it from its
/// loader thread, so the read overlaps training. One chunk is decoded at
/// a time, which is what makes training out-of-core.
pub struct StreamingEventSource {
    path: PathBuf,
    meta: StoreMeta,
    name: String,
    /// `None` once the stream ended or failed: the source is then inert
    /// until [`reset`](EventSource::reset).
    reader: Option<ChunkReader>,
}

impl StreamingEventSource {
    /// Opens `path` and validates its header. `read_ahead` is ignored:
    /// reading ahead is the training driver's loader's job.
    ///
    /// # Errors
    ///
    /// Propagates header validation failures from [`ChunkReader::open`].
    pub fn open(path: &Path, _read_ahead: usize) -> Result<Self, StoreError> {
        let reader = ChunkReader::open(path)?;
        let name = path
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| "store".to_string());
        Ok(StreamingEventSource {
            path: path.to_path_buf(),
            meta: reader.meta(),
            name,
            reader: Some(reader),
        })
    }
}

impl EventSource for StreamingEventSource {
    fn num_nodes(&self) -> usize {
        self.meta.num_nodes
    }

    fn num_events(&self) -> usize {
        self.meta.num_events
    }

    fn feature_dim(&self) -> usize {
        self.meta.feature_dim
    }

    fn chunk_size(&self) -> usize {
        self.meta.chunk_size
    }

    fn next_chunk(&mut self) -> Result<Option<EventChunk>, SourceError> {
        let Some(reader) = self.reader.as_mut() else {
            return Ok(None);
        };
        match reader.next_frame() {
            Ok(Some(chunk)) => Ok(Some(EventChunk {
                index: chunk.index,
                base: chunk.base,
                events: chunk.events,
                features: chunk.features,
            })),
            // The end of the stream, or a failure: the source goes inert.
            end_or_error => {
                self.reader = None;
                end_or_error.map(|_| None).map_err(SourceError::from)
            }
        }
    }

    fn reset(&mut self) -> Result<(), SourceError> {
        self.reader = None;
        self.reader = Some(ChunkReader::open(&self.path)?);
        Ok(())
    }

    fn name(&self) -> String {
        self.name.clone()
    }
}
