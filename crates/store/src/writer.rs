//! Writing store files: buffered chunk framing with a rewritten header.

use std::fs::File;
use std::io::{BufWriter, Seek, SeekFrom, Write};
use std::path::Path;

use cascade_tgraph::{Dataset, Event};

use crate::crc::Crc32;
use crate::error::StoreError;
use crate::format::{FrameHeader, StoreMeta, EVENT_LEN, NUM_EVENTS_OFFSET};

/// Streams events into a `CEVT` file, framing them into checksummed
/// chunks of a fixed size.
///
/// The header is written up front with `num_events = 0` and rewritten by
/// [`finish`](ChunkWriter::finish); a file that was never finished is
/// therefore self-evidently incomplete to the reader.
pub struct ChunkWriter {
    file: BufWriter<File>,
    meta: StoreMeta,
    /// Events buffered for the current chunk.
    pending: Vec<Event>,
    /// Feature rows buffered for the current chunk.
    pending_features: Vec<f32>,
    /// Events flushed into completed frames so far.
    written: usize,
    /// Frames flushed so far.
    chunks: usize,
    finished: bool,
}

impl ChunkWriter {
    /// Creates `path` (truncating any existing file) and writes a
    /// provisional header.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] when the file cannot be created.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_size == 0` or `feature_dim` exceeds `u16::MAX`
    /// (writer misuse, not data corruption).
    pub fn create(
        path: &Path,
        num_nodes: usize,
        feature_dim: usize,
        chunk_size: usize,
    ) -> Result<Self, StoreError> {
        assert!(chunk_size > 0, "chunk size must be positive");
        assert!(feature_dim <= u16::MAX as usize, "feature dim exceeds u16");
        let meta = StoreMeta {
            feature_dim,
            num_nodes,
            num_events: 0,
            chunk_size,
        };
        let mut file = BufWriter::new(File::create(path)?);
        file.write_all(&meta.encode())?;
        // Push the provisional header out of the userspace buffer right
        // away: a process killed before its first frame flush then
        // leaves a readable empty store, not a zero-byte file.
        file.flush()?;
        Ok(ChunkWriter {
            file,
            meta,
            pending: Vec::with_capacity(chunk_size),
            pending_features: Vec::with_capacity(chunk_size * feature_dim),
            written: 0,
            chunks: 0,
            finished: false,
        })
    }

    /// Appends one event with its feature row, flushing a frame whenever
    /// `chunk_size` events have accumulated.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] when a frame flush fails.
    ///
    /// # Panics
    ///
    /// Panics if a node id is out of range or the feature row has the
    /// wrong width (writer misuse, not data corruption).
    pub fn push(&mut self, event: Event, features: &[f32]) -> Result<(), StoreError> {
        assert!(!self.finished, "push after finish");
        assert!(
            event.src.index() < self.meta.num_nodes && event.dst.index() < self.meta.num_nodes,
            "event node id out of declared range"
        );
        assert_eq!(
            features.len(),
            self.meta.feature_dim,
            "feature row has wrong width"
        );
        self.pending.push(event);
        self.pending_features.extend_from_slice(features);
        if self.pending.len() == self.meta.chunk_size {
            self.flush_frame()?;
        }
        Ok(())
    }

    /// Flushes any buffered partial frame as its own chunk and syncs the
    /// file to stable storage — the durability point for write-ahead-log
    /// use: every event pushed before a `sync` survives a process kill.
    ///
    /// The header still declares zero events (only
    /// [`finish`](ChunkWriter::finish) rewrites it), so a synced-but-
    /// unfinished file is read back with
    /// [`recover_log`](crate::recover_log), which accepts the valid frame
    /// prefix instead of demanding the declared count. Because `sync`
    /// closes the pending frame, frame boundaries record exactly the
    /// caller's ack boundaries — recovery can replay batch-for-batch.
    ///
    /// Returns the total events durably framed so far.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] when the flush or fsync fails.
    pub fn sync(&mut self) -> Result<usize, StoreError> {
        assert!(!self.finished, "sync after finish");
        if !self.pending.is_empty() {
            self.flush_frame()?;
        }
        self.file.flush()?;
        self.file.get_ref().sync_data()?;
        Ok(self.written)
    }

    /// Flushes any partial final chunk, rewrites the header's event
    /// count, and syncs the file. Returns a summary of what was written.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] when flushing or the header rewrite
    /// fails.
    pub fn finish(mut self) -> Result<StoreSummary, StoreError> {
        if !self.pending.is_empty() {
            self.flush_frame()?;
        }
        self.finished = true;
        // Drain the buffer before touching the underlying file directly:
        // get_mut() bypasses BufWriter's buffer, so an unflushed frame
        // would otherwise land at the seeked position.
        self.file.flush()?;
        self.file
            .get_mut()
            .seek(SeekFrom::Start(NUM_EVENTS_OFFSET))?;
        self.file
            .get_mut()
            .write_all(&(self.written as u64).to_le_bytes())?;
        self.file.flush()?;
        Ok(StoreSummary {
            events: self.written,
            chunks: self.chunks,
            chunk_size: self.meta.chunk_size,
            feature_dim: self.meta.feature_dim,
            num_nodes: self.meta.num_nodes,
        })
    }

    fn flush_frame(&mut self) -> Result<(), StoreError> {
        let count = self.pending.len();
        let payload_len = self.meta.expected_payload_len(count);
        let mut payload = vec![0u8; payload_len];
        let (event_bytes, feature_bytes) = payload.split_at_mut(count * EVENT_LEN);
        let mut t_min = f64::INFINITY;
        let mut t_max = f64::NEG_INFINITY;
        // Distinct touched nodes via sort + dedup: deterministic and
        // allocation-bounded, no hashing involved.
        let mut touched: Vec<u32> = Vec::with_capacity(count * 2);
        for (e, out) in self
            .pending
            .iter()
            .zip(event_bytes.chunks_exact_mut(EVENT_LEN))
        {
            out[0..4].copy_from_slice(&e.src.0.to_le_bytes());
            out[4..8].copy_from_slice(&e.dst.0.to_le_bytes());
            out[8..16].copy_from_slice(&e.time.to_le_bytes());
            t_min = t_min.min(e.time);
            t_max = t_max.max(e.time);
            touched.push(e.src.0);
            touched.push(e.dst.0);
        }
        debug_assert_eq!(feature_bytes.len(), self.pending_features.len() * 4);
        for (f, out) in self
            .pending_features
            .iter()
            .zip(feature_bytes.chunks_exact_mut(4))
        {
            out.copy_from_slice(&f.to_le_bytes());
        }
        touched.sort_unstable();
        touched.dedup();
        let header = FrameHeader {
            payload_len,
            event_count: count,
            base: self.written,
            t_min,
            t_max,
            touched_nodes: touched.len(),
        }
        .encode();
        let mut crc = Crc32::new();
        crc.update(&header);
        crc.update(&payload);
        self.file.write_all(&header)?;
        self.file.write_all(&payload)?;
        self.file.write_all(&crc.finish().to_le_bytes())?;
        self.written += count;
        self.chunks += 1;
        self.pending.clear();
        self.pending_features.clear();
        Ok(())
    }
}

/// What [`ChunkWriter::finish`] wrote.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StoreSummary {
    /// Total events written.
    pub events: usize,
    /// Chunk frames written.
    pub chunks: usize,
    /// Nominal chunk size.
    pub chunk_size: usize,
    /// Edge-feature width.
    pub feature_dim: usize,
    /// Declared node count.
    pub num_nodes: usize,
}

/// Exports a whole in-memory [`Dataset`] to a store file at `path`.
///
/// # Errors
///
/// Returns [`StoreError::Io`] on filesystem failure.
///
/// # Panics
///
/// Panics if `chunk_size == 0`.
pub fn export_dataset(
    data: &Dataset,
    path: &Path,
    chunk_size: usize,
) -> Result<StoreSummary, StoreError> {
    let mut w = ChunkWriter::create(path, data.num_nodes(), data.features().dim(), chunk_size)?;
    for (i, e) in data.stream().iter().enumerate() {
        w.push(*e, data.features().row(i))?;
    }
    w.finish()
}
