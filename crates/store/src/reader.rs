//! Reading store files: frame-by-frame decode with CRC verification.

use std::fs::File;
use std::io::{BufReader, Read};
use std::path::Path;

use cascade_tgraph::{Dataset, Event, EventStream};

use crate::crc::Crc32;
use crate::error::StoreError;
use crate::format::{FrameHeader, StoreMeta, EVENT_LEN, FRAME_HEADER_LEN, HEADER_LEN};

/// One decoded chunk frame.
#[derive(Clone, Debug, PartialEq)]
pub struct StoredChunk {
    /// Chunk index in the file (0-based).
    pub index: usize,
    /// Global stream id of `events[0]`.
    pub base: usize,
    /// The chunk's events, in stream order.
    pub events: Vec<Event>,
    /// Row-major feature rows, `feature_dim` floats per event.
    pub features: Vec<f32>,
    /// Frame summary as stored on disk.
    pub header: FrameHeader,
}

/// Sequential reader over a `CEVT` file.
///
/// Every frame is checksummed before it is yielded: a corrupt chunk
/// surfaces as a typed [`StoreError`], and every chunk *before* the
/// corruption has already been yielded intact.
pub struct ChunkReader {
    file: BufReader<File>,
    /// The file's length when opened: no count read from it is trusted
    /// to allocate more than this.
    file_len: u64,
    meta: StoreMeta,
    /// Frames yielded so far (index of the next frame).
    next_index: usize,
    /// Events yielded so far (expected `base` of the next frame).
    events_seen: usize,
}

impl ChunkReader {
    /// Opens `path` and validates the file header.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the file cannot be opened,
    /// [`StoreError::TruncatedFrame`] when it is shorter than a header,
    /// plus the header validation errors of [`StoreMeta::decode`].
    pub fn open(path: &Path) -> Result<Self, StoreError> {
        let file = File::open(path)?;
        let file_len = file.metadata()?.len();
        let mut file = BufReader::new(file);
        let mut buf = [0u8; HEADER_LEN];
        read_exact_or_truncated(&mut file, &mut buf, 0)?;
        let meta = StoreMeta::decode(&buf)?;
        Ok(ChunkReader {
            file,
            file_len,
            meta,
            next_index: 0,
            events_seen: 0,
        })
    }

    /// The validated file header.
    pub fn meta(&self) -> StoreMeta {
        self.meta
    }

    /// Reads the next frame; `Ok(None)` at a clean end of file.
    ///
    /// # Errors
    ///
    /// [`StoreError::TruncatedFrame`] when the file ends mid-frame or
    /// before the header's declared event count,
    /// [`StoreError::Corrupt`] on an internally inconsistent frame
    /// header, a frame short of `chunk_size` that does not end the
    /// stream, or an event whose node is out of range or whose time is
    /// non-finite, [`StoreError::CrcMismatch`] when the checksum fails, and
    /// [`StoreError::Io`] on other read failures.
    pub fn next_frame(&mut self) -> Result<Option<StoredChunk>, StoreError> {
        self.read_frame(true)
    }

    /// Like [`next_frame`](Self::next_frame), but a clean end of file at
    /// a frame boundary is `Ok(None)` even when the header's declared
    /// event count has not been reached.
    ///
    /// This is the write-ahead-log read mode: a WAL produced by
    /// [`ChunkWriter::sync`](crate::ChunkWriter::sync) is never
    /// `finish`ed, so its header permanently declares zero events while
    /// the frames behind it are valid, each as long as one ack. All
    /// per-frame validation (CRC, shape, base continuity) is unchanged —
    /// only the accounting against the declared count is relaxed.
    pub fn next_frame_tolerant(&mut self) -> Result<Option<StoredChunk>, StoreError> {
        self.read_frame(false)
    }

    fn read_frame(&mut self, strict_eof: bool) -> Result<Option<StoredChunk>, StoreError> {
        let chunk = self.next_index;
        let mut header_buf = [0u8; FRAME_HEADER_LEN];
        // A clean EOF at a frame boundary ends the stream — but (in
        // strict mode) only if the declared event count has been reached.
        let first = self.file.read(&mut header_buf)?;
        if first == 0 {
            if strict_eof && self.events_seen != self.meta.num_events {
                return Err(StoreError::TruncatedFrame { chunk });
            }
            return Ok(None);
        }
        let mut got = first;
        while got < FRAME_HEADER_LEN {
            let n = self.file.read(&mut header_buf[got..])?;
            if n == 0 {
                return Err(StoreError::TruncatedFrame { chunk });
            }
            got += n;
        }
        let header = FrameHeader::decode(&header_buf);
        // Sanity before trusting payload_len for an allocation.
        if header.event_count == 0 || header.event_count > self.meta.chunk_size {
            return Err(StoreError::Corrupt {
                chunk,
                message: format!(
                    "frame declares {} events (chunk size {})",
                    header.event_count, self.meta.chunk_size
                ),
            });
        }
        if header.payload_len != self.meta.expected_payload_len(header.event_count) {
            return Err(StoreError::Corrupt {
                chunk,
                message: format!(
                    "payload length {} inconsistent with {} events of dim {}",
                    header.payload_len, header.event_count, self.meta.feature_dim
                ),
            });
        }
        // Only the stream's last frame may be short of `chunk_size`, so a
        // file has one framing. (A write-ahead log closes a frame at every
        // sync; its frames are as long as its acks.)
        if strict_eof
            && header.event_count < self.meta.chunk_size
            && self.events_seen.checked_add(header.event_count) != Some(self.meta.num_events)
        {
            return Err(StoreError::Corrupt {
                chunk,
                message: format!(
                    "frame holds {} events, short of chunk size {}, but does not end the stream",
                    header.event_count, self.meta.chunk_size
                ),
            });
        }
        if header.base != self.events_seen {
            return Err(StoreError::Corrupt {
                chunk,
                message: format!(
                    "frame base {} but {} events seen so far",
                    header.base, self.events_seen
                ),
            });
        }
        if header.payload_len as u64 > self.file_len {
            return Err(StoreError::TruncatedFrame { chunk });
        }
        let mut payload = vec![0u8; header.payload_len + 4];
        read_exact_or_truncated(&mut self.file, &mut payload, chunk)?;
        let stored = u32::from_le_bytes(
            payload[header.payload_len..]
                .try_into()
                .expect("trailing crc is 4 bytes"),
        );
        let mut crc = Crc32::new();
        crc.update(&header_buf);
        crc.update(&payload[..header.payload_len]);
        let computed = crc.finish();
        if stored != computed {
            return Err(StoreError::CrcMismatch {
                chunk,
                stored,
                computed,
            });
        }
        let (events, features) = decode_payload(
            &payload[..header.payload_len],
            header.event_count,
            self.meta,
            chunk,
        )?;
        self.next_index += 1;
        self.events_seen += header.event_count;
        Ok(Some(StoredChunk {
            index: chunk,
            base: header.base,
            events,
            features,
            header,
        }))
    }
}

fn read_exact_or_truncated(
    file: &mut BufReader<File>,
    buf: &mut [u8],
    chunk: usize,
) -> Result<(), StoreError> {
    let mut got = 0;
    while got < buf.len() {
        let n = file.read(&mut buf[got..])?;
        if n == 0 {
            return Err(StoreError::TruncatedFrame { chunk });
        }
        got += n;
    }
    Ok(())
}

fn decode_payload(
    payload: &[u8],
    count: usize,
    meta: StoreMeta,
    chunk: usize,
) -> Result<(Vec<Event>, Vec<f32>), StoreError> {
    let (event_bytes, feature_bytes) = payload.split_at(count * EVENT_LEN);
    let mut events = Vec::with_capacity(count);
    for (i, raw) in event_bytes.chunks_exact(EVENT_LEN).enumerate() {
        let raw: &[u8; EVENT_LEN] = raw.try_into().expect("chunks_exact yields whole events");
        let [s0, s1, s2, s3, d0, d1, d2, d3, t @ ..] = *raw;
        let src = u32::from_le_bytes([s0, s1, s2, s3]);
        let dst = u32::from_le_bytes([d0, d1, d2, d3]);
        let time = f64::from_le_bytes(t);
        if src as usize >= meta.num_nodes || dst as usize >= meta.num_nodes {
            return Err(StoreError::Corrupt {
                chunk,
                message: format!(
                    "event {} references node {} outside declared range {}",
                    i,
                    src.max(dst),
                    meta.num_nodes
                ),
            });
        }
        // A NaN compares false both ways and would switch every order
        // check downstream off; an infinity is no point in time.
        if !time.is_finite() {
            return Err(StoreError::Corrupt {
                chunk,
                message: format!("event {} has non-finite time {}", i, time),
            });
        }
        events.push(Event::new(src, dst, time));
    }
    let features = feature_bytes
        .chunks_exact(4)
        .map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
        .collect();
    Ok((events, features))
}

/// Reads an entire store file back into an in-memory [`Dataset`].
///
/// # Errors
///
/// Propagates any [`StoreError`] raised while streaming the frames, and
/// reports event-order violations as [`StoreError::Corrupt`].
pub fn import_dataset(path: &Path, name: &str) -> Result<Dataset, StoreError> {
    let mut reader = ChunkReader::open(path)?;
    let meta = reader.meta();
    // Reserve for the declared count only as far as the file could hold it.
    let declared = meta
        .num_events
        .min(reader.file_len as usize / meta.expected_payload_len(1));
    let mut events = Vec::with_capacity(declared);
    let mut features = Vec::with_capacity(declared * meta.feature_dim);
    while let Some(chunk) = reader.next_frame()? {
        events.extend_from_slice(&chunk.events);
        features.extend_from_slice(&chunk.features);
    }
    let stream = EventStream::new(events).map_err(|e| StoreError::Corrupt {
        chunk: 0,
        message: format!("stored events are not a valid stream: {}", e),
    })?;
    let feats = if meta.feature_dim == 0 {
        cascade_tgraph::EdgeFeatures::none()
    } else {
        cascade_tgraph::EdgeFeatures::new(features, meta.feature_dim)
    };
    Ok(Dataset::new(name, stream, feats))
}
