//! The `CEVT` on-disk format: byte layout of the file header and the
//! per-chunk frame headers, plus little-endian codec helpers.
//!
//! ```text
//! file   := header frame*
//! header := magic[4] version:u16 feature_dim:u16
//!           num_nodes:u64 num_events:u64 chunk_size:u64        (32 bytes)
//! frame  := payload_len:u64 event_count:u64 base:u64
//!           t_min:f64 t_max:f64 touched_nodes:u64              (48 bytes)
//!           payload[payload_len] crc:u32
//! payload:= (src:u32 dst:u32 time:f64){count} (feature:f32){count*dim}
//! ```
//!
//! All integers and floats are little-endian. `num_events` (byte offset
//! 16) is rewritten by the writer on finish, so a crash mid-write leaves
//! a header whose declared count exceeds the frames present — which the
//! reader reports as a truncated frame. The trailing CRC32 covers the
//! frame header *and* the payload, so a bit flip anywhere in a chunk is
//! detected.

use crate::error::StoreError;

/// File magic: "Cascade EVenT".
pub const MAGIC: [u8; 4] = *b"CEVT";

/// Current format version.
pub const VERSION: u16 = 1;

/// Size of the fixed file header in bytes.
pub const HEADER_LEN: usize = 32;

/// Byte offset of the `num_events` field inside the header.
pub const NUM_EVENTS_OFFSET: u64 = 16;

/// Size of a frame header in bytes (excludes payload and CRC).
pub const FRAME_HEADER_LEN: usize = 48;

/// Bytes one event occupies in a frame payload (`src u32 + dst u32 +
/// time f64`).
pub const EVENT_LEN: usize = 16;

/// Decoded file header: the stream's global shape.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StoreMeta {
    /// Edge-feature width (0 = no features).
    pub feature_dim: usize,
    /// Number of nodes the stream covers.
    pub num_nodes: usize,
    /// Total events across all frames.
    pub num_events: usize,
    /// Nominal events per chunk (every frame but the last holds exactly
    /// this many).
    pub chunk_size: usize,
}

impl StoreMeta {
    /// Encodes the 32-byte header.
    pub fn encode(&self) -> [u8; HEADER_LEN] {
        let mut buf = [0u8; HEADER_LEN];
        buf[0..4].copy_from_slice(&MAGIC);
        buf[4..6].copy_from_slice(&VERSION.to_le_bytes());
        buf[6..8].copy_from_slice(&(self.feature_dim as u16).to_le_bytes());
        buf[8..16].copy_from_slice(&(self.num_nodes as u64).to_le_bytes());
        buf[16..24].copy_from_slice(&(self.num_events as u64).to_le_bytes());
        buf[24..32].copy_from_slice(&(self.chunk_size as u64).to_le_bytes());
        buf
    }

    /// Decodes and validates a 32-byte header.
    ///
    /// # Errors
    ///
    /// [`StoreError::BadMagic`] when the magic is wrong,
    /// [`StoreError::VersionSkew`] on an unsupported version, and
    /// [`StoreError::Corrupt`] on implausible shape fields.
    pub fn decode(buf: &[u8; HEADER_LEN]) -> Result<Self, StoreError> {
        let mut found = [0u8; 4];
        found.copy_from_slice(&buf[0..4]);
        if found != MAGIC {
            return Err(StoreError::BadMagic { found });
        }
        let version = u16::from_le_bytes([buf[4], buf[5]]);
        if version != VERSION {
            return Err(StoreError::VersionSkew {
                found: version,
                supported: VERSION,
            });
        }
        let meta = StoreMeta {
            feature_dim: u16::from_le_bytes([buf[6], buf[7]]) as usize,
            num_nodes: read_u64(&buf[8..16]) as usize,
            num_events: read_u64(&buf[16..24]) as usize,
            chunk_size: read_u64(&buf[24..32]) as usize,
        };
        if meta.chunk_size == 0 {
            return Err(StoreError::Corrupt {
                chunk: 0,
                message: "header declares chunk size 0".to_string(),
            });
        }
        Ok(meta)
    }

    /// Payload length a frame of `count` events must have (saturating:
    /// no real payload is as long as a count that overflows).
    pub fn expected_payload_len(&self, count: usize) -> usize {
        count.saturating_mul(EVENT_LEN + self.feature_dim * 4)
    }
}

/// Decoded frame header: shape and summary of one chunk.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FrameHeader {
    /// Payload bytes following this header.
    pub payload_len: usize,
    /// Events in the chunk.
    pub event_count: usize,
    /// Global stream id of the chunk's first event.
    pub base: usize,
    /// Smallest event timestamp in the chunk.
    pub t_min: f64,
    /// Largest event timestamp in the chunk.
    pub t_max: f64,
    /// Distinct nodes the chunk's events touch (summary, not needed for
    /// decode — lets schedulers size structures without reading the
    /// payload).
    pub touched_nodes: usize,
}

impl FrameHeader {
    /// Encodes the 48-byte frame header.
    pub fn encode(&self) -> [u8; FRAME_HEADER_LEN] {
        let mut buf = [0u8; FRAME_HEADER_LEN];
        buf[0..8].copy_from_slice(&(self.payload_len as u64).to_le_bytes());
        buf[8..16].copy_from_slice(&(self.event_count as u64).to_le_bytes());
        buf[16..24].copy_from_slice(&(self.base as u64).to_le_bytes());
        buf[24..32].copy_from_slice(&self.t_min.to_le_bytes());
        buf[32..40].copy_from_slice(&self.t_max.to_le_bytes());
        buf[40..48].copy_from_slice(&(self.touched_nodes as u64).to_le_bytes());
        buf
    }

    /// Decodes a 48-byte frame header (no validation — the caller checks
    /// consistency against the file header).
    pub fn decode(buf: &[u8; FRAME_HEADER_LEN]) -> Self {
        FrameHeader {
            payload_len: read_u64(&buf[0..8]) as usize,
            event_count: read_u64(&buf[8..16]) as usize,
            base: read_u64(&buf[16..24]) as usize,
            t_min: f64::from_le_bytes(buf[24..32].try_into().expect("slice is 8 bytes")),
            t_max: f64::from_le_bytes(buf[32..40].try_into().expect("slice is 8 bytes")),
            touched_nodes: read_u64(&buf[40..48]) as usize,
        }
    }
}

fn read_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes(b.try_into().expect("slice is 8 bytes"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_roundtrip() {
        let meta = StoreMeta {
            feature_dim: 8,
            num_nodes: 9227,
            num_events: 157_474,
            chunk_size: 4096,
        };
        let buf = meta.encode();
        assert_eq!(buf.len(), HEADER_LEN);
        assert_eq!(StoreMeta::decode(&buf).expect("valid header"), meta);
    }

    #[test]
    fn num_events_sits_at_documented_offset() {
        let meta = StoreMeta {
            feature_dim: 0,
            num_nodes: 3,
            num_events: 0x0102_0304,
            chunk_size: 16,
        };
        let buf = meta.encode();
        let off = NUM_EVENTS_OFFSET as usize;
        assert_eq!(
            u64::from_le_bytes(buf[off..off + 8].try_into().expect("slice is 8 bytes")),
            0x0102_0304
        );
    }

    #[test]
    fn rejects_bad_magic() {
        let meta = StoreMeta {
            feature_dim: 0,
            num_nodes: 1,
            num_events: 1,
            chunk_size: 1,
        };
        let mut buf = meta.encode();
        buf[0] = b'X';
        assert!(matches!(
            StoreMeta::decode(&buf),
            Err(StoreError::BadMagic { .. })
        ));
    }

    #[test]
    fn rejects_future_version() {
        let meta = StoreMeta {
            feature_dim: 0,
            num_nodes: 1,
            num_events: 1,
            chunk_size: 1,
        };
        let mut buf = meta.encode();
        buf[4..6].copy_from_slice(&2u16.to_le_bytes());
        assert!(matches!(
            StoreMeta::decode(&buf),
            Err(StoreError::VersionSkew {
                found: 2,
                supported: 1
            })
        ));
    }

    #[test]
    fn rejects_zero_chunk_size() {
        let meta = StoreMeta {
            feature_dim: 0,
            num_nodes: 1,
            num_events: 1,
            chunk_size: 7,
        };
        let mut buf = meta.encode();
        buf[24..32].copy_from_slice(&0u64.to_le_bytes());
        assert!(matches!(
            StoreMeta::decode(&buf),
            Err(StoreError::Corrupt { .. })
        ));
    }

    #[test]
    fn frame_header_roundtrip() {
        let h = FrameHeader {
            payload_len: 4096 * 16,
            event_count: 4096,
            base: 8192,
            t_min: 0.25,
            t_max: 993.5,
            touched_nodes: 511,
        };
        assert_eq!(FrameHeader::decode(&h.encode()), h);
    }

    #[test]
    fn expected_payload_accounts_for_features() {
        let meta = StoreMeta {
            feature_dim: 4,
            num_nodes: 1,
            num_events: 10,
            chunk_size: 10,
        };
        assert_eq!(meta.expected_payload_len(10), 10 * 16 + 10 * 4 * 4);
    }
}
