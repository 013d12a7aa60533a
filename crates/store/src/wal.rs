//! Write-ahead-log recovery: reading back the valid frame prefix of an
//! unfinished `CEVT` file.
//!
//! A WAL written by [`ChunkWriter::push`](crate::ChunkWriter::push) +
//! [`ChunkWriter::sync`](crate::ChunkWriter::sync) is crash-consistent
//! by construction: every synced frame is durable, and a kill mid-append
//! leaves at most one torn frame at the tail. [`recover_log`] scans the
//! file frame by frame with full CRC/shape validation and returns the
//! longest valid prefix; a torn or corrupt tail ends the scan (and is
//! reported) instead of failing it — classic WAL recovery semantics.
//!
//! Frame boundaries are preserved in the result: one [`StoredChunk`] per
//! synced batch, so a consumer that applies state batch-by-batch can
//! replay the log with the exact batch partition of the original run.

use std::path::Path;

use crate::error::StoreError;
use crate::format::StoreMeta;
use crate::reader::{ChunkReader, StoredChunk};

/// The valid prefix of a write-ahead log, plus how the scan ended.
#[derive(Debug)]
pub struct WalRecovery {
    /// The validated file header (its `num_events` is 0 for any log that
    /// was never `finish`ed — use [`events`](WalRecovery::events)).
    pub meta: StoreMeta,
    /// The recovered frames, in order, with their original boundaries.
    pub frames: Vec<StoredChunk>,
    /// Total events across `frames`.
    pub events: usize,
    /// The frame-level error that ended the scan — `Some` when a torn or
    /// corrupt tail was discarded (expected after a kill mid-append),
    /// `None` when the file ended cleanly at a frame boundary.
    pub torn_tail: Option<StoreError>,
}

/// Scans the WAL at `path` and returns its longest valid frame prefix.
///
/// Frame-level damage (`TruncatedFrame`, `CrcMismatch`, `Corrupt`) ends
/// the scan and is reported as [`WalRecovery::torn_tail`]; everything
/// before it has already been CRC-verified and is returned. File-level
/// problems (unreadable file, bad magic, version skew) are real errors.
///
/// # Errors
///
/// Returns [`StoreError::Io`], [`StoreError::BadMagic`], or
/// [`StoreError::VersionSkew`] when the file itself cannot be opened or
/// its header is not a valid `CEVT` header.
pub fn recover_log(path: &Path) -> Result<WalRecovery, StoreError> {
    let mut reader = ChunkReader::open(path)?;
    let meta = reader.meta();
    let mut frames = Vec::new();
    let mut events = 0usize;
    let torn_tail = loop {
        match reader.next_frame_tolerant() {
            Ok(Some(frame)) => {
                events += frame.events.len();
                frames.push(frame);
            }
            Ok(None) => break None,
            Err(
                e @ (StoreError::TruncatedFrame { .. }
                | StoreError::CrcMismatch { .. }
                | StoreError::Corrupt { .. }),
            ) => break Some(e),
            Err(e) => return Err(e),
        }
    };
    Ok(WalRecovery {
        meta,
        frames,
        events,
        torn_tail,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::ChunkWriter;
    use cascade_tgraph::Event;
    use std::io::Write;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("cascade_wal_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{}_{}", std::process::id(), name))
    }

    fn ev(i: usize) -> Event {
        Event::new((i % 5) as u32, ((i + 1) % 5) as u32, i as f64)
    }

    /// Writes `batches` synced batches of `per` events each, never
    /// calling `finish` — the state a killed server leaves behind.
    fn write_wal(path: &std::path::Path, batches: usize, per: usize) -> ChunkWriter {
        let mut w = ChunkWriter::create(path, 5, 2, 64).unwrap();
        let mut id = 0usize;
        for _ in 0..batches {
            for _ in 0..per {
                w.push(ev(id), &[id as f32, 0.5]).unwrap();
                id += 1;
            }
            w.sync().unwrap();
        }
        w
    }

    #[test]
    fn unfinished_log_recovers_every_synced_frame() {
        let path = tmp("clean.wal");
        let w = write_wal(&path, 3, 4);
        // Kill: the writer is forgotten, finish never runs.
        std::mem::forget(w);

        let rec = recover_log(&path).unwrap();
        assert_eq!(rec.events, 12);
        assert_eq!(rec.frames.len(), 3, "one frame per synced batch");
        assert!(rec.torn_tail.is_none());
        assert_eq!(rec.meta.num_events, 0, "header was never finished");
        let flat: Vec<_> = rec.frames.iter().flat_map(|f| f.events.clone()).collect();
        assert_eq!(flat, (0..12).map(ev).collect::<Vec<_>>());
        assert_eq!(rec.frames[1].base, 4);
        assert_eq!(rec.frames[1].features.len(), 4 * 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_discarded_and_reported() {
        let path = tmp("torn.wal");
        let w = write_wal(&path, 2, 3);
        std::mem::forget(w);
        // Simulate a kill mid-append: half a frame header of garbage.
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        f.write_all(&[0xAB; 17]).unwrap();
        drop(f);

        let rec = recover_log(&path).unwrap();
        assert_eq!(rec.events, 6, "only the synced prefix survives");
        assert_eq!(rec.frames.len(), 2);
        assert!(matches!(
            rec.torn_tail,
            Some(StoreError::TruncatedFrame { .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_tail_frame_ends_scan_after_valid_prefix() {
        let path = tmp("crc.wal");
        let w = write_wal(&path, 3, 2);
        std::mem::forget(w);
        // Flip a payload byte inside the last frame.
        let mut bytes = std::fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 6] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();

        let rec = recover_log(&path).unwrap();
        assert_eq!(rec.events, 4);
        assert!(matches!(
            rec.torn_tail,
            Some(StoreError::CrcMismatch { .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn finished_files_also_recover() {
        let path = tmp("finished.wal");
        let mut w = write_wal(&path, 2, 3);
        w.push(ev(6), &[6.0, 0.5]).unwrap();
        let summary = w.finish().unwrap();
        assert_eq!(summary.events, 7);

        let rec = recover_log(&path).unwrap();
        assert_eq!(rec.events, 7);
        assert!(rec.torn_tail.is_none());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_unfinished_log_recovers_to_nothing() {
        let path = tmp("empty.wal");
        let w = ChunkWriter::create(&path, 5, 2, 64).unwrap();
        std::mem::forget(w);
        let rec = recover_log(&path).unwrap();
        assert_eq!(rec.events, 0);
        assert!(rec.frames.is_empty());
        assert!(rec.torn_tail.is_none());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_a_real_error() {
        assert!(matches!(
            recover_log(std::path::Path::new("/nonexistent/nope.wal")),
            Err(StoreError::Io(_))
        ));
    }
}
