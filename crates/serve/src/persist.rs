//! Serving persistence: the write-ahead log and durable state
//! snapshots.
//!
//! This is the designated I/O module of `cascade-serve` (see the
//! `io-fs-confined` allowlist in `cascade-lint`): every filesystem
//! touch of the serving stack lives here, routed through the typed
//! `cascade-store` WAL primitives and the `cascade-models` checkpoint
//! layer.
//!
//! Durability protocol (DESIGN.md §11): each applied ingest sub-batch
//! is one synced WAL frame, so frame boundaries *are* apply boundaries
//! — restart replays the log batch-for-batch and reproduces memories
//! bit-identically. On recovery the valid frame prefix is rewritten to
//! a fresh log (temp file + rename, so a crash mid-rewrite keeps the
//! old log) which both discards any torn tail and leaves an open
//! writer positioned to append.

use std::path::Path;

use cascade_models::{load_checkpoint, save_state, CheckpointError, MemoryTgnn};
use cascade_store::{recover_log, ChunkWriter, StoreError, StoredChunk};

use crate::error::ServeError;

/// An open write-ahead log plus whatever was recovered from it.
pub(crate) struct WalState {
    /// Writer positioned after the last recovered frame.
    pub writer: ChunkWriter,
    /// The log's frame unit: ingest sub-batches must not exceed this,
    /// so that frame boundaries stay equal to apply boundaries.
    pub chunk_size: usize,
    /// Recovered frames in apply order (empty for a fresh log).
    pub frames: Vec<StoredChunk>,
    /// The discarded torn tail, if recovery found one.
    pub torn_tail: Option<StoreError>,
}

/// Opens the WAL at `path`, recovering it if it exists or creating a
/// fresh one sized for `num_nodes`/`feature_dim` if not.
///
/// An existing log is validated against the model's shape, then its
/// valid frame prefix is rewritten to `<path>.tmp` (one sync per frame,
/// preserving the original apply boundaries) and renamed over the old
/// log; the returned writer appends to the renamed file.
///
/// # Errors
///
/// [`ServeError::Wal`] on store-level failures and
/// [`ServeError::ShapeMismatch`] when an existing log disagrees with
/// the model's node count or feature width.
pub(crate) fn open_wal(
    path: &Path,
    num_nodes: usize,
    feature_dim: usize,
    chunk_size: usize,
) -> Result<WalState, ServeError> {
    if !path.exists() {
        let writer = ChunkWriter::create(path, num_nodes, feature_dim, chunk_size)?;
        return Ok(WalState {
            writer,
            chunk_size,
            frames: Vec::new(),
            torn_tail: None,
        });
    }
    let rec = recover_log(path)?;
    if rec.meta.num_nodes != num_nodes || rec.meta.feature_dim != feature_dim {
        return Err(ServeError::ShapeMismatch(format!(
            "WAL written for {} nodes / feature dim {}, model has {} / {}",
            rec.meta.num_nodes, rec.meta.feature_dim, num_nodes, feature_dim
        )));
    }
    // Keep the recovered log's frame unit: recovered frames can be as
    // large as it, and future sub-batches must fit one frame each.
    let unit = rec.meta.chunk_size.max(chunk_size);
    let tmp = path.with_extension("wal_tmp");
    let mut writer = ChunkWriter::create(&tmp, num_nodes, feature_dim, unit)?;
    for f in &rec.frames {
        for (i, e) in f.events.iter().enumerate() {
            writer.push(*e, &f.features[i * feature_dim..(i + 1) * feature_dim])?;
        }
        writer.sync()?;
    }
    // The writer's descriptor survives the rename (same inode), so
    // appends after this land in the live log at `path`.
    std::fs::rename(&tmp, path).map_err(StoreError::from)?;
    Ok(WalState {
        writer,
        chunk_size: unit,
        frames: rec.frames,
        torn_tail: rec.torn_tail,
    })
}

/// Loads the snapshot at `path` into `model`, returning its
/// events-applied watermark — or `None` when no snapshot exists yet.
///
/// Accepts any full-state checkpoint — a server can boot directly from
/// the state `cascade_dist --save` wrote, whatever worker count it was
/// trained with, because the one format records no shard layout.
/// Parameter-only files are rejected: a snapshot must carry memories and
/// a watermark, or replay would silently start from event zero.
///
/// # Errors
///
/// [`ServeError::Snapshot`] on checkpoint-level failures (including a
/// truncated snapshot) and for a parameter-only file.
pub fn load_snapshot(model: &mut MemoryTgnn, path: &Path) -> Result<Option<u64>, ServeError> {
    if !path.exists() {
        return Ok(None);
    }
    match load_checkpoint(model, path)? {
        Some(events_applied) => Ok(Some(events_applied)),
        None => Err(ServeError::Snapshot(CheckpointError::StateMismatch(
            "snapshot is a parameter-only checkpoint with no events-applied watermark".into(),
        ))),
    }
}

/// Durably snapshots `model` (tagged with `events_applied`) to `path`,
/// atomically — see [`cascade_models::save_state`].
///
/// # Errors
///
/// [`ServeError::Snapshot`] on checkpoint-level failures.
pub fn save_snapshot(
    model: &MemoryTgnn,
    path: &Path,
    events_applied: u64,
) -> Result<(), ServeError> {
    Ok(save_state(model, path, events_applied)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cascade_tgraph::Event;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("cascade_serve_persist_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{}_{}", std::process::id(), name))
    }

    #[test]
    fn fresh_wal_then_reopen_preserves_frame_boundaries() {
        let path = tmp("reopen.wal");
        std::fs::remove_file(&path).ok();
        let mut st = open_wal(&path, 8, 2, 16).unwrap();
        assert!(st.frames.is_empty());
        for i in 0..5u32 {
            st.writer
                .push(Event::new(i, i + 1, i as f64), &[i as f32, 0.0])
                .unwrap();
        }
        st.writer.sync().unwrap();
        for i in 5..8u32 {
            st.writer
                .push(Event::new(i % 8, (i + 1) % 8, i as f64), &[i as f32, 0.0])
                .unwrap();
        }
        st.writer.sync().unwrap();
        std::mem::forget(st.writer); // simulate kill

        let st2 = open_wal(&path, 8, 2, 16).unwrap();
        assert_eq!(st2.frames.len(), 2, "frame boundaries preserved");
        assert_eq!(st2.frames[0].events.len(), 5);
        assert_eq!(st2.frames[1].events.len(), 3);
        assert!(st2.torn_tail.is_none());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn reopen_appends_to_the_rewritten_log() {
        let path = tmp("append.wal");
        std::fs::remove_file(&path).ok();
        let mut st = open_wal(&path, 8, 0, 16).unwrap();
        st.writer.push(Event::new(0u32, 1u32, 1.0), &[]).unwrap();
        st.writer.sync().unwrap();
        std::mem::forget(st.writer);

        let mut st2 = open_wal(&path, 8, 0, 16).unwrap();
        assert_eq!(st2.frames.len(), 1);
        st2.writer.push(Event::new(2u32, 3u32, 2.0), &[]).unwrap();
        st2.writer.sync().unwrap();
        std::mem::forget(st2.writer);

        let st3 = open_wal(&path, 8, 0, 16).unwrap();
        assert_eq!(
            st3.frames.len(),
            2,
            "append after rename reached the live log"
        );
        assert_eq!(st3.frames[1].events[0], Event::new(2u32, 3u32, 2.0));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn shape_mismatch_is_rejected() {
        let path = tmp("shape.wal");
        std::fs::remove_file(&path).ok();
        let st = open_wal(&path, 8, 2, 16).unwrap();
        std::mem::forget(st.writer);
        assert!(matches!(
            open_wal(&path, 9, 2, 16),
            Err(ServeError::ShapeMismatch(_))
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_snapshot_is_none() {
        use cascade_models::{MemoryTgnn, ModelConfig};
        let mut m = MemoryTgnn::new(ModelConfig::tgn().with_dims(8, 4), 6, 2, 1);
        let got = load_snapshot(&mut m, &tmp("never_written.ckpt")).unwrap();
        assert!(got.is_none());
    }

    #[test]
    fn dist_checkpoint_boots_the_server() {
        use cascade_models::{MemoryTgnn, ModelConfig};
        use cascade_tgraph::EdgeFeatures;
        let cfg = ModelConfig::tgn().with_dims(8, 4);
        let mut trained = MemoryTgnn::new(cfg.clone(), 6, 2, 1);
        let events = [Event::new(0u32, 1u32, 1.0), Event::new(2u32, 3u32, 2.0)];
        let mut feats = EdgeFeatures::zeros(2, 2);
        feats.set_row(0, &[0.5, -0.5]);
        feats.set_row(1, &[1.0, 0.25]);
        let pending = trained.pending_batch(&events);
        trained.apply_batch(&events, 0, &feats, pending);

        // `cascade_dist --save` writes what `save_snapshot` writes; the
        // server boots from it.
        let path = tmp("dist_boot.ckpt");
        save_snapshot(&trained, &path, 2).unwrap();
        let mut served = MemoryTgnn::new(cfg, 6, 2, 1);
        let applied = load_snapshot(&mut served, &path).unwrap();
        assert_eq!(applied, Some(2), "watermark survives");
        assert_eq!(
            served.export_state(),
            trained.export_state(),
            "memories and mailboxes reassemble bit-identically from shards"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn parameter_only_snapshot_is_rejected() {
        use cascade_models::{save_parameters, MemoryTgnn, ModelConfig};
        let m = MemoryTgnn::new(ModelConfig::tgn().with_dims(8, 4), 6, 2, 1);
        let path = tmp("params_only.ckpt");
        save_parameters(&m, &path).unwrap();
        let mut fresh = MemoryTgnn::new(ModelConfig::tgn().with_dims(8, 4), 6, 2, 1);
        assert!(
            matches!(
                load_snapshot(&mut fresh, &path),
                Err(ServeError::Snapshot(_))
            ),
            "a watermark-less checkpoint must not silently boot a server"
        );
        std::fs::remove_file(&path).ok();
    }
}
