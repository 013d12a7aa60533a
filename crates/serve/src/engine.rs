//! The serving engine: single-writer live ingest over a [`MemoryTgnn`],
//! with WAL durability and lock-free read snapshots.
//!
//! # Ownership and concurrency
//!
//! Exactly one thread owns an [`Engine`] and with it all memory writes.
//! The engine holds two copies of the served state — model (parameters
//! shared, node state its own) plus feature history, a
//! [`ServeSnapshot`]: the *front*, published behind an
//! [`RwLock`]`<Arc<…>>`, and the *retired* copy published before it,
//! together with the WAL frames the front has and it lacks. Readers
//! hold the lock only long enough to clone the front's `Arc`, then
//! score against a frozen state with no lock held: a reader can never
//! observe a torn mid-batch state, and ingest never waits for readers.
//! Staleness is bounded by one ingest request (MSPipe-style bounded
//! staleness, DESIGN.md §11).
//!
//! An ingest request reclaims the retired copy ([`Arc::try_unwrap`]),
//! re-applies the frames it lacks from their write-back tickets,
//! applies its own frames, and publishes the copy as the new front: a
//! request costs O(its batch), not O(the model). Only when a reader
//! still holds the retired copy does the engine clone the front
//! instead; so does the first request after [`Engine::open`], which has
//! no second copy yet. `/stats` counts each clone as `publish_copies`.
//!
//! # Durability
//!
//! Each applied sub-batch (at most the WAL frame unit) is first framed
//! and fsynced to the write-ahead log, *then* applied to memory — so
//! every event a client sees acknowledged is on disk before it ever
//! influences served state. Because memory evolution depends on batch
//! boundaries (mailbox consumption is per-batch), frame boundaries are
//! exactly apply boundaries; restart replays the log frame-by-frame and
//! reproduces memories bit-identically. Periodic durable snapshots
//! ([`save_state`](cascade_models::save_state)) bound replay time:
//! restart = load snapshot + replay the WAL tail.

use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::{Arc, PoisonError, RwLock};

use cascade_models::{BatchPending, MemoryTgnn};
use cascade_tgraph::{EdgeFeatures, Event, EventId};

use crate::error::ServeError;
use crate::persist;
use crate::stats::Stats;

/// Where the engine persists, and how often.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Write-ahead log path (created if missing, recovered if present).
    pub wal_path: PathBuf,
    /// Durable state-snapshot path.
    pub snapshot_path: PathBuf,
    /// WAL frame unit: ingest requests are applied (and synced) in
    /// sub-batches of at most this many events.
    pub wal_chunk: usize,
    /// Events between durable snapshots; `0` disables automatic
    /// snapshots (the WAL alone still makes every ack durable).
    pub snapshot_every: usize,
}

impl EngineConfig {
    /// Config with the default frame unit (256) and snapshots disabled.
    pub fn new(wal_path: impl Into<PathBuf>, snapshot_path: impl Into<PathBuf>) -> Self {
        EngineConfig {
            wal_path: wal_path.into(),
            snapshot_path: snapshot_path.into(),
            wal_chunk: 256,
            snapshot_every: 0,
        }
    }

    /// Sets the WAL frame unit.
    ///
    /// # Panics
    ///
    /// Panics if `chunk == 0` (configuration error, caught at startup).
    pub fn with_wal_chunk(mut self, chunk: usize) -> Self {
        assert!(chunk > 0, "WAL frame unit must be positive");
        self.wal_chunk = chunk;
        self
    }

    /// Sets the automatic snapshot cadence (events; `0` disables).
    pub fn with_snapshot_every(mut self, events: usize) -> Self {
        self.snapshot_every = events;
        self
    }
}

/// An immutable published state readers score against.
#[derive(Clone)]
pub struct ServeSnapshot {
    /// Frozen model: parameters shared with every copy, node state its
    /// own.
    pub model: MemoryTgnn,
    /// Feature history aligned with the model's adjacency event ids.
    pub feats: EdgeFeatures,
    /// Events applied when this snapshot was taken (the watermark
    /// reported in `/predict` responses).
    pub events: usize,
}

/// State shared between the ingest thread and predict workers.
pub struct SharedState {
    snapshot: RwLock<Arc<ServeSnapshot>>,
    /// Serving counters and latency histograms.
    pub stats: Stats,
}

impl SharedState {
    /// The current read snapshot; the lock is held only for the `Arc`
    /// clone, so readers never block ingest for the duration of a
    /// score.
    pub fn snapshot(&self) -> Arc<ServeSnapshot> {
        self.snapshot
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    fn publish(&self, snap: Arc<ServeSnapshot>) {
        *self
            .snapshot
            .write()
            .unwrap_or_else(PoisonError::into_inner) = snap;
    }
}

/// What [`Engine::open`] found on disk.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Events recovered from the WAL (snapshot prefix + replayed tail).
    pub wal_events: usize,
    /// Events restored via the durable snapshot (the replay shortcut).
    pub snapshot_events: usize,
    /// Whether a torn WAL tail was discarded.
    pub torn_tail_discarded: bool,
}

/// Acknowledgement for one ingest request: the events are on disk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IngestAck {
    /// Events this request added.
    pub acked: usize,
    /// Total events durably applied since the log began.
    pub total_acked: usize,
}

/// One applied WAL frame, kept until the retired copy has it too.
struct Frame {
    events: Vec<Event>,
    first_id: EventId,
    rows: Vec<f32>,
    pending: BatchPending,
}

/// The single-writer serving engine. See the module docs for the
/// ownership and durability story.
pub struct Engine {
    /// The published copy: every acked frame applied.
    front: Arc<ServeSnapshot>,
    /// The copy published before `front` (none until the first ingest).
    retired: Option<Arc<ServeSnapshot>>,
    /// The frames `front` has and `retired` lacks, in apply order.
    behind: Vec<Frame>,
    wal: cascade_store::ChunkWriter,
    frame_unit: usize,
    last_time: f64,
    since_snapshot: usize,
    config: EngineConfig,
    shared: Arc<SharedState>,
    recovery: RecoveryReport,
}

impl Engine {
    /// Opens the engine: one call covers both the fresh and the restart
    /// path.
    ///
    /// `model` is the serving base state (typically restored from a
    /// training checkpoint). If a WAL exists its valid prefix is
    /// recovered; if a durable snapshot exists it replaces replaying
    /// the prefix it covers, and only the tail beyond it is re-applied.
    /// Either way the resulting memories are bit-identical to the
    /// uninterrupted run over the acked events, because replay applies
    /// the exact original frame boundaries.
    ///
    /// # Errors
    ///
    /// Persistence errors ([`ServeError::Wal`]/[`ServeError::Snapshot`]),
    /// [`ServeError::SnapshotAheadOfWal`] when the snapshot's watermark
    /// exceeds what the WAL holds, and [`ServeError::ShapeMismatch`]
    /// when log, snapshot, and model disagree.
    pub fn open(mut model: MemoryTgnn, config: EngineConfig) -> Result<Engine, ServeError> {
        let num_nodes = model.num_nodes();
        let dim = model.edge_feat_dim();
        let wal = persist::open_wal(&config.wal_path, num_nodes, dim, config.wal_chunk)?;
        let wal_events: usize = wal.frames.iter().map(|f| f.events.len()).sum();

        let snapshot_events = match persist::load_snapshot(&mut model, &config.snapshot_path)? {
            Some(a) => a as usize,
            None => 0,
        };
        if snapshot_events > wal_events {
            return Err(ServeError::SnapshotAheadOfWal {
                snapshot: snapshot_events,
                wal: wal_events,
            });
        }

        let mut feats = if dim == 0 {
            EdgeFeatures::none()
        } else {
            EdgeFeatures::new(Vec::new(), dim)
        };
        let mut applied = 0usize;
        let mut last_time = f64::NEG_INFINITY;
        for frame in &wal.frames {
            let n = frame.events.len();
            feats.push_rows(&frame.features);
            if let Some(e) = frame.events.last() {
                last_time = last_time.max(e.time);
            }
            if applied + n <= snapshot_events {
                // Covered by the snapshot: memories already reflect
                // this frame; only the adjacency (excluded from state
                // blobs) needs rebuilding.
                model.replay_adjacency(&frame.events, applied);
            } else if applied >= snapshot_events {
                // Tail beyond the snapshot: re-apply with the original
                // frame as the batch — boundaries preserved, so the
                // mailbox consumption pattern (and therefore every
                // memory bit) matches the uninterrupted run. Same
                // state-only advance as a live ingest.
                let pending = model.pending_batch(&frame.events);
                model.apply_batch(&frame.events, applied, &feats, pending);
            } else {
                return Err(ServeError::ShapeMismatch(format!(
                    "snapshot watermark {} falls inside a WAL frame ({}..{}); \
                     snapshots are only taken at frame boundaries",
                    snapshot_events,
                    applied,
                    applied + n
                )));
            }
            applied += n;
        }

        let front = Arc::new(ServeSnapshot {
            model,
            feats,
            events: applied,
        });
        let shared = Arc::new(SharedState {
            snapshot: RwLock::new(front.clone()),
            stats: Stats::default(),
        });
        shared
            .stats
            .events_acked
            .store(applied as u64, Ordering::Relaxed);
        shared
            .stats
            .events_published
            .store(applied as u64, Ordering::Relaxed);
        Ok(Engine {
            front,
            retired: None,
            behind: Vec::new(),
            frame_unit: wal.chunk_size,
            last_time,
            since_snapshot: 0,
            shared,
            recovery: RecoveryReport {
                wal_events,
                snapshot_events,
                torn_tail_discarded: wal.torn_tail.is_some(),
            },
            wal: wal.writer,
            config,
        })
    }

    /// What recovery found when this engine opened.
    pub fn recovery(&self) -> RecoveryReport {
        self.recovery
    }

    /// The state shared with predict workers (snapshots + stats).
    pub fn shared(&self) -> Arc<SharedState> {
        self.shared.clone()
    }

    /// Events durably applied so far.
    pub fn applied(&self) -> usize {
        self.front.events
    }

    /// The serialized model state (for bit-identity checks in tests and
    /// tooling).
    pub fn export_state(&self) -> Vec<u8> {
        self.front.model.export_state()
    }

    /// Durably writes, then acks, then applies `events`, and publishes
    /// the result as the new read snapshot.
    ///
    /// The request is split into sub-batches of at most the WAL frame
    /// unit; each sub-batch is synced to the log *before* it touches
    /// memory, so the returned [`IngestAck`] guarantees every event
    /// survives a kill. Events must be time-ordered and not precede the
    /// served prefix.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadRequest`] for structural problems (out-of-range
    /// nodes, wrong feature width, time regressions) — the log and
    /// model are untouched in that case — and [`ServeError::Wal`] /
    /// [`ServeError::Snapshot`] for persistence failures. Frames synced
    /// before a WAL failure are applied and published all the same, so
    /// the served state never falls behind the log.
    pub fn ingest(&mut self, events: &[Event], features: &[f32]) -> Result<IngestAck, ServeError> {
        if events.is_empty() {
            return Err(ServeError::BadRequest("empty ingest batch".to_string()));
        }
        let dim = self.front.model.edge_feat_dim();
        if features.len() != events.len() * dim {
            return Err(ServeError::BadRequest(format!(
                "{} feature values for {} events of width {}",
                features.len(),
                events.len(),
                dim
            )));
        }
        let num_nodes = self.front.model.num_nodes();
        let mut prev = self.last_time;
        for (i, e) in events.iter().enumerate() {
            if e.src.index() >= num_nodes || e.dst.index() >= num_nodes {
                return Err(ServeError::BadRequest(format!(
                    "event {} references node outside 0..{}",
                    i, num_nodes
                )));
            }
            if !e.time.is_finite() || e.time < prev {
                return Err(ServeError::BadRequest(format!(
                    "event {} breaks time order (t={}, previous {})",
                    i, e.time, prev
                )));
            }
            prev = e.time;
        }

        // The working copy is owned here, not inside the frame loop, so
        // no early return from the loop can drop it: whatever was synced
        // is installed before an error surfaces.
        let mut work = self.reclaim();
        let appended = self.append(&mut work, events, features);
        self.install(work);
        appended?;

        if self.config.snapshot_every > 0 && self.since_snapshot >= self.config.snapshot_every {
            self.snapshot_now()?;
        }
        Ok(IngestAck {
            acked: events.len(),
            total_acked: self.front.events,
        })
    }

    /// Forces a durable state snapshot at the current watermark.
    ///
    /// # Errors
    ///
    /// [`ServeError::Snapshot`] on checkpoint failures.
    fn snapshot_now(&mut self) -> Result<(), ServeError> {
        persist::save_snapshot(
            &self.front.model,
            &self.config.snapshot_path,
            self.front.events as u64,
        )?;
        self.since_snapshot = 0;
        self.shared
            .stats
            .snapshots_written
            .fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// A private copy equal to the front: the retired copy with the
    /// frames it lacks re-applied from their tickets when no reader
    /// holds it (no second updater pass), a clone of the front when one
    /// does.
    fn reclaim(&mut self) -> ServeSnapshot {
        let behind = std::mem::take(&mut self.behind);
        match self.retired.take().map(Arc::try_unwrap) {
            Some(Ok(mut work)) => {
                for f in behind {
                    work.feats.push_rows(&f.rows);
                    work.model
                        .apply_batch(&f.events, f.first_id, &work.feats, f.pending);
                }
                work.events = self.front.events;
                work
            }
            _ => {
                self.shared
                    .stats
                    .publish_copies
                    .fetch_add(1, Ordering::Relaxed);
                (*self.front).clone()
            }
        }
    }

    /// Frames, syncs and applies `events` to `work` one WAL frame at a
    /// time, recording each frame for the copy that lacks it.
    fn append(
        &mut self,
        work: &mut ServeSnapshot,
        events: &[Event],
        features: &[f32],
    ) -> Result<(), ServeError> {
        let dim = work.model.edge_feat_dim();
        let mut done = 0usize;
        while done < events.len() {
            let n = (events.len() - done).min(self.frame_unit);
            let sub = &events[done..done + n];
            let rows = &features[done * dim..(done + n) * dim];
            for (i, e) in sub.iter().enumerate() {
                self.wal.push(*e, &rows[i * dim..(i + 1) * dim])?;
            }
            // Durability point: the frame is on disk before it can
            // influence any served score.
            let acked = self.wal.sync()?;
            self.shared
                .stats
                .events_acked
                .store(acked as u64, Ordering::Relaxed);
            let first_id = work.events;
            work.feats.push_rows(rows);
            let pending = work.model.pending_batch(sub);
            work.model
                .apply_batch(sub, first_id, &work.feats, pending.clone());
            work.events += n;
            self.behind.push(Frame {
                events: sub.to_vec(),
                first_id,
                rows: rows.to_vec(),
                pending,
            });
            self.last_time = sub[n - 1].time;
            self.since_snapshot += n;
            done += n;
        }
        Ok(())
    }

    /// Publishes `work` as the front; the old front becomes the retired
    /// copy, lacking exactly the frames recorded since [`reclaim`].
    ///
    /// [`reclaim`]: Engine::reclaim
    fn install(&mut self, work: ServeSnapshot) {
        let events = work.events;
        let front = Arc::new(work);
        self.shared.publish(front.clone());
        self.retired = Some(std::mem::replace(&mut self.front, front));
        self.shared
            .stats
            .events_published
            .store(events as u64, Ordering::Relaxed);
    }
}
