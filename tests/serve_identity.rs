//! The driver matrix's serve group (DESIGN §12c, machinery in
//! `matrix/mod.rs`): G6, one serving engine that ingests a fixed stream
//! live, then the same engine reopened from its WAL alone, and from its
//! last durable snapshot plus the WAL tail. A serve row's fingerprint is
//! the engine's exported state and the scores of fixed `/predict`
//! queries: adjacency is replayed on open and never exported, so only
//! the scores see it.

#[macro_use]
#[allow(dead_code)] // G6 uses the fingerprint and the group, no driver
mod matrix;

use std::path::{Path, PathBuf};

use cascade_serve::{Engine, EngineConfig};
use cascade_tgraph::NodeId;
use matrix::{cascade, fnv, losses, small, verdict, Fingerprint, Setup};

/// Events per `/ingest` request of the live row.
const REQUEST: usize = 50;

/// A serve row's fingerprint: `batches` counts the applied events,
/// `losses` hashes each `/predict` query's index with its score bits
/// and `state` is FNV of `Engine::export_state`.
fn of_engine(engine: &Engine, s: &Setup) -> Fingerprint {
    let snap = engine.shared().snapshot();
    let events = s.data.stream().events();
    let t = events.last().expect("a non-empty stream").time + 1.0;
    // Every query asks about the stream's last endpoints, which have
    // mail and neighbours, against the same eight candidates.
    let dsts: Vec<NodeId> = events.iter().rev().take(8).map(|e| e.dst).collect();
    let scores = events.iter().rev().take(4).flat_map(|e| {
        snap.model
            .score_links(e.src, &dsts, t, &snap.feats)
            .into_iter()
            .enumerate()
    });
    Fingerprint {
        batches: engine.applied(),
        losses: losses(scores),
        presence: None,
        val_loss: None,
        val_ap: None,
        state: fnv(engine.export_state()),
        optimizer: None,
    }
}

/// A scratch file path, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(what: &str) -> Self {
        let name = format!("cascade-serve-identity-{}-{what}", std::process::id());
        let path = std::env::temp_dir().join(name);
        std::fs::remove_file(&path).ok();
        Scratch(path)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        std::fs::remove_file(&self.0).ok();
    }
}

/// Row 0: the live engine. Recorded on the commit before `MemoryPlane`
/// took over the node-state layout from `memory.rs`.
const G6: Fingerprint = Fingerprint {
    batches: 630,
    losses: 0x5d735dff6d80fa13,
    presence: None,
    val_loss: None,
    val_ap: None,
    state: 0x8478b3e5bc0fd77a,
    optimizer: None,
};

/// Live ingest in 50-event requests over 32-event WAL frames with a
/// snapshot every 200 events; then a reopen from the WAL alone, and one
/// from the last snapshot plus the WAL frames after it.
#[test]
fn g6_a_reopened_engine_serves_the_live_bits() {
    let s = small(cascade);
    let mut g = s.group("G6 serve", G6);
    let (wal, snap, no_snap) = (
        Scratch::new("g6.wal"),
        Scratch::new("g6.ckpt"),
        Scratch::new("g6-none.ckpt"),
    );
    let config = |snap: &Scratch| EngineConfig::new(wal.path(), snap.path()).with_wal_chunk(32);
    let (events, feats) = (s.data.stream().events(), s.data.features());
    let n = events.len();
    {
        let cfg = config(&snap).with_snapshot_every(200);
        let mut live = Engine::open(s.model(), cfg).expect("a fresh engine opens");
        for start in (0..n).step_by(REQUEST) {
            let end = (start + REQUEST).min(n);
            let rows: Vec<f32> = (start..end).flat_map(|i| feats.row(i).to_vec()).collect();
            live.ingest(&events[start..end], &rows).expect("ingest");
        }
        g.row("live", of_engine(&live, &s));
    }
    let wal_only = Engine::open(s.model(), config(&no_snap)).expect("reopens from the WAL");
    let r = wal_only.recovery();
    fact!(g, "WAL alone", r.snapshot_events == 0 && r.wal_events == n);
    g.row("WAL alone", of_engine(&wal_only, &s));
    drop(wal_only);
    let tail = Engine::open(s.model(), config(&snap)).expect("reopens from the snapshot");
    let r = tail.recovery();
    fact!(
        g,
        "snapshot + tail",
        0 < r.snapshot_events && r.snapshot_events < n
    );
    g.row("snapshot + tail", of_engine(&tail, &s));
    verdict([g]);
}
