//! Read-path consistency: predict handlers score against frozen
//! snapshots, so a concurrent reader can only ever observe one of the
//! states the single-writer ingest thread actually published — never a
//! torn intermediate — and each published state scores bit-identically
//! to offline scoring of the same event prefix.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use cascade_models::{MemoryTgnn, ModelConfig};
use cascade_serve::{Engine, EngineConfig};
use cascade_tgraph::{EdgeFeatures, Event, NodeId};

const NODES: usize = 10;
const FEAT_DIM: usize = 3;
const QUERY_TIME: f64 = 1.0e6;

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("cascade_serve_consistency_tests");
    std::fs::create_dir_all(&dir).unwrap();
    let p = dir.join(format!("{}_{}", std::process::id(), name));
    std::fs::remove_file(&p).ok();
    p
}

fn base_model() -> MemoryTgnn {
    MemoryTgnn::new(ModelConfig::jodie().with_dims(8, 4), NODES, FEAT_DIM, 9)
}

fn batch(range: std::ops::Range<usize>) -> (Vec<Event>, Vec<f32>) {
    let events: Vec<Event> = range
        .clone()
        .map(|i| Event::new((i % NODES) as u32, ((i * 7 + 2) % NODES) as u32, i as f64))
        .collect();
    let feats: Vec<f32> = range
        .flat_map(|i| (0..FEAT_DIM).map(move |j| ((i + j) % 13) as f32 * 0.05))
        .collect();
    (events, feats)
}

fn query(model: &MemoryTgnn, feats: &EdgeFeatures) -> Vec<f32> {
    let dsts: Vec<NodeId> = (1..5).map(|d| NodeId(d as u32)).collect();
    model.score_links(NodeId(0), &dsts, QUERY_TIME, feats)
}

/// Expected scores per watermark, computed from a sequential reference
/// run over the same batches (same sub-batch boundaries: the engine's
/// WAL frame unit).
fn expected_scores(total: usize, per: usize, frame: usize) -> BTreeMap<usize, Vec<f32>> {
    let mut model = base_model();
    let mut feats = EdgeFeatures::new(Vec::new(), FEAT_DIM);
    let mut map = BTreeMap::new();
    map.insert(0, query(&model, &feats));
    let mut at = 0;
    while at < total {
        let hi = (at + per).min(total);
        let (events, rows) = batch(at..hi);
        // Mirror the engine: apply in sub-batches of the frame unit.
        let mut done = 0;
        while done < events.len() {
            let n = (events.len() - done).min(frame);
            let sub = &events[done..done + n];
            feats.push_rows(&rows[done * FEAT_DIM..(done + n) * FEAT_DIM]);
            let fwd = model.forward_batch(sub, at + done, &feats);
            model.apply_batch(sub, at + done, &feats, fwd.pending);
            done += n;
        }
        // Snapshots publish only at ingest-call boundaries.
        map.insert(hi, query(&model, &feats));
        at = hi;
    }
    map
}

#[test]
fn concurrent_predicts_only_ever_see_published_states() {
    const TOTAL: usize = 48;
    const PER: usize = 8;
    const FRAME: usize = 4;

    let wal = tmp("concurrent.wal");
    let snap = tmp("concurrent.ckpt");
    let expected = expected_scores(TOTAL, PER, FRAME);

    let mut engine = Engine::open(
        base_model(),
        EngineConfig::new(&wal, &snap).with_wal_chunk(FRAME),
    )
    .unwrap();
    let shared = engine.shared();
    let stop = Arc::new(AtomicBool::new(false));

    // Reader threads hammer the snapshot while ingest runs, recording
    // every (watermark, scores) pair they observe.
    let mut readers = Vec::new();
    for _ in 0..3 {
        let shared = shared.clone();
        let stop = stop.clone();
        readers.push(std::thread::spawn(move || {
            let mut seen: Vec<(usize, Vec<f32>)> = Vec::new();
            while !stop.load(Ordering::Relaxed) {
                let snap = shared.snapshot();
                seen.push((snap.events, query(&snap.model, &snap.feats)));
            }
            seen
        }));
    }

    let mut at = 0;
    while at < TOTAL {
        let (events, feats) = batch(at..at + PER);
        engine.ingest(&events, &feats).unwrap();
        at += PER;
    }
    stop.store(true, Ordering::Relaxed);

    let mut observations = 0usize;
    let mut watermarks = std::collections::BTreeSet::new();
    for r in readers {
        for (events, scores) in r.join().unwrap() {
            let want = expected
                .get(&events)
                .unwrap_or_else(|| panic!("snapshot at unpublished watermark {}", events));
            assert_eq!(
                &scores, want,
                "torn or non-deterministic read at watermark {}",
                events
            );
            watermarks.insert(events);
            observations += 1;
        }
    }
    assert!(observations > 0, "readers actually ran");
    assert!(
        watermarks.len() > 1 || observations < 3,
        "readers should observe the state advancing (saw {:?})",
        watermarks
    );
    std::fs::remove_file(&wal).ok();
}

/// The single writer runs its memory updater on its own thread: a model
/// trained at four compute threads is served at one, so an ingest never
/// fans out onto the cores the predict handlers run on.
#[test]
fn the_writer_runs_the_updater_on_its_own_thread() {
    let wal = tmp("threads.wal");
    let mut model = base_model();
    model.set_compute_threads(4);
    let mut engine = Engine::open(model, EngineConfig::new(&wal, tmp("threads.ckpt"))).unwrap();
    let (events, feats) = batch(0..6);
    engine.ingest(&events, &feats).unwrap();
    assert_eq!(engine.shared().snapshot().model.compute_threads(), 1);
    std::fs::remove_file(&wal).ok();
}

#[test]
fn served_snapshot_scores_match_offline_scoring_bitwise() {
    const TOTAL: usize = 24;
    const PER: usize = 6;
    const FRAME: usize = 6;

    let wal = tmp("frozen.wal");
    let snap = tmp("frozen.ckpt");
    let expected = expected_scores(TOTAL, PER, FRAME);

    let mut engine = Engine::open(
        base_model(),
        EngineConfig::new(&wal, &snap).with_wal_chunk(FRAME),
    )
    .unwrap();
    let shared = engine.shared();

    let mut at = 0;
    while at < TOTAL {
        let (events, feats) = batch(at..at + PER);
        engine.ingest(&events, &feats).unwrap();
        at += PER;

        // The snapshot is frozen: scoring it repeatedly gives the same
        // bits, and those bits equal the offline reference.
        let snap = shared.snapshot();
        assert_eq!(snap.events, at);
        let first = query(&snap.model, &snap.feats);
        assert_eq!(first, query(&snap.model, &snap.feats), "re-scoring moved");
        assert_eq!(&first, &expected[&at], "served != offline at {}", at);
    }
    std::fs::remove_file(&wal).ok();
}

#[test]
fn old_snapshots_stay_valid_after_further_ingest() {
    let wal = tmp("held.wal");
    let snap = tmp("held.ckpt");

    let mut engine = Engine::open(
        base_model(),
        EngineConfig::new(&wal, &snap).with_wal_chunk(4),
    )
    .unwrap();
    let shared = engine.shared();

    let (e1, f1) = batch(0..8);
    engine.ingest(&e1, &f1).unwrap();
    let held = shared.snapshot();
    let before = query(&held.model, &held.feats);

    // A reader holding the old Arc is untouched by later ingest.
    let (e2, f2) = batch(8..16);
    engine.ingest(&e2, &f2).unwrap();
    assert_eq!(held.events, 8);
    assert_eq!(query(&held.model, &held.feats), before);
    assert_eq!(shared.snapshot().events, 16);
    std::fs::remove_file(&wal).ok();
}

/// The engine keeps two copies and writes the one published before the
/// current: a reader still holding that copy makes the engine clone the
/// front instead, and once the reader lets go the copy is reused again.
/// Every published state, down either path, scores like the offline
/// reference.
#[test]
fn a_held_retired_snapshot_forces_one_copy_then_reuse_resumes() {
    const PER: usize = 8;
    const FRAME: usize = 4;
    let wal = tmp("reuse.wal");
    let snap = tmp("reuse.ckpt");
    let expected = expected_scores(6 * PER, PER, FRAME);

    let mut engine = Engine::open(
        base_model(),
        EngineConfig::new(&wal, &snap).with_wal_chunk(FRAME),
    )
    .unwrap();
    let shared = engine.shared();
    let copies = || shared.stats.publish_copies.load(Ordering::Relaxed);
    let mut at = 0;
    let mut ingest = |engine: &mut Engine| {
        let (events, feats) = batch(at..at + PER);
        engine.ingest(&events, &feats).unwrap();
        at += PER;
        let front = shared.snapshot();
        assert_eq!(front.events, at);
        assert_eq!(
            query(&front.model, &front.feats),
            expected[&at],
            "served != offline at {}",
            at
        );
    };

    // The first request has no second copy yet.
    ingest(&mut engine);
    assert_eq!(copies(), 1);
    let held = shared.snapshot();
    let frozen = query(&held.model, &held.feats);

    // Next request: the copy published before `held` is free — reused.
    ingest(&mut engine);
    assert_eq!(copies(), 1, "a free retired copy is reused, not cloned");
    // Now `held` is the retired copy, and a reader has it.
    ingest(&mut engine);
    assert_eq!(copies(), 2, "a held retired copy falls back to a clone");
    assert_eq!(held.events, PER);
    assert_eq!(query(&held.model, &held.feats), frozen, "held state moved");

    drop(held);
    for _ in 0..3 {
        ingest(&mut engine);
    }
    assert_eq!(copies(), 2, "reuse resumes once the reader lets go");
    std::fs::remove_file(&wal).ok();
}
