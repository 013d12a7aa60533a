//! The driver matrix's streaming groups (DESIGN §12c, machinery in
//! `matrix/mod.rs`): G2, fixed batches of 48, which no chunking can see,
//! and G3, Cascade_EX at 128-event chunks. Each group's resume row is a
//! test of its own, held to the same pin as the uninterrupted rows.

#[macro_use]
mod matrix;

use cascade_core::{
    train, train_streaming_with_options, FixedBatching, StreamCheckpoint, StreamOptions,
    StreamOutcome,
};
use matrix::{cascade, small, verdict, Fingerprint, Setup};

/// Holds to `pin` a store-fed run at 128-event chunks suspended after
/// chunk 1 of epoch 1, its checkpoint round-tripped through bytes, and
/// finished from it with a fresh model (same constructor seed: the
/// negative sampler key is configuration), strategy and source.
fn resume(s: &Setup, name: &str, pin: Fingerprint) {
    let (mut g, store) = (s.group(name, pin), s.store(128));
    let leg = |opts| {
        let (mut m, mut source, strategy) = (s.model(), store.open(), &mut *(s.strategy)());
        let run = train_streaming_with_options(&mut m, &mut source, strategy, &s.cfg, opts);
        (run.expect("streams cleanly"), m)
    };
    let (first, _) = leg(StreamOptions {
        suspend_after: Some((1, 1)),
        resume_from: None,
    });
    let StreamOutcome::Suspended(ck) = first else {
        panic!("the run completed without suspending");
    };
    let restored = StreamCheckpoint::from_bytes(&ck.to_bytes()).expect("decodes");
    fact!(g, "resume", (ck.epoch, ck.chunk) == (1, 1));
    fact!(g, "resume", restored == *ck);
    let (second, model) = leg(StreamOptions {
        suspend_after: None,
        resume_from: Some(restored),
    });
    let StreamOutcome::Completed(report) = second else {
        panic!("the resumed run suspended again");
    };
    // The resumed leg's stages count its own batches only.
    g.row("resume", Fingerprint::of_report(&report, &model));
    verdict([g]);
}

/// Row 0: the reference loop.
const G2: Fingerprint = Fingerprint {
    batches: 20,
    losses: 0xc4db68be4b034ec2,
    presence: Some(0xe4f835cc8572972d),
    val_loss: Some(0x3f381350),
    val_ap: Some(0x3ef4dc8c),
    state: 0x70fd6dc33a3abb7f,
    optimizer: Some(0x8f170e6672933f20),
};

/// Fixed batching ignores chunk ends, so every chunking is the reference
/// loop's: 48 straddles 37- and 128-event chunks, and the rolling window
/// keeps the straddled prefixes.
#[test]
fn streaming_fixed_batching_handles_chunk_straddle() {
    let s = small(|| Box::new(FixedBatching::new(48)));
    let mut g = s.group("G2 fixed-48", G2);
    g.reference(false);
    g.train("train", 2);
    g.stream("InMemorySource 37", s.chunks(37), 2);
    g.stream("InMemorySource 128", s.chunks(128), 2);
    g.stream("InMemorySource whole", s.chunks(s.data.num_events()), 2);
    g.stream("store 128", s.store(128).open(), 2);
    g.train("train 4 threads", 4);
    verdict([g]);
}

/// The checkpoint's first event lies inside chunk 1, so resume replays
/// that chunk's processed prefix.
#[test]
fn mid_epoch_resume_matches_uninterrupted_fixed_straddle() {
    resume(
        &small(|| Box::new(FixedBatching::new(48))),
        "G2 fixed-48",
        G2,
    );
}

/// Row 0: `InMemorySource` at 128-event chunks, two threads.
const G3: Fingerprint = Fingerprint {
    batches: 14,
    losses: 0xa4835cb92c092723,
    presence: None,
    val_loss: Some(0x3f38d3f4),
    val_ap: Some(0x3f0193fb),
    state: 0x8144344af315f8ac,
    optimizer: None,
};

/// The store and `InMemorySource` at equal chunks, at any thread count.
/// The loader builds each chunk's table while the previous chunk trains.
/// (The store as one chunk against the reference loop is a G1 row.)
#[test]
fn streaming_cascade_is_bit_identical_to_in_memory() {
    let s = small(cascade);
    let mut g = s.group("G3 Cascade_EX-128", G3);
    let (ram, _) = g.stream("InMemorySource 128", s.chunks(128), 2);
    let (stored, timers) = g.stream("store 128", s.store(128).open(), 2);
    g.stream("1 thread", s.chunks(128), 1);
    let (wide, _) = g.stream("4 threads", s.chunks(128), 4);

    fact!(g, "store 128", stored.strategy == "Cascade_EX");
    fact!(g, "store 128", timers.build_table.is_zero());
    fact!(g, "store 128", !timers.background_build.is_zero());
    let table = stored.space.dependency_table;
    fact!(g, "store 128", table == ram.space.dependency_table);
    fact!(g, "4 threads", !wide.stages.shard_compute.is_empty());
    // Against the stream as one chunk: chunks cut batches the whole
    // stream's table does not, and only one chunk's table and window are
    // resident.
    let whole = train(&mut s.model(), &s.data, &mut *(s.strategy)(), &s.cfg);
    fact!(g, "store 128", stored.batch_sizes != whole.batch_sizes);
    fact!(g, "store 128", table < whole.space.dependency_table);
    fact!(g, "store 128", stored.space.graph < whole.space.graph);
    verdict([g]);
}

/// At a preset of 32, `Max_r` cuts batches inside a chunk, so the resume
/// row holds `import_state` to its word: a scheduler that lost its state
/// would profile chunk 1 afresh and cut other batches.
#[test]
fn mid_epoch_resume_matches_uninterrupted_cascade() {
    resume(&small(cascade), "G3 Cascade_EX-128", G3);
}
