//! Out-of-core acceptance: training from a `cascade-store` file through
//! the streaming driver must be **bit-identical** — gradient effects
//! (post-step parameters), node memories, and losses — to in-memory
//! training over the same events with the same chunk geometry, and a
//! run suspended mid-epoch and resumed from its checkpoint must match
//! the uninterrupted run bit for bit.
//!
//! The chunk geometry is the source's. Every comparison therefore keeps
//! a reference that does not share the code under test on the axis it
//! checks: a test-local loop over the train step on the in-memory slice,
//! with no rolling window, where the geometry allows it (any chunking for
//! fixed batching, the stream as one chunk for Cascade), and
//! `InMemorySource` against the store file at equal chunk size.

use cascade_core::{
    evaluate, train, train_streaming, train_streaming_with_options, BatchingStrategy,
    CascadeConfig, CascadeScheduler, FixedBatching, RunFacts, StreamCheckpoint, StreamOptions,
    StreamOutcome, TrainConfig, TrainReport, TrainStep,
};
use cascade_models::{MemoryTgnn, ModelConfig};
use cascade_store::{export_dataset, StreamingEventSource};
use cascade_tgraph::{Dataset, EventSource, InMemorySource, SynthConfig};

const CHUNK: usize = 128;
const MODEL_SEED: u64 = 17;

fn dataset() -> Dataset {
    SynthConfig::wiki().with_scale(0.004).generate(23)
}

fn model(data: &Dataset) -> MemoryTgnn {
    MemoryTgnn::new(
        ModelConfig::tgn().with_dims(8, 4).with_neighbors(3),
        data.num_nodes(),
        data.features().dim(),
        MODEL_SEED,
    )
}

fn cfg() -> TrainConfig {
    TrainConfig {
        epochs: 2,
        eval_batch_size: 64,
        scale_lr_with_batch: true,
        ..TrainConfig::default()
    }
}

fn cascade_strategy() -> CascadeScheduler {
    CascadeScheduler::new(CascadeConfig {
        preset_batch_size: 64,
        ..CascadeConfig::default()
    })
}

fn store_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("cascade-ident-{}-{}.evt", tag, std::process::id()))
}

/// Asserts every result field that must be bit-equal between two runs.
fn assert_bit_identical(a: &TrainReport, b: &TrainReport, what: &str) {
    assert_eq!(a.batch_sizes, b.batch_sizes, "{what}: batch boundaries");
    let a_bits: Vec<u32> = a.batch_losses.iter().map(|x| x.to_bits()).collect();
    let b_bits: Vec<u32> = b.batch_losses.iter().map(|x| x.to_bits()).collect();
    assert_eq!(a_bits, b_bits, "{what}: batch losses");
    let a_ep: Vec<u32> = a.epoch_losses.iter().map(|x| x.to_bits()).collect();
    let b_ep: Vec<u32> = b.epoch_losses.iter().map(|x| x.to_bits()).collect();
    assert_eq!(a_ep, b_ep, "{what}: epoch losses");
    assert_eq!(
        a.val_loss.to_bits(),
        b.val_loss.to_bits(),
        "{what}: validation loss"
    );
    assert_eq!(
        a.val_ap.to_bits(),
        b.val_ap.to_bits(),
        "{what}: validation AP"
    );
    assert_eq!(a.num_batches, b.num_batches, "{what}: batch count");
    assert_eq!(a.max_batch_size, b.max_batch_size, "{what}: largest batch");
    let state_space = |r: &TrainReport| {
        let s = r.space;
        (
            s.model,
            s.memory,
            s.mailbox,
            s.stable_flags,
            s.dependency_table,
        )
    };
    assert_eq!(state_space(a), state_space(b), "{what}: space accounting");
}

/// The rolling window's independent reference, from a fresh model: one
/// `prepare`, then each epoch's batches straight off the dataset's slice
/// through the train step, with no window, chunk or source in between.
/// Returns the report and the model's state.
fn reference(data: &Dataset, strategy: &mut dyn BatchingStrategy) -> (TrainReport, Vec<u8>) {
    let (cfg, mut model) = (cfg(), model(data));
    let (events, n_train) = (data.stream().events(), data.train_range().end);
    let mut step = TrainStep::new(&mut model, &cfg);
    strategy.prepare(&events[..n_train], data.num_nodes());
    for _ in 0..cfg.epochs {
        model.reset_state();
        strategy.reset_epoch();
        let mut start = 0;
        while start < n_train {
            let end = step
                .scan(strategy, start, n_train)
                .expect("a well-formed batch");
            let batch = &events[start..end];
            let out = step
                .run(&mut model, batch, start, data.features())
                .expect("a scalar loss");
            TrainStep::feedback(strategy, &out);
            start = end;
        }
        step.end_epoch();
    }
    let facts = RunFacts {
        dataset: data.name().to_string(),
        graph_bytes: std::mem::size_of_val(events),
        feature_bytes: data.features().size_bytes(),
        val: evaluate(&mut model, data, cfg.eval_batch_size),
    };
    (step.finish(&model, strategy, facts), model.export_state())
}

/// `train_streaming` over `source` from a fresh model: the report and
/// the model's final state.
fn run_source(
    data: &Dataset,
    source: &mut (dyn EventSource + Send),
    strategy: &mut dyn BatchingStrategy,
) -> (TrainReport, Vec<u8>) {
    let mut m = model(data);
    let report = train_streaming(&mut m, source, strategy, &cfg()).expect("streams cleanly");
    (report, m.export_state())
}

fn run_streaming(
    data: &Dataset,
    path: &std::path::Path,
    strategy: &mut dyn BatchingStrategy,
) -> (TrainReport, Vec<u8>) {
    let mut source = StreamingEventSource::open(path, 2).expect("store opens");
    run_source(data, &mut source, strategy)
}

fn run_in_memory_source(
    data: &Dataset,
    chunk: usize,
    strategy: &mut dyn BatchingStrategy,
) -> (TrainReport, Vec<u8>) {
    run_source(
        data,
        &mut InMemorySource::from_dataset(data, chunk),
        strategy,
    )
}

#[test]
fn streaming_cascade_is_bit_identical_to_in_memory() {
    let data = dataset();

    // (a) The stream as one chunk is the in-memory geometry: the
    // store-fed streaming driver must reproduce the reference loop.
    let path = store_path("cascade-one-chunk");
    export_dataset(&data, &path, data.num_events()).expect("export succeeds");
    let (mem, mem_state) = reference(&data, &mut cascade_strategy());
    let (one_chunk, state) = run_streaming(&data, &path, &mut cascade_strategy());
    std::fs::remove_file(&path).ok();
    assert_bit_identical(&mem, &one_chunk, "one-chunk store vs reference");
    // Post-step parameters, node memories, and mailboxes, bit for bit.
    assert_eq!(
        mem_state, state,
        "cascade: model state diverged between streaming and in-memory"
    );
    assert_eq!(one_chunk.strategy, "Cascade");

    // (b) Chunked (Cascade_EX): the in-memory source and the store file
    // must agree at equal chunk size.
    let path = store_path("cascade");
    export_dataset(&data, &path, CHUNK).expect("export succeeds");
    let (from_ram, ram_state) = run_in_memory_source(&data, CHUNK, &mut cascade_strategy());
    let (stream, state) = run_streaming(&data, &path, &mut cascade_strategy());
    std::fs::remove_file(&path).ok();
    assert_bit_identical(&from_ram, &stream, "chunked store vs InMemorySource");
    assert_eq!(ram_state, state, "cascade: chunked model state diverged");
    assert_eq!(stream.strategy, "Cascade_EX");
    assert_ne!(
        stream.batch_sizes, mem.batch_sizes,
        "128-event chunks must cut batches the whole-stream table does not"
    );
    // One chunk's table is resident, not the stream's.
    assert!(stream.space.dependency_table < mem.space.dependency_table);
    // Out-of-core resident events must be a strict subset of the stream.
    assert!(
        stream.space.graph < mem.space.graph,
        "streaming window ({}) not smaller than full stream ({})",
        stream.space.graph,
        mem.space.graph
    );
}

/// Every driver is the same `TrainStep` fed from a different place, so
/// one model/strategy/config must come out of each with the same bits —
/// results, final state, and the report's counters. The test-local
/// reference loop is the yardstick: for fixed batching across 128-event
/// chunks (which holds the rolling window's straddle logic to it), and
/// for Cascade with the stream as one chunk.
#[test]
fn every_driver_shares_one_step() {
    let data = dataset();
    type MakeStrategy<'a> = &'a dyn Fn() -> Box<dyn BatchingStrategy>;
    let strategies: [(&str, MakeStrategy, usize); 2] = [
        (
            "cascade",
            &|| Box::new(cascade_strategy()),
            data.num_events(),
        ),
        ("fixed-48", &|| Box::new(FixedBatching::new(48)), CHUNK),
    ];
    for (name, make, chunk) in strategies {
        let path = store_path(&format!("drivers-{name}"));
        export_dataset(&data, &path, chunk).expect("export succeeds");
        let (expected, expected_state) = reference(&data, make().as_mut());

        // `train` is one chunk, which either strategy's chunking matches.
        let mut m = model(&data);
        let r = train(&mut m, &data, make().as_mut(), &cfg());
        let mut runs: Vec<(&str, TrainReport, Vec<u8>)> = vec![("train", r, m.export_state())];
        let (r, state) = run_in_memory_source(&data, chunk, make().as_mut());
        runs.push(("train_streaming over InMemorySource", r, state));
        let (r, state) = run_streaming(&data, &path, make().as_mut());
        runs.push(("train_streaming over the store", r, state));
        std::fs::remove_file(&path).ok();

        for (driver, report, state) in &runs {
            let what = format!("{name}: {driver} vs the reference loop");
            assert_bit_identical(&expected, report, &what);
            assert_eq!(&expected_state, state, "{what}: model state");
            for (stage, a, b) in [
                ("scan", expected.stages.scan, report.stages.scan),
                ("compute", expected.stages.compute, report.stages.compute),
                ("update", expected.stages.update, report.stages.update),
            ] {
                assert_eq!(a.items, b.items, "{what}: {stage} items");
            }
        }
    }
}

#[test]
fn streaming_fixed_batching_handles_chunk_straddle() {
    let data = dataset();
    let path = store_path("fixed");
    export_dataset(&data, &path, CHUNK).expect("export succeeds");

    // 48 does not divide 128, so batches straddle chunk boundaries and
    // the rolling window must retain straddled prefixes.
    let (mem, mem_state) = reference(&data, &mut FixedBatching::new(48));
    let (stream, state) = run_streaming(&data, &path, &mut FixedBatching::new(48));
    std::fs::remove_file(&path).ok();

    assert_bit_identical(&mem, &stream, "fixed streaming vs in-memory");
    assert_eq!(mem_state, state, "fixed: model state diverged");
}

fn resume_roundtrip(
    data: &Dataset,
    path: &std::path::Path,
    make_strategy: &dyn Fn() -> Box<dyn BatchingStrategy>,
    suspend_at: (usize, usize),
    what: &str,
) {
    let mut s_full = make_strategy();
    let (full, full_state) = run_streaming(data, path, s_full.as_mut());

    // First leg: train until the suspension point, get a checkpoint.
    let mut m1 = model(data);
    let mut src1 = StreamingEventSource::open(path, 2).expect("store opens");
    let mut s1 = make_strategy();
    let outcome = train_streaming_with_options(
        &mut m1,
        &mut src1,
        s1.as_mut(),
        &cfg(),
        StreamOptions {
            suspend_after: Some(suspend_at),
            resume_from: None,
        },
    )
    .expect("first leg streams cleanly");
    let StreamOutcome::Suspended(ck) = outcome else {
        panic!("{what}: run completed without suspending");
    };
    assert_eq!((ck.epoch, ck.chunk), suspend_at);

    // The checkpoint survives serialization (what a file would hold).
    let restored =
        StreamCheckpoint::from_bytes(&ck.to_bytes()).expect("checkpoint bytes roundtrip");
    assert_eq!(restored, *ck);

    // Second leg: fresh model (same constructor seed — the negative
    // sampler key is configuration), fresh strategy, fresh source.
    let mut m2 = model(data);
    let mut src2 = StreamingEventSource::open(path, 2).expect("store reopens");
    let mut s2 = make_strategy();
    let outcome = train_streaming_with_options(
        &mut m2,
        &mut src2,
        s2.as_mut(),
        &cfg(),
        StreamOptions {
            suspend_after: None,
            resume_from: Some(restored),
        },
    )
    .expect("resumed leg streams cleanly");
    let StreamOutcome::Completed(resumed) = outcome else {
        panic!("{what}: resumed run suspended again");
    };

    assert_bit_identical(&full, &resumed, what);
    assert_eq!(
        full_state,
        m2.export_state(),
        "{what}: model state diverged after resume"
    );
}

#[test]
fn mid_epoch_resume_matches_uninterrupted_cascade() {
    let data = dataset();
    let path = store_path("resume-cascade");
    export_dataset(&data, &path, CHUNK).expect("export succeeds");
    // Suspend in the second epoch at chunk 1: the restored scheduler
    // must carry Max_r, ABS convergence state, and stable flags over.
    resume_roundtrip(
        &data,
        &path,
        &|| Box::new(cascade_strategy()),
        (1, 1),
        "cascade resume",
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn mid_epoch_resume_matches_uninterrupted_fixed_straddle() {
    let data = dataset();
    let path = store_path("resume-fixed");
    export_dataset(&data, &path, CHUNK).expect("export succeeds");
    // Batch size 48 straddles the 128-event chunk boundary, so the
    // checkpoint's start_event lies inside chunk 1 and resume must
    // replay the processed prefix of that chunk.
    resume_roundtrip(
        &data,
        &path,
        &|| Box::new(FixedBatching::new(48)),
        (1, 1),
        "fixed straddle resume",
    );
    std::fs::remove_file(&path).ok();
}
