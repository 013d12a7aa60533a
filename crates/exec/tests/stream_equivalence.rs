//! The loader thread must be invisible in the results — streaming with
//! it is bit-identical to streaming without it, from a store file or an
//! in-memory source, at any read-ahead depth — and visible in the
//! errors: whichever side fails first, `train_streamed` joins the loader
//! and returns what actually went wrong.

use cascade_core::{
    train, train_streaming, BatchingStrategy, CascadeConfig, CascadeScheduler, FixedBatching,
    TrainConfig, TrainReport,
};
use cascade_exec::{train_streamed, PipelineConfig};
use cascade_models::{MemoryTgnn, ModelConfig};
use cascade_store::{export_dataset, StreamingEventSource};
use cascade_tgraph::{Dataset, EventChunk, EventSource, InMemorySource, SourceError, SynthConfig};
use std::time::Duration;

const CHUNK: usize = 128;

fn dataset() -> Dataset {
    SynthConfig::wiki().with_scale(0.004).generate(29)
}

fn model(data: &Dataset) -> MemoryTgnn {
    MemoryTgnn::new(
        ModelConfig::tgn().with_dims(8, 4).with_neighbors(3),
        data.num_nodes(),
        data.features().dim(),
        11,
    )
}

fn cfg() -> TrainConfig {
    TrainConfig {
        epochs: 2,
        eval_batch_size: 64,
        ..TrainConfig::default()
    }
}

fn assert_same_results(a: &TrainReport, b: &TrainReport, what: &str) {
    assert_eq!(a.batch_sizes, b.batch_sizes, "{what}: batch boundaries");
    let a_bits: Vec<u32> = a.batch_losses.iter().map(|x| x.to_bits()).collect();
    let b_bits: Vec<u32> = b.batch_losses.iter().map(|x| x.to_bits()).collect();
    assert_eq!(a_bits, b_bits, "{what}: batch losses");
    assert_eq!(
        a.val_loss.to_bits(),
        b.val_loss.to_bits(),
        "{what}: val loss"
    );
}

fn cascade() -> CascadeScheduler {
    CascadeScheduler::new(CascadeConfig {
        preset_batch_size: 64,
        ..CascadeConfig::default()
    })
}

fn streamed_run(
    data: &Dataset,
    path: &std::path::Path,
    strategy: &mut dyn BatchingStrategy,
    pipe: &PipelineConfig,
) -> (TrainReport, Vec<u8>) {
    let mut m = model(data);
    let mut src = StreamingEventSource::open(path, 2).expect("store opens");
    let r = train_streamed(&mut m, &mut src, strategy, &cfg(), pipe).expect("pipelined stream");
    (r, m.export_state())
}

#[test]
fn pipelined_streaming_matches_serial_streaming_and_in_memory() {
    let data = dataset();
    let path = std::env::temp_dir().join(format!("cascade-exec-stream-{}.evt", std::process::id()));
    export_dataset(&data, &path, CHUNK).expect("export succeeds");
    // The in-memory side of the comparison: the same chunk geometry,
    // fed from RAM through the serial driver.
    let mut m_mem = model(&data);
    let mut s_mem = cascade();
    let mut in_memory = InMemorySource::from_dataset(&data, CHUNK);
    let mem = train_streaming(&mut m_mem, &mut in_memory, &mut s_mem, &cfg()).expect("in-memory");

    let mut m_ser = model(&data);
    let mut src = StreamingEventSource::open(&path, 2).expect("store opens");
    let mut s_ser = cascade();
    let serial = train_streaming(&mut m_ser, &mut src, &mut s_ser, &cfg()).expect("serial stream");

    let mut s_pipe = cascade();
    let (piped, piped_state) = streamed_run(&data, &path, &mut s_pipe, &PipelineConfig::default());
    std::fs::remove_file(&path).ok();

    assert_same_results(&mem, &serial, "serial streaming vs in-memory");
    assert_same_results(&serial, &piped, "pipelined vs serial streaming");
    assert_eq!(
        m_ser.export_state(),
        piped_state,
        "model state diverged between serial and pipelined streaming"
    );
    assert_eq!(
        m_mem.export_state(),
        piped_state,
        "pipelined vs in-memory state"
    );
    // The loader's table builds ran off the critical path, and only one
    // chunk's table was ever resident on either side.
    assert_eq!(s_ser.timers().background_build, Duration::ZERO);
    assert!(s_ser.timers().build_table > Duration::ZERO);
    assert!(s_pipe.timers().background_build > Duration::ZERO);
    assert_eq!(s_pipe.timers().build_table, Duration::ZERO);
    assert_eq!(piped.strategy, "Cascade_EX");
    assert_eq!(piped.space.dependency_table, serial.space.dependency_table);
    assert_eq!(piped.space.dependency_table, mem.space.dependency_table);
}

/// One whole-stream chunk is the in-memory trainer's geometry: the
/// loader path then reproduces `train` itself.
#[test]
fn one_chunk_streamed_matches_train() {
    let data = dataset();
    let mut m_ref = model(&data);
    let reference = train(&mut m_ref, &data, &mut cascade(), &cfg());

    let mut m = model(&data);
    let mut source = InMemorySource::from_dataset(&data, data.num_events());
    let streamed = train_streamed(
        &mut m,
        &mut source,
        &mut cascade(),
        &cfg(),
        &PipelineConfig::default(),
    )
    .expect("streams cleanly");
    assert_same_results(&reference, &streamed, "one-chunk streamed vs train");
    assert_eq!(m_ref.export_state(), m.export_state());
    assert_eq!(streamed.strategy, "Cascade");
    assert_eq!(
        reference.space.dependency_table,
        streamed.space.dependency_table
    );
}

#[test]
fn pipelined_streaming_depth_does_not_change_results() {
    let data = dataset();
    let path = std::env::temp_dir().join(format!("cascade-exec-depth-{}.evt", std::process::id()));
    export_dataset(&data, &path, CHUNK).expect("export succeeds");

    // 48 does not divide 128, so batches straddle chunks the loader may
    // or may not have delivered yet, depending on the depth.
    let mut m_ser = model(&data);
    let mut src = StreamingEventSource::open(&path, 2).expect("store opens");
    let serial = train_streaming(&mut m_ser, &mut src, &mut FixedBatching::new(48), &cfg())
        .expect("serial stream");
    for depth in [1, 2, 4] {
        let pipe = PipelineConfig::default().with_depth(depth);
        let (piped, state) = streamed_run(&data, &path, &mut FixedBatching::new(48), &pipe);
        assert_same_results(&serial, &piped, &format!("depth {depth} vs serial"));
        assert_eq!(m_ser.export_state(), state, "model state at depth {depth}");
    }
    std::fs::remove_file(&path).ok();
}

// ---- failure paths: every one must *return*, loader joined ------------

/// What a [`Faulty`] source does when asked for chunk `at`.
#[derive(Clone, Copy)]
enum Fault {
    Error,
    Panic,
    EndOfStream,
}

/// An in-memory source that misbehaves at one chunk.
struct Faulty {
    inner: InMemorySource,
    at: usize,
    fault: Fault,
    served: usize,
}

impl Faulty {
    fn new(data: &Dataset, at: usize, fault: Fault) -> Self {
        Faulty {
            inner: InMemorySource::from_dataset(data, CHUNK),
            at,
            fault,
            served: 0,
        }
    }
}

impl EventSource for Faulty {
    fn num_nodes(&self) -> usize {
        self.inner.num_nodes()
    }
    fn num_events(&self) -> usize {
        self.inner.num_events()
    }
    fn feature_dim(&self) -> usize {
        self.inner.feature_dim()
    }
    fn chunk_size(&self) -> usize {
        self.inner.chunk_size()
    }
    fn next_chunk(&mut self) -> Result<Option<EventChunk>, SourceError> {
        if self.served == self.at {
            match self.fault {
                Fault::Error => return Err(SourceError::at_chunk(self.at, "injected read error")),
                Fault::Panic => panic!("injected panic in next_chunk"),
                Fault::EndOfStream => return Ok(None),
            }
        }
        self.served += 1;
        self.inner.next_chunk()
    }
    fn reset(&mut self) -> Result<(), SourceError> {
        self.served = 0;
        self.inner.reset()
    }
}

/// Runs `train_streamed` at read-ahead depths 1 and 4 and hands each
/// error to `check`. Returning at all is half the assertion: the call
/// joins its loader before it returns, so a hang here is a leaked or
/// deadlocked thread.
fn expect_failure<S: EventSource + Send>(
    mut source: impl FnMut() -> S,
    mut strategy: impl FnMut() -> Box<dyn BatchingStrategy>,
    check: impl Fn(&SourceError, usize),
) {
    let data = dataset();
    for depth in [1, 4] {
        let mut m = model(&data);
        let pipe = PipelineConfig::default().with_depth(depth);
        let err = train_streamed(&mut m, &mut source(), strategy().as_mut(), &cfg(), &pipe)
            .expect_err("the injected fault must surface");
        check(&err, depth);
    }
}

#[test]
fn source_error_reaches_the_caller_with_its_chunk() {
    let data = dataset();
    expect_failure(
        || Faulty::new(&data, 2, Fault::Error),
        || Box::new(cascade()),
        |err, depth| {
            assert_eq!(
                err,
                &SourceError::at_chunk(2, "injected read error"),
                "depth {depth}"
            );
        },
    );
}

#[test]
fn loader_panic_is_reported_as_a_loader_panic() {
    let data = dataset();
    expect_failure(
        || Faulty::new(&data, 2, Fault::Panic),
        || Box::new(cascade()),
        |err, depth| {
            let text = err.to_string();
            assert!(
                text.contains("loader thread panicked"),
                "depth {depth}: {text}"
            );
            assert!(
                text.contains("injected panic in next_chunk"),
                "depth {depth}: {text}"
            );
            assert!(!text.contains("stream ended"), "depth {depth}: {text}");
        },
    );
}

#[test]
fn short_stream_is_reported_at_the_event_it_ended_on() {
    let data = dataset();
    expect_failure(
        || Faulty::new(&data, 2, Fault::EndOfStream),
        || Box::new(cascade()),
        |err, depth| {
            assert_eq!(err.chunk, None, "depth {depth}");
            let expected = format!("stream ended at event {}", 2 * CHUNK);
            assert!(err.message.contains(&expected), "depth {depth}: {err}");
        },
    );
}

/// A strategy that keeps the trait's default `prepare_streaming`: it
/// does not speak the chunk protocol.
struct Unchunked;

impl BatchingStrategy for Unchunked {
    fn name(&self) -> String {
        "Unchunked".to_string()
    }
    fn next_batch_end(&mut self, _start: usize, limit: usize) -> usize {
        limit
    }
}

#[test]
fn strategy_that_cannot_stream_is_refused_by_name() {
    let data = dataset();
    expect_failure(
        || InMemorySource::from_dataset(&data, CHUNK),
        || Box::new(Unchunked),
        |err, depth| {
            assert_eq!(
                err,
                &SourceError::new("strategy Unchunked does not support streaming"),
                "depth {depth}"
            );
        },
    );
}

/// A strategy that answers every scan with an empty batch.
struct Stuck;

impl BatchingStrategy for Stuck {
    fn name(&self) -> String {
        "Stuck".to_string()
    }
    fn next_batch_end(&mut self, start: usize, _limit: usize) -> usize {
        start
    }
    fn prepare_streaming(&mut self, _: usize, _: usize, _: usize) -> bool {
        true
    }
}

/// The driver fails on its first scan, while the loader is parked on a
/// full channel with most of the stream still unread.
#[test]
fn driver_failure_releases_a_loader_parked_on_a_full_channel() {
    // Two passes of five chunks are more than a depth-4 channel holds, so
    // the loader is blocked in `send` when the driver gives up.
    let data = dataset();
    assert!(2 * data.num_events().div_ceil(CHUNK) > 4 + 2);
    expect_failure(
        || InMemorySource::from_dataset(&data, CHUNK),
        || Box::new(Stuck),
        |err, depth| {
            assert!(
                err.message
                    .contains("strategy Stuck ended the batch starting at event 0 at 0"),
                "depth {depth}: {err}"
            );
        },
    );
}
