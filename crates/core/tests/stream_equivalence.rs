//! The loader thread must be visible in the errors: whichever side fails
//! first, `train_streaming` joins the loader and returns what actually
//! went wrong. (That it is invisible in the results is the driver matrix,
//! `tests/identity.rs` at the workspace root.)

use cascade_core::{
    train_streaming, BatchingStrategy, CascadeConfig, CascadeScheduler, TrainConfig,
};
use cascade_models::{MemoryTgnn, ModelConfig};
use cascade_tgraph::{Dataset, EventChunk, EventSource, InMemorySource, SourceError, SynthConfig};

const CHUNK: usize = 128;

/// The loader channel's depth, named in the failure messages.
const DEPTH: usize = 2;

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

fn cascade() -> CascadeScheduler {
    CascadeScheduler::new(CascadeConfig {
        preset_batch_size: 64,
        ..CascadeConfig::default()
    })
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

/// Runs `train_streaming` and hands its error to `check`. Returning at
/// all is half the assertion: the call joins its loader before it
/// returns, so a hang here is a leaked or deadlocked thread.
fn expect_failure<S: EventSource + Send>(
    mut source: impl FnMut() -> S,
    mut strategy: impl FnMut() -> Box<dyn BatchingStrategy>,
    check: impl Fn(&SourceError, usize),
) {
    let data = dataset();
    let mut m = model(&data);
    let err = train_streaming(&mut m, &mut source(), strategy().as_mut(), &cfg())
        .expect_err("the injected fault must surface");
    check(&err, DEPTH);
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
    // Two passes of five chunks are more than a depth-2 channel holds, so
    // the loader is blocked in `send` when the driver gives up.
    let data = dataset();
    assert!(2 * data.num_events().div_ceil(CHUNK) > DEPTH + 2);
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
