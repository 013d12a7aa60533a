//! Streaming training with a loader thread: it pulls chunks from an
//! [`EventSource`] and builds the next chunk's dependency table while the
//! driver trains on the current one, so chunk `k + 1`'s I/O and table
//! construction overlap chunk `k`'s model compute. This is the paper's
//! chunk variant (Cascade_EX, §4.2) for any source — a store file, or an
//! in-memory dataset behind `InMemorySource`.
//!
//! ```text
//!            chunks + prebuilt tables (sync_channel, capacity = depth)
//!   ┌────────────┐ ─────────────────────────────────► ┌──────────────┐
//!   │ loader     │                                    │    driver    │
//!   │ stage L:   │                                    │ scan/compute │
//!   │ read chunk │                                    │ /update per  │
//!   │ + build    │                                    │ batch (the   │
//!   │ dep. table │                                    │ core driver) │
//!   └────────────┘                                    └──────────────┘
//! ```
//!
//! The driver is [`cascade_core::train_streaming_with_provider`] — the
//! exact code path serial streaming uses — fed through a channel-backed
//! [`ChunkProvider`]. Prefetching therefore changes wall-clock only:
//! results are bit-identical to serial streaming by construction.
//! Table-build time moves from the strategy's critical-path
//! `build_table` timer to its `background_build` timer, which
//! `cascade-bench`'s modelled latency credits back.
//!
//! The loader is a scoped thread, joined before [`train_streamed`]
//! returns on every path: each side only blocks on the channel the other
//! owns, so whichever fails first disconnects it and the survivor exits.

// cascade-lint: allow-file(det-wallclock): Instant readings time background table builds for telemetry; chunk order and batch boundaries derive purely from event data.
use std::sync::mpsc::sync_channel;
use std::time::Instant;

use cascade_core::{
    announce_chunks, train_streaming_with_provider, BatchingStrategy, ChunkProvider, PrebuiltTable,
    ProvidedChunk, StreamMeta, StreamOptions, StreamOutcome, TableSpec, TrainConfig, TrainReport,
};
use cascade_models::MemoryTgnn;
use cascade_tgraph::{chronological_split, EventSource, SourceError};

use crate::pipeline::PipelineConfig;

/// What the loader thread sends the driver.
enum LoaderMsg {
    /// The next chunk of the current pass.
    Chunk(ProvidedChunk),
    /// The current pass is exhausted; the next message starts the next.
    EndOfPass,
    /// The source failed; the loader has exited.
    Failed(SourceError),
}

/// Channel-backed provider the core streaming driver pulls from.
struct LoaderProvider {
    rx: std::sync::mpsc::Receiver<LoaderMsg>,
}

impl ChunkProvider for LoaderProvider {
    fn next(&mut self) -> Result<Option<ProvidedChunk>, SourceError> {
        match self.rx.recv() {
            Ok(LoaderMsg::Chunk(c)) => Ok(Some(c)),
            // A disconnect is the loader gone without a word: it
            // panicked, and `train_streamed` reports that from the join
            // in place of the driver's "stream ended".
            Ok(LoaderMsg::EndOfPass) | Err(_) => Ok(None),
            Ok(LoaderMsg::Failed(e)) => Err(e),
        }
    }

    fn reset(&mut self) -> Result<(), SourceError> {
        // The driver may leave a pass early; skip to the next pass mark.
        loop {
            match self.rx.recv() {
                Ok(LoaderMsg::Chunk(_)) => continue,
                Ok(LoaderMsg::EndOfPass) => return Ok(()),
                Ok(LoaderMsg::Failed(e)) => return Err(e),
                Err(_) => {
                    return Err(SourceError::new(
                        "chunk loader exited before the pass ended",
                    ))
                }
            }
        }
    }
}

/// The loader side: reads chunks pass by pass, building each training
/// chunk's dependency table (truncated at the training split, exactly as
/// the driver would) off the critical path. The final pass continues
/// through the validation range so the driver's evaluation can stream.
fn run_loader(
    source: &mut dyn EventSource,
    tx: &std::sync::mpsc::SyncSender<LoaderMsg>,
    spec: Option<TableSpec>,
    epochs: usize,
    n_train: usize,
    val_end: usize,
) {
    for pass in 0..epochs {
        if pass > 0 {
            if let Err(e) = source.reset() {
                let _ = tx.send(LoaderMsg::Failed(e));
                return;
            }
        }
        let pass_end = if pass + 1 == epochs { val_end } else { n_train };
        loop {
            match source.next_chunk() {
                Ok(Some(chunk)) => {
                    if chunk.base >= pass_end {
                        break;
                    }
                    let prebuilt = spec.filter(|_| chunk.base < n_train).map(|spec| {
                        let train_events =
                            &chunk.events[..chunk.events.len().min(n_train - chunk.base)];
                        let t0 = Instant::now();
                        let table = spec.build(chunk.base, train_events);
                        PrebuiltTable {
                            table,
                            work: t0.elapsed(),
                        }
                    });
                    let msg = LoaderMsg::Chunk(ProvidedChunk {
                        index: chunk.index,
                        base: chunk.base,
                        events: chunk.events,
                        features: chunk.features,
                        prebuilt,
                    });
                    if tx.send(msg).is_err() {
                        return; // driver gone (done or failed): stop quietly
                    }
                }
                Ok(None) => break, // short stream: driver reports the shortfall
                Err(e) => {
                    let _ = tx.send(LoaderMsg::Failed(e));
                    return;
                }
            }
        }
        if tx.send(LoaderMsg::EndOfPass).is_err() {
            return;
        }
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "no message".to_string()
    }
}

/// Trains `model` from `source` with chunk prefetch and background
/// dependency-table construction ([`PipelineConfig::depth`] chunks of
/// read-ahead). Bit-identical to [`cascade_core::train_streaming`] over
/// the same source because the same driver consumes the chunks; only the
/// overlap differs.
///
/// # Errors
///
/// As [`cascade_core::train_streaming`]: the source's own
/// [`SourceError`] (I/O, corruption) with its chunk index, an early end
/// of the stream, or a strategy that cannot stream. A panic on the
/// loader thread (inside the source, or a table build) is caught at the
/// join and returned as an error naming the loader and carrying the
/// panic message.
pub fn train_streamed<S: EventSource + Send>(
    model: &mut MemoryTgnn,
    source: &mut S,
    strategy: &mut dyn BatchingStrategy,
    cfg: &TrainConfig,
    pipe: &PipelineConfig,
) -> Result<TrainReport, SourceError> {
    let meta = StreamMeta::of(source);
    let (n_train, val_end) = chronological_split(meta.num_events);
    let chunk_size = meta.chunk_size.max(1);

    // The run is this call's: announce its geometry here, before the
    // loader needs the strategy's table recipe.
    announce_chunks(strategy, n_train, meta.num_nodes, chunk_size)?;
    let spec = strategy.table_spec();
    let epochs = cfg.epochs;

    let (tx, rx) = sync_channel::<LoaderMsg>(pipe.depth.max(1));
    let outcome = std::thread::scope(|s| {
        let loader = s.spawn(move || {
            run_loader(source, &tx, spec, epochs, n_train, val_end);
        });
        let mut provider = LoaderProvider { rx };
        let result = train_streaming_with_provider(
            model,
            &meta,
            &mut provider,
            strategy,
            cfg,
            StreamOptions::default(),
        );
        // Dropping the provider disconnects the channel, so a loader
        // still producing (driver failed early) exits on its next send.
        drop(provider);
        match loader.join() {
            Ok(()) => result,
            // The driver's own error, if any, is the secondary "stream
            // ended" it saw when the channel went quiet.
            Err(payload) => Err(SourceError::new(format!(
                "chunk loader thread panicked: {}",
                panic_message(payload)
            ))),
        }
    });
    match outcome? {
        StreamOutcome::Completed(report) => Ok(*report),
        // cascade-lint: allow(panic-macro): default StreamOptions carry no suspension point, so the driver can only complete
        StreamOutcome::Suspended(_) => unreachable!("no suspension point was requested"),
    }
}
