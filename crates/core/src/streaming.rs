//! The training driver: it consumes the event stream chunk by chunk from
//! an [`EventSource`] while keeping only a bounded rolling window of
//! events resident, and feeds every batch through the one [`TrainStep`].
//! [`train`](crate::train) is this driver over an in-memory dataset as
//! one chunk. Two sources with the same events and the same chunk
//! geometry train **bit-identically** (gradients, memories, post-step
//! parameters).
//!
//! Every run reads through one scoped *loader* thread, the paper's
//! Cascade_EX overlap (§4.2: it "pipelines table building with
//! training"). The loader calls the source's `next_chunk` (a store's
//! read and CRC, a `ReorderingSource`'s reorder and dedupe) and builds
//! each training chunk's dependency table from the strategy's
//! [`TableSpec`], while the driver trains on the chunk before:
//!
//! ```text
//!              chunk + its table (sync_channel, LOADER_DEPTH = 2)
//!   ┌──────────────┐ ───────────────────────────────────► ┌──────────────┐
//!   │ loader:      │                                      │ driver:      │
//!   │ next_chunk + │                                      │ scan, train, │
//!   │ build table  │                                      │ feedback     │
//!   └──────────────┘                                      └──────────────┘
//! ```
//!
//! The schedule never leaves the driver thread, so the loader moves
//! wall-clock only, never results. It is joined before the call returns
//! on every path: each side blocks only on the channel the other owns,
//! so whichever fails first disconnects it and the survivor exits.
//!
//! Mid-stream suspend/resume: [`StreamOptions::suspend_after`] stops the
//! run just before a chunk is entered and returns a
//! [`StreamCheckpoint`]; resuming from it reproduces the uninterrupted
//! run bit for bit (model parameters, node memories, optimizer moments,
//! scheduler monitors).

// cascade-lint: allow-file(det-wallclock): the clock pairs time chunk-load stalls and the loader's table builds for telemetry; batch boundaries, chunk handoffs, and checkpoints are derived purely from event data.
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::thread;
use std::time::Instant;

use cascade_models::MemoryTgnn;
use cascade_tgraph::{
    chronological_split, EdgeFeatures, Event, EventChunk, EventSource, SourceError,
};
use cascade_util::bytes::{tag, ByteReader, ByteWriter, DecodeError};

use crate::batching::{announce_chunks, BatchingStrategy, PrebuiltTable, TableSpec};
use crate::step::{CheckpointProgress, RunFacts, TrainStep};
use crate::trainer::{EvalAccumulator, TrainConfig, TrainReport};

/// Chunks, each with its table, the loader may queue ahead of the driver.
const LOADER_DEPTH: usize = 2;

/// Stream geometry, captured before the source moves to the loader.
struct StreamMeta {
    name: String,
    num_events: usize,
    feature_dim: usize,
    /// Nominal chunk size, at least 1.
    chunk_size: usize,
}

/// What the loader sends the driver: the next chunk with the table it
/// built for it, or the error that stopped the loader.
type Loaded = Result<(EventChunk, Option<PrebuiltTable>), SourceError>;

/// What the loader reads: `passes` passes over the source, each ending
/// at the training split except the last, which continues through the
/// validation range so the driver's evaluation can stream.
struct LoadPlan {
    /// How to build each training chunk's table (`None`: no tables).
    spec: Option<TableSpec>,
    passes: usize,
    n_train: usize,
    val_end: usize,
}

/// The loader side: reads, pass by pass, exactly the chunks the driver
/// will ask for, and builds each training chunk's dependency table,
/// truncated at the training split exactly as the strategy would build
/// it. The driver consumes every chunk it is sent, so passes need no
/// marker between them. A one-chunk stream is entered once per call, so
/// its table is built on the first pass only. Returns the error that
/// stopped it, or `Ok` when it finished or the driver hung up.
fn run_loader(
    source: &mut dyn EventSource,
    tx: &SyncSender<Loaded>,
    plan: &LoadPlan,
) -> Result<(), SourceError> {
    let one_chunk = plan.n_train <= source.chunk_size().max(1);
    for pass in 0..plan.passes {
        if pass > 0 {
            source.reset()?;
        }
        let pass_end = if pass + 1 == plan.passes {
            plan.val_end
        } else {
            plan.n_train
        };
        let spec = plan.spec.filter(|_| pass == 0 || !one_chunk);
        let mut next_base = 0;
        while next_base < pass_end {
            let Some(chunk) = source.next_chunk()? else {
                return Err(SourceError::new(format!(
                    "stream ended at event {next_base} before the requested range"
                )));
            };
            next_base = chunk.base + chunk.events.len();
            let table = spec.filter(|_| chunk.base < plan.n_train).map(|spec| {
                let train_len = chunk.events.len().min(plan.n_train - chunk.base);
                let t0 = Instant::now();
                let table = spec.build(chunk.base, &chunk.events[..train_len]);
                PrebuiltTable {
                    table,
                    work: t0.elapsed(),
                }
            });
            if tx.send(Ok((chunk, table))).is_err() {
                return Ok(()); // driver gone (done or failed): stop quietly
            }
        }
    }
    Ok(())
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

/// Suspend/resume controls for a streaming run.
#[derive(Debug, Default)]
pub struct StreamOptions {
    /// Stop just before entering chunk `k` of epoch `e` and return a
    /// checkpoint: `Some((e, k))`.
    pub suspend_after: Option<(usize, usize)>,
    /// Continue a run from a previously returned checkpoint.
    pub resume_from: Option<StreamCheckpoint>,
}

/// How a streaming run ended.
#[derive(Debug)]
pub enum StreamOutcome {
    /// Ran to completion.
    Completed(Box<TrainReport>),
    /// Stopped at the requested suspension point.
    Suspended(Box<StreamCheckpoint>),
}

/// Everything needed to continue a streaming run mid-epoch: taken just
/// before chunk `chunk` of epoch `epoch` is entered, with `start_event`
/// the next unprocessed event.
#[derive(Clone, Debug, PartialEq)]
pub struct StreamCheckpoint {
    /// Epoch the run stopped in.
    pub epoch: usize,
    /// Chunk about to be entered when the run stopped.
    pub chunk: usize,
    /// Global id of the next unprocessed event.
    pub start_event: usize,
    /// Serialized model state ([`MemoryTgnn::export_state`]).
    pub model: Vec<u8>,
    /// Serialized optimizer state
    /// ([`Adam::export_state`](cascade_nn::Adam::export_state)).
    pub optimizer: Vec<u8>,
    /// Serialized strategy state
    /// ([`BatchingStrategy::export_state`]).
    pub strategy: Vec<u8>,
    /// The train step's accumulators at the suspension.
    pub progress: CheckpointProgress,
}

impl StreamCheckpoint {
    /// Serializes the checkpoint as the checkpoint container: the
    /// model's own `PARAMS` and `NODE_STATE` sections (so
    /// [`model`](Self::model) must be [`MemoryTgnn::export_state`]
    /// bytes), then `POSITION`, `OPTIMIZER`, `STRATEGY` and `PROGRESS`.
    /// Callers handle file I/O.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::container();
        w.raw(&self.model);
        w.section(tag::POSITION, |body| {
            body.usize(self.epoch);
            body.usize(self.chunk);
            body.usize(self.start_event);
        });
        w.section(tag::OPTIMIZER, |body| body.raw(&self.optimizer));
        w.section(tag::STRATEGY, |body| body.raw(&self.strategy));
        let p = &self.progress;
        w.section(tag::PROGRESS, |body| {
            body.f64(p.loss_sum);
            body.usize(p.event_sum);
            body.usize(p.batch_idx);
            body.usize(p.num_batches);
            body.usize(p.max_batch);
            body.f32s(&p.epoch_losses);
            body.words(&p.batch_sizes);
            body.f32s(&p.batch_losses);
        });
        w.end()
    }

    /// Deserializes a checkpoint written by
    /// [`to_bytes`](StreamCheckpoint::to_bytes). The model, optimizer
    /// and strategy sections are carried as bytes and decoded by their
    /// owners when the run resumes.
    ///
    /// # Errors
    ///
    /// A [`DecodeError`] on a bad magic, unsupported version, missing or
    /// stray section, truncation, or a count the remaining bytes cannot
    /// hold.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, DecodeError> {
        let mut r = ByteReader::container(bytes)?;
        let sections = r.rest();
        r.require(tag::PARAMS)?;
        r.require(tag::NODE_STATE)?;
        let model = sections[..sections.len() - r.rest().len()].to_vec();
        let mut position = r.require(tag::POSITION)?;
        let (epoch, chunk, start_event) = (position.usize()?, position.usize()?, position.usize()?);
        position.finish()?;
        let optimizer = r.require(tag::OPTIMIZER)?.rest().to_vec();
        let strategy = r.require(tag::STRATEGY)?.rest().to_vec();
        let mut p = r.require(tag::PROGRESS)?;
        let progress = CheckpointProgress {
            loss_sum: p.f64()?,
            event_sum: p.usize()?,
            batch_idx: p.usize()?,
            num_batches: p.usize()?,
            max_batch: p.usize()?,
            epoch_losses: p.f32s()?,
            batch_sizes: p.words()?,
            batch_losses: p.f32s()?,
        };
        p.finish()?;
        r.end()?;
        Ok(StreamCheckpoint {
            epoch,
            chunk,
            start_event,
            model,
            optimizer,
            strategy,
            progress,
        })
    }
}

/// The rolling event window: a contiguous slice `[win_base, loaded_end)`
/// of the stream, plus the epoch's accumulated feature rows (features
/// are indexed by global event id, so rows are retained for the whole
/// epoch while events are dropped once consumed).
struct Window {
    buf: Vec<Event>,
    win_base: usize,
    feats: EdgeFeatures,
    chunks_loaded: usize,
    peak_events: usize,
}

impl Window {
    fn new(feature_dim: usize) -> Self {
        Window {
            buf: Vec::new(),
            win_base: 0,
            feats: if feature_dim == 0 {
                EdgeFeatures::none()
            } else {
                EdgeFeatures::new(Vec::new(), feature_dim)
            },
            chunks_loaded: 0,
            peak_events: 0,
        }
    }

    fn loaded_end(&self) -> usize {
        self.win_base + self.buf.len()
    }

    fn clear_for_epoch(&mut self) {
        self.buf.clear();
        self.win_base = 0;
        self.feats.clear_rows();
        self.chunks_loaded = 0;
    }

    /// Appends the loader's next chunk; returns its prebuilt table.
    fn load_next(
        &mut self,
        loader: &Receiver<Loaded>,
    ) -> Result<Option<(usize, PrebuiltTable)>, SourceError> {
        // A disconnect is the loader gone without a word: it panicked,
        // and the join reports that in place of this error.
        let (chunk, table) = loader
            .recv()
            .map_err(|_| SourceError::new("chunk loader thread exited early"))??;
        if chunk.base != self.loaded_end() || chunk.index != self.chunks_loaded {
            return Err(SourceError::at_chunk(
                chunk.index,
                format!(
                    "out-of-order chunk: got base {}, expected {}",
                    chunk.base,
                    self.loaded_end()
                ),
            ));
        }
        self.chunks_loaded += 1;
        self.buf.extend_from_slice(&chunk.events);
        self.feats.push_rows(&chunk.features);
        self.peak_events = self.peak_events.max(self.buf.len());
        Ok(table.map(|p| (chunk.index, p)))
    }

    /// Drops events below `keep_from` (already consumed and not needed
    /// for any future chunk entry).
    fn drop_below(&mut self, keep_from: usize) {
        if keep_from > self.win_base {
            self.buf.drain(0..keep_from - self.win_base);
            self.win_base = keep_from;
        }
    }

    /// The slice of global event range `[from, to)`.
    fn slice(&self, from: usize, to: usize) -> &[Event] {
        &self.buf[from - self.win_base..to - self.win_base]
    }
}

/// Trains `model` from a chunked event source without materializing the
/// stream, then evaluates on the validation split. The chunk geometry is
/// the source's: fixed batching ignores it, so any chunking reproduces
/// [`train`](crate::train) over the imported dataset; Cascade, ETC and
/// NeutronStream end batches at chunk ends, so they reproduce it when the
/// source yields the stream as one chunk. The source is read, and each
/// chunk's table built, on the call's loader thread (module docs).
///
/// # Errors
///
/// Returns a [`SourceError`] when the source fails (I/O, corruption),
/// ends early, or the strategy does not support streaming. A panic on
/// the loader thread (inside the source, or a table build) is caught at
/// the join and returned as `chunk loader thread panicked: <message>`.
///
/// # Panics
///
/// Panics if the training split is empty, `cfg.epochs == 0` or
/// `cfg.eval_batch_size == 0`.
pub fn train_streaming(
    model: &mut MemoryTgnn,
    source: &mut (dyn EventSource + Send),
    strategy: &mut dyn BatchingStrategy,
    cfg: &TrainConfig,
) -> Result<TrainReport, SourceError> {
    match train_streaming_with_options(model, source, strategy, cfg, StreamOptions::default())? {
        StreamOutcome::Completed(report) => Ok(*report),
        StreamOutcome::Suspended(_) => {
            // cascade-lint: allow(panic-macro): default StreamOptions carry no suspension point, so the driver can only complete
            unreachable!("no suspension point was requested")
        }
    }
}

/// [`train_streaming`] with suspend/resume controls.
///
/// # Errors
///
/// As [`train_streaming`], plus a [`SourceError`] when a checkpoint does
/// not match the model/strategy shapes.
pub fn train_streaming_with_options(
    model: &mut MemoryTgnn,
    source: &mut (dyn EventSource + Send),
    strategy: &mut dyn BatchingStrategy,
    cfg: &TrainConfig,
    opts: StreamOptions,
) -> Result<StreamOutcome, SourceError> {
    let meta = StreamMeta {
        name: source.name(),
        num_events: source.num_events(),
        feature_dim: source.feature_dim(),
        chunk_size: source.chunk_size().max(1),
    };
    let (n_train, val_end) = chronological_split(meta.num_events);
    // The run is this call's: announce its geometry before the loader
    // needs the strategy's table recipe.
    announce_chunks(strategy, n_train, source.num_nodes(), meta.chunk_size)?;
    let resumed_epoch = opts.resume_from.as_ref().map_or(0, |ck| ck.epoch);
    let plan = LoadPlan {
        spec: strategy.table_spec(),
        passes: cfg.epochs.saturating_sub(resumed_epoch).max(1),
        n_train,
        val_end,
    };
    let (tx, rx) = sync_channel(LOADER_DEPTH);
    thread::scope(|s| {
        let loader = s.spawn(move || {
            if let Err(e) = run_loader(source, &tx, &plan) {
                let _ = tx.send(Err(e));
            }
        });
        // `drive` owns the receiver and drops it on every return, so a
        // loader still producing exits on its next send.
        let result = drive(model, &meta, rx, strategy, cfg, opts);
        match loader.join() {
            Ok(()) => result,
            // The driver's own error, if any, is the secondary
            // disconnect it saw when the loader died.
            Err(payload) => Err(SourceError::new(format!(
                "chunk loader thread panicked: {}",
                panic_message(payload)
            ))),
        }
    })
}

/// The driver: everything between the loader's chunks and a finished
/// [`TrainReport`], on the calling thread. The caller has announced
/// `meta`'s geometry to `strategy` ([`announce_chunks`]).
fn drive(
    model: &mut MemoryTgnn,
    meta: &StreamMeta,
    loader: Receiver<Loaded>,
    strategy: &mut dyn BatchingStrategy,
    cfg: &TrainConfig,
    opts: StreamOptions,
) -> Result<StreamOutcome, SourceError> {
    let n = meta.num_events;
    let (n_train, val_end) = chronological_split(n);
    let chunk_size = meta.chunk_size;
    let train_chunks = n_train.div_ceil(chunk_size);
    let chunk_start = |k: usize| k * chunk_size;
    let mut step = TrainStep::new(model, cfg);

    let mut window = Window::new(meta.feature_dim);
    let mut prebuilt: Vec<(usize, PrebuiltTable)> = Vec::new();

    // Resume bookkeeping: where to start, and the suspended epoch's
    // partial accumulators (carried inside the step's progress).
    let mut start_epoch = 0usize;
    let mut resume_at: Option<(usize, usize)> = None;
    if let Some(ck) = opts.resume_from {
        strategy
            .import_state(&ck.strategy)
            .map_err(SourceError::new)?;
        model
            .import_state(&ck.model)
            .map_err(|e| SourceError::new(e.to_string()))?;
        step.opt
            .import_state(&ck.optimizer)
            .map_err(|e| SourceError::new(e.to_string()))?;
        step.progress = ck.progress;
        start_epoch = ck.epoch;
        resume_at = Some((ck.chunk, ck.start_event));
    }

    let mut entered = false;
    for epoch in start_epoch..cfg.epochs {
        let mut start;
        let mut next_enter;
        if let Some((sk, se)) = resume_at.take() {
            // Resumed mid-epoch: skip over the already-processed chunks,
            // feeding features and replaying adjacency, without touching
            // the restored model/strategy state.
            while window.chunks_loaded < sk {
                let loaded_from = window.loaded_end();
                let _ = window.load_next(&loader)?;
                let replay_to = window.loaded_end().min(se);
                if replay_to > loaded_from {
                    model.replay_adjacency(window.slice(loaded_from, replay_to), loaded_from);
                }
                window.drop_below(window.loaded_end().min(chunk_start(sk)));
            }
            // A batch may have straddled into chunk `sk` before the
            // suspension: load it and replay its processed prefix.
            if se > chunk_start(sk) {
                while window.loaded_end() < se {
                    prebuilt.extend(window.load_next(&loader)?);
                }
                model.replay_adjacency(window.slice(chunk_start(sk), se), chunk_start(sk));
            }
            start = se;
            next_enter = sk;
        } else {
            window.clear_for_epoch();
            prebuilt.clear();
            model.reset_state();
            strategy.reset_epoch();
            start = 0;
            next_enter = 0;
        }

        while start < n_train {
            if let Some((se, sk)) = opts.suspend_after {
                if epoch == se && next_enter == sk && start >= chunk_start(sk) {
                    return Ok(StreamOutcome::Suspended(Box::new(StreamCheckpoint {
                        epoch,
                        chunk: sk,
                        start_event: start,
                        model: model.export_state(),
                        optimizer: step.opt.export_state(),
                        strategy: strategy.export_state(),
                        progress: step.progress.clone(),
                    })));
                }
            }

            // Announce every chunk whose events the next batch may need.
            while next_enter < train_chunks && chunk_start(next_enter) <= start {
                let cs = chunk_start(next_enter);
                let ce = (cs + chunk_size).min(n);
                let t_load = Instant::now();
                while window.chunks_loaded <= next_enter {
                    prebuilt.extend(window.load_next(&loader)?);
                }
                step.stages.scan.stall += t_load.elapsed();
                let table = prebuilt
                    .iter()
                    .position(|(idx, _)| *idx == next_enter)
                    .map(|at| prebuilt.swap_remove(at).1);
                // The last training chunk is entered truncated at the
                // split boundary; the window keeps the full chunk for
                // the validation pass. A one-chunk stream is entered once
                // per run: the strategy keeps what it built for it.
                if train_chunks > 1 || !entered {
                    strategy.enter_chunk(next_enter, cs, window.slice(cs, ce.min(n_train)), table);
                    entered = true;
                }
                next_enter += 1;
            }

            let end = step
                .scan(strategy, start, n_train)
                .map_err(SourceError::new)?;

            // A fixed-size batch can straddle into a chunk that is not
            // entered yet; its events must still be resident.
            let t_load = Instant::now();
            while window.loaded_end() < end {
                prebuilt.extend(window.load_next(&loader)?);
            }
            step.stages.scan.stall += t_load.elapsed();

            let out = step
                .run(model, window.slice(start, end), start, &window.feats)
                .map_err(|e| SourceError::new(format!("autograd failed: {e}")))?;
            TrainStep::feedback(strategy, &out);
            start = end;

            // Consumed events are dropped; events of a chunk that was
            // straddled into but not yet entered are retained for its
            // coming `enter_chunk`.
            let next_chunk_at = if next_enter < train_chunks {
                chunk_start(next_enter)
            } else {
                start
            };
            window.drop_below(start.min(next_chunk_at));
        }
        step.end_epoch();
    }

    // Validation: continue the rolling window past the training split at
    // the fixed evaluation batch size (an empty split evaluates to NaN).
    let mut acc = EvalAccumulator::default();
    let mut start = n_train;
    while start < val_end {
        let end = (start + cfg.eval_batch_size).min(val_end);
        while window.loaded_end() < end {
            let _ = window.load_next(&loader)?;
        }
        acc.batch(model, window.slice(start, end), start, &window.feats);
        start = end;
        window.drop_below(start);
    }

    Ok(StreamOutcome::Completed(Box::new(step.finish(
        model,
        strategy,
        RunFacts {
            dataset: meta.name.clone(),
            // Out-of-core: the graph term is the peak resident window,
            // not the full stream (the headline saving of streaming
            // training).
            graph_bytes: window.peak_events * std::mem::size_of::<Event>(),
            feature_bytes: window.feats.size_bytes(),
            val: acc.finish(),
        },
    ))))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cascade_models::ModelConfig;

    fn sample() -> StreamCheckpoint {
        let model = MemoryTgnn::new(ModelConfig::jodie().with_dims(2, 2), 3, 1, 1);
        StreamCheckpoint {
            epoch: 2,
            chunk: 7,
            start_event: 901,
            model: model.export_state(),
            optimizer: vec![4, 5],
            strategy: vec![],
            progress: CheckpointProgress {
                loss_sum: 0.625,
                event_sum: 901,
                batch_idx: 14,
                num_batches: 200,
                max_batch: 99,
                epoch_losses: vec![0.5, 0.25],
                batch_sizes: vec![10, 20, 30],
                batch_losses: vec![0.9, 0.8, 0.7],
            },
        }
    }

    #[test]
    fn checkpoint_roundtrips_through_bytes() {
        let ck = sample();
        let bytes = ck.to_bytes();
        assert_eq!(
            StreamCheckpoint::from_bytes(&bytes).expect("roundtrips"),
            ck
        );
    }

    #[test]
    fn checkpoint_is_the_container_with_the_models_sections_first() {
        let ck = sample();
        let bytes = ck.to_bytes();
        let mut r = ByteReader::container(&bytes).expect("container header");
        assert!(r.rest().starts_with(&ck.model), "PARAMS, NODE_STATE");
        let mut tags = Vec::new();
        while r.rest().len() > 4 {
            let tag = ByteReader::new(r.rest()).u32().unwrap();
            r.require(tag).expect("sections are well formed");
            tags.push(tag);
        }
        assert_eq!(tags, [1, 2, 4, 5, 6, 7]);
        r.end().expect("end marker");
    }

    #[test]
    fn checkpoint_survives_the_hostile_input_battery() {
        assert_eq!(
            StreamCheckpoint::from_bytes(b"not a checkpoint"),
            Err(DecodeError::BadMagic)
        );
        cascade_util::check_decoder("stream_checkpoint", &sample().to_bytes(), |bytes| {
            StreamCheckpoint::from_bytes(bytes)
                .ok()
                .map(|ck| ck.to_bytes())
        });
    }

    /// Runs the loader over `passes` passes of a small stream cut into
    /// `chunk`-event chunks (at most the stream); returns (chunks sent,
    /// chunks sent with a table).
    fn loader_sends(passes: usize, chunk: usize) -> (usize, usize) {
        let data = cascade_tgraph::SynthConfig::wiki()
            .with_scale(0.002)
            .generate(5);
        let chunk = chunk.min(data.num_events());
        let mut source = cascade_tgraph::InMemorySource::from_dataset(&data, chunk);
        let (n_train, val_end) = chronological_split(data.num_events());
        let plan = LoadPlan {
            spec: Some(TableSpec {
                num_nodes: data.num_nodes(),
                incident_only: false,
            }),
            passes,
            n_train,
            val_end,
        };
        // Room for every chunk, so the loader never blocks.
        let (tx, rx) = sync_channel(passes * data.num_events().div_ceil(chunk));
        run_loader(&mut source, &tx, &plan).expect("an in-memory source cannot fail");
        drop(tx);
        let tables: Vec<Option<PrebuiltTable>> = rx
            .into_iter()
            .map(|msg| msg.expect("the loader sent no error").1)
            .collect();
        (tables.len(), tables.iter().flatten().count())
    }

    #[test]
    fn the_loader_builds_a_one_chunk_streams_table_on_the_first_pass_only() {
        // The driver enters a one-chunk stream once per call, so a table
        // built on a later pass would only be thrown away.
        assert_eq!(loader_sends(3, usize::MAX), (3, 1));
        // A chunked stream enters every training chunk on every pass.
        let (sent, tables) = loader_sends(3, 128);
        assert!(
            tables > 3 && tables < sent,
            "{tables} tables, {sent} chunks"
        );
        assert_eq!(tables % 3, 0, "each pass builds the same tables");
    }
}
