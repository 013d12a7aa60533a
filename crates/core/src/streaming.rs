//! Out-of-core training: the streaming counterpart of
//! [`train`](crate::train), consuming the event stream chunk by chunk
//! from an [`EventSource`] while keeping only a bounded rolling window
//! of events resident.
//!
//! The driver feeds the same [`TrainStep`] the serial trainer does, so a
//! streaming run is **bit-identical** (gradients, memories, post-step
//! parameters) to an in-memory run over the same
//! events with the same chunk geometry (`CascadeConfig::chunk_size =
//! Some(source chunk size)` for the Cascade strategy). The pipelined
//! executor in `cascade-exec` reuses the same driver through the
//! [`ChunkProvider`] trait, so overlap changes wall-clock only, never
//! results.
//!
//! Mid-stream suspend/resume: [`StreamOptions::suspend_after`] stops the
//! run just before a chunk is entered and returns a
//! [`StreamCheckpoint`]; resuming from it reproduces the uninterrupted
//! run bit for bit (model parameters, node memories, optimizer moments,
//! scheduler monitors).

// cascade-lint: allow-file(det-wallclock): the one clock pair times chunk-load stalls for StageTimings telemetry; batch boundaries, chunk handoffs, and checkpoints are derived purely from event data.
use std::time::{Duration, Instant};

use cascade_models::MemoryTgnn;
use cascade_tgraph::{chronological_split, EdgeFeatures, Event, EventSource, SourceError};

use crate::batching::{BatchingStrategy, PrebuiltTable};
use crate::step::{CheckpointProgress, RunFacts, TrainStep};
use crate::trainer::{EvalAccumulator, TrainConfig, TrainReport};

/// Stream geometry the driver needs up front (mirrors the accessors of
/// [`EventSource`], so pipelined executors can capture it before moving
/// the source into a loader thread).
#[derive(Clone, Debug)]
pub struct StreamMeta {
    /// Source name, used as the report's dataset name.
    pub name: String,
    /// Number of nodes the stream covers.
    pub num_nodes: usize,
    /// Total events in the stream.
    pub num_events: usize,
    /// Edge-feature width.
    pub feature_dim: usize,
    /// Nominal chunk size.
    pub chunk_size: usize,
}

impl StreamMeta {
    /// Captures the geometry of `source`.
    pub fn of(source: &dyn EventSource) -> Self {
        StreamMeta {
            name: source.name(),
            num_nodes: source.num_nodes(),
            num_events: source.num_events(),
            feature_dim: source.feature_dim(),
            chunk_size: source.chunk_size(),
        }
    }
}

/// One chunk handed to the streaming driver, optionally with a
/// dependency table prebuilt off the critical path.
#[derive(Debug)]
pub struct ProvidedChunk {
    /// Chunk index in the stream.
    pub index: usize,
    /// Global id of `events[0]`.
    pub base: usize,
    /// The chunk's events.
    pub events: Vec<Event>,
    /// Row-major feature rows for `events`.
    pub features: Vec<f32>,
    /// Table built ahead by a pipeline stage (`None` = driver builds).
    pub prebuilt: Option<PrebuiltTable>,
}

/// What feeds chunks to [`train_streaming_with_provider`]: either a
/// plain [`EventSource`] adapter or `cascade-exec`'s prefetching loader.
pub trait ChunkProvider {
    /// Yields the next chunk of the current pass, `Ok(None)` when the
    /// pass is exhausted.
    ///
    /// # Errors
    ///
    /// Propagates source failures (I/O, corruption).
    fn next(&mut self) -> Result<Option<ProvidedChunk>, SourceError>;

    /// Rewinds to chunk 0 for the next pass.
    ///
    /// # Errors
    ///
    /// Propagates source failures.
    fn reset(&mut self) -> Result<(), SourceError>;
}

struct SourceProvider<'a> {
    source: &'a mut dyn EventSource,
}

impl ChunkProvider for SourceProvider<'_> {
    fn next(&mut self) -> Result<Option<ProvidedChunk>, SourceError> {
        Ok(self.source.next_chunk()?.map(|c| ProvidedChunk {
            index: c.index,
            base: c.base,
            events: c.events,
            features: c.features,
            prebuilt: None,
        }))
    }

    fn reset(&mut self) -> Result<(), SourceError> {
        self.source.reset()
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
    /// Serialized optimizer state ([`Adam::export_state`]).
    pub optimizer: Vec<u8>,
    /// Serialized strategy state
    /// ([`BatchingStrategy::export_state`]).
    pub strategy: Vec<u8>,
    /// The train step's accumulators at the suspension.
    pub progress: CheckpointProgress,
}

const CHECKPOINT_MAGIC: [u8; 4] = *b"CSCK";

impl StreamCheckpoint {
    /// Serializes the checkpoint (callers handle file I/O).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(&CHECKPOINT_MAGIC);
        buf.push(1u8); // version
        for v in [
            self.epoch as u64,
            self.chunk as u64,
            self.start_event as u64,
        ] {
            buf.extend_from_slice(&v.to_le_bytes());
        }
        for blob in [&self.model, &self.optimizer, &self.strategy] {
            buf.extend_from_slice(&(blob.len() as u64).to_le_bytes());
            buf.extend_from_slice(blob);
        }
        let p = &self.progress;
        buf.extend_from_slice(&p.loss_sum.to_bits().to_le_bytes());
        for v in [
            p.event_sum as u64,
            p.batch_idx as u64,
            p.num_batches as u64,
            p.max_batch as u64,
        ] {
            buf.extend_from_slice(&v.to_le_bytes());
        }
        buf.extend_from_slice(&(p.epoch_losses.len() as u32).to_le_bytes());
        for x in &p.epoch_losses {
            buf.extend_from_slice(&x.to_le_bytes());
        }
        buf.extend_from_slice(&(p.batch_sizes.len() as u32).to_le_bytes());
        for x in &p.batch_sizes {
            buf.extend_from_slice(&x.to_le_bytes());
        }
        buf.extend_from_slice(&(p.batch_losses.len() as u32).to_le_bytes());
        for x in &p.batch_losses {
            buf.extend_from_slice(&x.to_le_bytes());
        }
        buf
    }

    /// Deserializes a checkpoint written by
    /// [`to_bytes`](StreamCheckpoint::to_bytes).
    ///
    /// # Errors
    ///
    /// Returns a description on a bad magic, unsupported version, or
    /// truncation. Every length and count in `bytes` is checked against
    /// the bytes that remain before anything is sliced or allocated.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, String> {
        let mut r = Reader { rest: bytes };
        if r.take(4)? != CHECKPOINT_MAGIC {
            return Err("not a cascade streaming checkpoint".to_string());
        }
        if r.take(1)? != [1] {
            return Err("unsupported checkpoint version".to_string());
        }
        let epoch = r.u64()? as usize;
        let chunk = r.u64()? as usize;
        let start_event = r.u64()? as usize;
        let model = r.blob()?;
        let optimizer = r.blob()?;
        let strategy = r.blob()?;
        let loss_sum = f64::from_bits(r.u64()?);
        let event_sum = r.u64()? as usize;
        let batch_idx = r.u64()? as usize;
        let num_batches = r.u64()? as usize;
        let max_batch = r.u64()? as usize;
        let epoch_losses = r.words()?.into_iter().map(f32::from_bits).collect();
        let batch_sizes = r.words()?;
        let batch_losses = r.words()?.into_iter().map(f32::from_bits).collect();
        Ok(StreamCheckpoint {
            epoch,
            chunk,
            start_event,
            model,
            optimizer,
            strategy,
            progress: CheckpointProgress {
                loss_sum,
                event_sum,
                batch_idx,
                num_batches,
                max_batch,
                epoch_losses,
                batch_sizes,
                batch_losses,
            },
        })
    }
}

/// Bounds-checked little-endian reader over untrusted checkpoint bytes.
struct Reader<'a> {
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if n > self.rest.len() {
            return Err("checkpoint truncated".to_string());
        }
        let (head, rest) = self.rest.split_at(n);
        self.rest = rest;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], String> {
        let mut b = [0u8; N];
        b.copy_from_slice(self.take(N)?);
        Ok(b)
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// A `u64` length, then that many bytes (a length beyond `usize` is
    /// beyond any input, so it reads as truncation).
    fn blob(&mut self) -> Result<Vec<u8>, String> {
        let len = usize::try_from(self.u64()?).unwrap_or(usize::MAX);
        Ok(self.take(len)?.to_vec())
    }

    /// A `u32` count, then that many 4-byte words.
    fn words(&mut self) -> Result<Vec<u32>, String> {
        let n = self.u32()? as usize;
        let raw = self.take(n.saturating_mul(4))?;
        Ok(raw
            .chunks_exact(4)
            .map(|w| u32::from_le_bytes([w[0], w[1], w[2], w[3]]))
            .collect())
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

    /// Appends one chunk from `provider`; returns its prebuilt table.
    fn load_next(
        &mut self,
        provider: &mut dyn ChunkProvider,
    ) -> Result<Option<(usize, PrebuiltTable)>, SourceError> {
        let Some(chunk) = provider.next()? else {
            return Err(SourceError::new(format!(
                "stream ended at event {} before the requested range",
                self.loaded_end()
            )));
        };
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
        Ok(chunk.prebuilt.map(|p| (chunk.index, p)))
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
/// stream, then evaluates on the validation split. Results are
/// bit-identical to [`train`](crate::train) over the imported dataset
/// when the strategy uses the same chunk geometry.
///
/// # Errors
///
/// Returns a [`SourceError`] when the source fails (I/O, corruption),
/// ends early, or the strategy does not support streaming.
pub fn train_streaming(
    model: &mut MemoryTgnn,
    source: &mut dyn EventSource,
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
    source: &mut dyn EventSource,
    strategy: &mut dyn BatchingStrategy,
    cfg: &TrainConfig,
    opts: StreamOptions,
) -> Result<StreamOutcome, SourceError> {
    let meta = StreamMeta::of(source);
    let mut provider = SourceProvider { source };
    train_streaming_with_provider(model, &meta, &mut provider, strategy, cfg, opts)
}

/// The shared streaming driver: everything between a chunk provider and
/// a finished [`TrainReport`]. `cascade-exec`'s pipelined streaming path
/// calls this with its prefetching loader, so serial and pipelined
/// streaming are bit-identical by construction.
///
/// # Errors
///
/// As [`train_streaming`].
///
/// # Panics
///
/// Panics if `cfg.epochs == 0` or the stream's training split is empty.
pub fn train_streaming_with_provider(
    model: &mut MemoryTgnn,
    meta: &StreamMeta,
    provider: &mut dyn ChunkProvider,
    strategy: &mut dyn BatchingStrategy,
    cfg: &TrainConfig,
    opts: StreamOptions,
) -> Result<StreamOutcome, SourceError> {
    let n = meta.num_events;
    let (n_train, val_end) = chronological_split(n);
    assert!(n_train > 0, "empty training range");
    let chunk_size = meta.chunk_size.max(1);
    let train_chunks = n_train.div_ceil(chunk_size);
    let chunk_start = |k: usize| k * chunk_size;

    if !strategy.prepare_streaming(n_train, meta.num_nodes, chunk_size) {
        return Err(SourceError::new(format!(
            "strategy {} does not support streaming",
            strategy.name()
        )));
    }
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
        model.import_state(&ck.model).map_err(SourceError::new)?;
        step.opt
            .import_state(&ck.optimizer)
            .map_err(SourceError::new)?;
        step.progress = ck.progress;
        start_epoch = ck.epoch;
        resume_at = Some((ck.chunk, ck.start_event));
    }

    let mut first_pass = true;
    for epoch in start_epoch..cfg.epochs {
        let mut start;
        let mut next_enter;
        if let Some((sk, se)) = resume_at.take() {
            // Resumed mid-epoch: skip over the already-processed chunks,
            // feeding features and replaying adjacency, without touching
            // the restored model/strategy state.
            while window.chunks_loaded < sk {
                let loaded_from = window.loaded_end();
                let _ = window.load_next(provider)?;
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
                    let _ = window.load_next(provider)?;
                }
                model.replay_adjacency(window.slice(chunk_start(sk), se), chunk_start(sk));
            }
            start = se;
            next_enter = sk;
        } else {
            if !first_pass {
                provider.reset()?;
            }
            window.clear_for_epoch();
            prebuilt.clear();
            model.reset_state();
            strategy.reset_epoch();
            start = 0;
            next_enter = 0;
        }
        first_pass = false;

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
                while window.chunks_loaded <= next_enter {
                    if let Some(pb) = window.load_next(provider)? {
                        prebuilt.push(pb);
                    }
                }
                let table = prebuilt
                    .iter()
                    .position(|(idx, _)| *idx == next_enter)
                    .map(|at| prebuilt.swap_remove(at).1);
                // The last training chunk is entered truncated at the
                // split boundary; the window keeps the full chunk for
                // the validation pass.
                strategy.enter_chunk(next_enter, cs, window.slice(cs, ce.min(n_train)), table);
                next_enter += 1;
            }

            let end = step.scan(strategy, start, n_train);

            // A fixed-size batch can straddle into a chunk that is not
            // entered yet; its events must still be resident.
            let t_load = Instant::now();
            while window.loaded_end() < end {
                if let Some(pb) = window.load_next(provider)? {
                    prebuilt.push(pb);
                }
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
            let _ = window.load_next(provider)?;
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
            prepare: Duration::ZERO,
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

    fn sample() -> StreamCheckpoint {
        StreamCheckpoint {
            epoch: 2,
            chunk: 7,
            start_event: 901,
            model: vec![1, 2, 3],
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

    /// The version-1 layout, written out by hand: a checkpoint saved by
    /// any earlier build must keep loading.
    #[test]
    fn checkpoint_byte_layout_is_pinned() {
        let mut want: Vec<u8> = b"CSCK\x01".to_vec();
        for v in [2u64, 7, 901] {
            want.extend_from_slice(&v.to_le_bytes());
        }
        for blob in [&[1u8, 2, 3][..], &[4, 5], &[]] {
            want.extend_from_slice(&(blob.len() as u64).to_le_bytes());
            want.extend_from_slice(blob);
        }
        for v in [0.625f64.to_bits(), 901, 14, 200, 99] {
            want.extend_from_slice(&v.to_le_bytes());
        }
        for words in [
            vec![0.5f32.to_bits(), 0.25f32.to_bits()],
            vec![10, 20, 30],
            vec![0.9f32.to_bits(), 0.8f32.to_bits(), 0.7f32.to_bits()],
        ] {
            want.extend_from_slice(&(words.len() as u32).to_le_bytes());
            for w in words {
                want.extend_from_slice(&w.to_le_bytes());
            }
        }
        assert_eq!(sample().to_bytes(), want);
    }

    #[test]
    fn checkpoint_rejects_garbage() {
        assert!(StreamCheckpoint::from_bytes(b"not a checkpoint").is_err());
        assert!(StreamCheckpoint::from_bytes(&CHECKPOINT_MAGIC).is_err());
        let valid = sample().to_bytes();
        let mut bytes = valid.clone();
        bytes[4] = 9; // unsupported version
        assert!(StreamCheckpoint::from_bytes(&bytes).is_err());

        // Hostile lengths: a blob length that overflows `offset + len`,
        // and an element count that would reserve gigabytes. Both must
        // be refused against the bytes actually present.
        let model_len_at = 4 + 1 + 3 * 8;
        for huge in [u64::MAX, u64::MAX - 7, 1 << 40] {
            let mut bytes = valid.clone();
            bytes[model_len_at..model_len_at + 8].copy_from_slice(&huge.to_le_bytes());
            assert!(StreamCheckpoint::from_bytes(&bytes).is_err());
        }
        let epoch_losses_count_at = model_len_at + 3 * 8 + 5 + 5 * 8;
        let mut bytes = valid.clone();
        assert_eq!(bytes[epoch_losses_count_at], 2, "test offsets are stale");
        bytes[epoch_losses_count_at..epoch_losses_count_at + 4]
            .copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(StreamCheckpoint::from_bytes(&bytes).is_err());

        // Every strict prefix of a valid checkpoint is truncated.
        for cut in 0..valid.len() {
            assert!(
                StreamCheckpoint::from_bytes(&valid[..cut]).is_err(),
                "prefix of {cut} bytes parsed"
            );
        }
    }
}
