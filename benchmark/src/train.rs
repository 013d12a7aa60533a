//! The training entry points the workloads drive, untraced and traced.
//!
//! Untraced runs call the library's own drivers (`train_streaming`,
//! `train_streamed`, `train_dist`) and are where every end-to-end
//! number comes from. The traced run re-drives the *public* streaming
//! protocol from here, one span around each call into a layer; it is
//! admissible only because [`check_identical`] holds it to the untraced
//! run bit for bit.

use std::path::Path;
use std::time::Instant;

use cascade_core::{
    train_streaming, BatchingStrategy, CascadeConfig, CascadeScheduler, PrebuiltTable,
    StrategySpace, StrategyTimers, TableSpec, TrainConfig,
};
use cascade_dist::{train_dist, DistConfig};
use cascade_exec::{train_streamed, PipelineConfig};
use cascade_models::{BatchForward, MemoryDelta, MemoryTgnn};
use cascade_nn::{clip_grad_norm, Adam, Module};
use cascade_scenario::ScenarioRunner;
use cascade_store::StreamingEventSource;
use cascade_tgraph::{
    Dataset, EdgeFeatures, Event, EventChunk, EventSource, ReorderPolicy, ReorderingSource,
    SourceError,
};

use crate::spec::Spec;
use crate::trace::Trace;

/// What one training run produced, in the terms the metrics need.
#[derive(Clone, Debug)]
pub struct TrainOutcome {
    /// Events the timed call consumed (training split, plus the
    /// validation split where the call evaluates it).
    pub events: usize,
    /// Wall seconds around the single timed call.
    pub wall_s: f64,
    /// The call's wall time cut at every `next_batch_end` the library
    /// makes: set-up to the first scan, then one unit per training batch
    /// (the last one carries validation too). The units sum to `wall_s`.
    /// Empty where the call was not stamped.
    pub unit_s: Vec<f64>,
    /// Event-weighted training loss of the final epoch.
    pub train_loss: f32,
    /// Validation loss at the preset batch size.
    pub val_loss: f32,
    /// Mean training loss per epoch.
    pub epoch_losses: Vec<f32>,
    /// Size of every training batch, in order.
    pub batch_sizes: Vec<u32>,
    /// Loss of every training batch, in order.
    pub batch_losses: Vec<f32>,
}

impl TrainOutcome {
    /// Batches whose loss is not a finite number.
    pub fn non_finite_batches(&self) -> usize {
        self.batch_losses.iter().filter(|l| !l.is_finite()).count()
    }
}

/// Exact counts the traced loop takes at the layer boundaries.
#[derive(Clone, Copy, Debug, Default)]
pub struct TracedCounts {
    /// Σ `DependencyTable::total_entries` over the chunk tables built.
    pub table_entries: usize,
    /// Arena allocations served from the pool during the run.
    pub arena_hits: u64,
    /// Arena allocations that fell through to the allocator.
    pub arena_misses: u64,
}

/// The normalization policy the recipe's stream needs (buffered
/// reordering sized to its widest scramble window, else the strict
/// validator).
fn policy(spec: &Spec) -> ReorderPolicy {
    ScenarioRunner::new(spec.recipe.clone()).policy()
}

/// A fresh model for the workload, initialised from the run's seed.
pub fn build_model(spec: &Spec) -> MemoryTgnn {
    MemoryTgnn::new(
        spec.model_config(),
        spec.recipe.nodes,
        spec.recipe.feature_dim,
        spec.seed,
    )
}

fn scheduler(spec: &Spec) -> CascadeScheduler {
    CascadeScheduler::new(CascadeConfig {
        preset_batch_size: spec.recipe.train.batch,
        seed: spec.seed,
        ..CascadeConfig::default()
    })
}

fn train_config(spec: &Spec) -> TrainConfig {
    let train = &spec.recipe.train;
    TrainConfig {
        epochs: train.epochs,
        lr: train.lr as f32,
        eval_batch_size: train.batch,
        clip_norm: Some(5.0),
        scale_lr_with_batch: true,
        ..TrainConfig::default()
    }
}

/// The `(train_end, val_end)` split of an `n`-event stream.
pub fn splits(n: usize) -> (usize, usize) {
    (n * 70 / 100, n * 85 / 100)
}

fn open_store(spec: &Spec, store: &Path) -> Result<StreamingEventSource, String> {
    let source = StreamingEventSource::open(store, 2)
        .map_err(|e| format!("cannot open store {}: {}", store.display(), e))?;
    if source.num_events() != spec.recipe.delivered_events() {
        return Err(format!(
            "store holds {} events, the recipe delivers {}",
            source.num_events(),
            spec.recipe.delivered_events()
        ));
    }
    Ok(source)
}

/// The normalized stream over a store file: what every store-entry run,
/// timed or not, trains from.
pub fn open_normalized(
    spec: &Spec,
    store: &Path,
) -> Result<ReorderingSource<StreamingEventSource>, String> {
    Ok(ReorderingSource::with_declared_events(
        open_store(spec, store)?,
        policy(spec),
        spec.recipe.base_events(),
    ))
}

/// Which library driver an untraced store run goes through.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Driver {
    /// `core::train_streaming`.
    Serial,
    /// `exec::train_streamed` at the default `PipelineConfig`.
    Pipelined,
}

/// A [`BatchingStrategy`] that passes every call through to the one it
/// wraps and notes the time of each `next_batch_end`. The library makes
/// that call once per training batch, so the stamps cut the wall time of
/// an *untraced* `train_streaming` call into per-batch units at the cost
/// of one clock read per batch.
struct Stamped<S> {
    inner: S,
    stamps: Vec<Instant>,
}

impl<S: BatchingStrategy> BatchingStrategy for Stamped<S> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn prepare(&mut self, events: &[Event], num_nodes: usize) {
        self.inner.prepare(events, num_nodes)
    }

    fn reset_epoch(&mut self) {
        self.inner.reset_epoch()
    }

    fn next_batch_end(&mut self, start: usize, limit: usize) -> usize {
        self.stamps.push(Instant::now());
        self.inner.next_batch_end(start, limit)
    }

    fn after_batch(&mut self, batch_idx: usize, train_loss: f32) {
        self.inner.after_batch(batch_idx, train_loss)
    }

    fn observe_updates(&mut self, deltas: &[MemoryDelta]) {
        self.inner.observe_updates(deltas)
    }

    fn space(&self) -> StrategySpace {
        self.inner.space()
    }

    fn timers(&self) -> StrategyTimers {
        self.inner.timers()
    }

    fn prepare_streaming(
        &mut self,
        total_train: usize,
        num_nodes: usize,
        chunk_size: usize,
    ) -> bool {
        self.inner
            .prepare_streaming(total_train, num_nodes, chunk_size)
    }

    fn table_spec(&self) -> Option<TableSpec> {
        self.inner.table_spec()
    }

    fn enter_chunk(
        &mut self,
        idx: usize,
        base: usize,
        events: &[Event],
        prebuilt: Option<PrebuiltTable>,
    ) {
        self.inner.enter_chunk(idx, base, events, prebuilt)
    }

    fn export_state(&self) -> Vec<u8> {
        self.inner.export_state()
    }

    fn import_state(&mut self, bytes: &[u8]) -> Result<(), String> {
        self.inner.import_state(bytes)
    }
}

/// The wall time from `started` to `ended` cut at `stamps`: the stretch
/// before the first stamp, then one unit per stamp, each running to the
/// next stamp and the last to `ended`.
fn units(started: Instant, stamps: &[Instant], ended: Instant) -> Vec<f64> {
    let mut cuts = Vec::with_capacity(stamps.len() + 2);
    cuts.push(started);
    cuts.extend_from_slice(stamps);
    cuts.push(ended);
    cuts.windows(2)
        .map(|w| w[1].duration_since(w[0]).as_secs_f64())
        .collect()
}

/// Trains `model` out of core from the store file through one library
/// call, timed from just before the call to just after it.
///
/// # Errors
///
/// A store that does not match the recipe, or a driver failure.
pub fn train_store(
    spec: &Spec,
    store: &Path,
    model: &mut MemoryTgnn,
    driver: Driver,
) -> Result<TrainOutcome, String> {
    let mut source = open_normalized(spec, store)?;
    let mut strategy = Stamped {
        inner: scheduler(spec),
        stamps: Vec::new(),
    };
    let cfg = train_config(spec);
    let (n_train, val_end) = splits(source.num_events());
    let started = Instant::now();
    let report = match driver {
        Driver::Serial => train_streaming(model, &mut source, &mut strategy, &cfg)
            .map_err(|e| format!("streaming training failed: {}", e))?,
        Driver::Pipelined => train_streamed(
            model,
            &mut source,
            &mut strategy,
            &cfg,
            &PipelineConfig::default(),
        )
        .map_err(|e| format!("pipelined training failed: {}", e))?,
    };
    let ended = Instant::now();
    if strategy.stamps.len() != report.batch_sizes.len() {
        return Err(format!(
            "{} scans for {} batches: the stamps do not cut the call at its batches",
            strategy.stamps.len(),
            report.batch_sizes.len()
        ));
    }
    Ok(TrainOutcome {
        events: n_train * cfg.epochs + (val_end - n_train),
        wall_s: ended.duration_since(started).as_secs_f64(),
        unit_s: units(started, &strategy.stamps, ended),
        train_loss: report.final_train_loss,
        val_loss: report.val_loss,
        epoch_losses: report.epoch_losses,
        batch_sizes: report.batch_sizes,
        batch_losses: report.batch_losses,
    })
}

/// An [`EventSource`] adapter that records a span around every call
/// into the source it wraps. Placed under `ReorderingSource`, its span
/// is the child that turns the reorder span's duration into self time.
struct TimedSource<S> {
    inner: S,
    trace: Trace,
}

impl<S: EventSource> EventSource for TimedSource<S> {
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
        let inner = &mut self.inner;
        self.trace
            .span("store.next_chunk", None, || inner.next_chunk())
    }

    fn reset(&mut self) -> Result<(), SourceError> {
        self.inner.reset()
    }

    fn name(&self) -> String {
        self.inner.name()
    }
}

/// The rolling window of the streaming protocol: events of the chunks
/// not yet consumed, and the epoch's feature rows (indexed by global
/// event id, so they stay for the epoch).
struct Window {
    events: Vec<Event>,
    base: usize,
    feats: EdgeFeatures,
    chunks_loaded: usize,
}

impl Window {
    fn new(feature_dim: usize) -> Self {
        Window {
            events: Vec::new(),
            base: 0,
            feats: if feature_dim == 0 {
                EdgeFeatures::none()
            } else {
                EdgeFeatures::new(Vec::new(), feature_dim)
            },
            chunks_loaded: 0,
        }
    }

    fn loaded_end(&self) -> usize {
        self.base + self.events.len()
    }

    fn load_next(&mut self, source: &mut dyn EventSource, trace: &Trace) -> Result<(), String> {
        let chunk = trace
            .span("tgraph.next_chunk", None, || source.next_chunk())
            .map_err(|e| e.to_string())?
            .ok_or_else(|| format!("stream ended at event {}", self.loaded_end()))?;
        if chunk.base != self.loaded_end() || chunk.index != self.chunks_loaded {
            return Err(format!("out-of-order chunk {}", chunk.index));
        }
        self.chunks_loaded += 1;
        self.events.extend_from_slice(&chunk.events);
        self.feats.push_rows(&chunk.features);
        Ok(())
    }

    fn drop_below(&mut self, keep_from: usize) {
        if keep_from > self.base {
            self.events.drain(0..keep_from - self.base);
            self.base = keep_from;
        }
    }

    fn slice(&self, from: usize, to: usize) -> &[Event] {
        &self.events[from - self.base..to - self.base]
    }
}

/// The traced counterpart of [`train_store`] with [`Driver::Serial`]:
/// the same calls in the same order as `core::train_streaming` makes
/// them, issued from here with a span around each, and with each
/// chunk's dependency table built here (under its own span) and handed
/// to the scheduler as a `PrebuiltTable`.
///
/// # Errors
///
/// A store that does not match the recipe, or a source failure.
pub fn train_store_traced(
    spec: &Spec,
    store: &Path,
    model: &mut MemoryTgnn,
    trace: &Trace,
) -> Result<(TrainOutcome, TracedCounts), String> {
    let timed = TimedSource {
        inner: open_store(spec, store)?,
        trace: trace.clone(),
    };
    let mut source =
        ReorderingSource::with_declared_events(timed, policy(spec), spec.recipe.base_events());
    let mut strategy = scheduler(spec);
    let cfg = train_config(spec);
    let arena_before = cascade_tensor::arena::stats();

    let started = Instant::now();
    let n = source.num_events();
    let (n_train, val_end) = splits(n);
    if n_train == 0 {
        return Err("empty training range".to_string());
    }
    let chunk_size = source.chunk_size().max(1);
    let train_chunks = n_train.div_ceil(chunk_size);
    if !strategy.prepare_streaming(n_train, source.num_nodes(), chunk_size) {
        return Err(format!("strategy {} cannot stream", strategy.name()));
    }
    let table_spec = strategy
        .table_spec()
        .ok_or("the scheduler builds no dependency tables")?;
    model.set_compute_threads(cfg.compute_threads.max(1));
    let params = model.parameters();
    let mut opt = Adam::new(params.clone(), cfg.lr);

    let mut window = Window::new(source.feature_dim());
    let mut counts = TracedCounts::default();
    let mut batch_sizes: Vec<u32> = Vec::new();
    let mut batch_losses: Vec<f32> = Vec::new();
    model.reset_state();
    strategy.reset_epoch();
    let mut start = 0usize;
    let mut next_enter = 0usize;
    let mut batch_idx = 0usize;
    let mut loss_sum = 0.0f64;
    let mut event_sum = 0usize;

    while start < n_train {
        // Announce every chunk whose events the next batch may need.
        while next_enter < train_chunks && next_enter * chunk_size <= start {
            let cs = next_enter * chunk_size;
            let ce = (cs + chunk_size).min(n).min(n_train);
            while window.chunks_loaded <= next_enter {
                window.load_next(&mut source, trace)?;
            }
            let events = window.slice(cs, ce);
            let build_started = Instant::now();
            let table = trace.span("core.table_build", None, || table_spec.build(cs, events));
            let work = build_started.elapsed();
            counts.table_entries += table.total_entries();
            let prebuilt = PrebuiltTable { table, work };
            trace.span("core.feedback", None, || {
                strategy.enter_chunk(next_enter, cs, events, Some(prebuilt))
            });
            next_enter += 1;
        }

        let id = Some(batch_idx as u64);
        let end = trace.span("core.scan", id, || strategy.next_batch_end(start, n_train));
        // A batch may straddle into a chunk that is not entered yet.
        while window.loaded_end() < end {
            window.load_next(&mut source, trace)?;
        }
        let size = end - start;
        if cfg.scale_lr_with_batch {
            opt.set_lr(cfg.lr * (size as f32 / cfg.eval_batch_size as f32).sqrt());
        }
        let batch = window.slice(start, end);
        let BatchForward {
            loss: loss_node,
            pending,
            ..
        } = trace.span("models.forward", id, || {
            model.forward_batch(batch, start, &window.feats)
        });
        let loss = loss_node.item();
        trace.span("tensor.backward", id, || loss_node.backward());
        trace.span("nn.optim", id, || {
            if let Some(clip) = cfg.clip_norm {
                clip_grad_norm(&params, clip);
            }
            opt.step();
        });
        let deltas = trace.span("models.apply", id, || {
            model.apply_batch(batch, start, &window.feats, pending)
        });
        // Batch boundary: trim the arena, as the library drivers do.
        trace.span("tensor.arena_reset", id, cascade_tensor::arena::reset);
        trace.span("core.feedback", id, || {
            strategy.after_batch(batch_idx, loss);
            strategy.observe_updates(&deltas);
        });
        drop(loss_node);

        batch_sizes.push(size as u32);
        batch_losses.push(loss);
        loss_sum += loss as f64 * size as f64;
        event_sum += size;
        batch_idx += 1;
        start = end;
        let next_chunk_at = if next_enter < train_chunks {
            next_enter * chunk_size
        } else {
            start
        };
        window.drop_below(start.min(next_chunk_at));
    }
    let epoch_loss = (loss_sum / event_sum.max(1) as f64) as f32;

    // Validation at the preset batch size, continuing the window.
    let mut val_sum = 0.0f64;
    let mut val_count = 0usize;
    let mut at = n_train;
    while at < val_end {
        let end = (at + cfg.eval_batch_size).min(val_end);
        while window.loaded_end() < end {
            window.load_next(&mut source, trace)?;
        }
        let batch = window.slice(at, end);
        let out = trace.span("models.eval", Some(batch_idx as u64), || {
            model.process_batch(batch, at, &window.feats)
        });
        val_sum += out.loss.item() as f64 * (end - at) as f64;
        val_count += end - at;
        batch_idx += 1;
        at = end;
        window.drop_below(at);
    }
    let wall_s = started.elapsed().as_secs_f64();

    let arena_after = cascade_tensor::arena::stats();
    counts.arena_hits = arena_after.hits - arena_before.hits;
    counts.arena_misses = arena_after.misses - arena_before.misses;
    let val_loss = if val_count == 0 {
        f32::NAN
    } else {
        (val_sum / val_count as f64) as f32
    };
    Ok((
        TrainOutcome {
            events: n_train + val_count,
            wall_s,
            unit_s: Vec::new(),
            train_loss: epoch_loss,
            val_loss,
            epoch_losses: vec![epoch_loss],
            batch_sizes,
            batch_losses,
        },
        counts,
    ))
}

/// Holds the traced run to the untraced one: batch sizes, per-batch
/// loss bits, epoch-loss bits and validation-loss bits must be equal.
///
/// # Errors
///
/// Names the first difference.
pub fn check_identical(untraced: &TrainOutcome, traced: &TrainOutcome) -> Result<(), String> {
    if untraced.batch_sizes != traced.batch_sizes {
        let at = untraced
            .batch_sizes
            .iter()
            .zip(&traced.batch_sizes)
            .position(|(a, b)| a != b);
        return Err(format!(
            "batch sizes differ ({} vs {} batches, first difference at {:?})",
            untraced.batch_sizes.len(),
            traced.batch_sizes.len(),
            at
        ));
    }
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
    if let Some(at) = bits(&untraced.batch_losses)
        .iter()
        .zip(bits(&traced.batch_losses))
        .position(|(a, b)| *a != b)
    {
        return Err(format!(
            "batch {} loss differs: {} vs {}",
            at, untraced.batch_losses[at], traced.batch_losses[at]
        ));
    }
    if bits(&untraced.epoch_losses) != bits(&traced.epoch_losses) {
        return Err(format!(
            "epoch losses differ: {:?} vs {:?}",
            untraced.epoch_losses, traced.epoch_losses
        ));
    }
    if untraced.val_loss.to_bits() != traced.val_loss.to_bits() {
        return Err(format!(
            "validation loss differs: {} vs {}",
            untraced.val_loss, traced.val_loss
        ));
    }
    if untraced.events != traced.events {
        return Err(format!(
            "events consumed differ: {} vs {}",
            untraced.events, traced.events
        ));
    }
    Ok(())
}

/// What the traced run's `dist` probe measured.
pub struct DistProbe {
    /// Events per wall second of the `train_dist` call.
    pub events_per_s: f64,
    /// Synchronous rounds the run took.
    pub rounds: usize,
    /// Mean training loss of the final epoch.
    pub train_loss: f32,
}

/// Trains `workers`-way data-parallel on the training split of `data`
/// through one `dist::train_dist` call, at the recipe's preset batch
/// size (the dist runtime batches at a fixed size).
///
/// # Errors
///
/// An event count that is not the training split, or a loss that is
/// not a finite number.
pub fn train_dist_probe(spec: &Spec, data: &Dataset, workers: usize) -> Result<DistProbe, String> {
    let train = &spec.recipe.train;
    let (n_train, _) = splits(data.num_events());
    let dim = data.features().dim();
    let mut rows = Vec::with_capacity(n_train * dim);
    for i in 0..n_train {
        rows.extend_from_slice(data.features().row(i));
    }
    let head = Dataset::new(
        data.name(),
        data.stream().restricted(0..n_train),
        if dim == 0 {
            EdgeFeatures::none()
        } else {
            EdgeFeatures::new(rows, dim)
        },
    );
    // The dist runtime wants chunks that are whole batches.
    let chunk_size = spec.recipe.chunk_size.div_ceil(train.batch).max(1) * train.batch;
    let cfg = DistConfig {
        workers,
        chunk_size,
        batch_size: train.batch,
        epochs: train.epochs,
        lr: train.lr as f32,
        clip_norm: Some(5.0),
        seed: spec.seed,
    };
    let started = Instant::now();
    let run = train_dist(&head, &spec.model_config(), &cfg);
    let wall_s = started.elapsed().as_secs_f64();
    if run.report.events != n_train * train.epochs {
        return Err(format!(
            "train_dist consumed {} events, expected {}",
            run.report.events,
            n_train * train.epochs
        ));
    }
    let train_loss = run.report.epoch_losses.last().copied().unwrap_or(f32::NAN);
    if !train_loss.is_finite() || run.batches.iter().any(|b| !b.loss.is_finite()) {
        return Err(format!(
            "train_dist at {} workers produced a non-finite loss",
            workers
        ));
    }
    Ok(DistProbe {
        events_per_s: run.report.events as f64 / wall_s,
        rounds: run.report.rounds,
        train_loss,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(sizes: &[u32], losses: &[f32], val: f32) -> TrainOutcome {
        TrainOutcome {
            events: sizes.iter().sum::<u32>() as usize,
            wall_s: 1.0,
            unit_s: Vec::new(),
            train_loss: 0.5,
            val_loss: val,
            epoch_losses: vec![0.5],
            batch_sizes: sizes.to_vec(),
            batch_losses: losses.to_vec(),
        }
    }

    #[test]
    fn identity_check_is_bitwise() {
        let a = outcome(&[3, 4], &[0.25, 0.5], 0.7);
        assert!(check_identical(&a, &a.clone()).is_ok());
        let one_ulp = f32::from_bits(0.5f32.to_bits() + 1);
        assert!(check_identical(&a, &outcome(&[3, 4], &[0.25, one_ulp], 0.7)).is_err());
        assert!(check_identical(&a, &outcome(&[3, 5], &[0.25, 0.5], 0.7)).is_err());
        assert!(check_identical(&a, &outcome(&[3, 4], &[0.25, 0.5], 0.8)).is_err());
        // -0.0 == 0.0 numerically, but the bits differ.
        assert!(
            check_identical(&outcome(&[1], &[0.0], 0.7), &outcome(&[1], &[-0.0], 0.7)).is_err()
        );
    }

    #[test]
    fn units_cut_the_call_at_its_stamps_and_sum_to_it() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + std::time::Duration::from_millis(ms);
        let cut = units(at(0), &[at(5), at(7), at(12)], at(20));
        assert_eq!(cut, [0.005, 0.002, 0.005, 0.008]);
        assert_eq!(units(at(0), &[], at(3)), [0.003]);
    }

    #[test]
    fn splits_match_the_library() {
        assert_eq!(splits(100), (70, 85));
        assert_eq!(splits(7), (4, 5));
        let data = cascade_tgraph::SynthConfig::wiki()
            .with_scale(0.002)
            .generate(1);
        let (train_end, val_end) = splits(data.num_events());
        assert_eq!(data.train_range(), 0..train_end);
        assert_eq!(data.val_range(), train_end..val_end);
    }
}
