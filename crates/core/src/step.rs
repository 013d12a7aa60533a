//! The one train step (Algorithm 1's loop body) and the one place a
//! [`TrainReport`] is assembled.
//!
//! Every batch, in every driver, is the same sequence: scale the
//! learning rate, `forward_batch`, backward, clip, `opt.step`,
//! `apply_batch`, trim the arena, fold the batch into the run's
//! accumulators, then feed loss and memory deltas back to the strategy.
//! [`TrainStep`] is that sequence; the streaming driver (also under
//! [`train`](crate::train)) feeds it from whatever source its one loader
//! thread reads, so every feed is bit-identical by construction rather
//! than by replication.
//! `cascade-dist` calls the sequence's moves one by one
//! ([`compute`](TrainStep::compute), [`optimize`](TrainStep::optimize),
//! [`close`](TrainStep::close), [`record`](TrainStep::record)) with its
//! all-reduce and its split-phase apply between them.

// cascade-lint: allow-file(det-wallclock): stage timings land in TrainReport/StageTimings telemetry only; no Duration ever feeds batching, scheduling, or learning decisions.
use std::time::{Duration, Instant};

use cascade_models::{BatchForward, MemoryDelta, MemoryTgnn};
use cascade_nn::{clip_grad_norm, Adam, Module};
use cascade_tensor::{AutogradError, BudgetGuard, Tensor};
use cascade_tgraph::{EdgeFeatures, Event, EventId};

use crate::batching::BatchingStrategy;
use crate::instrument::{SpaceBreakdown, StageTimings};
use crate::trainer::{EvalReport, TrainConfig, TrainReport};

/// The run accumulators a [`TrainStep`] folds every batch into. A
/// [`StreamCheckpoint`](crate::StreamCheckpoint) carries them verbatim,
/// so a resumed run's [`TrainReport`] matches the uninterrupted one.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CheckpointProgress {
    /// Size-weighted loss sum of the current epoch.
    pub loss_sum: f64,
    /// Events processed in the current epoch.
    pub event_sum: usize,
    /// Batches processed in the current epoch.
    pub batch_idx: usize,
    /// Batches processed across all epochs so far.
    pub num_batches: usize,
    /// Largest batch seen so far.
    pub max_batch: usize,
    /// Mean losses of completed epochs.
    pub epoch_losses: Vec<f32>,
    /// Sizes of every batch so far.
    pub batch_sizes: Vec<u32>,
    /// Losses of every batch so far.
    pub batch_losses: Vec<f32>,
}

/// What one batch produced: exactly what the strategy is fed back.
#[derive(Debug)]
pub struct StepOutput {
    /// The batch's index within its epoch.
    pub batch_idx: usize,
    /// The batch's training loss.
    pub loss: f32,
    /// The node-memory transitions the batch applied.
    pub deltas: Vec<MemoryDelta>,
}

/// The parts of a [`TrainReport`] only the driver knows.
#[derive(Clone, Debug)]
pub struct RunFacts {
    /// Dataset (or source) name.
    pub dataset: String,
    /// Bytes of events resident at peak.
    pub graph_bytes: usize,
    /// Bytes of edge-feature rows resident.
    pub feature_bytes: usize,
    /// Validation metrics, evaluated after the last [`TrainStep::end_epoch`].
    pub val: EvalReport,
}

/// One training run's optimizer, stage timers and accumulators, and the
/// batch step every driver calls.
#[derive(Debug)]
pub struct TrainStep {
    cfg: TrainConfig,
    params: Vec<Tensor>,
    pub(crate) opt: Adam,
    pub(crate) progress: CheckpointProgress,
    /// Per-stage telemetry. [`scan`](Self::scan) and [`run`](Self::run)
    /// record busy time and items; drivers add the stalls only they can
    /// see (chunk loads).
    pub stages: StageTimings,
    started: Instant,
    total_time: Duration,
    /// `compute_threads` as the building thread's compute budget, until
    /// the step drops.
    _budget: BudgetGuard,
}

impl TrainStep {
    /// Starts a run: installs `cfg.compute_threads` as the calling
    /// thread's compute budget for as long as the step lives, builds the
    /// optimizer over the model's parameters and starts the wall clock.
    /// Every move of the step, and the validation tail of a run, computes
    /// on that thread.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.epochs == 0` or `cfg.eval_batch_size == 0` (the
    /// validation batch, and the reference of `scale_lr_with_batch`).
    pub fn new(model: &mut MemoryTgnn, cfg: &TrainConfig) -> Self {
        assert!(cfg.epochs > 0, "need at least one epoch");
        assert!(cfg.eval_batch_size > 0, "eval batch size must be positive");
        let budget = cascade_tensor::install_budget(cfg.compute_threads);
        let params = model.parameters();
        TrainStep {
            cfg: cfg.clone(),
            opt: Adam::new(params.clone(), cfg.lr),
            params,
            progress: CheckpointProgress::default(),
            stages: StageTimings::default(),
            started: Instant::now(),
            total_time: Duration::ZERO,
            _budget: budget,
        }
    }

    /// Stage A: asks `strategy` where the batch starting at `start` ends.
    ///
    /// # Errors
    ///
    /// Describes an answer outside `start < end <= limit`: an empty batch
    /// would never advance the stream.
    pub fn scan(
        &mut self,
        strategy: &mut dyn BatchingStrategy,
        start: EventId,
        limit: EventId,
    ) -> Result<EventId, String> {
        let t0 = Instant::now();
        let end = strategy.next_batch_end(start, limit);
        self.stages.scan.record(t0.elapsed());
        if end <= start || end > limit {
            return Err(format!(
                "strategy {} ended the batch starting at event {start} at {end} (limit {limit})",
                strategy.name()
            ));
        }
        Ok(end)
    }

    /// Stages B and C over one batch: `events` start at global id
    /// `first_id` and `feats` is indexed by global id. The serial order
    /// of the step's five moves; `cascade-dist` calls the same five
    /// around its all-reduce. (The four moves below are `#[inline]` so
    /// this stays one function: as four calls `train_events_per_s` read
    /// 1–1.5 % lower on two benchmark workloads, 11 of 12 alternated
    /// runs.)
    ///
    /// # Errors
    ///
    /// Returns the [`AutogradError`] of a structurally invalid backward
    /// pass; the batch is then neither applied nor counted.
    pub fn run(
        &mut self,
        model: &mut MemoryTgnn,
        events: &[Event],
        first_id: EventId,
        feats: &EdgeFeatures,
    ) -> Result<StepOutput, AutogradError> {
        let fwd = self.compute(model, events, first_id, feats)?;
        let loss = fwd.loss.item();
        self.optimize();

        let t2 = Instant::now();
        let deltas = model.apply_batch(events, first_id, feats, fwd.pending);
        self.stages.update.record(t2.elapsed());

        self.close(Some(fwd.loss));
        Ok(StepOutput {
            batch_idx: self.record(events.len(), loss),
            loss,
            deltas,
        })
    }

    /// Forward and backward over one batch: leaves the batch's gradients
    /// on the parameters and hands back the forward pass — its `pending`
    /// is the write-back ticket for the model's apply, and its `loss`
    /// owns the batch's autograd graph: keep it until
    /// [`close`](Self::close).
    ///
    /// # Errors
    ///
    /// Returns the [`AutogradError`] of a structurally invalid backward
    /// pass.
    #[inline]
    pub fn compute(
        &mut self,
        model: &MemoryTgnn,
        events: &[Event],
        first_id: EventId,
        feats: &EdgeFeatures,
    ) -> Result<BatchForward, AutogradError> {
        let t1 = Instant::now();
        if self.cfg.scale_lr_with_batch {
            let scale = (events.len() as f32 / self.cfg.eval_batch_size as f32).sqrt();
            self.opt.set_lr(self.cfg.lr * scale);
        }
        let fwd = model.forward_batch(events, first_id, feats);
        fwd.loss.try_backward()?;
        self.stages.compute.record(t1.elapsed());
        self.stages.record_shards(&fwd.shard_busy);
        Ok(fwd)
    }

    /// Clips and steps the optimizer over whatever gradients the
    /// parameters hold: this batch's own, or an all-reduced set installed
    /// over them.
    #[inline]
    pub fn optimize(&mut self) {
        let t1 = Instant::now();
        if let Some(c) = self.cfg.clip_norm {
            clip_grad_norm(&self.params, c);
        }
        self.opt.step();
        self.stages.compute.busy += t1.elapsed();
    }

    /// Batch boundary: trims the arena's surplus, then drops `graph`.
    /// The graph's buffers go back to the pool when it drops — after the
    /// trim, so they are all there for the next batch to reuse. `None`
    /// when this thread computed no batch since the last boundary.
    #[inline]
    pub fn close(&mut self, graph: Option<Tensor>) {
        cascade_tensor::arena::reset();
        drop(graph);
    }

    /// Folds one processed batch into the run's accumulators and returns
    /// its index within the epoch.
    #[inline]
    pub fn record(&mut self, size: usize, loss: f32) -> usize {
        let p = &mut self.progress;
        let batch_idx = p.batch_idx;
        p.batch_sizes.push(size as u32);
        p.batch_losses.push(loss);
        p.loss_sum += loss as f64 * size as f64;
        p.event_sum += size;
        p.max_batch = p.max_batch.max(size);
        p.num_batches += 1;
        p.batch_idx += 1;
        batch_idx
    }

    /// The parameters the step optimizes, in `model.parameters()` order.
    pub fn params(&self) -> &[Tensor] {
        &self.params
    }

    /// The optimizer's exported state.
    pub fn optimizer_state(&self) -> Vec<u8> {
        self.opt.export_state()
    }

    /// Mean losses of the epochs closed so far.
    pub fn epoch_losses(&self) -> &[f32] {
        &self.progress.epoch_losses
    }

    /// Feeds a processed batch back to the strategy (SG-Filter / ABS).
    pub fn feedback(strategy: &mut dyn BatchingStrategy, out: &StepOutput) {
        strategy.after_batch(out.batch_idx, out.loss);
        strategy.observe_updates(&out.deltas);
    }

    /// Closes the current epoch: records its mean loss and stamps the
    /// run's wall time, so the last epoch's stamp — taken before any
    /// validation — is the report's `total_time`.
    pub fn end_epoch(&mut self) {
        let p = &mut self.progress;
        p.epoch_losses
            .push((p.loss_sum / p.event_sum.max(1) as f64) as f32);
        p.loss_sum = 0.0;
        p.event_sum = 0;
        p.batch_idx = 0;
        self.total_time = self.started.elapsed();
    }

    /// Assembles the run's report.
    pub fn finish(
        self,
        model: &MemoryTgnn,
        strategy: &dyn BatchingStrategy,
        facts: RunFacts,
    ) -> TrainReport {
        let TrainStep {
            cfg,
            progress: p,
            stages,
            total_time,
            ..
        } = self;
        let events_processed: usize = p.batch_sizes.iter().map(|&b| b as usize).sum();
        let strat_space = strategy.space();
        let space = SpaceBreakdown {
            dependency_table: strat_space.dependency_bytes,
            stable_flags: strat_space.flag_bytes,
            graph: facts.graph_bytes,
            edge_features: facts.feature_bytes,
            model: model.parameter_count() * std::mem::size_of::<f32>(),
            mailbox: model.mailbox_size_bytes(),
            memory: model.memory_size_bytes(),
        };

        TrainReport {
            strategy: strategy.name(),
            model: model.name().to_string(),
            dataset: facts.dataset,
            epochs: cfg.epochs,
            total_time,
            build_time: strategy.timers().build_table,
            model_time: stages.compute.busy + stages.update.busy,
            num_batches: p.num_batches,
            avg_batch_size: events_processed as f64 / p.num_batches.max(1) as f64,
            max_batch_size: p.max_batch,
            final_train_loss: *p.epoch_losses.last().unwrap_or(&f32::NAN),
            val_loss: facts.val.loss,
            val_ap: facts.val.average_precision,
            val_accuracy: facts.val.accuracy,
            epoch_losses: p.epoch_losses,
            batch_sizes: p.batch_sizes,
            batch_losses: p.batch_losses,
            space,
            stages,
        }
    }
}
