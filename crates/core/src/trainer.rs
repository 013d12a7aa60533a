//! Training configuration, the measurement report, in-memory training
//! (the streaming driver over the dataset as one chunk), and validation.

use std::time::Duration;

use cascade_models::MemoryTgnn;
use cascade_nn::{average_precision, binary_accuracy};
use cascade_tgraph::{Dataset, EdgeFeatures, Event, InMemorySource};

use crate::batching::BatchingStrategy;
use crate::instrument::{SpaceBreakdown, StageTimings};
use crate::streaming::train_streaming;

/// Training-run configuration.
#[derive(Clone, Debug)]
pub struct TrainConfig {
    /// Number of epochs over the training range.
    pub epochs: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Batch size used for validation (the paper evaluates everything at
    /// 900 regardless of the training strategy).
    pub eval_batch_size: usize,
    /// Optional global gradient-norm clip.
    pub clip_norm: Option<f32>,
    /// Square-root learning-rate scaling with batch size, relative to
    /// `eval_batch_size`: `lr_eff = lr · √(B / eval_batch_size)`. The
    /// standard compensation for larger batches taking fewer optimizer
    /// steps; applied uniformly to every strategy.
    pub scale_lr_with_batch: bool,
    /// Threads a run computes on: [`TrainStep::new`](crate::TrainStep::new)
    /// installs it as the training thread's compute budget
    /// ([`cascade_tensor::install_budget`]) for as long as the step lives,
    /// so a batch's forward and backward shards, the fused GRU updater's
    /// row ranges and the validation tail run on that thread and up to
    /// `compute_threads - 1` scoped workers that borrow its arena. No
    /// model carries it, and a thread that installs nothing (a serve
    /// writer, a predict handler) computes alone. Defaults to the host's
    /// [`available_parallelism`](std::thread::available_parallelism) (1
    /// when unknown). The shard layout is fixed by batch size and the
    /// updater keeps each element's float operations, so any value here
    /// produces bit-identical parameters and memories — it only trades
    /// wall-clock time (clamped to at least 1).
    pub compute_threads: usize,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 3,
            lr: 1e-3,
            eval_batch_size: 900,
            clip_norm: Some(5.0),
            scale_lr_with_batch: false,
            compute_threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        }
    }
}

/// Everything a training run measured — the raw material of every figure
/// in the evaluation.
#[derive(Clone, Debug)]
pub struct TrainReport {
    /// Strategy name.
    pub strategy: String,
    /// Model name.
    pub model: String,
    /// Dataset name.
    pub dataset: String,
    /// Epochs trained.
    pub epochs: usize,
    /// End-to-end wall-clock (preprocessing + training, excluding
    /// validation).
    pub total_time: Duration,
    /// Dependency-structure construction time on the driver's thread
    /// (the strategy's `build_table` timer). Boundary lookup is
    /// `stages.scan.busy`.
    pub build_time: Duration,
    /// Model compute time (forward, backward, optimizer).
    pub model_time: Duration,
    /// Total batches processed across all epochs.
    pub num_batches: usize,
    /// Mean training batch size.
    pub avg_batch_size: f64,
    /// Largest training batch.
    pub max_batch_size: usize,
    /// Mean training loss of the final epoch.
    pub final_train_loss: f32,
    /// Validation loss at `eval_batch_size` after training.
    pub val_loss: f32,
    /// Validation link-prediction average precision.
    pub val_ap: f32,
    /// Validation binary accuracy (logit sign vs label).
    pub val_accuracy: f32,
    /// Mean training loss per epoch.
    pub epoch_losses: Vec<f32>,
    /// Every training batch's size, in processing order across epochs
    /// (the raw series behind Figure 12(a)).
    pub batch_sizes: Vec<u32>,
    /// Every training batch's loss, matching `batch_sizes`.
    pub batch_losses: Vec<f32>,
    /// Space accounting at end of run.
    pub space: SpaceBreakdown,
    /// Per-stage wall-time / stall / throughput telemetry; the driver's
    /// waits for the next chunk (a store read, the loader thread, or the
    /// in-memory copy of the one chunk) are `scan.stall`.
    pub stages: StageTimings,
}

impl TrainReport {
    /// Events processed per second of total time.
    pub fn throughput(&self, events_per_epoch: usize) -> f64 {
        let total = (events_per_epoch * self.epochs) as f64;
        total / self.total_time.as_secs_f64().max(1e-12)
    }
}

/// Trains `model` on `data`'s training range with the given batching
/// strategy, then evaluates on the validation range: the streaming
/// driver over the dataset as one chunk. A strategy observes every
/// batch's memory transitions through
/// [`observe_updates`](BatchingStrategy::observe_updates), so an
/// experiment that needs them wraps its strategy.
///
/// # Panics
///
/// Panics if the dataset's training range is empty, `cfg.epochs == 0`,
/// `cfg.eval_batch_size == 0`, the strategy cannot stream, or it answers
/// a scan with an empty or overlong batch.
pub fn train(
    model: &mut MemoryTgnn,
    data: &Dataset,
    strategy: &mut dyn BatchingStrategy,
    cfg: &TrainConfig,
) -> TrainReport {
    let mut source = InMemorySource::from_dataset(data, data.num_events().max(1));
    train_streaming(model, &mut source, strategy, cfg).expect(
        "in-memory training fails only on a strategy that cannot stream or cuts a bad batch",
    )
}

/// Link-prediction evaluation metrics.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EvalReport {
    /// Mean BCE loss.
    pub loss: f32,
    /// Average precision of true edges vs negative samples.
    pub average_precision: f32,
    /// Fraction of logits on the correct side of zero.
    pub accuracy: f32,
}

/// Evaluates over the dataset's validation range at the given batch size;
/// memories advance but weights do not.
///
/// Returns `NaN` metrics for an empty validation range.
///
/// # Panics
///
/// Panics if `batch_size == 0`.
pub fn evaluate(model: &mut MemoryTgnn, data: &Dataset, batch_size: usize) -> EvalReport {
    evaluate_range(model, data, data.val_range(), batch_size)
}

/// Evaluates over an explicit event range (e.g. the test split).
///
/// # Panics
///
/// Panics if `batch_size == 0` or the range exceeds the stream.
pub fn evaluate_range(
    model: &mut MemoryTgnn,
    data: &Dataset,
    range: std::ops::Range<usize>,
    batch_size: usize,
) -> EvalReport {
    assert!(batch_size > 0, "eval batch size must be positive");
    let events = data.stream().events();
    let mut acc = EvalAccumulator::default();
    let mut start = range.start;
    while start < range.end {
        let end = (start + batch_size).min(range.end);
        acc.batch(model, &events[start..end], start, data.features());
        start = end;
    }
    acc.finish()
}

/// Folds evaluation batches into an [`EvalReport`]: the one validation
/// loop body, shared by [`evaluate_range`] and the streaming driver's
/// validation tail.
#[derive(Default)]
pub(crate) struct EvalAccumulator {
    loss_sum: f64,
    n: usize,
    logits: Vec<f32>,
    labels: Vec<f32>,
}

impl EvalAccumulator {
    /// Processes one batch (memories advance, weights do not).
    pub(crate) fn batch(
        &mut self,
        model: &mut MemoryTgnn,
        events: &[Event],
        first_id: usize,
        feats: &EdgeFeatures,
    ) {
        let out = model.process_batch(events, first_id, feats);
        self.loss_sum += out.loss.item() as f64 * events.len() as f64;
        self.n += events.len();
        self.labels
            .extend(std::iter::repeat_n(1.0, out.pos_logits.len()));
        self.logits.extend(out.pos_logits);
        self.labels
            .extend(std::iter::repeat_n(0.0, out.neg_logits.len()));
        self.logits.extend(out.neg_logits);
    }

    /// The metrics over everything seen; `NaN`s when that is nothing.
    pub(crate) fn finish(self) -> EvalReport {
        if self.n == 0 {
            return EvalReport {
                loss: f32::NAN,
                average_precision: f32::NAN,
                accuracy: f32::NAN,
            };
        }
        EvalReport {
            loss: (self.loss_sum / self.n as f64) as f32,
            average_precision: average_precision(&self.logits, &self.labels),
            accuracy: binary_accuracy(&self.logits, &self.labels),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batching::FixedBatching;
    use crate::scheduler::{CascadeConfig, CascadeScheduler};
    use cascade_models::ModelConfig;
    use cascade_tgraph::SynthConfig;

    fn tiny_dataset() -> Dataset {
        SynthConfig::wiki().with_scale(0.005).generate(9)
    }

    fn tiny_model(data: &Dataset) -> MemoryTgnn {
        MemoryTgnn::new(
            ModelConfig::tgn().at_width(8).with_neighbors(3),
            data.num_nodes(),
            data.features().dim(),
            3,
        )
    }

    fn tiny_cfg() -> TrainConfig {
        TrainConfig {
            epochs: 2,
            lr: 1e-3,
            eval_batch_size: 64,
            clip_norm: Some(5.0),
            ..TrainConfig::default()
        }
    }

    #[test]
    fn fixed_batching_report_is_consistent() {
        let data = tiny_dataset();
        let mut model = tiny_model(&data);
        let mut strat = FixedBatching::new(64);
        let r = train(&mut model, &data, &mut strat, &tiny_cfg());
        assert_eq!(r.epochs, 2);
        assert!(r.val_loss.is_finite());
        assert!(r.avg_batch_size <= 64.0 + 1e-9);
        assert!(r.max_batch_size <= 64);
        assert_eq!(r.epoch_losses.len(), 2);
        assert!(r.space.graph > 0);
        assert!(r.space.model > 0);
    }

    #[test]
    fn cascade_report_has_bigger_batches() {
        let data = tiny_dataset();
        let cfg = tiny_cfg();

        let mut m1 = tiny_model(&data);
        let mut fixed = FixedBatching::new(64);
        let fixed_r = train(&mut m1, &data, &mut fixed, &cfg);

        let mut m2 = tiny_model(&data);
        let mut cascade = CascadeScheduler::new(CascadeConfig {
            preset_batch_size: 64,
            ..CascadeConfig::default()
        });
        let cascade_r = train(&mut m2, &data, &mut cascade, &cfg);

        assert!(
            cascade_r.avg_batch_size > fixed_r.avg_batch_size,
            "cascade {} <= fixed {}",
            cascade_r.avg_batch_size,
            fixed_r.avg_batch_size
        );
        assert!(cascade_r.num_batches < fixed_r.num_batches);
        assert!(cascade_r.space.dependency_table > 0);
    }

    #[test]
    fn serial_report_records_stage_timings() {
        let data = tiny_dataset();
        let mut model = tiny_model(&data);
        let mut strat = FixedBatching::new(64);
        let r = train(&mut model, &data, &mut strat, &tiny_cfg());
        assert_eq!(r.stages.scan.items, r.num_batches);
        assert_eq!(r.stages.compute.items, r.num_batches);
        assert_eq!(r.stages.update.items, r.num_batches);
        assert!(r.stages.compute.busy > Duration::ZERO);
        // The one chunk's copy is the only wait: the compute and update
        // stages never stall, and shard stalls stay out of the totals.
        assert_eq!(
            r.stages.compute.stall + r.stages.update.stall,
            Duration::ZERO
        );
        // The coarse model_time is exactly the two driver stages.
        assert_eq!(r.stages.compute.busy + r.stages.update.busy, r.model_time);
    }

    #[test]
    fn training_loss_decreases_over_epochs() {
        let data = tiny_dataset();
        let mut model = tiny_model(&data);
        let mut strat = FixedBatching::new(64);
        let cfg = TrainConfig {
            epochs: 4,
            ..tiny_cfg()
        };
        let r = train(&mut model, &data, &mut strat, &cfg);
        assert!(
            r.epoch_losses.last().unwrap() < r.epoch_losses.first().unwrap(),
            "losses: {:?}",
            r.epoch_losses
        );
    }

    /// Fixed batching that counts the memory transitions fed back to it.
    struct Observed(FixedBatching, usize);

    impl BatchingStrategy for Observed {
        fn name(&self) -> String {
            self.0.name()
        }
        fn next_batch_end(&mut self, start: usize, limit: usize) -> usize {
            self.0.next_batch_end(start, limit)
        }
        fn observe_updates(&mut self, deltas: &[cascade_models::MemoryDelta]) {
            self.1 += deltas.len();
        }
        fn prepare_streaming(&mut self, _: usize, _: usize, _: usize) -> bool {
            true
        }
    }

    #[test]
    fn strategy_observes_updates() {
        let data = tiny_dataset();
        let mut model = tiny_model(&data);
        let mut strat = Observed(FixedBatching::new(64), 0);
        let _ = train(&mut model, &data, &mut strat, &tiny_cfg());
        assert!(strat.1 > 0, "the strategy never saw a memory update");
    }

    #[test]
    #[should_panic(expected = "eval batch size must be positive")]
    fn rejects_zero_eval_batch() {
        let data = tiny_dataset();
        let mut model = tiny_model(&data);
        let cfg = TrainConfig {
            eval_batch_size: 0,
            scale_lr_with_batch: true,
            ..tiny_cfg()
        };
        // Through the chunked driver, whose validation tail has no guard
        // of its own.
        let mut source = InMemorySource::from_dataset(&data, 128);
        let _ = train_streaming(&mut model, &mut source, &mut FixedBatching::new(64), &cfg);
    }

    #[test]
    fn evaluate_is_deterministic_given_state() {
        let data = tiny_dataset();
        let mut model = tiny_model(&data);
        let mut strat = FixedBatching::new(64);
        let r1 = train(&mut model, &data, &mut strat, &tiny_cfg());
        assert!(r1.val_loss.is_finite());
    }

    #[test]
    #[should_panic(expected = "at least one epoch")]
    fn rejects_zero_epochs() {
        let data = tiny_dataset();
        let mut model = tiny_model(&data);
        let mut strat = FixedBatching::new(64);
        let cfg = TrainConfig {
            epochs: 0,
            ..tiny_cfg()
        };
        let _ = train(&mut model, &data, &mut strat, &cfg);
    }
}
