//! The three-stage pipelined training loop: a scout thread runs the
//! batch-boundary scan (Stage A) ahead of the driver thread's model
//! compute (Stage B) and memory update (Stage C), connected by bounded
//! queues and throttled by a staleness bound.
//!
//! ```text
//!            plans (sync_channel, capacity = depth)
//!   ┌───────┐ ────────────────────────────────────► ┌──────────────┐
//!   │ scout │                                       │    driver    │
//!   │ stage │                                       │ stage B: fwd │
//!   │ A:    │                                       │  loss, bwd,  │
//!   │ scan  │                                       │  optimizer   │
//!   │ + SG/ │                                       │ stage C: mem │
//!   │ ABS   │ ◄──────────────────────────────────── │  write, msgs │
//!   └───────┘   feedback (loss + memory deltas)     └──────────────┘
//! ```
//!
//! The scout consumes batch *j*'s feedback immediately before scanning
//! batch *j + staleness_bound + 1*, so the scheduler state a boundary is
//! computed from is never more than `staleness_bound` batches behind the
//! training frontier, and the batch partition is a deterministic function
//! of the configuration (no dependence on thread timing). At
//! `staleness_bound = 0` the schedule degenerates to the serial trainer's
//! scan → compute → update → feedback order and the run is bit-identical
//! to [`cascade_core::train`].
//!
//! Shutdown is panic-safe by construction: each side only ever blocks on
//! a channel whose other end is owned by the peer, so when either side
//! dies (panic or early error) the channel disconnects, the survivor
//! drains and exits, and [`train_pipelined`] reports a [`PipelineError`]
//! naming the failed stage instead of deadlocking.

// cascade-lint: allow-file(det-wallclock): per-stage Instant readings fill PipelineReport timing telemetry only; batch plans and staleness throttling depend solely on queue occupancy and event data.
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::sync_channel;
use std::time::{Duration, Instant};

use cascade_core::{
    evaluate, BatchingStrategy, RunFacts, StageTiming, StepOutput, TrainConfig, TrainReport,
    TrainStep,
};
use cascade_models::MemoryTgnn;
use cascade_tgraph::Dataset;

/// Overlap policy of the pipelined executor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PipelineConfig {
    /// Prefetch depth: how many scanned-but-unprocessed batch plans the
    /// scout may queue ahead of the driver (the plan channel's capacity).
    /// Clamped to at least 1.
    pub depth: usize,
    /// Maximum scheduler staleness, in batches: the boundary of batch
    /// `i` is computed from scheduler state (SG-Filter flags, ABS
    /// `Max_r`) that has absorbed feedback from at least batch
    /// `i - staleness_bound - 1`. `0` reproduces serial training
    /// bit for bit; higher bounds buy more overlap at the price of
    /// slightly stale boundary decisions (never stale *memories* — the
    /// driver applies every update before the next forward pass).
    pub staleness_bound: usize,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            depth: 2,
            staleness_bound: 1,
        }
    }
}

impl PipelineConfig {
    /// Sets the prefetch depth.
    pub fn with_depth(mut self, depth: usize) -> Self {
        self.depth = depth;
        self
    }

    /// Sets the staleness bound (`0` pins the serial schedule).
    pub fn with_staleness(mut self, bound: usize) -> Self {
        self.staleness_bound = bound;
        self
    }
}

/// The pipeline stage a failure originated in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PipelineStage {
    /// Stage A: boundary scan / scheduler feedback (scout thread).
    Scan,
    /// Stage B: forward, loss, backward, optimizer.
    Compute,
    /// Stage C: memory write-back, message generation.
    Update,
    /// Stage L: chunk prefetch / background table build (out-of-core
    /// streaming's loader thread, see [`crate::train_streamed`]).
    Load,
}

impl fmt::Display for PipelineStage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            PipelineStage::Scan => "scan",
            PipelineStage::Compute => "compute",
            PipelineStage::Update => "update",
            PipelineStage::Load => "load",
        })
    }
}

/// A stage failure, reported instead of a deadlock or an abort: the
/// surviving stages drained their queues and shut down cleanly.
#[derive(Clone, Debug)]
pub struct PipelineError {
    /// The stage that failed.
    pub stage: PipelineStage,
    /// The failure's panic payload or diagnostic message.
    pub message: String,
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "pipeline stage '{}' failed: {}",
            self.stage, self.message
        )
    }
}

impl std::error::Error for PipelineError {}

/// One scanned batch, flowing scout → driver. Feedback flows back as
/// the step's own [`StepOutput`].
struct BatchPlan {
    epoch: usize,
    start: usize,
    end: usize,
}

/// What the scout measured on its own thread; everything else the
/// report needs is read off the strategy once the scout has retired.
struct ScoutReport {
    scan: StageTiming,
    prepare: Duration,
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "stage panicked".to_string()
    }
}

/// Trains `model` on `data`'s training range with the three-stage
/// pipeline, then evaluates on the validation range — the pipelined
/// counterpart of [`cascade_core::train`].
///
/// With `staleness_bound = 0` the result is bit-identical to the serial
/// trainer: same batch partition, same losses, same final memory and
/// parameter state. With a positive
/// staleness bound the scout overlaps boundary scans and SG-Filter/ABS
/// refreshes with model compute; the partition may then differ from the
/// serial one, but it is still deterministic for a given configuration,
/// and node memories are never read stale.
///
/// # Errors
///
/// Returns a [`PipelineError`] naming the failed stage if the strategy
/// or a model stage panics, or if the strategy produces an invalid
/// boundary. Queues are drained and the scout thread joined before
/// returning — the call never deadlocks and never leaks the thread.
///
/// # Panics
///
/// Panics if the dataset's training range is empty or `cfg.epochs == 0`
/// (the same contract as the serial trainer).
pub fn train_pipelined(
    model: &mut MemoryTgnn,
    data: &Dataset,
    strategy: &mut (dyn BatchingStrategy + Send),
    cfg: &TrainConfig,
    pcfg: &PipelineConfig,
) -> Result<TrainReport, PipelineError> {
    let mut step = TrainStep::new(model, cfg);
    let train_range = data.train_range();
    assert!(!train_range.is_empty(), "empty training range");
    let events = data.stream().events();
    let n_train = train_range.end;
    let num_nodes = data.num_nodes();
    let epochs = cfg.epochs;
    let staleness = pcfg.staleness_bound;
    let depth = pcfg.depth.max(1);

    let scout_outcome = std::thread::scope(|s| {
        // Plans prefetch up to `depth` ahead; the feedback queue is sized
        // so the driver's send can never block (at most
        // `depth + staleness + 1` batches are ever in flight), which
        // breaks the only possible send/send deadlock cycle.
        let (plan_tx, plan_rx) = sync_channel::<BatchPlan>(depth);
        let (fb_tx, fb_rx) = sync_channel::<StepOutput>(depth + staleness + 2);

        let strategy = &mut *strategy;
        let scout = s.spawn(move || -> Result<ScoutReport, ()> {
            let mut scan = StageTiming::default();
            let t_prep = Instant::now();
            strategy.prepare(&events[..n_train], num_nodes);
            let prepare = t_prep.elapsed();

            // Scanned-but-not-fed-back batches.
            let mut in_flight = 0usize;
            for epoch in 0..epochs {
                // The scout drains the feedback queue at every epoch end,
                // so by this point the whole previous epoch is absorbed.
                strategy.reset_epoch();
                let mut start = 0usize;
                loop {
                    // Before every scan, absorb feedback until at most
                    // `staleness` batches are outstanding: a counting
                    // gate, so the feedback-consumption schedule does not
                    // depend on timing. At the epoch's end absorb all of
                    // it, so SG-Filter/ABS resets see a fully observed
                    // epoch (and cross-epoch state matches the serial
                    // trainer's).
                    let allowed = if start < n_train { staleness } else { 0 };
                    while in_flight > allowed {
                        let t0 = Instant::now();
                        let fb = fb_rx.recv().map_err(drop)?;
                        scan.stall += t0.elapsed();
                        let t1 = Instant::now();
                        TrainStep::feedback(strategy, &fb);
                        scan.busy += t1.elapsed();
                        in_flight -= 1;
                    }
                    if start >= n_train {
                        break;
                    }
                    let t0 = Instant::now();
                    let end = strategy.next_batch_end(start, n_train);
                    scan.record(t0.elapsed());
                    let t1 = Instant::now();
                    plan_tx
                        .send(BatchPlan { epoch, start, end })
                        .map_err(drop)?;
                    scan.stall += t1.elapsed();
                    in_flight += 1;
                    // A bogus boundary is reported by the driver; stop
                    // scanning rather than loop forever on `end <= start`.
                    if end <= start || end > n_train {
                        return Err(());
                    }
                    start = end;
                }
            }
            Ok(ScoutReport { scan, prepare })
        });

        // ---- Driver: the train step over incoming plans. ----
        let mut error: Option<PipelineError> = None;
        let mut cur_epoch = usize::MAX;
        loop {
            let t0 = Instant::now();
            let plan = match plan_rx.recv() {
                Ok(p) => p,
                Err(_) => break, // scout retired (or died; join tells)
            };
            step.stages.compute.stall += t0.elapsed();
            if plan.start >= plan.end || plan.end > n_train {
                error = Some(PipelineError {
                    stage: PipelineStage::Scan,
                    message: format!(
                        "invalid batch boundary {}..{} (stream length {})",
                        plan.start, plan.end, n_train
                    ),
                });
                break;
            }
            if plan.epoch != cur_epoch {
                if cur_epoch != usize::MAX {
                    step.end_epoch();
                }
                model.reset_state();
                cur_epoch = plan.epoch;
            }

            // Autograd failures take the *typed* path: the step surfaces
            // a structural problem (non-scalar loss, upstream length
            // mismatch) as an `AutogradError` without unwinding, mapped
            // straight to a Compute-stage PipelineError here. The
            // surrounding catch_unwind remains as the backstop for
            // genuine panics in either stage (shape asserts, index
            // bounds), so the scout is always joined either way; a panic
            // after stage B was recorded came from stage C.
            let ran = catch_unwind(AssertUnwindSafe(|| {
                step.run(
                    model,
                    &events[plan.start..plan.end],
                    plan.start,
                    data.features(),
                )
            }));
            let out = match ran {
                Ok(Ok(out)) => out,
                Ok(Err(e)) => {
                    error = Some(PipelineError {
                        stage: PipelineStage::Compute,
                        message: format!("autograd failed: {e}"),
                    });
                    break;
                }
                Err(payload) => {
                    let stage = if step.stages.compute.items > step.stages.update.items {
                        PipelineStage::Update
                    } else {
                        PipelineStage::Compute
                    };
                    error = Some(PipelineError {
                        stage,
                        message: panic_message(payload),
                    });
                    break;
                }
            };

            let t3 = Instant::now();
            if fb_tx.send(out).is_err() {
                break; // scout died; join reports the real failure
            }
            step.stages.update.stall += t3.elapsed();
        }

        // Unblock and retire the scout: closing our channel ends makes
        // every scout-side send/recv fail fast, so join cannot hang.
        drop(plan_rx);
        drop(fb_tx);
        let joined = scout.join();
        if let Some(e) = error {
            return Err(e);
        }
        match joined {
            Ok(Ok(report)) => Ok(report),
            Ok(Err(())) => Err(PipelineError {
                stage: PipelineStage::Scan,
                message: "scan stage exited before the stream was fully scheduled".to_string(),
            }),
            Err(payload) => Err(PipelineError {
                stage: PipelineStage::Scan,
                message: panic_message(payload),
            }),
        }
    });
    let scout_report = scout_outcome?;
    step.end_epoch();
    step.stages.scan = scout_report.scan;

    let val = evaluate(model, data, cfg.eval_batch_size);
    Ok(step.finish(
        model,
        strategy,
        RunFacts {
            dataset: data.name().to_string(),
            prepare: scout_report.prepare,
            graph_bytes: std::mem::size_of_val(events),
            feature_bytes: data.features().size_bytes(),
            val,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cascade_core::{train, FixedBatching};
    use cascade_models::ModelConfig;
    use cascade_tgraph::SynthConfig;

    fn tiny_dataset() -> Dataset {
        SynthConfig::wiki().with_scale(0.005).generate(9)
    }

    fn tiny_model(data: &Dataset) -> MemoryTgnn {
        MemoryTgnn::new(
            ModelConfig::tgn().with_dims(8, 4).with_neighbors(3),
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
    fn pipelined_fixed_batching_matches_serial() {
        let data = tiny_dataset();
        let mut m1 = tiny_model(&data);
        let mut s1 = FixedBatching::new(64);
        let serial = train(&mut m1, &data, &mut s1, &tiny_cfg());

        let mut m2 = tiny_model(&data);
        let mut s2 = FixedBatching::new(64);
        let piped = train_pipelined(
            &mut m2,
            &data,
            &mut s2,
            &tiny_cfg(),
            &PipelineConfig::default().with_staleness(0),
        )
        .expect("pipeline failed");

        assert_eq!(serial.epoch_losses, piped.epoch_losses);
        assert_eq!(serial.batch_sizes, piped.batch_sizes);
        assert_eq!(serial.val_loss, piped.val_loss);
    }

    #[test]
    fn stage_items_are_consistent() {
        let data = tiny_dataset();
        let mut model = tiny_model(&data);
        let mut strat = FixedBatching::new(64);
        let r = train_pipelined(
            &mut model,
            &data,
            &mut strat,
            &tiny_cfg(),
            &PipelineConfig::default().with_depth(3).with_staleness(2),
        )
        .expect("pipeline failed");
        assert_eq!(r.stages.scan.items, r.num_batches);
        assert_eq!(r.stages.compute.items, r.num_batches);
        assert_eq!(r.stages.update.items, r.num_batches);
        assert_eq!(
            r.batch_sizes.iter().map(|&b| b as usize).sum::<usize>(),
            data.train_range().end * r.epochs
        );
    }

    #[test]
    fn error_display_names_stage() {
        let e = PipelineError {
            stage: PipelineStage::Update,
            message: "boom".into(),
        };
        assert_eq!(e.to_string(), "pipeline stage 'update' failed: boom");
    }
}
