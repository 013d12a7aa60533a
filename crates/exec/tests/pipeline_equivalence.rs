//! Integration tests for the pipelined executor: bit-identity with the
//! serial trainer at staleness 0, liveness/coverage under random
//! pipeline shapes, and panic-safe shutdown.

use cascade_core::{
    train, BatchingStrategy, CascadeConfig, CascadeScheduler, FixedBatching, TrainConfig,
};
use cascade_exec::{train_pipelined, PipelineConfig, PipelineStage};
use cascade_models::{MemoryTgnn, ModelConfig};
use cascade_nn::Module;
use cascade_tgraph::{Dataset, EventId, NodeId, SynthConfig};
use cascade_util::{check, prop_assert};

fn dataset() -> Dataset {
    SynthConfig::wiki().with_scale(0.006).generate(23)
}

fn model_for(data: &Dataset) -> MemoryTgnn {
    MemoryTgnn::new(
        ModelConfig::tgn().with_dims(8, 4).with_neighbors(3),
        data.num_nodes(),
        data.features().dim(),
        11,
    )
}

fn train_cfg(epochs: usize) -> TrainConfig {
    TrainConfig {
        epochs,
        lr: 1e-3,
        eval_batch_size: 64,
        clip_norm: Some(5.0),
        ..TrainConfig::default()
    }
}

fn scheduler() -> CascadeScheduler {
    CascadeScheduler::new(CascadeConfig {
        preset_batch_size: 64,
        ..CascadeConfig::default()
    })
}

/// Staleness 0 must reproduce the serial trainer bit for bit:
/// same partition, same losses, same final node memories, same final
/// parameters.
#[test]
fn deterministic_pipeline_is_bit_identical_to_serial() {
    let data = dataset();

    let mut serial_model = model_for(&data);
    let mut serial_strategy = scheduler();
    let serial = train(
        &mut serial_model,
        &data,
        &mut serial_strategy,
        &train_cfg(2),
    );

    let mut piped_model = model_for(&data);
    let mut piped_strategy = scheduler();
    let piped = train_pipelined(
        &mut piped_model,
        &data,
        &mut piped_strategy,
        &train_cfg(2),
        &PipelineConfig::default().with_depth(4).with_staleness(0),
    )
    .expect("deterministic pipeline must not fail");

    assert_eq!(serial.epoch_losses, piped.epoch_losses);
    assert_eq!(serial.batch_sizes, piped.batch_sizes);
    assert_eq!(serial.batch_losses, piped.batch_losses);
    assert_eq!(serial.num_batches, piped.num_batches);
    assert_eq!(serial.val_loss, piped.val_loss);
    assert_eq!(serial.val_ap, piped.val_ap);

    for node in 0..data.num_nodes() as u32 {
        assert_eq!(
            serial_model.plane().memory_read(NodeId(node)),
            piped_model.plane().memory_read(NodeId(node)),
            "memory row {node} diverged"
        );
    }
    for (i, (a, b)) in serial_model
        .parameters()
        .iter()
        .zip(piped_model.parameters().iter())
        .enumerate()
    {
        assert_eq!(
            a.data().to_vec(),
            b.data().to_vec(),
            "parameter {i} diverged"
        );
    }
}

/// `staleness_bound = 0` pins the serial schedule at any depth and for
/// the fixed-size strategy too.
#[test]
fn zero_staleness_matches_serial_losses() {
    let data = dataset();

    let mut m1 = model_for(&data);
    let mut s1 = FixedBatching::new(48);
    let serial = train(&mut m1, &data, &mut s1, &train_cfg(1));

    let mut m2 = model_for(&data);
    let mut s2 = FixedBatching::new(48);
    let piped = train_pipelined(
        &mut m2,
        &data,
        &mut s2,
        &train_cfg(1),
        &PipelineConfig::default().with_depth(2).with_staleness(0),
    )
    .expect("pipeline failed");

    assert_eq!(serial.epoch_losses, piped.epoch_losses);
    assert_eq!(serial.batch_losses, piped.batch_losses);
}

/// Random pipeline shapes: whatever the depth and staleness bound, the
/// pipeline must terminate (no deadlock), process every event exactly
/// once per epoch, and produce finite losses. Runs under the seeded
/// deterministic property harness.
#[test]
fn random_shapes_terminate_and_cover_the_stream() {
    let data = SynthConfig::wiki().with_scale(0.003).generate(5);
    let n_train = data.train_range().end;
    check("pipeline_shape_liveness", |g| {
        let depth = g.usize_in(1..5);
        let staleness = g.usize_in(0..4);
        let batch = g.usize_in(16..97);
        let mut model = MemoryTgnn::new(
            ModelConfig::tgn().with_dims(4, 2).with_neighbors(2),
            data.num_nodes(),
            data.features().dim(),
            g.usize_in(0..1000) as u64,
        );
        let mut strategy = FixedBatching::new(batch);
        let report = train_pipelined(
            &mut model,
            &data,
            &mut strategy,
            &train_cfg(1),
            &PipelineConfig::default()
                .with_depth(depth)
                .with_staleness(staleness),
        )
        .map_err(|e| e.to_string())?;
        let covered: usize = report.batch_sizes.iter().map(|&b| b as usize).sum();
        prop_assert!(
            covered == n_train,
            "covered {covered} of {n_train} events (depth={depth} staleness={staleness} batch={batch})"
        );
        prop_assert!(report.stages.scan.items == report.num_batches);
        prop_assert!(report.stages.compute.items == report.num_batches);
        prop_assert!(report.stages.update.items == report.num_batches);
        for (i, loss) in report.epoch_losses.iter().enumerate() {
            prop_assert!(loss.is_finite(), "epoch {i} loss not finite");
        }
        Ok(())
    });
}

/// The pipeline partition is a deterministic function of its
/// configuration even for positive staleness bounds: two runs with the
/// same shape produce the same batches and losses.
#[test]
fn positive_staleness_is_reproducible() {
    let data = SynthConfig::wiki().with_scale(0.004).generate(7);
    let run = || {
        let mut model = model_for(&data);
        let mut strategy = scheduler();
        train_pipelined(
            &mut model,
            &data,
            &mut strategy,
            &train_cfg(1),
            &PipelineConfig::default().with_depth(3).with_staleness(2),
        )
        .expect("pipeline failed")
    };
    let a = run();
    let b = run();
    assert_eq!(a.batch_sizes, b.batch_sizes);
    assert_eq!(a.batch_losses, b.batch_losses);
    assert_eq!(a.epoch_losses, b.epoch_losses);
}

/// A strategy that panics mid-scan after a few good batches.
struct PanickingStrategy {
    calls: usize,
}

impl BatchingStrategy for PanickingStrategy {
    fn name(&self) -> String {
        "panicking".to_string()
    }

    fn next_batch_end(&mut self, start: EventId, limit: EventId) -> EventId {
        self.calls += 1;
        if self.calls > 3 {
            panic!("synthetic scan failure");
        }
        (start + 32).min(limit)
    }
}

/// A strategy that emits an out-of-range boundary.
struct BogusBoundary;

impl BatchingStrategy for BogusBoundary {
    fn name(&self) -> String {
        "bogus".to_string()
    }

    fn next_batch_end(&mut self, _start: EventId, limit: EventId) -> EventId {
        limit + 17
    }
}

/// A scout-side panic must surface as a Scan-stage error, with queues
/// drained and the thread joined — not a deadlock or an abort.
#[test]
fn scan_panic_is_reported_not_deadlocked() {
    let data = SynthConfig::wiki().with_scale(0.003).generate(3);
    let mut model = model_for(&data);
    let mut strategy = PanickingStrategy { calls: 0 };
    let err = train_pipelined(
        &mut model,
        &data,
        &mut strategy,
        &train_cfg(1),
        &PipelineConfig::default().with_depth(2).with_staleness(1),
    )
    .expect_err("panicking strategy must produce an error");
    assert_eq!(err.stage, PipelineStage::Scan);
    assert!(
        err.message.contains("synthetic scan failure"),
        "unexpected message: {}",
        err.message
    );
}

/// An invalid boundary is rejected by the driver and attributed to the
/// scan stage.
#[test]
fn invalid_boundary_is_reported() {
    let data = SynthConfig::wiki().with_scale(0.003).generate(3);
    let mut model = model_for(&data);
    let mut strategy = BogusBoundary;
    let err = train_pipelined(
        &mut model,
        &data,
        &mut strategy,
        &train_cfg(1),
        &PipelineConfig::default(),
    )
    .expect_err("bogus boundary must produce an error");
    assert_eq!(err.stage, PipelineStage::Scan);
    assert!(
        err.message.contains("invalid batch boundary"),
        "unexpected message: {}",
        err.message
    );
}

/// A model-side panic (here: a model sized for the wrong graph) surfaces
/// as a Compute-stage error and still shuts the scout down cleanly.
#[test]
fn compute_panic_is_reported_not_deadlocked() {
    let data = SynthConfig::wiki().with_scale(0.003).generate(3);
    // One memory row: the first event touching node >= 1 blows up in the
    // forward pass.
    let mut model = MemoryTgnn::new(
        ModelConfig::tgn().with_dims(4, 2).with_neighbors(2),
        1,
        data.features().dim(),
        3,
    );
    let mut strategy = FixedBatching::new(32);
    let err = train_pipelined(
        &mut model,
        &data,
        &mut strategy,
        &train_cfg(1),
        &PipelineConfig::default().with_depth(2).with_staleness(1),
    )
    .expect_err("undersized model must produce an error");
    assert_eq!(err.stage, PipelineStage::Compute);
}
