//! Integration tests for shard-parallel batch compute: any
//! `compute_threads` value must be bit-identical to the single-threaded
//! run through both the in-memory trainer and a chunked stream.

use cascade_core::{
    train, train_streaming, CascadeConfig, CascadeScheduler, TrainConfig, TrainReport,
};
use cascade_models::{MemoryTgnn, ModelConfig};
use cascade_nn::Module;
use cascade_tgraph::{Dataset, InMemorySource, NodeId, SynthConfig};

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

fn train_cfg(threads: usize) -> TrainConfig {
    TrainConfig {
        epochs: 2,
        lr: 1e-3,
        eval_batch_size: 64,
        clip_norm: Some(5.0),
        compute_threads: threads,
        ..TrainConfig::default()
    }
}

fn scheduler() -> CascadeScheduler {
    CascadeScheduler::new(CascadeConfig {
        preset_batch_size: 64,
        ..CascadeConfig::default()
    })
}

fn assert_same_state(a: &MemoryTgnn, b: &MemoryTgnn, data: &Dataset, label: &str) {
    for node in 0..data.num_nodes() as u32 {
        assert_eq!(
            a.plane().memory_read(NodeId(node)),
            b.plane().memory_read(NodeId(node)),
            "{label}: memory row {node} diverged"
        );
    }
    for (i, (pa, pb)) in a.parameters().iter().zip(b.parameters().iter()).enumerate() {
        assert_eq!(
            pa.data().to_vec(),
            pb.data().to_vec(),
            "{label}: parameter {i} diverged"
        );
    }
}

fn assert_same_report(a: &TrainReport, b: &TrainReport, label: &str) {
    assert_eq!(a.epoch_losses, b.epoch_losses, "{label}: epoch losses");
    assert_eq!(a.batch_losses, b.batch_losses, "{label}: batch losses");
    assert_eq!(a.batch_sizes, b.batch_sizes, "{label}: batch partition");
    assert_eq!(a.val_loss, b.val_loss, "{label}: validation loss");
    assert_eq!(a.val_ap, b.val_ap, "{label}: validation AP");
}

/// The serial trainer with `compute_threads = N` must reproduce the
/// single-threaded run bit for bit: same losses, same partition, same
/// final parameters and node memories.
#[test]
fn serial_trainer_is_bit_identical_across_thread_counts() {
    let data = dataset();

    let mut base_model = model_for(&data);
    let mut base_strategy = scheduler();
    let base = train(&mut base_model, &data, &mut base_strategy, &train_cfg(1));

    for threads in [2usize, 4] {
        let mut model = model_for(&data);
        let mut strategy = scheduler();
        let report = train(&mut model, &data, &mut strategy, &train_cfg(threads));
        let label = format!("serial threads={threads}");
        assert_same_report(&base, &report, &label);
        assert_same_state(&base_model, &model, &data, &label);
    }
}

/// The loader thread composes with shard-parallel compute: Cascade_EX
/// over 128-event chunks, whose tables the loader builds, at
/// `compute_threads = 4` matches the same stream at one thread bit for
/// bit.
#[test]
fn chunked_parallel_compute_matches_chunked_single_thread() {
    let data = dataset();
    let run = |threads: usize| {
        let mut model = model_for(&data);
        let mut source = InMemorySource::from_dataset(&data, 128);
        let report = train_streaming(
            &mut model,
            &mut source,
            &mut scheduler(),
            &train_cfg(threads),
        )
        .expect("an in-memory source cannot fail");
        (report, model)
    };
    let (serial, serial_model) = run(1);
    let (sharded, sharded_model) = run(4);
    assert_eq!(sharded.strategy, "Cascade_EX");
    assert!(
        !sharded.stages.shard_compute.is_empty(),
        "batches were sharded"
    );
    assert_same_report(&serial, &sharded, "chunked threads=4");
    assert_same_state(&serial_model, &sharded_model, &data, "chunked threads=4");
}

/// Shard telemetry appears exactly when the batch compute is sharded:
/// multi-thread runs populate `shard_compute`, and the per-shard busy
/// split stays a sub-division of the compute stage (its straggler stall
/// never reaches the stages, so the serial invariants hold unchanged).
#[test]
fn shard_telemetry_is_populated_and_excluded_from_totals() {
    let data = dataset();
    let mut model = model_for(&data);
    let mut strategy = scheduler();
    let report = train(&mut model, &data, &mut strategy, &train_cfg(4));

    let stages = &report.stages;
    assert!(
        !stages.shard_compute.is_empty(),
        "multi-thread run must record per-shard telemetry"
    );
    assert!(stages.shard_busy_total() > std::time::Duration::ZERO);
    for (s, shard) in stages.shard_compute.iter().enumerate() {
        assert!(shard.items > 0, "shard {s} recorded no batches");
    }
    // Per-shard timings sub-divide compute.busy; their straggler stalls
    // must not leak into the stages the serial invariants rely on.
    assert_eq!(
        stages.compute.stall + stages.update.stall,
        std::time::Duration::ZERO
    );
}
