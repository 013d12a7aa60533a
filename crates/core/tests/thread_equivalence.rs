//! Shard telemetry of shard-parallel batch compute. (That any
//! `compute_threads` value is bit-identical to one thread is the driver
//! matrix, `tests/identity.rs` at the workspace root, and the batch table,
//! `crates/models/tests/batch_identity.rs`.)

use cascade_core::{train, CascadeConfig, CascadeScheduler, TrainConfig};
use cascade_models::{MemoryTgnn, ModelConfig};
use cascade_tgraph::SynthConfig;

/// Shard telemetry appears exactly when the batch compute is sharded:
/// multi-thread runs populate `shard_compute`, and the per-shard busy
/// split stays a sub-division of the compute stage (its straggler stall
/// never reaches the stages, so the serial invariants hold unchanged).
#[test]
fn shard_telemetry_is_populated_and_excluded_from_totals() {
    let data = SynthConfig::wiki().with_scale(0.006).generate(23);
    let cfg = ModelConfig::tgn().with_dims(8, 4).with_neighbors(3);
    let mut model = MemoryTgnn::new(cfg, data.num_nodes(), data.features().dim(), 11);
    let mut strategy = CascadeScheduler::new(CascadeConfig {
        preset_batch_size: 64,
        ..CascadeConfig::default()
    });
    let cfg = TrainConfig {
        epochs: 2,
        eval_batch_size: 64,
        compute_threads: 4,
        ..TrainConfig::default()
    };
    let report = train(&mut model, &data, &mut strategy, &cfg);

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
