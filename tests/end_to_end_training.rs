//! End-to-end training across every model × strategy combination.

use cascade_baselines::{tgl, Etc, NeutronStream};
use cascade_core::{train, BatchingStrategy, CascadeConfig, CascadeScheduler, TrainConfig};
use cascade_models::{MemoryTgnn, ModelConfig};
use cascade_tgraph::{Dataset, SynthConfig};

fn tiny_dataset() -> Dataset {
    SynthConfig::wiki()
        .with_scale(0.006)
        .with_node_scale(0.02)
        .with_feature_dim(4)
        .generate(3)
}

fn tiny_model(data: &Dataset, base: ModelConfig) -> MemoryTgnn {
    MemoryTgnn::new(
        base.with_dims(8, 4).with_neighbors(2),
        data.num_nodes(),
        data.features().dim(),
        7,
    )
}

fn tiny_cfg() -> TrainConfig {
    TrainConfig {
        epochs: 2,
        lr: 1e-3,
        eval_batch_size: 48,
        clip_norm: Some(5.0),
        ..TrainConfig::default()
    }
}

fn strategies() -> Vec<Box<dyn BatchingStrategy>> {
    vec![
        Box::new(tgl(48)),
        Box::new(CascadeScheduler::new(CascadeConfig {
            preset_batch_size: 48,
            ..CascadeConfig::default()
        })),
        Box::new(CascadeScheduler::new(
            CascadeConfig {
                preset_batch_size: 48,
                ..CascadeConfig::default()
            }
            .without_sg_filter(),
        )),
        Box::new(NeutronStream::new(48)),
        Box::new(Etc::new(48)),
    ]
}

#[test]
fn every_model_trains_under_every_strategy() {
    let data = tiny_dataset();
    for base in ModelConfig::all() {
        for mut strategy in strategies() {
            let mut model = tiny_model(&data, base.clone());
            let report = train(&mut model, &data, strategy.as_mut(), &tiny_cfg());
            assert!(
                report.val_loss.is_finite(),
                "{} under {} produced non-finite loss",
                base.name,
                report.strategy
            );
            assert!(report.num_batches > 0);
            assert!(report.avg_batch_size > 0.0);
            assert!(
                report.final_train_loss.is_finite(),
                "{} train loss NaN",
                base.name
            );
        }
    }
}

#[test]
fn losses_decrease_with_more_epochs() {
    let data = tiny_dataset();
    let mut model = tiny_model(&data, ModelConfig::tgn());
    let cfg = TrainConfig {
        epochs: 6,
        ..tiny_cfg()
    };
    let mut strategy = tgl(48);
    let report = train(&mut model, &data, &mut strategy, &cfg);
    let first = report.epoch_losses.first().copied().unwrap();
    let last = report.epoch_losses.last().copied().unwrap();
    assert!(
        last < first,
        "epoch losses did not decrease: {:?}",
        report.epoch_losses
    );
}

#[test]
fn cascade_reduces_batch_count_without_blowing_up_loss() {
    let data = tiny_dataset();
    let cfg = tiny_cfg();

    let mut baseline_model = tiny_model(&data, ModelConfig::tgn());
    let mut baseline = tgl(48);
    let base = train(&mut baseline_model, &data, &mut baseline, &cfg);

    let mut cascade_model = tiny_model(&data, ModelConfig::tgn());
    let mut cascade = CascadeScheduler::new(CascadeConfig {
        preset_batch_size: 48,
        ..CascadeConfig::default()
    });
    let cas = train(&mut cascade_model, &data, &mut cascade, &cfg);

    assert!(
        cas.num_batches <= base.num_batches,
        "cascade used more batches ({} vs {})",
        cas.num_batches,
        base.num_batches
    );
    assert!(
        cas.val_loss < base.val_loss * 1.5,
        "cascade loss blew up: {} vs {}",
        cas.val_loss,
        base.val_loss
    );
}

#[test]
fn lite_models_train_under_cascade() {
    let data = tiny_dataset();
    for base in [ModelConfig::tgn(), ModelConfig::tgat()] {
        let mut model = MemoryTgnn::new(
            base.with_dims(8, 4).with_neighbors(2).with_lite(),
            data.num_nodes(),
            data.features().dim(),
            7,
        );
        let mut cascade = CascadeScheduler::new(CascadeConfig {
            preset_batch_size: 48,
            ..CascadeConfig::default()
        });
        let report = train(&mut model, &data, &mut cascade, &tiny_cfg());
        assert!(report.val_loss.is_finite());
    }
}

#[test]
fn space_breakdown_is_complete() {
    let data = tiny_dataset();
    let mut model = tiny_model(&data, ModelConfig::tgn());
    let mut cascade = CascadeScheduler::new(CascadeConfig {
        preset_batch_size: 48,
        ..CascadeConfig::default()
    });
    let report = train(&mut model, &data, &mut cascade, &tiny_cfg());
    assert!(report.space.dependency_table > 0);
    assert!(report.space.stable_flags > 0);
    assert!(report.space.graph > 0);
    assert!(report.space.edge_features > 0);
    assert!(report.space.model > 0);
    assert!(report.space.memory > 0);
    let fr: f64 = report.space.fractions().iter().map(|(_, f)| f).sum();
    assert!((fr - 1.0).abs() < 1e-9);
}

#[test]
fn node_memories_stay_bounded() {
    // Every memory updater ends in tanh or a convex combination with a
    // tanh candidate, so memories must remain in [-1, 1] throughout
    // training — the stability property the SG-Filter's cosine measure
    // relies on.
    let data = tiny_dataset();
    for base in ModelConfig::all() {
        let mut model = tiny_model(&data, base.clone());
        let mut strat = tgl(48);
        let _ = train(&mut model, &data, &mut strat, &tiny_cfg());
        for n in 0..data.num_nodes() as u32 {
            let m = model.plane().memory_read(cascade_tgraph::NodeId(n));
            assert!(
                m.iter().all(|v| v.abs() <= 1.0 + 1e-5),
                "{}: node {} memory escaped [-1, 1]: {:?}",
                base.name,
                n,
                m
            );
        }
    }
}

#[test]
fn batch_history_is_recorded() {
    let data = tiny_dataset();
    let mut model = tiny_model(&data, ModelConfig::jodie());
    let mut strat = tgl(48);
    let report = train(&mut model, &data, &mut strat, &tiny_cfg());
    assert_eq!(report.batch_sizes.len(), report.num_batches);
    assert_eq!(report.batch_losses.len(), report.num_batches);
    let total: u32 = report.batch_sizes.iter().sum();
    assert_eq!(total as usize, data.train_range().len() * report.epochs);
}
