//! Degenerate inputs and extremes: single nodes, empty histories, θ_sim
//! limits, tiny and huge `Max_r`, zero-width features.

use cascade_core::{
    evaluate, train, CascadeConfig, CascadeScheduler, DependencyTable, FixedBatching, SgFilter,
    TgDiffuser, TrainConfig,
};
use cascade_models::{MemoryDelta, MemoryTgnn, ModelConfig};
use cascade_tgraph::{Dataset, EdgeFeatures, Event, EventStream, NodeId, SynthConfig};

fn stream(pairs: &[(u32, u32)]) -> EventStream {
    EventStream::new(
        pairs
            .iter()
            .enumerate()
            .map(|(i, &(s, d))| Event::new(s, d, i as f64))
            .collect(),
    )
    .unwrap()
}

#[test]
fn two_node_graph_trains() {
    let events: Vec<(u32, u32)> = (0..40).map(|i| (i % 2, (i + 1) % 2)).collect();
    let data = Dataset::new("two", stream(&events), EdgeFeatures::none());
    let mut model = MemoryTgnn::new(
        ModelConfig::tgn().with_dims(4, 2).with_neighbors(1),
        data.num_nodes(),
        0,
        1,
    );
    let mut strat = FixedBatching::new(8);
    let cfg = TrainConfig {
        epochs: 2,
        eval_batch_size: 8,
        ..TrainConfig::default()
    };
    let report = train(&mut model, &data, &mut strat, &cfg);
    assert!(report.val_loss.is_finite());
}

/// A zero evaluation batch would make `scale_lr_with_batch`'s learning
/// rate √(B/0) = +∞ and die later in validation on an empty batch; the
/// train step refuses it up front.
#[test]
#[should_panic(expected = "eval batch size must be positive")]
fn zero_eval_batch_is_refused() {
    let events: Vec<(u32, u32)> = (0..40).map(|i| (i % 4, (i + 1) % 4)).collect();
    let data = Dataset::new("zero-eval", stream(&events), EdgeFeatures::none());
    let mut model = MemoryTgnn::new(ModelConfig::jodie().with_dims(4, 2), data.num_nodes(), 0, 1);
    let cfg = TrainConfig {
        eval_batch_size: 0,
        scale_lr_with_batch: true,
        ..TrainConfig::default()
    };
    let _ = train(&mut model, &data, &mut FixedBatching::new(8), &cfg);
}

#[test]
fn self_loop_events_are_handled() {
    let data = Dataset::new(
        "selfloop",
        stream(&[
            (0, 0),
            (1, 1),
            (0, 1),
            (1, 0),
            (0, 0),
            (1, 1),
            (0, 1),
            (1, 0),
        ]),
        EdgeFeatures::none(),
    );
    let mut model = MemoryTgnn::new(ModelConfig::jodie().with_dims(4, 2), data.num_nodes(), 0, 1);
    let out = model.process_batch(data.stream().events(), 0, data.features());
    assert!(out.loss.item().is_finite());
}

#[test]
fn zero_feature_dim_works_everywhere() {
    let data = SynthConfig::wiki()
        .with_scale(0.003)
        .with_node_scale(0.01)
        .with_feature_dim(0)
        .generate(2);
    assert_eq!(data.features().dim(), 0);
    for base in ModelConfig::all() {
        let mut model = MemoryTgnn::new(
            base.with_dims(4, 2).with_neighbors(2),
            data.num_nodes(),
            0,
            1,
        );
        let mut strat = CascadeScheduler::new(CascadeConfig {
            preset_batch_size: 32,
            ..CascadeConfig::default()
        });
        let cfg = TrainConfig {
            epochs: 1,
            eval_batch_size: 32,
            ..TrainConfig::default()
        };
        let report = train(&mut model, &data, &mut strat, &cfg);
        assert!(report.val_loss.is_finite());
    }
}

#[test]
fn theta_zero_marks_non_opposing_updates_stable() {
    let mut f = SgFilter::new(3, 0.0);
    f.observe(&[
        MemoryDelta {
            node: NodeId(0),
            pre: vec![1.0, 0.0],
            post: vec![0.0, 1.0], // orthogonal: sim 0 ≥ θ
        },
        MemoryDelta {
            node: NodeId(1),
            pre: vec![1.0, 0.0],
            post: vec![-1.0, 0.0], // anti-parallel: sim −1 < θ
        },
    ]);
    assert!(f.flags()[0]);
    assert!(!f.flags()[1]);
    assert_eq!(f.epoch_stable_ratio(), 0.5);
}

#[test]
fn theta_one_only_accepts_collinear_updates() {
    let mut f = SgFilter::new(3, 1.0);
    f.observe(&[
        MemoryDelta {
            node: NodeId(0),
            pre: vec![2.0, 0.0],
            post: vec![4.0, 0.0],
        },
        MemoryDelta {
            node: NodeId(1),
            pre: vec![1.0, 0.0],
            post: vec![1.0, 0.001],
        },
    ]);
    assert!(f.flags()[0]);
    assert!(!f.flags()[1]);
}

#[test]
fn max_r_one_still_partitions() {
    let events = stream(&[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3)]);
    let t = DependencyTable::build(events.events(), 4);
    let mut d = TgDiffuser::new(t, 1);
    let stable = vec![false; 4];
    let mut start = 0;
    let mut n = 0;
    while start < 6 {
        start = d.next_boundary(start, 6, &stable);
        n += 1;
        assert!(n <= 6);
    }
}

#[test]
fn huge_max_r_takes_whole_stream() {
    let events = stream(&[(0, 1), (1, 2), (2, 3), (3, 0)]);
    let t = DependencyTable::build(events.events(), 4);
    let mut d = TgDiffuser::new(t, usize::MAX / 2);
    assert_eq!(d.next_boundary(0, 4, &[false; 4]), 4);
}

#[test]
fn evaluate_on_empty_validation_range_is_nan() {
    // 4 events: train 0..2, val 3..3 (empty).
    let data = Dataset::new(
        "tiny",
        stream(&[(0, 1), (1, 2), (2, 0), (0, 2)]),
        EdgeFeatures::none(),
    );
    assert!(data.val_range().is_empty() || !data.val_range().is_empty());
    let mut model = MemoryTgnn::new(ModelConfig::jodie().with_dims(4, 2), 3, 0, 1);
    let v = evaluate(&mut model, &data, 2);
    // Either a finite loss (non-empty range) or NaN (empty) — never panic.
    assert!(v.loss.is_finite() || v.loss.is_nan());
}

#[test]
fn single_event_batches_everywhere() {
    let data = Dataset::new(
        "drip",
        stream(&[
            (0, 1),
            (1, 2),
            (2, 0),
            (0, 2),
            (1, 0),
            (2, 1),
            (0, 1),
            (1, 2),
            (2, 0),
            (0, 2),
        ]),
        EdgeFeatures::none(),
    );
    let mut model = MemoryTgnn::new(
        ModelConfig::tgn().with_dims(4, 2).with_neighbors(1),
        3,
        0,
        1,
    );
    let mut strat = FixedBatching::new(1);
    let cfg = TrainConfig {
        epochs: 1,
        eval_batch_size: 1,
        ..TrainConfig::default()
    };
    let report = train(&mut model, &data, &mut strat, &cfg);
    assert_eq!(report.avg_batch_size, 1.0);
    assert!(report.val_loss.is_finite());
}

#[test]
fn score_links_on_cold_model() {
    let model = MemoryTgnn::new(
        ModelConfig::tgn().with_dims(4, 2).with_neighbors(2),
        5,
        0,
        1,
    );
    let feats = EdgeFeatures::none();
    let scores = model.score_links(NodeId(0), &[NodeId(1), NodeId(2)], 10.0, &feats);
    assert_eq!(scores.len(), 2);
    assert!(scores.iter().all(|s| s.is_finite()));
}

#[test]
fn cascade_on_stream_smaller_than_preset() {
    let data = Dataset::new(
        "short",
        stream(&[
            (0, 1),
            (1, 2),
            (2, 3),
            (3, 4),
            (4, 0),
            (0, 2),
            (1, 3),
            (2, 4),
            (3, 0),
            (4, 1),
        ]),
        EdgeFeatures::none(),
    );
    let mut model = MemoryTgnn::new(ModelConfig::jodie().with_dims(4, 2), 5, 0, 1);
    let mut strat = CascadeScheduler::new(CascadeConfig {
        preset_batch_size: 1000, // far larger than the stream
        ..CascadeConfig::default()
    });
    let cfg = TrainConfig {
        epochs: 1,
        eval_batch_size: 4,
        ..TrainConfig::default()
    };
    let report = train(&mut model, &data, &mut strat, &cfg);
    assert!(report.val_loss.is_finite() || report.val_loss.is_nan());
}
