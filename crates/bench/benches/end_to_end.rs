//! End-to-end training benchmarks: the Figure 2 batch-size sweep and the
//! Figure 10 Cascade-vs-TGL comparison (compute-only; the `repro` binary
//! reports the accelerator-modeled latencies).
//!
//! Runs on the in-repo `cascade-util` micro-bench harness: under
//! `cargo bench` the report lands in `bench_results/end_to_end.json`;
//! under `cargo test` each target trains once as a smoke test.

use std::hint::black_box;

use cascade_core::{train, CascadeConfig, CascadeScheduler, FixedBatching, TrainConfig};
use cascade_exec::{train_streamed, PipelineConfig};
use cascade_models::{MemoryTgnn, ModelConfig};
use cascade_tgraph::{Dataset, InMemorySource, SynthConfig};
use cascade_util::BenchSuite;

fn bench_data() -> Dataset {
    SynthConfig::wiki()
        .with_scale(0.008)
        .with_node_scale(0.027)
        .with_feature_dim(8)
        .generate(42)
}

fn one_epoch_cfg() -> TrainConfig {
    TrainConfig {
        epochs: 1,
        lr: 1e-3,
        eval_batch_size: 64,
        clip_norm: Some(5.0),
        ..TrainConfig::default()
    }
}

fn tgn_model(data: &Dataset) -> MemoryTgnn {
    MemoryTgnn::new(
        ModelConfig::tgn().with_dims(16, 8).with_neighbors(4),
        data.num_nodes(),
        data.features().dim(),
        1,
    )
}

fn bench_batch_size_sweep(suite: &mut BenchSuite, data: &Dataset) {
    for bs in [32usize, 64, 128, 256] {
        suite.bench(&format!("batch_size_sweep_tgn/{}", bs), || {
            let mut model = tgn_model(data);
            let mut s = FixedBatching::new(bs);
            black_box(train(&mut model, data, &mut s, &one_epoch_cfg()))
        });
    }
}

fn bench_cascade_vs_tgl(suite: &mut BenchSuite, data: &Dataset) {
    suite.bench("cascade_vs_tgl_tgn/tgl", || {
        let mut model = tgn_model(data);
        let mut s = FixedBatching::new(64);
        black_box(train(&mut model, data, &mut s, &one_epoch_cfg()))
    });
    suite.bench("cascade_vs_tgl_tgn/cascade", || {
        let mut model = tgn_model(data);
        let mut s = CascadeScheduler::new(CascadeConfig {
            preset_batch_size: 64,
            ..CascadeConfig::default()
        });
        black_box(train(&mut model, data, &mut s, &one_epoch_cfg()))
    });
}

fn bench_chunked_preprocessing(suite: &mut BenchSuite) {
    let data = SynthConfig::gdelt()
        .with_scale(4e-5)
        .with_feature_dim(8)
        .generate(9);
    for (label, chunk) in [("dense", None), ("chunked", Some(1000usize))] {
        let data = &data;
        suite.bench(
            &format!("chunked_preprocessing_jodie/{}", label),
            move || {
                let mut model = MemoryTgnn::new(
                    ModelConfig::jodie().with_dims(16, 8),
                    data.num_nodes(),
                    data.features().dim(),
                    1,
                );
                let mut s = CascadeScheduler::new(CascadeConfig {
                    preset_batch_size: 64,
                    ..CascadeConfig::default()
                });
                let cfg = one_epoch_cfg();
                black_box(match chunk {
                    None => train(&mut model, data, &mut s, &cfg),
                    // Cascade_EX: the loader builds chunk k + 1's table
                    // while chunk k trains.
                    Some(chunk) => {
                        let mut source = InMemorySource::from_dataset(data, chunk);
                        let pipe = PipelineConfig::default();
                        train_streamed(&mut model, &mut source, &mut s, &cfg, &pipe)
                            .expect("an in-memory source cannot fail")
                    }
                })
            },
        );
    }
}

fn main() {
    let mut suite = BenchSuite::new("end_to_end").with_seed(42);
    let data = bench_data();
    bench_batch_size_sweep(&mut suite, &data);
    bench_cascade_vs_tgl(&mut suite, &data);
    bench_chunked_preprocessing(&mut suite);
    suite.finish();
}
