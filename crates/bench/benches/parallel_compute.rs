//! Shard-parallel batch compute: forward + backward throughput at 1, 2,
//! 4, and 8 compute threads on a wiki-profile synthetic graph.
//!
//! Under `cargo bench` the report lands in
//! `bench_results/parallel_compute.json`, extended with a `speedup`
//! object holding the threads-vs-speedup curve (median single-thread
//! time over median N-thread time). Shard-parallel compute is
//! bit-identical at every thread count, so the curve measures pure
//! wall-clock gain. Under `cargo test` each target runs once as a
//! smoke test.

use std::hint::black_box;

use cascade_models::{MemoryTgnn, ModelConfig};
use cascade_tgraph::{Dataset, SynthConfig};
use cascade_util::{BenchSuite, Json};

const BATCH: usize = 256;
const BATCHES: usize = 5;
const THREADS: [usize; 4] = [1, 2, 4, 8];

/// Median serial (`threads1`) time from the committed PR 16 baseline run of
/// this bench (`bench_results/parallel_compute.json`). The speedup curve
/// normalizes by the *current* serial median, so it silently forgives
/// serial regressions; the `serial_baseline` report entry pins this
/// constant next to the fresh measurement to make serial drift visible.
const SERIAL_BASELINE_NS: f64 = 18_303_626.5;

fn bench_data() -> Dataset {
    SynthConfig::wiki()
        .with_scale(0.02)
        .with_node_scale(0.05)
        .with_feature_dim(8)
        .generate(7)
}

fn bench_model(data: &Dataset) -> MemoryTgnn {
    MemoryTgnn::new(
        ModelConfig::tgn().with_dims(32, 16).with_neighbors(4),
        data.num_nodes(),
        data.features().dim(),
        1,
    )
}

/// One forward + backward pass over the first `BATCHES` training
/// batches. Memories and mailboxes are never applied, so every call
/// does identical work — exactly the compute stage the shard workers
/// parallelize, with the serial scan/update stages excluded.
fn compute_pass(model: &MemoryTgnn, data: &Dataset) -> f32 {
    let events = data.stream().events();
    let mut total = 0.0;
    for b in 0..BATCHES {
        let start = b * BATCH;
        let end = (start + BATCH).min(data.train_range().end);
        let fwd = model.forward_batch(&events[start..end], start, data.features());
        total += fwd.loss.item();
        fwd.loss.backward();
    }
    total
}

fn main() {
    let data = bench_data();
    assert!(
        data.train_range().end >= BATCH * BATCHES,
        "synthetic graph too small for {} batches of {}",
        BATCHES,
        BATCH
    );

    let mut suite = BenchSuite::new("parallel_compute").with_seed(7);
    let mut medians: Vec<(usize, f64)> = Vec::new();
    for threads in THREADS {
        let model = bench_model(&data);
        let _budget = cascade_tensor::install_budget(threads);
        let id = format!("forward_backward/threads{}", threads);
        suite.bench(&id, || black_box(compute_pass(&model, &data)));
        if let Some(s) = suite.stats().iter().find(|s| s.id == id) {
            medians.push((threads, s.median_ns));
        }
    }

    // In measurement mode, append the threads-vs-speedup curve to the
    // report so plots can read it directly instead of re-deriving it
    // from the raw stats.
    if let Some(path) = suite.finish() {
        let base = medians
            .iter()
            .find(|(t, _)| *t == 1)
            .map(|(_, ns)| *ns)
            .expect("single-thread baseline measured");
        let curve: Vec<Json> = medians
            .iter()
            .map(|(threads, ns)| {
                Json::Obj(vec![
                    ("threads".into(), Json::from(*threads)),
                    ("median_ns".into(), Json::from(*ns)),
                    ("speedup".into(), Json::from(base / ns)),
                ])
            })
            .collect();
        // The curve is only meaningful relative to the cores the host
        // actually grants (`host_parallelism`, emitted with the suite
        // header): on a single-core box every multi-thread entry
        // degenerates to scheduler churn.
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let raw = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot re-read {}: {}", path.display(), e));
        let mut report = Json::parse(&raw).expect("suite report is valid JSON");
        if let Json::Obj(fields) = &mut report {
            fields.push(("speedup".into(), Json::Arr(curve)));
            fields.push((
                "serial_baseline".into(),
                Json::Obj(vec![
                    ("baseline_ns".into(), Json::from(SERIAL_BASELINE_NS)),
                    ("current_ns".into(), Json::from(base)),
                    ("drift".into(), Json::from(base / SERIAL_BASELINE_NS)),
                ]),
            ));
        }
        std::fs::write(&path, report.to_string())
            .unwrap_or_else(|e| panic!("cannot write {}: {}", path.display(), e));
        for (threads, ns) in &medians {
            eprintln!(
                "[bench parallel_compute] threads {}: {:.2}x vs serial",
                threads,
                base / ns
            );
        }
        eprintln!(
            "[bench parallel_compute] serial drift: {:.3}x vs committed baseline \
             ({:.1} ms now, {:.1} ms at baseline)",
            base / SERIAL_BASELINE_NS,
            base / 1e6,
            SERIAL_BASELINE_NS / 1e6
        );
        if cores < 2 {
            eprintln!(
                "[bench parallel_compute] host grants {} core(s); \
                 speedup requires a multi-core host",
                cores
            );
        }
        eprintln!(
            "[bench parallel_compute] appended speedup curve to {}",
            path.display()
        );
    }
}
