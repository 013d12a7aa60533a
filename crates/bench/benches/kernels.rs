//! Kernel microbenchmarks: the primitives whose costs the paper's
//! latency/space analysis (Figures 13–14) decomposes, plus the matmul
//! amortization curve the batching argument rests on.
//!
//! Runs on the in-repo `cascade-util` micro-bench harness: under
//! `cargo bench` each target runs warmup + timed iterations and the
//! median/p10/p90 report lands in `bench_results/kernels.json`; under
//! `cargo test` each target runs once as a smoke test.

use std::hint::black_box;

use cascade_core::{max_endurance_profiling, DependencyTable, SgFilter, TgDiffuser};
use cascade_models::MemoryDelta;
use cascade_nn::{GatLayer, GruCell, TimeEncode};
use cascade_tensor::Tensor;
use cascade_tgraph::{AdjacencyStore, NodeId, SynthConfig};
use cascade_util::{BenchSuite, Json};

fn bench_tensor_matmul(suite: &mut BenchSuite) {
    // The amortization curve: one [B, 64] × [64, 64] product per batch —
    // per-event cost falls as B grows.
    for b in [16usize, 64, 256, 1024] {
        let x = Tensor::randn([b, 64], 1);
        let w = Tensor::randn([64, 64], 2);
        suite.bench(&format!("tensor_matmul/{}", b), || black_box(x.matmul(&w)));
    }
}

/// The three `+=` layouts at the benchmark's two dominant shapes (a
/// steady_narrow shard product, a GRU input projection), 2·m·k·n flops
/// each. `fwd` is `matmul_into` plus the `sum` that roots the graph; `dA`
/// adds a backward through `matmul_a_bt` (only the activation wants a
/// gradient), `dB` one through `matmul_at_b` (only the weight does).
///
/// Returns one GFLOP/s row per shape, a backward entry's excess over
/// `fwd` charged to its kernel so the three rates compare directly;
/// empty in smoke mode, where nothing is recorded.
fn bench_tensor_matmul_bwd(suite: &mut BenchSuite) -> Vec<Json> {
    let mut rates = Vec::new();
    for (m, k, n) in [(646usize, 96usize, 32usize), (3446, 128, 32)] {
        let shape = format!("{m}x{k}x{n}");
        let x = Tensor::randn([m, k], 1);
        let w = Tensor::randn([k, n], 2);
        suite.bench(&format!("tensor_matmul_bwd/fwd_{shape}"), || {
            black_box(x.matmul(&w).sum())
        });
        let xg = x.detach().requires_grad();
        suite.bench(&format!("tensor_matmul_bwd/dA_{shape}"), || {
            xg.matmul(&w).sum().backward();
            xg.zero_grad();
        });
        let wg = w.detach().requires_grad();
        suite.bench(&format!("tensor_matmul_bwd/dB_{shape}"), || {
            x.matmul(&wg).sum().backward();
            wg.zero_grad();
        });
        if let [.., fwd, da, db] = suite.stats() {
            let flops = (2 * m * k * n) as f64;
            let (f, a, b) = (
                flops / fwd.median_ns,
                flops / (da.median_ns - fwd.median_ns),
                flops / (db.median_ns - fwd.median_ns),
            );
            eprintln!("[bench kernels] {shape} GFLOP/s: fwd {f:.1}, dA {a:.1}, dB {b:.1}");
            rates.push(Json::Obj(vec![
                ("shape".into(), Json::from(shape.as_str())),
                ("fwd".into(), Json::from(f)),
                ("dA".into(), Json::from(a)),
                ("dB".into(), Json::from(b)),
            ]));
        }
    }
    rates
}

fn bench_fused_layers(suite: &mut BenchSuite) {
    // The fused TGNN layer kernels, forward + backward at a TGN-typical
    // batch and hidden width. Each closure builds the layer's graph node
    // and runs its backward pass — the per-batch unit of work the arena
    // and the fused closures optimize.
    let b = 256;

    let gru = GruCell::new(32, 32, 5);
    let gx = Tensor::randn([b, 32], 11);
    let gh = Tensor::randn([b, 32], 12).requires_grad();
    suite.bench("gru_cell/fwd_bwd_256x32", || {
        let out = gru.forward(&gx, &gh);
        out.sum().backward();
        gh.zero_grad();
        for p in cascade_nn::Module::parameters(&gru) {
            p.zero_grad();
        }
        black_box(out.len())
    });

    let enc = TimeEncode::new(32);
    let dts = Tensor::randn([b, 1], 13);
    suite.bench("time_encode/fwd_bwd_256x32", || {
        let out = enc.forward(&dts);
        out.sum().backward();
        for p in cascade_nn::Module::parameters(&enc) {
            p.zero_grad();
        }
        black_box(out.len())
    });

    let k = 8;
    let gat = GatLayer::new(32, 32, 6);
    let center = Tensor::randn([b, 32], 14);
    let neighbors = Tensor::randn([b * k, 32], 15);
    let mask: Vec<f32> = (0..b * k)
        .map(|i| if i % 5 == 0 { 0.0 } else { 1.0 })
        .collect();
    suite.bench("gat_attention/fwd_bwd_256x32k8", || {
        let out = gat.forward(&center, &neighbors, &mask, k);
        out.sum().backward();
        for p in cascade_nn::Module::parameters(&gat) {
            p.zero_grad();
        }
        black_box(out.len())
    });
}

fn bench_dependency_table(suite: &mut BenchSuite) {
    let data = SynthConfig::wiki()
        .with_scale(0.05)
        .with_node_scale(0.1)
        .with_feature_dim(0)
        .generate(7);
    let events = data.stream().events();
    let n = data.num_nodes();

    suite.bench("dependency_table/dense_build", || {
        black_box(DependencyTable::build(events, n))
    });
    suite.bench("dependency_table/chunked_build", || {
        for (i, chunk) in events.chunks(1000).enumerate() {
            black_box(DependencyTable::build_range(chunk, n, i * 1000));
        }
    });
}

fn bench_diffuser_lookup(suite: &mut BenchSuite) {
    let data = SynthConfig::wiki()
        .with_scale(0.05)
        .with_node_scale(0.1)
        .with_feature_dim(0)
        .generate(7);
    let events = data.stream().events();
    let table = DependencyTable::build(events, data.num_nodes());
    let stable = vec![false; data.num_nodes()];

    suite.bench("diffuser_full_partition", || {
        let mut d = TgDiffuser::new(table.clone(), 32);
        let mut start = 0;
        while start < events.len() {
            start = d.next_boundary(start, events.len(), &stable);
        }
        black_box(start)
    });
}

fn bench_sgfilter_kernel(suite: &mut BenchSuite) {
    let deltas: Vec<MemoryDelta> = (0..512)
        .map(|i| MemoryDelta {
            node: NodeId((i % 100) as u32),
            pre: (0..100).map(|j| (i * j) as f32 * 0.01).collect(),
            post: (0..100).map(|j| (i * j) as f32 * 0.011).collect(),
        })
        .collect();
    suite.bench("sgfilter_observe_512x100d", || {
        let mut f = SgFilter::new(100, 0.9);
        f.observe(black_box(&deltas));
        black_box(f.stable_count())
    });
}

fn bench_sampler(suite: &mut BenchSuite) {
    let data = SynthConfig::wiki()
        .with_scale(0.02)
        .with_node_scale(0.05)
        .with_feature_dim(0)
        .generate(3);
    let mut adj = AdjacencyStore::new(data.num_nodes());
    for (i, e) in data.stream().iter().enumerate() {
        adj.insert_event(e, i);
    }
    let nodes: Vec<NodeId> = (0..data.num_nodes() as u32).map(NodeId).collect();

    suite.bench("neighbor_sampler/most_recent_10", || {
        for &n in &nodes {
            black_box(adj.most_recent(n, 10));
        }
    });
    suite.bench("neighbor_sampler/uniform_10", || {
        for &n in &nodes {
            black_box(adj.uniform(n, 10));
        }
    });
}

fn bench_endurance_profiling(suite: &mut BenchSuite) {
    let data = SynthConfig::wiki()
        .with_scale(0.05)
        .with_node_scale(0.1)
        .with_feature_dim(0)
        .generate(7);
    let table = DependencyTable::build(data.stream().events(), data.num_nodes());
    suite.bench("abs_max_endurance_profiling", || {
        black_box(max_endurance_profiling(&table, data.num_events(), 64, 0))
    });
}

fn main() {
    let mut suite = BenchSuite::new("kernels").with_seed(7);
    bench_tensor_matmul(&mut suite);
    let matmul_gflops = bench_tensor_matmul_bwd(&mut suite);
    bench_fused_layers(&mut suite);
    bench_dependency_table(&mut suite);
    bench_diffuser_lookup(&mut suite);
    bench_sgfilter_kernel(&mut suite);
    bench_sampler(&mut suite);
    bench_endurance_profiling(&mut suite);
    // In measurement mode, append the forward/backward GFLOP/s rows to
    // the report, so the distance between the layouts is a number in it.
    if let Some(path) = suite.finish() {
        let raw = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot re-read {}: {}", path.display(), e));
        let mut report = Json::parse(&raw).expect("suite report is valid JSON");
        if let Json::Obj(fields) = &mut report {
            fields.push(("matmul_gflops".into(), Json::Arr(matmul_gflops)));
        }
        std::fs::write(&path, report.to_string())
            .unwrap_or_else(|e| panic!("cannot write {}: {}", path.display(), e));
    }
}
