//! Kernel microbenchmarks: the primitives whose costs the paper's
//! latency/space analysis (Figures 13–14) decomposes, plus the matmul
//! amortization curve the batching argument rests on.
//!
//! Runs on the in-repo `cascade-util` micro-bench harness: under
//! `cargo bench` each target runs warmup + timed iterations and the
//! median/p10/p90 report lands in `bench_results/kernels.json`; under
//! `cargo test` each target runs once as a smoke test.

use std::hint::black_box;
use std::sync::Arc;

use cascade_core::{max_endurance_profiling, DependencyTable, SgFilter, TgDiffuser};
use cascade_models::{MemoryDelta, MemoryTgnn, ModelConfig};
use cascade_nn::{Adam, GatLayer, GruCell, Module, TimeEncode};
use cascade_serve::parse_ingest;
use cascade_tensor::{ColBlock, Tensor};
use cascade_tgraph::{synth_features, AdjacencyStore, Event, NodeId, SynthConfig};
use cascade_util::{BenchSuite, DetRng, Json};

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

    // The updater at `steady_narrow`'s real blocks: `[agg | φ]` =
    // `[96 | 16]` → 32 over 1 536 memory rows, where only φ wants an input
    // gradient — serial, and fanned out over two threads.
    let rows = 1536;
    let updater = GruCell::new(112, 32, 5);
    let agg = Tensor::randn([rows, 96], 16);
    let phi = Tensor::randn([rows, 16], 17).requires_grad();
    let mem = Tensor::randn([rows, 32], 18);
    let input = [ColBlock::from(&agg), ColBlock::from(&phi)];
    for threads in [1, 2] {
        let _budget = cascade_tensor::install_budget(threads);
        suite.bench(
            &format!("gru_cell/fwd_bwd_1536x112/threads{threads}"),
            || {
                let out = updater.forward_cols(&input, &mem);
                out.sum().backward();
                phi.zero_grad();
                for p in cascade_nn::Module::parameters(&updater) {
                    p.zero_grad();
                }
                black_box(out.len())
            },
        );
    }

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

    // The serve_mixed model's attention: 56-wide rows (16 memory, 32
    // features, 8 time) into 16, four slots per center, 65 % of them
    // padding — so 358 of the 1 024 slots are valid and computed.
    let lens = [0usize, 1, 2, 4, 0, 1, 3, 0, 2, 1];
    let offsets: Vec<usize> = (0..=b)
        .map(|c| (0..c).map(|i| lens[i % lens.len()]).sum())
        .collect();
    let gat = GatLayer::new(56, 16, 7);
    let center = Tensor::randn([b, 56], 19);
    let neighbors = Tensor::randn([offsets[b], 56], 20);
    suite.bench("gat_attention/fwd_bwd_256x16k4_pad65", || {
        let out = gat.forward_ragged(
            &[ColBlock::from(&center)],
            &[ColBlock::from(&neighbors)],
            &offsets,
        );
        out.sum().backward();
        for p in cascade_nn::Module::parameters(&gat) {
            p.zero_grad();
        }
        black_box(out.len())
    });
}

/// The model the repository's benchmark trains on three of its four
/// workloads: TGN, 32-wide memory, 16-wide time encoding, one neighbour,
/// 32 edge features.
fn benchmark_model(nodes: usize) -> MemoryTgnn {
    let cfg = ModelConfig::tgn().with_dims(32, 16).with_neighbors(1);
    MemoryTgnn::new(cfg, nodes, 32, 4)
}

/// Forward + backward over one dependency-bound batch: 23 events through
/// the benchmark model (mailboxes filled by a warm-up batch, nothing
/// applied afterwards, so every call does the same work). At this size
/// the cost is graphs built and walked, not arithmetic — one shard, one
/// graph.
fn bench_small_batch(suite: &mut BenchSuite) {
    const WARM: usize = 64;
    let mut model = benchmark_model(256);
    let mut rng = DetRng::new(7);
    let events: Vec<Event> = (0..WARM + 23)
        .map(|i| Event::new(rng.index(256) as u32, rng.index(256) as u32, i as f64))
        .collect();
    let feats = synth_features(events.len(), 32, 9);
    model.process_batch(&events[..WARM], 0, &feats);
    let params = model.parameters();
    suite.bench("forward_backward/batch23", || {
        let fwd = model.forward_batch(&events[WARM..], WARM, &feats);
        fwd.loss.backward();
        params.iter().for_each(Tensor::zero_grad);
        black_box(fwd.loss.item())
    });
}

/// One `Adam::step` over the benchmark model's parameter set with every
/// gradient present — the per-batch cost that does not shrink with the
/// batch. The closure also pays one copy per parameter to plant the
/// gradient `step` consumes.
fn bench_adam_step(suite: &mut BenchSuite) {
    let params = benchmark_model(64).parameters();
    let grads: Vec<Vec<f32>> = params
        .iter()
        .enumerate()
        .map(|(i, p)| Tensor::randn([p.len()], i as u64).to_vec())
        .collect();
    let mut opt = Adam::new(params.clone(), 1e-3);
    suite.bench("adam_step/tgn32", || {
        for (p, g) in params.iter().zip(&grads) {
            p.set_grad(g);
        }
        opt.step();
    });
}

/// `parse_ingest` — what the server runs on every `/ingest` body before
/// the engine sees an event — at two shapes: 256 events × 32 features
/// (`serve_mixed`'s requests are this wide) and 64 × 186 (`wide_store`'s).
/// Bodies are rendered the way `benchmark/src/serve.rs` renders them
/// (floats through `f64`'s shortest round-trip form).
fn bench_ingest_decode(suite: &mut BenchSuite) {
    use std::fmt::Write;
    let mut rng = DetRng::new(7);
    for (events, dim) in [(256usize, 32usize), (64, 186)] {
        let mut body = String::from("{\"events\":[");
        for i in 0..events {
            if i > 0 {
                body.push(',');
            }
            let (src, dst) = (rng.index(10_000), rng.index(10_000));
            write!(
                body,
                "{{\"src\":{src},\"dst\":{dst},\"time\":{},\"features\":[",
                i as f64 * 0.37
            )
            .expect("writing to a String cannot fail");
            for j in 0..dim {
                if j > 0 {
                    body.push(',');
                }
                let x = rng.range_f32(-1.0, 1.0);
                write!(body, "{}", x as f64).expect("writing to a String cannot fail");
            }
            body.push_str("]}");
        }
        body.push_str("]}");
        suite.bench(&format!("ingest_decode/{}x{}", events, dim), || {
            black_box(parse_ingest(black_box(&body), dim).expect("the body is a valid request"))
        });
    }
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
    let table = Arc::new(DependencyTable::build(events, data.num_nodes()));
    let stable = vec![false; data.num_nodes()];

    suite.bench("diffuser_full_partition", || {
        black_box(partition(&table, 32, events.len(), &stable))
    });

    // The dependency-bound shape: 10 000 nodes, half of 20 000 events on
    // one of 16 hubs, and a `Max_r` (5) that holds batches to ~20 events
    // — a thousand boundary lookups, each of which must not cost a sweep
    // of the whole table.
    let mut rng = DetRng::new(7);
    let hub_events: Vec<Event> = (0..20_000)
        .map(|i| {
            let src = if rng.chance(0.5) {
                rng.index(16)
            } else {
                rng.index(10_000)
            };
            Event::new(src as u32, rng.index(10_000) as u32, i as f64)
        })
        .collect();
    let hub_table = Arc::new(DependencyTable::build(&hub_events, 10_000));
    let stable = vec![false; 10_000];
    let mut batches = 0;
    suite.bench("diffuser_full_partition/hubs16", || {
        batches = partition(&hub_table, 5, hub_events.len(), &stable);
        black_box(batches)
    });
    eprintln!(
        "[bench kernels] hubs16: {} batches of ~{:.1} events over {} table entries",
        batches,
        hub_events.len() as f64 / batches as f64,
        hub_table.total_entries()
    );
}

/// Partitions `0..len` with a fresh diffuser; returns the batch count.
fn partition(table: &Arc<DependencyTable>, max_r: usize, len: usize, stable: &[bool]) -> usize {
    let mut d = TgDiffuser::new(Arc::clone(table), max_r);
    let (mut start, mut batches) = (0, 0);
    while start < len {
        start = d.next_boundary(start, len, stable);
        batches += 1;
    }
    batches
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
    bench_small_batch(&mut suite);
    bench_adam_step(&mut suite);
    bench_ingest_decode(&mut suite);
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
