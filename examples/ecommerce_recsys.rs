//! E-commerce recommendation scenario — the use case motivating the
//! paper's "stabilized node" observation (§1: a consistently popular
//! product keeps a stable state despite frequent purchases).
//!
//! Trains JODIE on a bipartite user–product interaction stream, watches
//! the SG-Filter's stable-node ratio climb as product embeddings settle,
//! and uses the trained model to rank candidate products for a user.
//!
//! ```text
//! cargo run --release --example ecommerce_recsys
//! ```

use cascade_core::{
    train, BatchingStrategy, CascadeConfig, CascadeScheduler, PrebuiltTable, SgFilter,
    StrategySpace, StrategyTimers, TrainConfig,
};
use cascade_models::{MemoryDelta, MemoryTgnn, ModelConfig};
use cascade_nn::Module;
use cascade_tgraph::{Event, NodeId, SynthConfig};

/// Cascade, watched: every memory transition fed back to the scheduler
/// also goes to an SG-Filter that reports its stable ratio per epoch.
struct Watched {
    inner: CascadeScheduler,
    filter: SgFilter,
    epoch: usize,
}

impl Watched {
    fn report_epoch(&self) {
        println!(
            "epoch {}: {:.1}% of memory updates were stable",
            self.epoch,
            self.filter.epoch_stable_ratio() * 100.0
        );
    }
}

impl BatchingStrategy for Watched {
    fn name(&self) -> String {
        self.inner.name()
    }
    fn reset_epoch(&mut self) {
        if self.filter.epoch_counters().0 > 0 {
            self.report_epoch();
            self.epoch += 1;
        }
        self.filter.reset();
        self.inner.reset_epoch();
    }
    fn next_batch_end(&mut self, start: usize, limit: usize) -> usize {
        self.inner.next_batch_end(start, limit)
    }
    fn after_batch(&mut self, batch_idx: usize, train_loss: f32) {
        self.inner.after_batch(batch_idx, train_loss);
    }
    fn observe_updates(&mut self, deltas: &[MemoryDelta]) {
        self.filter.observe(deltas);
        self.inner.observe_updates(deltas);
    }
    fn space(&self) -> StrategySpace {
        self.inner.space()
    }
    fn timers(&self) -> StrategyTimers {
        self.inner.timers()
    }
    fn prepare_streaming(&mut self, total: usize, nodes: usize, chunk: usize) -> bool {
        self.inner.prepare_streaming(total, nodes, chunk)
    }
    fn enter_chunk(
        &mut self,
        idx: usize,
        base: usize,
        events: &[Event],
        pb: Option<PrebuiltTable>,
    ) {
        self.inner.enter_chunk(idx, base, events, pb);
    }
}

fn main() {
    // A bipartite interaction graph in the spirit of the REDDIT/WIKI
    // datasets: ~90% "users" interacting with a catalog of "products".
    let mut profile = SynthConfig::reddit();
    profile.name = "ECOMMERCE".into();
    profile.item_fraction = 0.15;
    profile.repeat_prob = 0.7; // loyal customers
    let data = profile
        .with_scale(0.005)
        .with_node_scale(0.02)
        .with_feature_dim(8)
        .generate(11);

    let items_from = (data.num_nodes() as f64 * 0.85) as usize;
    println!(
        "catalog: {} products, {} users, {} purchase events",
        data.num_nodes() - items_from,
        items_from,
        data.num_events()
    );

    let mut model = MemoryTgnn::new(
        ModelConfig::jodie().with_dims(16, 8),
        data.num_nodes(),
        data.features().dim(),
        3,
    );
    println!("model: JODIE with {} parameters", model.parameter_count());

    // Track stability the same way the SG-Filter does, per epoch.
    let mut cascade = Watched {
        inner: CascadeScheduler::new(CascadeConfig {
            preset_batch_size: 64,
            ..CascadeConfig::default()
        }),
        filter: SgFilter::new(data.num_nodes(), 0.9),
        epoch: 0,
    };
    let report = train(
        &mut model,
        &data,
        &mut cascade,
        &TrainConfig {
            epochs: 4,
            lr: 1e-3,
            eval_batch_size: 64,
            scale_lr_with_batch: true,
            ..TrainConfig::default()
        },
    );
    cascade.report_epoch();
    println!(
        "\ntrained in {} adaptive batches (avg {:.0} events), val loss {:.4}",
        report.num_batches, report.avg_batch_size, report.val_loss
    );

    // Rank candidate products for an active user with the trained link
    // predictor — the serving path a recommender built on this library
    // would use.
    let user = data.stream().event(data.num_events() - 1).src;
    let candidates: Vec<NodeId> = (items_from..data.num_nodes())
        .map(|p| NodeId(p as u32))
        .collect();
    let now = data.stream().event(data.num_events() - 1).time;
    let logits = model.score_links(user, &candidates, now, data.features());
    let mut scored: Vec<(NodeId, f32)> = candidates.into_iter().zip(logits).collect();
    scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    println!("\ntop-5 product recommendations for user {}:", user);
    for (p, s) in scored.iter().take(5) {
        println!("  product {}  (logit {:.3})", p, s);
    }
}
