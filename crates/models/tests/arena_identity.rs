//! Seeded property test: the buffer arena is numerically invisible.
//!
//! Every buffer the arena hands out is fully overwritten before use, so
//! recycling must never change a single bit of any computation. This
//! property drives the same seeded TGN batches through a full training
//! step — forward, backward, gradient clip, Adam — once with the arena
//! enabled (buffers recycled batch-to-batch, `reset()` at the boundary)
//! and once with it disabled (every allocation fresh), and asserts
//! bit-identical losses, logits, gradients, post-step parameters, and
//! node memories.

use cascade_models::{MemoryTgnn, ModelConfig};
use cascade_nn::{clip_grad_norm, Adam, Module};
use cascade_tensor::arena;
use cascade_tgraph::{synth_features, Event, NodeId};
use cascade_util::{check, prop_assert, prop_assert_eq, Gen};

/// A random, time-ordered synthetic event stream over `num_nodes` nodes.
fn random_events(g: &mut Gen, num_nodes: usize, len: usize) -> Vec<Event> {
    let mut t = 0.0f64;
    (0..len)
        .map(|_| {
            t += g.f64_in(0.01..1.0);
            let src = g.usize_in(0..num_nodes) as u32;
            let dst = g.usize_in(0..num_nodes) as u32;
            Event::new(src, dst, t)
        })
        .collect()
}

/// One two-batch training step; returns (loss, pos logits, neg logits,
/// gradient bits, post-step parameters, node memories).
#[allow(clippy::type_complexity)]
fn run(
    arena_on: bool,
    cfg: &ModelConfig,
    events: &[Event],
    num_nodes: usize,
) -> (
    f32,
    Vec<f32>,
    Vec<f32>,
    Vec<Vec<f32>>,
    Vec<Vec<f32>>,
    Vec<Vec<f32>>,
) {
    let was = arena::set_enabled(arena_on);
    let feats = synth_features(events.len(), 4, 9);
    let mut model = MemoryTgnn::new(cfg.clone(), num_nodes, 4, 3);
    let mut opt = Adam::new(model.parameters(), 1e-2);
    let mid = events.len() / 2;

    model.process_batch(&events[..mid], 0, &feats);
    if arena_on {
        arena::reset(); // the batch-boundary trim must also be invisible
    }
    let out = model.process_batch(&events[mid..], mid, &feats);
    out.loss.backward();
    clip_grad_norm(&model.parameters(), 1.0);
    let grads: Vec<Vec<f32>> = model
        .parameters()
        .iter()
        .map(|p| p.grad().unwrap_or_default())
        .collect();
    opt.step();

    let params: Vec<Vec<f32>> = model.parameters().iter().map(|p| p.to_vec()).collect();
    let memories: Vec<Vec<f32>> = (0..num_nodes)
        .map(|n| model.plane().memory_read(NodeId(n as u32)).to_vec())
        .collect();
    arena::set_enabled(was);
    (
        out.loss.item(),
        out.pos_logits,
        out.neg_logits,
        grads,
        params,
        memories,
    )
}

#[test]
fn training_step_is_bit_identical_with_and_without_arena() {
    // Warm the pool so the arena arm actually recycles buffers from a
    // previous (differently-shaped) computation rather than starting cold.
    {
        let _ = arena::set_enabled(true);
        let warm = cascade_tensor::Tensor::ones([17, 13]).requires_grad();
        warm.matmul(&cascade_tensor::Tensor::ones([13, 11]))
            .sum()
            .backward();
    }

    check("arena_identity", |g| {
        let num_nodes = g.usize_in(4..16);
        let len = g.usize_in(6..40);
        let events = random_events(g, num_nodes, len);
        let cfg = match g.usize_in(0..3) {
            0 => ModelConfig::tgn(),
            1 => ModelConfig::jodie(),
            _ => ModelConfig::tgat(),
        }
        .with_dims(8, 4)
        .with_neighbors(3);

        let pooled = run(true, &cfg, &events, num_nodes);
        let fresh = run(false, &cfg, &events, num_nodes);

        prop_assert!(
            pooled.0.to_bits() == fresh.0.to_bits(),
            "loss differs: {} (arena) vs {} (fresh)",
            pooled.0,
            fresh.0
        );
        prop_assert_eq!(&pooled.1, &fresh.1, "pos logits differ");
        prop_assert_eq!(&pooled.2, &fresh.2, "neg logits differ");
        for (i, (a, b)) in pooled.3.iter().zip(fresh.3.iter()).enumerate() {
            prop_assert!(
                a.iter()
                    .map(|x| x.to_bits())
                    .eq(b.iter().map(|x| x.to_bits())),
                "gradient of parameter {} differs",
                i
            );
        }
        for (i, (a, b)) in pooled.4.iter().zip(fresh.4.iter()).enumerate() {
            prop_assert!(
                a.iter()
                    .map(|x| x.to_bits())
                    .eq(b.iter().map(|x| x.to_bits())),
                "post-step parameter {} differs",
                i
            );
        }
        prop_assert_eq!(&pooled.5, &fresh.5, "node memories differ");

        // Leave the pool enabled for whichever test runs next on this
        // thread (the default state).
        let _ = arena::set_enabled(true);
        Ok(())
    });
}

/// Nothing new leaks from the pool: once two warm-up batches have filled
/// it, a third identical batch misses it exactly as often as the known
/// leaks below account for. A `take_*` buffer that some path drops
/// instead of recycling (say, in one backward closure) is gone when the
/// next batch asks for it, and shows up here as one more miss. The batch
/// runs in the shared train step's order: forward, backward, optimizer
/// step, memory apply, then the boundary trim before the graph drops.
#[test]
fn a_steady_state_batch_misses_the_pool_only_where_known() {
    let _ = arena::set_enabled(true);
    let events: Vec<Event> = (0..16)
        .map(|i| Event::new((i % 5) as u32, ((i + 2) % 5) as u32, i as f64 * 0.5))
        .collect();
    let feats = synth_features(events.len(), 4, 9);
    let cfg = ModelConfig::tgn().with_dims(8, 4).with_neighbors(3);
    let mut model = MemoryTgnn::new(cfg, 5, 4, 3);
    let mut opt = Adam::new(model.parameters(), 1e-2);
    let mut batch = || {
        let fwd = model.forward_batch(&events, 0, &feats);
        fwd.loss.backward();
        opt.step();
        model.apply_batch(&events, 0, &feats, fwd.pending);
        arena::reset();
        drop(fwd.loss);
    };
    batch();
    batch();
    let before = arena::stats();
    batch();
    let after = arena::stats();
    assert!(after.hits > before.hits, "the batch ran through the pool");
    // Not 0: the fused ops' backward closures capture forward buffers
    // taken from the pool — the GRU cell's `r`, `z`, `n` and `hn`
    // (`[5, 8]` each here) and the `pre` of three time encodings and one
    // attention score — and a captured buffer drops with the graph
    // instead of going back. Eight buffers leave the pool every batch;
    // the non-power-of-two buffers the batch returns cover three of
    // them, so five takes miss. Pinned exactly, so a new leak fails.
    assert_eq!(
        after.misses - before.misses,
        5,
        "a steady-state batch misses the pool only for the captured buffers"
    );
}

/// The arena must actually be doing something in the pooled arm — a pool
/// that never hits would make the identity test vacuous.
#[test]
fn arena_recycles_buffers_during_training() {
    let _ = arena::set_enabled(true);
    let events: Vec<Event> = (0..24)
        .map(|i| Event::new((i % 5) as u32, ((i + 2) % 5) as u32, i as f64 * 0.5))
        .collect();
    let feats = synth_features(events.len(), 4, 9);
    let cfg = ModelConfig::tgn().with_dims(8, 4).with_neighbors(3);
    let mut model = MemoryTgnn::new(cfg, 5, 4, 3);
    let before = arena::stats();
    for (i, chunk) in events.chunks(8).enumerate() {
        let out = model.process_batch(chunk, i * 8, &feats);
        out.loss.backward();
        model.parameters().iter().for_each(|p| p.zero_grad());
        arena::reset();
    }
    let after = arena::stats();
    assert!(
        after.hits > before.hits,
        "training batches must reuse pooled buffers (hits {} -> {})",
        before.hits,
        after.hits
    );
    assert!(
        after.recycled > before.recycled,
        "dying graphs must return buffers to the pool"
    );
}
