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

mod sparse;

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

/// One two-batch training step at `threads` compute threads; returns
/// (loss, pos logits, neg logits, gradient bits, post-step parameters,
/// node memories). An arena-off run must not hit the pool on any thread.
#[allow(clippy::type_complexity)]
fn run(
    arena_on: bool,
    threads: usize,
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
    let hits = arena::stats().hits;
    let feats = synth_features(events.len(), 4, 9);
    let mut model = MemoryTgnn::new(cfg.clone(), num_nodes, 4, 3);
    model.set_compute_threads(threads);
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
    if !arena_on {
        assert_eq!(
            arena::stats().hits,
            hits,
            "an arena-off run took a pooled buffer"
        );
    }
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
        // Up to 100 events: up to four shards, so two threads fan out.
        let len = g.usize_in(6..100);
        let events = random_events(g, num_nodes, len);
        let cfg = match g.usize_in(0..3) {
            0 => ModelConfig::tgn(),
            1 => ModelConfig::jodie(),
            _ => ModelConfig::tgat(),
        }
        .with_dims(8, 4)
        .with_neighbors(3);

        let pooled = run(true, 1, &cfg, &events, num_nodes);
        for (arena_on, threads) in [(false, 1), (false, 2), (true, 2)] {
            let other = run(arena_on, threads, &cfg, &events, num_nodes);
            let arm = format!("arena {arena_on} at {threads} threads");
            prop_assert!(
                pooled.0.to_bits() == other.0.to_bits(),
                "loss differs: {} (arena, 1 thread) vs {} ({})",
                pooled.0,
                other.0,
                arm
            );
            prop_assert_eq!(&pooled.1, &other.1, "pos logits differ: {}", arm);
            prop_assert_eq!(&pooled.2, &other.2, "neg logits differ: {}", arm);
            for (i, (a, b)) in pooled.3.iter().zip(other.3.iter()).enumerate() {
                prop_assert!(
                    a.iter()
                        .map(|x| x.to_bits())
                        .eq(b.iter().map(|x| x.to_bits())),
                    "gradient of parameter {} differs: {}",
                    i,
                    arm
                );
            }
            for (i, (a, b)) in pooled.4.iter().zip(other.4.iter()).enumerate() {
                prop_assert!(
                    a.iter()
                        .map(|x| x.to_bits())
                        .eq(b.iter().map(|x| x.to_bits())),
                    "post-step parameter {} differs: {}",
                    i,
                    arm
                );
            }
            prop_assert_eq!(&pooled.5, &other.5, "node memories differ: {}", arm);
        }

        // Leave the pool enabled for whichever test runs next on this
        // thread (the default state).
        let _ = arena::set_enabled(true);
        Ok(())
    });
}

/// The arena under compaction: the second batch of [`sparse::stream`]
/// drops about half of its neighbour slots and a third of its updater
/// rows. For each of the five models, a full training step leaves the
/// same bits with the pool on and off, at one and two threads.
#[test]
fn a_sparse_batch_is_bit_identical_with_and_without_arena() {
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
    let events = sparse::stream();
    for base in ModelConfig::all() {
        let cfg = base.with_dims(8, 4).with_neighbors(sparse::K);
        let step = |arena_on: bool, threads: usize| {
            let (loss, pos, neg, grads, params, memories) =
                run(arena_on, threads, &cfg, &events, sparse::NODES);
            let rows = |rows: &[Vec<f32>]| rows.iter().map(|r| bits(r)).collect::<Vec<_>>();
            (
                loss.to_bits(),
                bits(&pos),
                bits(&neg),
                rows(&grads),
                rows(&params),
                rows(&memories),
            )
        };
        let pooled = step(true, 1);
        for (arena_on, threads) in [(false, 1), (false, 2), (true, 2)] {
            assert_eq!(
                pooled,
                step(arena_on, threads),
                "{}: arena {arena_on} at {threads} threads",
                cfg.name
            );
        }
    }
    let _ = arena::set_enabled(true);
}

/// Nothing new leaks from the pool: once two warm-up batches have filled
/// it, a third identical batch misses it exactly as often as the known
/// leaks below account for. A `take_*` buffer that some path drops
/// instead of recycling (say, in one backward closure) is gone when the
/// next batch asks for it, and shows up here as one more miss. The batch
/// runs in the shared train step's order: forward, backward, optimizer
/// step, memory apply, then the boundary trim before the graph drops.
/// Pool misses of the third of three identical batches of `len` events
/// over `nodes` nodes at `threads` compute threads, worker takes included
/// — on a fresh thread, so no earlier run's pool state carries over.
fn steady_state_misses(len: usize, nodes: usize, threads: usize) -> u64 {
    std::thread::scope(|scope| {
        scope
            .spawn(|| {
                let events: Vec<Event> = (0..len)
                    .map(|i| {
                        let (src, dst) = (i % nodes, (i + 2) % nodes);
                        Event::new(src as u32, dst as u32, i as f64 * 0.5)
                    })
                    .collect();
                let feats = synth_features(events.len(), 4, 9);
                let cfg = ModelConfig::tgn().with_dims(8, 4).with_neighbors(3);
                let mut model = MemoryTgnn::new(cfg, nodes, 4, 3);
                model.set_compute_threads(threads);
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
                after.misses - before.misses
            })
            .join()
            .expect("the batches ran")
    })
}

#[test]
fn a_steady_state_batch_misses_the_pool_only_where_known() {
    // Not 0: the fused ops' backward closures capture forward buffers
    // taken from the pool — the GRU cell's `r`, `z`, `n` and `hn`
    // (`[5, 8]` each here) and the `pre` of three time encodings and one
    // attention score — and a captured buffer drops with the graph
    // instead of going back. Eight buffers leave the pool every batch;
    // the non-power-of-two buffers the batch returns cover three of
    // them, so five takes miss. Pinned exactly, so a new leak fails.
    assert_eq!(
        steady_state_misses(16, 5, 1),
        5,
        "a steady-state batch misses the pool only for the captured buffers"
    );
}

/// Shard workers borrow the training thread's pool and hand it back, so a batch
/// fanned out over two threads finds its buffers as well as the same
/// batch run serially: at two shards (64 events), four (128), and at 512
/// events over 512 nodes, whose 512 memory rows also fan the GRU
/// updater's forward and backward out over both threads.
#[test]
fn a_two_thread_batch_misses_the_pool_no_more_than_one_thread() {
    const { assert!(512 >= 2 * cascade_tensor::GRU_MIN_ROWS_PER_WORKER) };
    for (len, nodes) in [(64, 5), (128, 5), (512, 512)] {
        let serial = steady_state_misses(len, nodes, 1);
        let threaded = steady_state_misses(len, nodes, 2);
        assert!(
            threaded <= serial,
            "{len} events: {threaded} misses at 2 threads vs {serial} at 1"
        );
    }
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
