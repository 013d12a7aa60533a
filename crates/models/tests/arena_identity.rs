//! The buffer arena at work: it recycles buffers during training, and a
//! steady-state batch misses it only where known. (That recycling never
//! moves a bit is the batch table's arena columns,
//! `tests/batch_identity.rs`.)

use cascade_models::{MemoryTgnn, ModelConfig};
use cascade_nn::{Adam, Module};
use cascade_tensor::arena;
use cascade_tgraph::{synth_features, Event};

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
