//! Seeded property test: shard-parallel batch compute is invisible.
//!
//! `MemoryTgnn::forward_batch` always splits a batch into the same fixed
//! shard layout; `compute_threads` only chooses how many workers evaluate
//! the shards. This property drives random synthetic event streams
//! through the model at 1, 2, and 4 threads and asserts that losses,
//! logits, parameter gradients, and post-batch node memories are
//! **bit-identical** to the serial run — exact `f32` bit equality, not
//! approximate closeness.

use cascade_models::{MemoryTgnn, ModelConfig};
use cascade_nn::Module;
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

/// Runs two batches (the second one exercises mailbox consumption, so the
/// shared `updated` barrier carries real gradients) and returns the final
/// loss, logits, per-parameter gradient bits, and all node memories.
#[allow(clippy::type_complexity)]
fn run(
    cfg: &ModelConfig,
    events: &[Event],
    num_nodes: usize,
    threads: usize,
) -> (f32, Vec<f32>, Vec<f32>, Vec<Vec<f32>>, Vec<Vec<f32>>) {
    let feats = synth_features(events.len(), 4, 9);
    let mut model = MemoryTgnn::new(cfg.clone(), num_nodes, 4, 3);
    model.set_compute_threads(threads);
    let mid = events.len() / 2;
    model.process_batch(&events[..mid], 0, &feats);
    let out = model.process_batch(&events[mid..], mid, &feats);
    out.loss.backward();
    let grads: Vec<Vec<f32>> = model
        .parameters()
        .iter()
        .map(|p| p.grad().unwrap_or_default())
        .collect();
    let memories: Vec<Vec<f32>> = (0..num_nodes)
        .map(|n| model.plane().memory_read(NodeId(n as u32)).to_vec())
        .collect();
    (
        out.loss.item(),
        out.pos_logits,
        out.neg_logits,
        grads,
        memories,
    )
}

#[test]
fn forward_batch_is_bit_identical_across_thread_counts() {
    check("forward_batch_thread_identity", |g| {
        let num_nodes = g.usize_in(4..16);
        // Second batches of 3..100 events: one to four shards.
        let len = g.usize_in(6..200);
        let events = random_events(g, num_nodes, len);
        let cfg = match g.usize_in(0..3) {
            0 => ModelConfig::tgn(),
            1 => ModelConfig::jodie(),
            _ => ModelConfig::tgat(),
        }
        .with_dims(8, 4)
        .with_neighbors(3);

        let serial = run(&cfg, &events, num_nodes, 1);
        for threads in [2usize, 4] {
            let par = run(&cfg, &events, num_nodes, threads);
            prop_assert!(
                serial.0.to_bits() == par.0.to_bits(),
                "loss differs at {} threads: {} vs {}",
                threads,
                serial.0,
                par.0
            );
            prop_assert_eq!(
                &serial.1,
                &par.1,
                "pos logits differ at {} threads",
                threads
            );
            prop_assert_eq!(
                &serial.2,
                &par.2,
                "neg logits differ at {} threads",
                threads
            );
            prop_assert_eq!(
                serial.3.len(),
                par.3.len(),
                "parameter count differs at {} threads",
                threads
            );
            for (i, (a, b)) in serial.3.iter().zip(par.3.iter()).enumerate() {
                prop_assert!(
                    a.iter()
                        .map(|x| x.to_bits())
                        .eq(b.iter().map(|x| x.to_bits())),
                    "gradient of parameter {} differs at {} threads",
                    i,
                    threads
                );
            }
            prop_assert_eq!(
                &serial.4,
                &par.4,
                "node memories differ at {} threads",
                threads
            );
        }
        Ok(())
    });
}

/// The thread setting must also be invisible to a *training* step: after
/// backward + SGD-style manual update, parameters land on identical bits.
#[test]
fn parameter_updates_are_bit_identical_across_thread_counts() {
    check("parameter_update_thread_identity", |g| {
        let num_nodes = g.usize_in(4..12);
        let events = random_events(g, num_nodes, 16);
        let cfg = ModelConfig::tgn().with_dims(8, 4).with_neighbors(3);
        let feats = synth_features(events.len(), 4, 9);

        let mut stepped: Vec<Vec<Vec<f32>>> = Vec::new();
        for threads in [1usize, 2, 4] {
            let mut model = MemoryTgnn::new(cfg.clone(), num_nodes, 4, 3);
            model.set_compute_threads(threads);
            model.process_batch(&events[..8], 0, &feats);
            let out = model.process_batch(&events[8..], 8, &feats);
            out.loss.backward();
            for p in model.parameters() {
                if let Some(gr) = p.grad() {
                    let stepped_data: Vec<f32> = p
                        .data()
                        .iter()
                        .zip(gr.iter())
                        .map(|(&w, &dw)| w - 0.1 * dw)
                        .collect();
                    p.set_data(&stepped_data);
                }
            }
            stepped.push(model.parameters().iter().map(|p| p.to_vec()).collect());
        }
        prop_assert_eq!(
            &stepped[0],
            &stepped[1],
            "2-thread step diverged from serial"
        );
        prop_assert_eq!(
            &stepped[0],
            &stepped[2],
            "4-thread step diverged from serial"
        );
        Ok(())
    });
}

/// The shard count follows the batch length alone (one shard per 32
/// events, at most 8), so it — and every bit computed under it — is the
/// same at 1 and 4 threads on both sides of each step of the rule. 256
/// events, the preset batch, must stay at 8 shards: that is what keeps
/// every preset-sized batch's bits across the rule's introduction.
#[test]
fn shard_layout_follows_batch_length_at_any_thread_count() {
    const WARM: usize = 40;
    let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
    let cfg = ModelConfig::tgn().with_dims(8, 4).with_neighbors(3);
    for (len, shards) in [(1, 1), (23, 1), (33, 2), (100, 4), (224, 7), (256, 8)] {
        let mut g = Gen::new(len as u64);
        let events = random_events(&mut g, 24, WARM + len);
        let feats = synth_features(events.len(), 4, 9);
        let run = |threads: usize| {
            let mut model = MemoryTgnn::new(cfg.clone(), 24, 4, 3);
            model.set_compute_threads(threads);
            // Warm-up batch, so the measured one consumes mailboxes.
            model.process_batch(&events[..WARM], 0, &feats);
            let fwd = model.forward_batch(&events[WARM..], WARM, &feats);
            assert_eq!(
                fwd.shard_busy.len(),
                shards,
                "{len} events, {threads} threads"
            );
            fwd.loss.backward();
            let grads: Vec<Vec<u32>> = model
                .parameters()
                .iter()
                .map(|p| bits(&p.grad().unwrap_or_default()))
                .collect();
            (fwd.loss.item().to_bits(), grads, bits(fwd.pending.post()))
        };
        assert_eq!(run(1), run(4), "{len} events: 1 vs 4 threads");
    }
}

/// A batch whose memory updater has enough rows to fan out (the shard
/// tests above stay under a few dozen): after two warm-up batches have
/// written non-zero memories, 500 events over 1 000 nodes touch some 630
/// centers, so the fused GRU cell splits its forward and backward over
/// two and four threads. Loss, every gradient and the
/// written-back memories must not move a bit.
#[test]
fn a_fanned_out_updater_is_bit_identical_across_thread_counts() {
    const NODES: usize = 1000;
    let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
    let mut g = Gen::new(29);
    let events = random_events(&mut g, NODES, 1100);
    let feats = synth_features(events.len(), 4, 9);
    let run = |threads: usize| {
        let cfg = ModelConfig::tgn().with_dims(8, 4).with_neighbors(3);
        let mut model = MemoryTgnn::new(cfg, NODES, 4, 3);
        model.set_compute_threads(threads);
        model.process_batch(&events[..300], 0, &feats);
        model.process_batch(&events[300..600], 300, &feats);
        let fwd = model.forward_batch(&events[600..], 600, &feats);
        let fanned = fwd.pending.centers().len();
        assert!(fanned >= threads * cascade_tensor::GRU_MIN_ROWS_PER_WORKER);
        fwd.loss.backward();
        let grads: Vec<Vec<u32>> = model
            .parameters()
            .iter()
            .map(|p| bits(&p.grad().unwrap_or_default()))
            .collect();
        (fwd.loss.item().to_bits(), grads, bits(fwd.pending.post()))
    };
    let serial = run(1);
    for threads in [2, 4] {
        assert_eq!(serial, run(threads), "1 vs {threads} threads");
    }
}
