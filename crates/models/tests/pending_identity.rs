//! The state-only advance is the forward pass's state half, bit for bit.
//!
//! `MemoryTgnn::pending_batch` runs only step 1a (gather the batch's
//! endpoints, consume their mailboxes) and detaches the write-back
//! ticket; `forward_batch` runs the same step and then embeds, scores and
//! builds a loss. For every model configuration, full and TGLite-`lite`
//! mode, over a stream whose batches cover one shard, several shards and
//! the eight-shard cap, the two tickets must be equal to the last bit at
//! every batch, and two models advanced through the two paths must export
//! the same state.

use cascade_models::{BatchPending, MemoryTgnn, ModelConfig};
use cascade_tgraph::{synth_features, Event};

const NODES: usize = 24;
const FEAT_DIM: usize = 4;
/// Batch sizes in stream order: a single event, one shard, several
/// shards, the eight-shard cap, and repeat visits so mailboxes fill.
const BATCHES: [usize; 7] = [1, 9, 40, 3, 230, 17, 65];

fn stream() -> Vec<Event> {
    let total: usize = BATCHES.iter().sum();
    (0..total)
        .map(|i| {
            let src = (i * 5 + i / 7) % NODES;
            let dst = (i * 11 + 3) % NODES;
            Event::new(src as u32, dst as u32, 0.5 + i as f64 * 0.25)
        })
        .collect()
}

fn bits(p: &BatchPending) -> (Vec<u32>, Vec<bool>, Vec<u32>) {
    (
        p.centers().iter().map(|n| n.0).collect(),
        p.has_msg().to_vec(),
        p.post().iter().map(|x| x.to_bits()).collect(),
    )
}

fn configs() -> Vec<ModelConfig> {
    let full = ModelConfig::all().into_iter().map(|c| c.with_dims(8, 4));
    let lite = ModelConfig::all()
        .into_iter()
        .map(|c| c.with_dims(8, 4).with_lite());
    full.chain(lite).collect()
}

#[test]
fn pending_batch_is_the_forward_ticket_bit_for_bit() {
    let events = stream();
    let feats = synth_features(events.len(), FEAT_DIM, 4);
    for cfg in configs() {
        let label = format!("{} (lite {})", cfg.name, cfg.lite);
        let mut forward = MemoryTgnn::new(cfg.clone(), NODES, FEAT_DIM, 7);
        let mut state_only = MemoryTgnn::new(cfg, NODES, FEAT_DIM, 7);
        let mut first = 0;
        let mut consuming = 0;
        for (b, &len) in BATCHES.iter().enumerate() {
            let batch = &events[first..first + len];
            let fwd = forward.forward_batch(batch, first, &feats);
            let pending = state_only.pending_batch(batch);
            assert_eq!(
                bits(&pending),
                bits(&fwd.pending),
                "{label}: batch {b} ticket differs"
            );
            consuming += usize::from(pending.has_msg().iter().any(|&m| m));
            forward.apply_batch(batch, first, &feats, fwd.pending);
            state_only.apply_batch(batch, first, &feats, pending);
            first += len;
        }
        // Batches that consumed no mailbox would compare zero-message
        // tickets only.
        assert!(
            consuming >= BATCHES.len() - 2,
            "{label}: only {consuming} batches consumed messages"
        );
        assert_eq!(
            state_only.export_state(),
            forward.export_state(),
            "{label}: state after {} batches differs",
            BATCHES.len()
        );
    }
}
