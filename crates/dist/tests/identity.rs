//! The dist determinism contract (DESIGN.md §12):
//!
//! * N = 1 is **bit-identical** to the serial training loop — same
//!   per-batch loss bits, same logits, same memories and mailboxes,
//!   same post-step parameters, same optimizer state.
//! * N > 1 is bit-reproducible run-to-run for a fixed `(workers, seed,
//!   stream)` and diverges from serial only through the documented
//!   bounded-staleness model.

use cascade_dist::{train_dist, DistConfig};
use cascade_models::{MemoryTgnn, ModelConfig};
use cascade_nn::{clip_grad_norm, Adam, Module};
use cascade_tgraph::{Dataset, SynthConfig};

const SEED: u64 = 21;
const BATCH: usize = 64;
const CHUNK: usize = 128;
const EPOCHS: usize = 2;
const LR: f32 = 1e-3;
const CLIP: f32 = 5.0;

fn data() -> Dataset {
    SynthConfig::wiki().with_scale(0.004).generate(13)
}

fn model_cfg() -> ModelConfig {
    ModelConfig::tgn().with_dims(8, 4)
}

fn dist_cfg(workers: usize) -> DistConfig {
    DistConfig {
        workers,
        chunk_size: CHUNK,
        batch_size: BATCH,
        epochs: EPOCHS,
        lr: LR,
        clip_norm: Some(CLIP),
        seed: SEED,
    }
}

struct SerialRun {
    losses: Vec<f32>,
    state: Vec<u8>,
    opt_state: Vec<u8>,
}

/// The serial reference loop, written out explicitly: forward →
/// backward → clip → step → apply → arena trim per batch, state reset
/// at each epoch start. Batch boundaries match the dist cutter because
/// `CHUNK` is a multiple of `BATCH` and only the final chunk is short.
fn serial_reference(data: &Dataset) -> SerialRun {
    let feat_dim = data.features().dim();
    let mut model = MemoryTgnn::new(model_cfg(), data.num_nodes(), feat_dim, SEED);
    let params = model.parameters();
    let mut opt = Adam::new(model.parameters(), LR);
    let events = data.stream().events();
    let feats = data.features();
    let mut losses = Vec::new();
    for _ in 0..EPOCHS {
        model.reset_state();
        let mut start = 0;
        while start < events.len() {
            let end = (start + BATCH).min(events.len());
            let fwd = model.forward_batch(&events[start..end], start, feats);
            losses.push(fwd.loss.item());
            fwd.loss.backward();
            clip_grad_norm(&params, CLIP);
            opt.step();
            model.apply_batch(&events[start..end], start, feats, fwd.pending);
            cascade_tensor::arena::reset();
            start = end;
        }
    }
    SerialRun {
        losses,
        state: model.export_state(),
        opt_state: opt.export_state(),
    }
}

#[test]
fn n1_dist_is_bit_identical_to_serial() {
    let d = data();
    let serial = serial_reference(&d);
    let dist = train_dist(&d, &model_cfg(), &dist_cfg(1));

    let dist_losses: Vec<f32> = dist.batches.iter().map(|b| b.loss).collect();
    assert_eq!(
        dist_losses.len(),
        serial.losses.len(),
        "batch count differs"
    );
    for (i, (a, b)) in serial.losses.iter().zip(&dist_losses).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "batch {} loss diverged: serial {} vs dist {}",
            i,
            a,
            b
        );
    }
    // Parameters, node memories, last-update times, and mailboxes all
    // travel in the state blob — byte equality covers the lot.
    assert_eq!(serial.state, dist.state, "final model state diverged");
    assert_eq!(serial.opt_state, dist.optimizer, "optimizer state diverged");
}

/// The next batch's forward pass from the N = 1 run's final state
/// produces bit-identical logits to the same pass from the serial
/// loop's (the state equality above implies this, but logits are part
/// of the stated contract, so pin them directly).
#[test]
fn n1_forward_logits_match_serial() {
    let d = data();
    let serial = serial_reference(&d);
    let dist = train_dist(&d, &model_cfg(), &dist_cfg(1));
    let resume = |state: &[u8]| {
        let feat_dim = d.features().dim();
        let mut model = MemoryTgnn::new(model_cfg(), d.num_nodes(), feat_dim, SEED);
        model.import_state(state).expect("own state imports");
        model.replay_adjacency(d.stream().events(), 0);
        model
    };
    let (a, b) = (resume(&serial.state), resume(&dist.state));
    let events = &d.stream().events()[..BATCH];
    let a = a.forward_batch(events, 0, d.features());
    let b = b.forward_batch(events, 0, d.features());
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&a.pos_logits), bits(&b.pos_logits));
    assert_eq!(bits(&a.neg_logits), bits(&b.neg_logits));
    assert_eq!(a.loss.item().to_bits(), b.loss.item().to_bits());
    cascade_tensor::arena::reset();
}

#[test]
fn n2_is_reproducible_and_divergence_is_bounded() {
    let d = data();
    let serial = serial_reference(&d);
    let first = train_dist(&d, &model_cfg(), &dist_cfg(2));
    let second = train_dist(&d, &model_cfg(), &dist_cfg(2));

    // Seeded and schedule-independent: two runs agree bit-for-bit.
    assert_eq!(first.state, second.state, "N=2 runs diverged across runs");
    assert_eq!(first.optimizer, second.optimizer);
    let loss_bits = |o: &cascade_dist::DistOutcome| {
        o.batches
            .iter()
            .map(|b| (b.round, b.worker, b.loss.to_bits()))
            .collect::<Vec<_>>()
    };
    assert_eq!(loss_bits(&first), loss_bits(&second));

    // The documented divergence model: N=2 reads one round of stale
    // memory and averages same-round gradients, so it differs from
    // serial — but must stay a *trained* model, not a broken one. Both
    // optimize the same objective on the same events; their final
    // epoch-mean losses land in the same regime.
    assert_ne!(
        first.state, serial.state,
        "N=2 should not equal serial bit-for-bit"
    );
    let serial_last = serial.losses[serial.losses.len() - serial.losses.len() / EPOCHS..]
        .iter()
        .map(|l| *l as f64)
        .sum::<f64>()
        / (serial.losses.len() / EPOCHS) as f64;
    let dist_last = *first
        .report
        .epoch_losses
        .last()
        .expect("dist reports one loss per epoch") as f64;
    assert!(
        dist_last.is_finite() && (dist_last - serial_last).abs() < 0.25,
        "bounded staleness should keep epoch loss near serial: serial {:.4}, dist {:.4}",
        serial_last,
        dist_last
    );
}
