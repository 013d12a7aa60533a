//! A pinned fingerprint of one short Cascade run per model.
//!
//! Each of the paper's five models (JODIE, TGN, APAN, DySAT, TGAT) trains
//! for two epochs on a small WIKI-shaped synth under the Cascade
//! scheduler, through the same train-step moves every driver makes. The
//! run is reduced to a handful of numbers and compared with values
//! recorded from the implementation that computed every padded neighbour
//! slot and every mail-less updater row:
//!
//! - the batch count and a hash of every batch's size and loss bits;
//! - a hash of which parameters held a gradient after each backward
//!   pass. `Adam::step` decays its moments on an all-zero gradient but
//!   skips a parameter that has none, so presence is as much part of
//!   the training trajectory as the gradient values are;
//! - the validation loss and AP bits;
//! - a hash of the final `export_state()` blob (parameters, memories,
//!   mailboxes).
//!
//! A change that only skips work whose result was an exact zero keeps
//! all five. Any other change to a model's arithmetic moves at least one.

use cascade_core::{
    evaluate, BatchingStrategy, CascadeConfig, CascadeScheduler, TrainConfig, TrainStep,
};
use cascade_models::{MemoryTgnn, ModelConfig};
use cascade_tgraph::{Dataset, SynthConfig};

/// The numbers a run is reduced to.
#[derive(Debug, PartialEq, Eq)]
struct Fingerprint {
    batches: usize,
    losses: u64,
    presence: u64,
    val_loss: u32,
    val_ap: u32,
    state: u64,
}

/// FNV-1a over the little-endian bytes of each value.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(mut self, bytes: &[u8]) -> Self {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    fn u64(self, v: u64) -> Self {
        self.bytes(&v.to_le_bytes())
    }
}

fn dataset() -> Dataset {
    SynthConfig::wiki()
        .with_scale(0.005)
        .with_node_scale(0.05)
        .with_feature_dim(8)
        .generate(5)
}

/// Two epochs of Cascade at two compute threads (so batches of 33 events
/// or more run as several shards, each with its own gradient sink), then
/// validation, all from one fixed seed.
fn fingerprint(base: ModelConfig, data: &Dataset) -> Fingerprint {
    let cfg = TrainConfig {
        epochs: 2,
        lr: 1e-2,
        eval_batch_size: 64,
        clip_norm: Some(5.0),
        compute_threads: 2,
        ..TrainConfig::default()
    };
    let mut model = MemoryTgnn::new(
        base.with_dims(16, 4),
        data.num_nodes(),
        data.features().dim(),
        11,
    );
    let mut strategy = CascadeScheduler::new(CascadeConfig {
        preset_batch_size: 32,
        ..CascadeConfig::default()
    });
    let (events, n_train) = (data.stream().events(), data.train_range().end);
    let mut step = TrainStep::new(&mut model, &cfg);
    strategy.prepare(&events[..n_train], data.num_nodes());
    let (mut batches, mut losses, mut presence) = (0, Fnv::new(), Fnv::new());
    for _ in 0..cfg.epochs {
        model.reset_state();
        strategy.reset_epoch();
        let mut start = 0;
        while start < n_train {
            let end = step
                .scan(&mut strategy, start, n_train)
                .expect("a well-formed batch");
            let batch = &events[start..end];
            let fwd = step
                .compute(&model, batch, start, data.features())
                .expect("a scalar loss");
            let mask = step
                .params()
                .iter()
                .enumerate()
                .filter(|(_, p)| p.grad().is_some())
                .fold(0u64, |m, (i, _)| m | 1 << i);
            presence = presence.u64(mask);
            let loss = fwd.loss.item();
            losses = losses.u64(batch.len() as u64).u64(loss.to_bits() as u64);
            step.optimize();
            let deltas = model.apply_batch(batch, start, data.features(), fwd.pending);
            step.close(Some(fwd.loss));
            let out = cascade_core::StepOutput {
                batch_idx: step.record(batch.len(), loss),
                loss,
                deltas,
            };
            TrainStep::feedback(&mut strategy, &out);
            batches += 1;
            start = end;
        }
        step.end_epoch();
    }
    let val = evaluate(&mut model, data, cfg.eval_batch_size);
    Fingerprint {
        batches,
        losses: losses.0,
        presence: presence.0,
        val_loss: val.loss.to_bits(),
        val_ap: val.average_precision.to_bits(),
        state: Fnv::new().bytes(&model.export_state()).0,
    }
}

#[test]
fn five_models_keep_their_fingerprints() {
    let data = dataset();
    let pinned = [
        (
            ModelConfig::jodie(),
            Fingerprint {
                batches: 18,
                losses: 0xcac8f06469e7f537,
                presence: 0xc6ae9773d3d00d85,
                val_loss: 0x3ef832fe,
                val_ap: 0x3f536544,
                state: 0xe1e4c11877c9c020,
            },
        ),
        (
            ModelConfig::tgn(),
            Fingerprint {
                batches: 18,
                losses: 0xdfa372d2e36fa6a1,
                presence: 0x50ca6e5a59abbd25,
                val_loss: 0x3eb94710,
                val_ap: 0x3f66df93,
                state: 0xb8b025bb9524cd34,
            },
        ),
        (
            ModelConfig::apan(),
            Fingerprint {
                batches: 18,
                losses: 0xc1d7715ffd7ee514,
                presence: 0x7ddd1c322f7e1ea5,
                val_loss: 0x3efb6782,
                val_ap: 0x3f5dcc95,
                state: 0xdff6ce25b50ff241,
            },
        ),
        (
            ModelConfig::dysat(),
            Fingerprint {
                batches: 18,
                losses: 0x4c3698823feb0ae5,
                presence: 0x154d7fdac871b009,
                val_loss: 0x3ee39430,
                val_ap: 0x3f6639b8,
                state: 0x93bd04a8de36f168,
            },
        ),
        (
            ModelConfig::tgat(),
            Fingerprint {
                batches: 18,
                losses: 0x142524a18f0e1cfe,
                presence: 0x15735dd567619409,
                val_loss: 0x3ef4fbd4,
                val_ap: 0x3f4a31ea,
                state: 0x9e052b0d3a34029c,
            },
        ),
        (
            ModelConfig::tgn().with_lite(),
            Fingerprint {
                batches: 18,
                losses: 0x35683970918c969a,
                presence: 0x50ca6e5a59abbd25,
                val_loss: 0x3ecf816d,
                val_ap: 0x3f61e872,
                state: 0x4e21f2d90b7476a7,
            },
        ),
        (
            ModelConfig::tgat().with_lite(),
            Fingerprint {
                batches: 18,
                losses: 0x52d70eda3d1b11f8,
                presence: 0x15735dd567619409,
                val_loss: 0x3efb10d2,
                val_ap: 0x3f543896,
                state: 0xff4f2f2c20a5ce86,
            },
        ),
    ];
    let mut failures = Vec::new();
    for (base, want) in pinned {
        let name = format!("{}{}", base.name, if base.lite { "-lite" } else { "" });
        let got = fingerprint(base, &data);
        if got != want {
            failures.push(format!("{name}: got {got:x?}, pinned {want:x?}"));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
