//! The determinism contract (DESIGN §12c) as driver rows held to pins
//! (machinery in `matrix/mod.rs`): G1, Cascade as one chunk per model;
//! G4, dist N = 1 against the reference loop over the whole stream; G5,
//! dist N ∈ {2, 3}. The streaming groups are `streaming_identity.rs`.

#[macro_use]
mod matrix;

use std::net::TcpListener;

use cascade_core::{FixedBatching, TrainConfig};
use cascade_dist::{run_follower, run_leader_on, train_dist, DistConfig, DistOutcome};
use cascade_models::ModelConfig;
use cascade_tensor::arena;
use cascade_tgraph::SynthConfig;
use matrix::{cascade, fnv, losses, small, verdict, Fingerprint, Group, Setup, SEED};

// ---- G1: Cascade with the stream as one chunk, per model --------------

fn g1(base: ModelConfig) -> Setup {
    Setup {
        data: SynthConfig::wiki()
            .with_scale(0.005)
            .with_node_scale(0.05)
            .with_feature_dim(8)
            .generate(5),
        model: base.with_dims(16, 4),
        seed: 11,
        strategy: cascade,
        cfg: TrainConfig {
            epochs: 2,
            lr: 1e-2,
            eval_batch_size: 64,
            clip_norm: Some(5.0),
            compute_threads: 2,
            ..TrainConfig::default()
        },
    }
}

fn g1_name(s: &Setup) -> String {
    let lite = if s.model.lite { "-lite" } else { "" };
    format!("G1 {}{lite}", s.model.name)
}

/// Two epochs of Cascade per model, from the reference loop. Recorded from
/// the implementation that computed every padded neighbour slot and every
/// mail-less updater row.
fn g1_pins() -> [(ModelConfig, Fingerprint); 7] {
    [
        (
            ModelConfig::jodie(),
            Fingerprint {
                batches: 18,
                losses: 0xcac8f06469e7f537,
                presence: Some(0xc6ae9773d3d00d85),
                val_loss: Some(0x3ef832fe),
                val_ap: Some(0x3f536544),
                state: 0xe1e4c11877c9c020,
                optimizer: None,
            },
        ),
        (
            ModelConfig::tgn(),
            Fingerprint {
                batches: 18,
                losses: 0xdfa372d2e36fa6a1,
                presence: Some(0x50ca6e5a59abbd25),
                val_loss: Some(0x3eb94710),
                val_ap: Some(0x3f66df93),
                state: 0xb8b025bb9524cd34,
                optimizer: None,
            },
        ),
        (
            ModelConfig::apan(),
            Fingerprint {
                batches: 18,
                losses: 0xc1d7715ffd7ee514,
                presence: Some(0x7ddd1c322f7e1ea5),
                val_loss: Some(0x3efb6782),
                val_ap: Some(0x3f5dcc95),
                state: 0xdff6ce25b50ff241,
                optimizer: None,
            },
        ),
        (
            ModelConfig::dysat(),
            Fingerprint {
                batches: 18,
                losses: 0x4c3698823feb0ae5,
                presence: Some(0x154d7fdac871b009),
                val_loss: Some(0x3ee39430),
                val_ap: Some(0x3f6639b8),
                state: 0x93bd04a8de36f168,
                optimizer: None,
            },
        ),
        (
            ModelConfig::tgat(),
            Fingerprint {
                batches: 18,
                losses: 0x142524a18f0e1cfe,
                presence: Some(0x15735dd567619409),
                val_loss: Some(0x3ef4fbd4),
                val_ap: Some(0x3f4a31ea),
                state: 0x9e052b0d3a34029c,
                optimizer: None,
            },
        ),
        (
            ModelConfig::tgn().with_lite(),
            Fingerprint {
                batches: 18,
                losses: 0x35683970918c969a,
                presence: Some(0x50ca6e5a59abbd25),
                val_loss: Some(0x3ecf816d),
                val_ap: Some(0x3f61e872),
                state: 0x4e21f2d90b7476a7,
                optimizer: None,
            },
        ),
        (
            ModelConfig::tgat().with_lite(),
            Fingerprint {
                batches: 18,
                losses: 0x52d70eda3d1b11f8,
                presence: Some(0x15735dd567619409),
                val_loss: Some(0x3efb10d2),
                val_ap: Some(0x3f543896),
                state: 0xff4f2f2c20a5ce86,
                optimizer: None,
            },
        ),
    ]
}

#[test]
fn g1_every_model_keeps_its_pin() {
    let setups = g1_pins().map(|(base, pin)| (g1(base), pin));
    verdict(setups.iter().map(|(s, pin)| {
        let mut g = s.group(g1_name(s), *pin);
        g.reference(false);
        g
    }));
}

/// `train` with the buffer arena off on the driver's thread; shard
/// workers inherit the setting.
fn arena_off(g: &mut Group) {
    let was = arena::set_enabled(false);
    let hits = arena::stats().hits;
    g.train("arena off", 2);
    fact!(g, "arena off", arena::stats().hits == hits);
    arena::set_enabled(was);
}

/// The drivers against G1's pin for the model at `index`.
fn g1_drivers(index: usize) {
    let (base, pin) = g1_pins()[index].clone();
    let s = g1(base);
    let (mut g, whole) = (s.group(g1_name(&s), pin), s.data.num_events());
    g.train("train 1 thread", 1);
    g.train("train 4 threads", 4);
    g.stream("InMemorySource whole", s.chunks(whole), 2);
    let (stored, _) = g.stream("store whole", s.store(whole).open(), 2);
    fact!(g, "store whole", stored.strategy == "Cascade");
    arena_off(&mut g);
    verdict([g]);
}

/// The GRU updater path.
#[test]
fn g1_tgn_drivers_match_the_reference() {
    g1_drivers(1);
}

/// The ragged attention path.
#[test]
fn g1_tgat_drivers_match_the_reference() {
    g1_drivers(4);
}

// ---- G4–G5: dist, on G2's dataset and TGN -----------------------------

/// A dist run's fingerprint: it observes the optimizer but not presence,
/// and does not validate.
fn of_dist(o: &DistOutcome) -> Fingerprint {
    Fingerprint {
        batches: o.batches.len(),
        losses: losses(o.batches.iter().map(|b| (b.events, b.loss))),
        presence: None,
        val_loss: None,
        val_ap: None,
        state: fnv(o.state.iter().copied()),
        optimizer: Some(fnv(o.optimizer.iter().copied())),
    }
}

fn dist_cfg(workers: usize) -> DistConfig {
    DistConfig {
        workers,
        chunk_size: 128,
        batch_size: 64,
        epochs: 2,
        lr: 1e-3,
        clip_norm: Some(5.0),
        seed: SEED,
    }
}

/// Row 0: the reference loop, fixed batches of 64 over the whole stream.
const G4: Fingerprint = Fingerprint {
    batches: 20,
    losses: 0x0a4dc8aed6e34c14,
    presence: Some(0xe4f835cc8572972d),
    val_loss: None,
    val_ap: None,
    state: 0x3e9097a457e39262,
    optimizer: Some(0xd194bf3e390739f4),
};

/// The reference loop's mean loss over G4's last epoch, recorded with its
/// pin: the centre of the dist N > 1 loss band.
const G4_LAST_EPOCH_LOSS: f32 = 0.676_182_87;

/// 128-event chunks cut into batches of 64 are the reference loop's
/// batches, so N = 1 is the serial run: losses, parameters, memories,
/// mailboxes and optimizer state.
#[test]
fn g4_n1_dist_is_bit_identical_to_the_reference() {
    let mut s = small(|| Box::new(FixedBatching::new(64)));
    s.cfg.scale_lr_with_batch = false;
    let mut g = s.group("G4 dist N=1", G4);
    g.reference(true); // the whole stream, no validation
    let dist = train_dist(&s.data, &s.model, &dist_cfg(1));
    g.row("in process", of_dist(&dist));
    verdict([g]);
}

/// Row 0 of N = 2 and N = 3: the in-process run.
const G5: [Fingerprint; 2] = [
    Fingerprint {
        batches: 20,
        losses: 0xa40d7102fc55a6c7,
        presence: None,
        val_loss: None,
        val_ap: None,
        state: 0xd47c3bb37e907815,
        optimizer: Some(0xd72ac1fd8a3ee98f),
    },
    Fingerprint {
        batches: 20,
        losses: 0x599bf23c3b6b2ded,
        presence: None,
        val_loss: None,
        val_ap: None,
        state: 0xb92a661383565069,
        optimizer: Some(0xbeada3d6c0d79fda),
    },
];

/// N > 1 reads one round of stale memory and averages same-round
/// gradients: it is not the serial run, but stays a trained model whose
/// last epoch loss lands near serial's. Every replica on either transport
/// holds the same bits. Over TCP, the leader and followers are threads
/// that share nothing but their sockets, each with its own copy of the
/// dataset, like separate processes.
fn dist_group(workers: usize) {
    let s = small(|| Box::new(FixedBatching::new(64)));
    let mut g = s.group(format!("G5 dist N={workers}"), G5[workers - 2]);
    let cfg = &dist_cfg(workers);
    let inproc = train_dist(&s.data, &s.model, cfg);
    g.row("in process", of_dist(&inproc));
    let listener = TcpListener::bind("127.0.0.1:0").expect("loopback bind");
    let addr = &listener.local_addr().expect("bound address").to_string();
    let peers: Vec<DistOutcome> = std::thread::scope(|scope| {
        let (model, own) = (&s.model, || small(s.strategy).data);
        let leader = scope.spawn(move || run_leader_on(listener, &own(), model, cfg));
        let followers =
            (1..workers).map(|w| scope.spawn(move || run_follower(addr, w, &own(), model, cfg)));
        let peers: Vec<_> = std::iter::once(leader).chain(followers).collect();
        let joined = peers.into_iter().map(|h| h.join().expect("peer thread"));
        joined.map(|run| run.expect("peer run")).collect()
    });
    for (w, peer) in peers.iter().enumerate() {
        g.row(&format!("TCP worker {w}"), of_dist(peer));
    }
    let last = inproc.report.epoch_losses[1];
    fact!(g, "in process", (last - G4_LAST_EPOCH_LOSS).abs() < 0.25);
    fact!(g, "in process", fnv(inproc.state) != G4.state);
    verdict([g]);
}

#[test]
fn g5_two_workers_agree_on_either_transport() {
    dist_group(2);
}

/// Three workers: the fence and ownership arithmetic beyond one pair, and
/// an epoch whose last round has an idle worker.
#[test]
fn g5_three_workers_agree_on_either_transport() {
    dist_group(3);
}
