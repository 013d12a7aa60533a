//! Multi-process transport equivalence: an N-worker TCP-loopback run is
//! bit-identical to the N-worker in-process run — same final state,
//! same optimizer, same per-batch loss bits on every process. The
//! leader and followers here are threads for test convenience; they
//! share nothing but their sockets, exactly like separate processes.

use std::net::TcpListener;

use cascade_dist::{run_follower, run_leader_on, train_dist, DistConfig, DistOutcome};
use cascade_models::ModelConfig;
use cascade_tgraph::{Dataset, SynthConfig};

fn data() -> Dataset {
    SynthConfig::wiki().with_scale(0.003).generate(29)
}

fn model_cfg() -> ModelConfig {
    ModelConfig::tgn().with_dims(8, 4)
}

fn dist_cfg(workers: usize) -> DistConfig {
    DistConfig {
        workers,
        chunk_size: 128,
        batch_size: 64,
        epochs: 2,
        lr: 1e-3,
        clip_norm: Some(5.0),
        seed: 33,
    }
}

fn loss_bits(o: &DistOutcome) -> Vec<(usize, usize, u32)> {
    o.batches
        .iter()
        .map(|b| (b.round, b.worker, b.loss.to_bits()))
        .collect()
}

fn tcp_matches_in_process(workers: usize) {
    let cfg = dist_cfg(workers);
    let listener = TcpListener::bind("127.0.0.1:0").expect("loopback bind always succeeds");
    let addr = listener
        .local_addr()
        .expect("bound listener has an address")
        .to_string();

    let (leader_out, follower_outs) = std::thread::scope(|scope| {
        let leader = scope.spawn(|| {
            let d = data();
            run_leader_on(listener, &d, &model_cfg(), &cfg)
        });
        let followers: Vec<_> = (1..workers)
            .map(|w| {
                let (addr, cfg) = (&addr, &cfg);
                scope.spawn(move || {
                    // A separate Dataset instance: processes share no
                    // memory, only the synth seed.
                    let d = data();
                    run_follower(addr, w, &d, &model_cfg(), cfg)
                })
            })
            .collect();
        (
            leader.join().expect("leader thread completes"),
            followers
                .into_iter()
                .map(|f| f.join().expect("follower thread completes"))
                .collect::<Vec<_>>(),
        )
    });
    let leader_out = leader_out.expect("leader run succeeds");

    // Leader and followers converge to the same replica.
    for follower_out in follower_outs {
        let follower_out = follower_out.expect("follower run succeeds");
        assert_eq!(leader_out.state, follower_out.state, "replicas diverged");
        assert_eq!(leader_out.optimizer, follower_out.optimizer);
        assert_eq!(loss_bits(&leader_out), loss_bits(&follower_out));
        assert_eq!(
            leader_out.report.epoch_losses, follower_out.report.epoch_losses,
            "epoch telemetry diverged"
        );
    }

    // And the TCP run reproduces the in-process run bit-for-bit.
    let inproc = train_dist(&data(), &model_cfg(), &cfg);
    assert_eq!(
        inproc.state, leader_out.state,
        "TCP and in-process transports diverged"
    );
    assert_eq!(inproc.optimizer, leader_out.optimizer);
    assert_eq!(loss_bits(&inproc), loss_bits(&leader_out));
    assert_eq!(inproc.report.events, leader_out.report.events);
}

#[test]
fn tcp_loopback_matches_in_process() {
    tcp_matches_in_process(2);
}

/// Three workers: the fence/ownership arithmetic beyond the one pair,
/// and (three chunks of 128 over ~470 events, a fourth short) an epoch
/// whose last round has idle workers.
#[test]
fn tcp_loopback_matches_in_process_at_three_workers() {
    tcp_matches_in_process(3);
}
