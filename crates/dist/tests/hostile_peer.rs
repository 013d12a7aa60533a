//! A peer that speaks the codec but lies about the content: every
//! payload here decodes cleanly, and each must come back as a
//! [`DistError::Protocol`] naming the field that does not fit this
//! process's dataset or model — never a panic (the joins below would
//! re-raise one) and never a hang (the raw side reads under a timeout).

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

use cascade_dist::{run_follower, run_leader_on, DistConfig, DistError, Frame, RoundPayload};
use cascade_models::{BatchPending, MemoryTgnn, ModelConfig};
use cascade_nn::Module;
use cascade_tgraph::{Dataset, Event, SynthConfig};

const BATCH: usize = 64;
const CHUNK: usize = 128;

fn data(seed: u64) -> Dataset {
    SynthConfig::wiki().with_scale(0.003).generate(seed)
}

fn model_cfg() -> ModelConfig {
    ModelConfig::tgn().with_dims(8, 4)
}

fn dist_cfg() -> DistConfig {
    DistConfig::new()
        .with_workers(2)
        .with_batching(CHUNK, BATCH)
}

/// What an honest `worker` would send as its first payload of the run,
/// up to the numbers in it: the right events, one center with a
/// memory-wide row, one zero gradient per parameter.
fn honest(worker: usize, d: &Dataset) -> RoundPayload {
    let first_id = worker * CHUNK;
    let events = d.stream().events()[first_id..first_id + BATCH].to_vec();
    let cfg = model_cfg();
    let center = events[0].src;
    let width = cfg.memory_dim;
    let model = MemoryTgnn::new(cfg, d.num_nodes(), d.features().dim(), 7);
    RoundPayload {
        worker,
        first_id,
        events,
        pending: BatchPending::from_parts(vec![center], vec![true], vec![0.0; width]),
        grads: model
            .parameters()
            .iter()
            .map(|p| Some(vec![0.0; p.len()]))
            .collect(),
        loss: 0.7,
    }
}

fn send(stream: &mut TcpStream, frame: &Frame) {
    let body = frame.encode();
    stream
        .write_all(&(body.len() as u32).to_le_bytes())
        .and_then(|_| stream.write_all(&body))
        .expect("the peer under test is still reading");
}

fn recv(stream: &mut TcpStream) -> Frame {
    let mut len = [0u8; 4];
    stream.read_exact(&mut len).expect("a frame length arrives");
    let mut body = vec![0u8; u32::from_le_bytes(len) as usize];
    stream.read_exact(&mut body).expect("a frame body arrives");
    Frame::decode(&body).expect("the peer under test encodes valid frames")
}

fn raw(stream: TcpStream) -> TcpStream {
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("timeouts can be set on a connected socket");
    stream
}

fn protocol_text(result: Result<cascade_dist::DistOutcome, DistError>) -> String {
    match result {
        Err(DistError::Protocol(text)) => text,
        Err(other) => panic!("expected a protocol error, got {other}"),
        Ok(_) => panic!("expected a protocol error, got a finished run"),
    }
}

/// Runs a real leader against a raw follower that says `Hello` and then
/// sends `payload`; returns the leader's protocol error text.
fn leader_refuses(payload: RoundPayload) -> String {
    let d = data(29);
    let listener = TcpListener::bind("127.0.0.1:0").expect("loopback bind always succeeds");
    let addr = listener
        .local_addr()
        .expect("bound listener has an address");
    std::thread::scope(|scope| {
        let leader = scope.spawn(|| run_leader_on(listener, &d, &model_cfg(), &dist_cfg()));
        let mut stream = raw(TcpStream::connect(addr).expect("the leader is listening"));
        send(
            &mut stream,
            &Frame::Hello {
                worker: 1,
                workers: 2,
            },
        );
        send(&mut stream, &Frame::Payload(Some(payload)));
        protocol_text(
            leader
                .join()
                .expect("the leader returns, it does not panic"),
        )
    })
}

/// Runs a real follower against a raw leader that answers its first
/// payload with the bundle `forge` makes of it; returns the follower's
/// protocol error text.
fn follower_refuses(forge: impl FnOnce(RoundPayload) -> Vec<Option<RoundPayload>>) -> String {
    let d = data(29);
    let listener = TcpListener::bind("127.0.0.1:0").expect("loopback bind always succeeds");
    let addr = listener
        .local_addr()
        .expect("bound listener has an address")
        .to_string();
    std::thread::scope(|scope| {
        let follower = scope.spawn(|| run_follower(&addr, 1, &d, &model_cfg(), &dist_cfg()));
        let (stream, _) = listener.accept().expect("the follower connects");
        let mut stream = raw(stream);
        assert!(matches!(recv(&mut stream), Frame::Hello { worker: 1, .. }));
        let Frame::Payload(Some(theirs)) = recv(&mut stream) else {
            panic!("a follower's first frame after Hello is its payload");
        };
        send(&mut stream, &Frame::Round(forge(theirs)));
        protocol_text(
            follower
                .join()
                .expect("the follower returns, it does not panic"),
        )
    })
}

#[test]
fn leader_refuses_a_post_row_of_the_wrong_width() {
    let d = data(29);
    let mut p = honest(1, &d);
    p.pending = BatchPending::from_parts(vec![p.events[0].src], vec![true], vec![0.0; 3]);
    let text = leader_refuses(p);
    assert!(text.contains("`post`"), "{text}");
}

#[test]
fn leader_refuses_an_event_outside_the_dataset() {
    let d = data(29);
    let mut p = honest(1, &d);
    p.events[5] = Event::new(4_000_000u32, p.events[5].dst.0, p.events[5].time);
    let text = leader_refuses(p);
    assert!(text.contains("`events`"), "{text}");
}

#[test]
fn leader_refuses_a_short_gradient_set() {
    let d = data(29);
    let mut p = honest(1, &d);
    p.grads.truncate(1);
    let text = leader_refuses(p);
    assert!(text.contains("`grads`"), "{text}");

    // The right count with one gradient of the wrong length is no better.
    let mut p = honest(1, &d);
    p.grads[0] = Some(vec![0.0; 1]);
    let text = leader_refuses(p);
    assert!(text.contains("`grads[0]`"), "{text}");
}

#[test]
fn follower_refuses_a_bundle_with_swapped_worker_indices() {
    let d = data(29);
    let text = follower_refuses(|theirs| vec![Some(theirs), Some(honest(0, &d))]);
    assert!(text.contains("`worker`"), "{text}");
}

#[test]
fn follower_refuses_a_post_row_of_the_wrong_width() {
    let d = data(29);
    let text = follower_refuses(|theirs| {
        let mut p = honest(0, &d);
        p.pending = BatchPending::from_parts(vec![p.events[0].src], vec![true], vec![0.0; 3]);
        vec![Some(p), Some(theirs)]
    });
    assert!(text.contains("`post`"), "{text}");
}

#[test]
fn follower_refuses_a_bundle_of_the_wrong_size() {
    let text = follower_refuses(|theirs| vec![Some(theirs)]);
    assert!(text.contains("slots"), "{text}");
}

/// Two honest processes started with different `--data-seed`s: the
/// leader says which flags must agree, the follower sees the leader
/// hang up — typed errors on both sides.
#[test]
fn a_follower_over_another_dataset_is_an_error_on_both_sides() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("loopback bind always succeeds");
    let addr = listener
        .local_addr()
        .expect("bound listener has an address")
        .to_string();
    let (leader, follower) = std::thread::scope(|scope| {
        let leader = scope.spawn(|| run_leader_on(listener, &data(29), &model_cfg(), &dist_cfg()));
        let follower = scope.spawn(|| run_follower(&addr, 1, &data(30), &model_cfg(), &dist_cfg()));
        (
            leader.join().expect("the leader returns"),
            follower.join().expect("the follower returns"),
        )
    });
    let text = protocol_text(leader);
    assert!(
        text.contains("`events`") && text.contains("--data-seed"),
        "{text}"
    );
    assert!(matches!(follower, Err(DistError::Io(_))));
}
