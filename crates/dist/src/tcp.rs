//! The multi-process TCP transport: the same round protocol as the
//! in-process runtime, spoken over `std::net` loopback/LAN sockets.
//!
//! One process is the **leader** (worker 0); the rest are **followers**
//! (workers `1..N`). Every process holds the full dataset (rebuilt from
//! the same seed or loaded identically) and one [`Replica`] — a full
//! parameter replica over its own memory plane, exactly what each
//! in-process worker thread holds. Only the way a round's payloads
//! reach every replica differs, so TCP training is bit-identical to
//! in-process training for the same `(workers, seed, stream)`, which
//! the driver matrix's dist rows (`tests/identity.rs`) assert.
//!
//! Per round: each worker computes its payload from its chunk
//! partition; followers send `Payload` frames; the leader assembles the
//! worker-index-ordered bundle and broadcasts it as a `Round` frame
//! (or `EpochEnd`/`Done` when all partitions are exhausted); everyone
//! then performs the identical reduce → step → apply sequence. The
//! message order *is* the barrier — no clocks, no retries.
//!
//! Framing is a `u32` little-endian length prefix followed by the
//! [`Frame`] body, and every round that came off a socket is checked
//! against this process's own dataset and model (`Replica::check`)
//! before it is applied. Malformed or ill-fitting input surfaces as a
//! typed [`DistError`], never a panic.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;

use cascade_models::ModelConfig;
use cascade_tgraph::Dataset;
use cascade_util::ByteReader;

use crate::round::{Frame, RoundPayload, WireError};
use crate::runtime::{DistConfig, DistOutcome, Replica};

/// Largest accepted frame body (matches the codec's decode bound).
const MAX_FRAME_LEN: usize = 1 << 28;

/// A TCP-transport failure.
#[derive(Debug)]
pub enum DistError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// A peer sent bytes the codec rejects.
    Wire(WireError),
    /// A peer violated the round protocol (wrong frame, wrong worker
    /// index, inconsistent configuration).
    Protocol(String),
}

impl std::fmt::Display for DistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DistError::Io(e) => write!(f, "dist transport I/O error: {}", e),
            DistError::Wire(e) => write!(f, "dist transport decode error: {}", e),
            DistError::Protocol(m) => write!(f, "dist protocol violation: {}", m),
        }
    }
}

impl std::error::Error for DistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DistError::Io(e) => Some(e),
            DistError::Wire(e) => Some(e),
            DistError::Protocol(_) => None,
        }
    }
}

impl From<std::io::Error> for DistError {
    fn from(e: std::io::Error) -> Self {
        DistError::Io(e)
    }
}

impl From<WireError> for DistError {
    fn from(e: WireError) -> Self {
        DistError::Wire(e)
    }
}

fn protocol(message: impl Into<String>) -> DistError {
    DistError::Protocol(message.into())
}

/// Writes one length-prefixed frame.
fn send_frame(stream: &mut TcpStream, frame: &Frame) -> Result<(), DistError> {
    let body = frame.encode();
    let len = u32::try_from(body.len())
        .map_err(|_| protocol(format!("frame body of {} bytes exceeds u32", body.len())))?;
    stream.write_all(&len.to_le_bytes())?;
    stream.write_all(&body)?;
    stream.flush()?;
    Ok(())
}

/// Reads one length-prefixed frame.
fn recv_frame(stream: &mut TcpStream) -> Result<Frame, DistError> {
    let mut len_bytes = [0u8; 4];
    stream.read_exact(&mut len_bytes)?;
    let len = ByteReader::new(&len_bytes)
        .u32()
        .expect("four bytes were just read") as usize;
    if len > MAX_FRAME_LEN {
        return Err(protocol(format!("frame length {} exceeds the bound", len)));
    }
    let mut body = vec![0u8; len];
    stream.read_exact(&mut body)?;
    Ok(Frame::decode(&body)?)
}

/// A decoded round in the form [`Replica::apply`] takes.
fn shared(round: Vec<Option<RoundPayload>>) -> Vec<Option<Arc<RoundPayload>>> {
    round.into_iter().map(|p| p.map(Arc::new)).collect()
}

/// Runs the leader (worker 0) on `listener`: [`Leader::accept`], then
/// [`Leader::run`].
///
/// # Errors
///
/// [`DistError`] on socket failure, malformed frames, or protocol
/// violations (duplicate/out-of-range worker indices, mismatched
/// worker counts).
pub fn run_leader_on(
    listener: TcpListener,
    data: &Dataset,
    model_cfg: &ModelConfig,
    cfg: &DistConfig,
) -> Result<DistOutcome, DistError> {
    Leader::accept(&listener, cfg)?.run(data, model_cfg, cfg)
}

/// A leader (worker 0) whose followers have all said `Hello`: only the
/// rounds are left, so a caller that times the run starts its clock
/// here, after every connect retry.
pub struct Leader {
    /// Followers `1..workers`, in worker order.
    peers: Vec<TcpStream>,
}

impl Leader {
    /// Waits on `listener` until each of the `workers - 1` followers has
    /// connected and identified itself.
    ///
    /// # Errors
    ///
    /// [`DistError`] on socket failure, malformed frames, or a `Hello`
    /// with a duplicate or out-of-range worker index or another worker
    /// count.
    pub fn accept(listener: &TcpListener, cfg: &DistConfig) -> Result<Leader, DistError> {
        cfg.validate();
        let mut slots: Vec<Option<TcpStream>> = (1..cfg.workers).map(|_| None).collect();
        for _ in 1..cfg.workers {
            let (mut stream, _) = listener.accept()?;
            // Each round is a short frame each way and waits on the
            // reply: Nagle's algorithm against the peer's delayed ACK
            // would add ~40 ms to every one (the 1 k ev/s TCP runs).
            stream.set_nodelay(true)?;
            match recv_frame(&mut stream)? {
                Frame::Hello { worker, workers } => {
                    if workers as usize != cfg.workers {
                        return Err(protocol(format!(
                            "follower expects {} workers, leader runs {}",
                            workers, cfg.workers
                        )));
                    }
                    let w = worker as usize;
                    if w == 0 || w >= cfg.workers {
                        return Err(protocol(format!("worker index {} out of range", w)));
                    }
                    if slots[w - 1].replace(stream).is_some() {
                        return Err(protocol(format!("worker index {} connected twice", w)));
                    }
                }
                other => {
                    return Err(protocol(format!(
                        "expected Hello, got {} frame",
                        frame_name(&other)
                    )))
                }
            }
        }
        let peers = slots.into_iter().enumerate().map(|(i, slot)| {
            slot.ok_or_else(|| protocol(format!("worker {} never connected", i + 1)))
        });
        Ok(Leader {
            peers: peers.collect::<Result<_, _>>()?,
        })
    }

    /// Drives the round protocol to completion as worker 0.
    ///
    /// # Errors
    ///
    /// [`DistError`] on socket failure, malformed frames, or protocol
    /// violations.
    pub fn run(
        mut self,
        data: &Dataset,
        model_cfg: &ModelConfig,
        cfg: &DistConfig,
    ) -> Result<DistOutcome, DistError> {
        let mut rep = Replica::new(0, data, model_cfg, cfg);
        let mut epoch = 0usize;
        loop {
            let own = rep.next_payload();
            let mut round: Vec<Option<RoundPayload>> = Vec::with_capacity(cfg.workers);
            round.push(own);
            for peer in self.peers.iter_mut() {
                match recv_frame(peer)? {
                    Frame::Payload(p) => round.push(p),
                    other => {
                        return Err(protocol(format!(
                            "expected Payload, got {} frame",
                            frame_name(&other)
                        )))
                    }
                }
            }

            if round.iter().all(Option::is_none) {
                epoch += 1;
                let done = epoch == cfg.epochs;
                let boundary = if done { Frame::Done } else { Frame::EpochEnd };
                for peer in self.peers.iter_mut() {
                    send_frame(peer, &boundary)?;
                }
                rep.end_epoch(done);
                if done {
                    break;
                }
                continue;
            }

            // Checked before the broadcast: followers never see a round the
            // leader refused.
            let round = shared(round);
            rep.check(&round).map_err(DistError::Protocol)?;
            let frame = Frame::Round(round.iter().map(|p| p.as_deref().cloned()).collect());
            for peer in self.peers.iter_mut() {
                send_frame(peer, &frame)?;
            }
            rep.apply(&round);
        }
        Ok(rep.outcome())
    }
}

/// Runs follower `worker` (in `1..workers`): connects to the leader at
/// `addr` and follows the round protocol until `Done`.
///
/// Returns this process's outcome, bit-identical to the leader's in
/// state, optimizer, batches and losses.
///
/// # Errors
///
/// [`DistError`] on socket failure, malformed frames, a worker index
/// outside `1..workers`, or protocol violations.
pub fn run_follower(
    addr: &str,
    worker: usize,
    data: &Dataset,
    model_cfg: &ModelConfig,
    cfg: &DistConfig,
) -> Result<DistOutcome, DistError> {
    cfg.validate();
    if worker == 0 || worker >= cfg.workers {
        return Err(protocol(format!(
            "follower index must be in 1..{}, got {}",
            cfg.workers, worker
        )));
    }
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?; // as the leader's side: no Nagle delay per round
    send_frame(
        &mut stream,
        &Frame::Hello {
            worker: worker as u32,
            workers: cfg.workers as u32,
        },
    )?;

    let mut rep = Replica::new(worker, data, model_cfg, cfg);
    loop {
        let own = rep.next_payload();
        send_frame(&mut stream, &Frame::Payload(own))?;
        match recv_frame(&mut stream)? {
            Frame::Round(round) => {
                let round = shared(round);
                rep.check(&round).map_err(DistError::Protocol)?;
                rep.apply(&round);
            }
            Frame::EpochEnd => rep.end_epoch(false),
            Frame::Done => {
                rep.end_epoch(true);
                break;
            }
            other => {
                return Err(protocol(format!(
                    "expected Round/EpochEnd/Done, got {} frame",
                    frame_name(&other)
                )))
            }
        }
    }
    Ok(rep.outcome())
}

fn frame_name(f: &Frame) -> &'static str {
    match f {
        Frame::Hello { .. } => "Hello",
        Frame::Payload(_) => "Payload",
        Frame::Round(_) => "Round",
        Frame::EpochEnd => "EpochEnd",
        Frame::Done => "Done",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn follower_index_zero_is_rejected() {
        let data = cascade_tgraph::SynthConfig::wiki()
            .with_scale(0.002)
            .generate(3);
        let cfg = DistConfig::new().with_workers(2);
        let err = run_follower("127.0.0.1:1", 0, &data, &ModelConfig::tgn(), &cfg)
            .expect_err("worker 0 is the leader");
        assert!(matches!(err, DistError::Protocol(_)));
    }

    #[test]
    fn errors_render_their_cause() {
        let wire = DistError::from(WireError {
            field: "loss",
            message: "needs 4 bytes, 0 remain".into(),
        });
        assert!(wire.to_string().contains("loss"));
        let io = DistError::from(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "peer hung up",
        ));
        assert!(io.to_string().contains("peer hung up"));
    }
}
