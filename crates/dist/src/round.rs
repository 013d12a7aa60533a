//! Round payloads and their wire codec.
//!
//! One training round moves exactly one [`RoundPayload`] per active
//! worker: the worker's batch (events, globally addressed), its
//! write-back ticket, and its gradient contribution.
//! The in-process runtime passes payloads by value; the TCP transport
//! serializes them with the little-endian codec here. Both paths apply
//! the identical payload sequence, which is what keeps the two modes
//! bit-identical.
//!
//! The codec is deliberately dumb: fixed-order fields, explicit
//! lengths, no compression, read through the workspace's one
//! [`ByteReader`] — every count is checked against the bytes that remain
//! before anything is reserved, so a frame cannot make the decoder
//! allocate more than the frame's own size. A malformed frame surfaces
//! as a typed [`WireError`], never a panic — a dist peer must not be able
//! to take down the process with a short read.

use cascade_models::BatchPending;
use cascade_tgraph::{Event, NodeId};
use cascade_util::{ByteReader, ByteWriter, DecodeError};

use crate::grad::GradSet;

/// A decode failure: what was being read and why it failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireError {
    /// Field being decoded when the failure occurred.
    pub field: &'static str,
    /// Human-readable description.
    pub message: String,
}

impl WireError {
    fn new(field: &'static str, message: impl Into<String>) -> Self {
        WireError {
            field,
            message: message.into(),
        }
    }
}

/// Names the field a [`DecodeError`] was met in.
trait At<T> {
    fn at(self, field: &'static str) -> Result<T, WireError>;
}

impl<T> At<T> for Result<T, DecodeError> {
    fn at(self, field: &'static str) -> Result<T, WireError> {
        self.map_err(|e| WireError::new(field, e.to_string()))
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "wire decode failed at {}: {}", self.field, self.message)
    }
}

impl std::error::Error for WireError {}

/// One worker's contribution to a training round.
#[derive(Clone, Debug, PartialEq)]
pub struct RoundPayload {
    /// Originating worker index.
    pub worker: usize,
    /// Global stream id of `events[0]`.
    pub first_id: usize,
    /// The batch's events, chronologically ordered.
    pub events: Vec<Event>,
    /// The forward pass's write-back ticket.
    pub pending: BatchPending,
    /// The worker's gradient contribution.
    pub grads: GradSet,
    /// Batch loss (telemetry; never fed back into computation).
    pub loss: f32,
}

impl RoundPayload {
    /// Serializes the payload (little-endian, fixed field order).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.usize(self.worker);
        w.usize(self.first_id);
        w.usize(self.events.len());
        for e in &self.events {
            w.u32(e.src.0);
            w.u32(e.dst.0);
            w.f64(e.time);
        }
        w.usize(self.pending.centers().len());
        for c in self.pending.centers() {
            w.u32(c.0);
        }
        for &m in self.pending.has_msg() {
            w.bool(m);
        }
        w.f32s(self.pending.post());
        w.usize(self.grads.len());
        for g in &self.grads {
            w.bool(g.is_some());
            if let Some(g) = g {
                w.f32s(g);
            }
        }
        w.f32(self.loss);
        w.into_bytes()
    }

    /// Decodes a payload serialized by [`encode`](Self::encode).
    ///
    /// # Errors
    ///
    /// [`WireError`] on truncation, trailing bytes, a count the remaining
    /// bytes cannot hold, a flag byte other than 0 or 1, or internal
    /// inconsistency (post width vs center count).
    pub fn decode(bytes: &[u8]) -> Result<RoundPayload, WireError> {
        let mut r = ByteReader::new(bytes);
        let worker = r.usize().at("worker")?;
        let first_id = r.usize().at("first_id")?;
        let num_events = r.count(16).at("events")?;
        let mut events = Vec::with_capacity(num_events);
        for _ in 0..num_events {
            let src = r.u32().at("event src")?;
            let dst = r.u32().at("event dst")?;
            events.push(Event::new(src, dst, r.f64().at("event time")?));
        }
        // Each center is a 4-byte id and a 1-byte flag.
        let num_centers = r.count(5).at("centers")?;
        let centers = (0..num_centers).map(|_| r.u32().map(NodeId));
        let centers = centers.collect::<Result<Vec<_>, _>>().at("center id")?;
        let has_msg = (0..num_centers).map(|_| r.bool());
        let has_msg = has_msg.collect::<Result<Vec<_>, _>>().at("has_msg flag")?;
        let post = r.f32s().at("post")?;
        if num_centers > 0 && post.len() % num_centers != 0 {
            return Err(WireError::new(
                "post",
                format!("{} floats for {} centers", post.len(), num_centers),
            ));
        }
        let num_params = r.count(1).at("grads")?;
        let mut grads: GradSet = Vec::with_capacity(num_params);
        for _ in 0..num_params {
            grads.push(match r.bool().at("grad presence")? {
                true => Some(r.f32s().at("grad values")?),
                false => None,
            });
        }
        let loss = r.f32().at("loss")?;
        r.finish().at("payload")?;
        Ok(RoundPayload {
            worker,
            first_id,
            events,
            pending: BatchPending::from_parts(centers, has_msg, post),
            grads,
            loss,
        })
    }
}

/// One message of the leader/follower round protocol.
#[derive(Clone, Debug, PartialEq)]
pub enum Frame {
    /// Follower → leader on connect: "I am worker `worker` of
    /// `workers`".
    Hello {
        /// Claimed worker index.
        worker: u32,
        /// Claimed worker count (must match the leader's).
        workers: u32,
    },
    /// Follower → leader each round: its contribution, or `None` when
    /// its partition is exhausted for the epoch.
    Payload(Option<RoundPayload>),
    /// Leader → followers: the full round in worker-index order
    /// (`bundle[w]` is worker `w`'s contribution).
    Round(Vec<Option<RoundPayload>>),
    /// Leader → followers: all partitions exhausted; reset state and
    /// start the next epoch.
    EpochEnd,
    /// Leader → followers: training is over.
    Done,
}

const TAG_HELLO: u8 = 1;
const TAG_PAYLOAD: u8 = 2;
const TAG_ROUND: u8 = 3;
const TAG_EPOCH_END: u8 = 4;
const TAG_DONE: u8 = 5;

impl Frame {
    /// Serializes the frame body (transport adds the length prefix).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        match self {
            Frame::Hello { worker, workers } => {
                w.u8(TAG_HELLO);
                w.u32(*worker);
                w.u32(*workers);
            }
            Frame::Payload(p) => {
                w.u8(TAG_PAYLOAD);
                put_opt_payload(&mut w, p);
            }
            Frame::Round(bundle) => {
                w.u8(TAG_ROUND);
                w.usize(bundle.len());
                for p in bundle {
                    put_opt_payload(&mut w, p);
                }
            }
            Frame::EpochEnd => w.u8(TAG_EPOCH_END),
            Frame::Done => w.u8(TAG_DONE),
        }
        w.into_bytes()
    }

    /// Decodes a frame body.
    ///
    /// # Errors
    ///
    /// [`WireError`] on an unknown tag or malformed body.
    pub fn decode(bytes: &[u8]) -> Result<Frame, WireError> {
        let mut r = ByteReader::new(bytes);
        let frame = match r.u8().at("frame tag")? {
            TAG_HELLO => Frame::Hello {
                worker: r.u32().at("hello worker")?,
                workers: r.u32().at("hello workers")?,
            },
            TAG_PAYLOAD => Frame::Payload(take_opt_payload(&mut r)?),
            TAG_ROUND => {
                let n = r.count(1).at("round size")?;
                let mut bundle = Vec::with_capacity(n);
                for _ in 0..n {
                    bundle.push(take_opt_payload(&mut r)?);
                }
                Frame::Round(bundle)
            }
            TAG_EPOCH_END => Frame::EpochEnd,
            TAG_DONE => Frame::Done,
            other => {
                return Err(WireError::new(
                    "frame tag",
                    format!("unknown tag {}", other),
                ))
            }
        };
        r.finish().at("frame")?;
        Ok(frame)
    }
}

fn put_opt_payload(w: &mut ByteWriter, p: &Option<RoundPayload>) {
    w.bool(p.is_some());
    if let Some(p) = p {
        w.blob(&p.encode());
    }
}

fn take_opt_payload(r: &mut ByteReader<'_>) -> Result<Option<RoundPayload>, WireError> {
    if !r.bool().at("payload presence")? {
        return Ok(None);
    }
    let body = r.blob().at("payload body")?;
    Ok(Some(RoundPayload::decode(body)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload() -> RoundPayload {
        RoundPayload {
            worker: 1,
            first_id: 256,
            events: vec![Event::new(3u32, 9u32, 1.5), Event::new(9u32, 4u32, 2.5)],
            pending: BatchPending::from_parts(
                vec![NodeId(3), NodeId(9), NodeId(4)],
                vec![true, false, true],
                vec![1.0; 12],
            ),
            grads: vec![Some(vec![0.5, -0.5]), None, Some(vec![2.0])],
            loss: 0.693,
        }
    }

    #[test]
    fn payload_round_trips() {
        let p = payload();
        let back = RoundPayload::decode(&p.encode()).expect("own encoding decodes");
        assert_eq!(back, p);
        assert_eq!(back.pending.centers(), p.pending.centers());
    }

    #[test]
    fn frames_round_trip() {
        let frames = [
            Frame::Hello {
                worker: 1,
                workers: 2,
            },
            Frame::Payload(Some(payload())),
            Frame::Payload(None),
            Frame::Round(vec![Some(payload()), None]),
            Frame::EpochEnd,
            Frame::Done,
        ];
        for f in frames {
            let back = Frame::decode(&f.encode()).expect("own encoding decodes");
            assert_eq!(back, f);
        }
    }

    #[test]
    fn truncation_is_a_typed_error() {
        let bytes = payload().encode();
        for cut in [0, 1, 7, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                RoundPayload::decode(&bytes[..cut]).is_err(),
                "cut at {}",
                cut
            );
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = Frame::Done.encode();
        bytes.push(0);
        assert!(Frame::decode(&bytes).is_err());
    }

    #[test]
    fn absurd_length_is_rejected_without_allocating() {
        // Regression: any count up to 2^28 used to be reserved up front —
        // 4 GiB of `Vec<Event>` from this 24-byte frame.
        for count in [u64::MAX, 1 << 28, 2] {
            let mut w = ByteWriter::new();
            w.usize(0); // worker
            w.usize(0); // first_id
            w.u64(count); // events
            let err = RoundPayload::decode(&w.into_bytes()).expect_err("bound must reject");
            assert_eq!(err.field, "events");
        }
    }

    #[test]
    fn decoders_survive_the_hostile_input_battery() {
        cascade_util::check_decoder("round_payload", &payload().encode(), |bytes| {
            RoundPayload::decode(bytes).ok().map(|p| p.encode())
        });
        let round = Frame::Round(vec![Some(payload()), None]);
        cascade_util::check_decoder("round_frame", &round.encode(), |bytes| {
            Frame::decode(bytes).ok().map(|f| f.encode())
        });
    }
}
