#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # cascade-serve
//!
//! Online link-prediction serving over a trained memory-based TGNN,
//! with live event ingest (DESIGN.md §11). The core observation is the
//! one Cascade exploits for training: inference on a memory model is a
//! memory read plus a small forward pass, and ingest is a per-event
//! memory update — so a single writer thread can absorb the event
//! stream while any number of readers score against lock-free frozen
//! snapshots that lag by at most one ingest batch.
//!
//! Pieces:
//!
//! * [`Engine`] — single-writer ingest over a [`MemoryTgnn`]
//!   (`cascade-models`), WAL-durable ([`ChunkWriter::sync`]
//!   frames from `cascade-store`): every acked event is fsynced before
//!   it influences served state, and restart (snapshot + WAL tail
//!   replay, original frame boundaries) reproduces memories
//!   bit-identically.
//! * [`Server`] — a zero-dependency HTTP/1.1 front end over
//!   `std::net`: `POST /predict`, `POST /ingest`, `GET /stats`.
//! * [`Stats`] — counters and log-bucketed latency histograms behind
//!   the `/stats` endpoint and the `serve` bench.
//!
//! The `cascade_serve` binary wires these together:
//! `cascade_serve --load model.ckpt --wal serve.wal --port 8080`.
//!
//! [`MemoryTgnn`]: cascade_models::MemoryTgnn
//! [`ChunkWriter::sync`]: cascade_store::ChunkWriter::sync

mod engine;
mod error;
mod http;
mod persist;
mod proto;
mod server;
mod stats;

pub use engine::{Engine, EngineConfig, IngestAck, RecoveryReport, ServeSnapshot, SharedState};
pub use error::ServeError;
pub use http::{HttpError, Request, MAX_BODY, MAX_HEADERS, MAX_LINE};
pub use proto::{parse_ingest, parse_predict, IngestRequest, PredictRequest};
pub use server::Server;
pub use stats::{LatencyHistogram, Stats, Timer};
