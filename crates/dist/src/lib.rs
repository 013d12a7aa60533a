//! `cascade-dist`: data-parallel training for the Cascade TGNN stack.
//!
//! N workers — threads in one process, or processes over the TCP
//! transport — each hold a full parameter replica and a full memory
//! plane (DESIGN.md §12), stream their round-robin partition of the
//! chunk stream, exchange gradients through a deterministic
//! worker-index-ordered all-reduce, and apply every worker's memory
//! writes in the same order, so every replica's node state stays equal
//! without any of it being shared.
//!
//! Determinism contract:
//!
//! * **N = 1** is bit-identical to the serial trainer — same losses,
//!   same logits, same memories, same post-step parameters (enforced by
//!   the `identity` integration tests).
//! * **N > 1** is bit-reproducible for a given `(workers, seed,
//!   stream)` across runs *and* across transports, but deliberately
//!   diverges from serial training by a bounded amount: same-round
//!   batches read memory that excludes each other's updates (one round
//!   of staleness, DistTGL-style) and their gradients are averaged
//!   rather than applied sequentially.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod grad;
mod round;
mod runtime;
mod stats;
mod tcp;

pub use round::{Frame, RoundPayload, WireError};
pub use runtime::{train_dist, BatchRecord, DistConfig, DistOutcome};
pub use stats::{DistReport, RunClock};
pub use tcp::{run_follower, run_leader_on, DistError, Leader};
