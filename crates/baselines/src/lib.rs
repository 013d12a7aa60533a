#![warn(missing_docs)]
//! # cascade-baselines
//!
//! The batching baselines the Cascade paper compares against (§5.1, §5.6):
//!
//! * **TGL** — fixed-size batching (re-exported from `cascade-core`'s
//!   [`FixedBatching`]); [`tgl`] builds the canonically labeled instance.
//! * **TGLite** — fixed-size batching paired with the redundancy-
//!   eliminating model execution mode
//!   ([`ModelConfig::with_lite`](cascade_models::ModelConfig::with_lite));
//!   [`tglite`] builds the labeled strategy.
//! * [`NeutronStream`] — dependency-graph batching that only admits
//!   events independent of the current batch.
//! * [`Etc`] — information-loss-bounded batch growth with an auto-
//!   detected global threshold.
//!
//! Both dynamic baselines speak `cascade-core`'s chunk protocol like
//! Cascade does: each profiles (ETC) or builds its dependency graph
//! (NeutronStream) for a chunk when it enters that chunk, and ends no
//! batch past it. In-memory training is the one-chunk case.
//!
//! # Examples
//!
//! ```
//! use cascade_baselines::{tgl, Etc, NeutronStream};
//! use cascade_core::BatchingStrategy;
//!
//! assert_eq!(tgl(900).name(), "TGL");
//! assert_eq!(NeutronStream::new(900).name(), "NeutronStream");
//! assert_eq!(Etc::new(900).name(), "ETC");
//! ```

mod etc;
mod neutron;

pub use etc::Etc;
pub use neutron::NeutronStream;

pub use cascade_core::FixedBatching;
use cascade_tgraph::{Event, EventId};

/// The TGL baseline: fixed-size batching at `batch_size`.
pub fn tgl(batch_size: usize) -> FixedBatching {
    FixedBatching::new(batch_size).with_label("TGL")
}

/// The TGL-LB comparison point (Figure 12(b)): fixed batching at the
/// enlarged batch size Cascade achieved.
pub fn tgl_lb(batch_size: usize) -> FixedBatching {
    FixedBatching::new(batch_size).with_label("TGL-LB")
}

/// The TGLite baseline's batching half; pair it with a model built from
/// [`ModelConfig::with_lite`](cascade_models::ModelConfig::with_lite).
pub fn tglite(batch_size: usize) -> FixedBatching {
    FixedBatching::new(batch_size).with_label("TGLite")
}

/// Per-node counts cleared through the list of nodes counted, so a
/// boundary scan costs the nodes it touches, never `num_nodes`, and
/// neither hashes nor allocates.
#[derive(Clone, Debug, Default)]
struct NodeMarks {
    counts: Vec<u32>,
    touched: Vec<u32>,
}

impl NodeMarks {
    fn new(num_nodes: usize) -> Self {
        NodeMarks {
            counts: vec![0; num_nodes],
            touched: Vec::new(),
        }
    }

    /// Counts one appearance of node `n`; returns how often it appeared
    /// before.
    fn bump(&mut self, n: usize) -> u32 {
        let before = self.counts[n];
        if before == 0 {
            self.touched.push(n as u32);
        }
        self.counts[n] = before + 1;
        before
    }

    /// How often node `n` appeared since the last [`clear`](Self::clear).
    fn get(&self, n: usize) -> u32 {
        self.counts[n]
    }

    /// Takes back one appearance of node `n`.
    fn unbump(&mut self, n: usize) {
        self.counts[n] -= 1;
    }

    /// Zeroes every count, touching only the nodes counted.
    fn clear(&mut self) {
        for &n in &self.touched {
            self.counts[n as usize] = 0;
        }
        self.touched.clear();
    }

    fn num_nodes(&self) -> usize {
        self.counts.len()
    }
}

/// The entered chunk's events and the global id of its first; a scan
/// ends no batch past the chunk.
#[derive(Clone, Debug, Default)]
struct Chunk {
    base: EventId,
    events: Vec<Event>,
}

impl Chunk {
    /// Replaces the held chunk (reusing the allocation).
    fn enter(&mut self, base: EventId, events: &[Event]) {
        self.base = base;
        self.events.clear();
        self.events.extend_from_slice(events);
    }

    /// The scan bound of a batch at `start`: `limit`, capped at the chunk
    /// end.
    ///
    /// # Panics
    ///
    /// Panics unless `start` lies inside the chunk.
    fn bound(&self, start: EventId, limit: EventId) -> EventId {
        let end = self.base + self.events.len();
        assert!(
            (self.base..end).contains(&start),
            "next_batch_end at event {start} is outside the entered chunk {}..{end}: the \
             driver must enter_chunk before scanning into it",
            self.base
        );
        limit.min(end)
    }

    /// The event with global id `id`.
    fn event(&self, id: EventId) -> &Event {
        &self.events[id - self.base]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cascade_core::BatchingStrategy;

    #[test]
    fn labels() {
        assert_eq!(tgl(10).name(), "TGL");
        assert_eq!(tgl_lb(10).name(), "TGL-LB");
        assert_eq!(tglite(10).name(), "TGLite");
    }

    #[test]
    fn tgl_batch_size_is_exact() {
        let mut s = tgl(10);
        assert_eq!(s.next_batch_end(0, 100), 10);
    }
}
