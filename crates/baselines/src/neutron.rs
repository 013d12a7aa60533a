//! NeutronStream-style dependency-graph batching (§5.6).
//!
//! NeutronStream builds a dependency graph over the input events and only
//! parallelizes events with no dependence: starting from the base batch,
//! the batch is extended with subsequent events only while they are
//! independent of (share no endpoint with) every event already admitted.
//! The first dependent event closes the batch.

use std::time::Instant;

use cascade_core::{BatchingStrategy, PrebuiltTable, StrategySpace, StrategyTimers};
use cascade_tgraph::{Event, EventId};

use crate::{Chunk, NodeMarks};

/// The NeutronStream batching scheme.
///
/// # Examples
///
/// ```
/// use cascade_baselines::NeutronStream;
/// use cascade_core::BatchingStrategy;
/// use cascade_tgraph::Event;
///
/// let events = vec![
///     Event::new(0u32, 1u32, 0.0),
///     Event::new(2u32, 3u32, 1.0), // independent of the base batch
///     Event::new(0u32, 4u32, 2.0), // depends on node 0 -> closes batch
/// ];
/// let mut s = NeutronStream::new(1);
/// s.prepare(&events, 5);
/// assert_eq!(s.next_batch_end(0, 3), 2);
/// ```
#[derive(Clone, Debug)]
pub struct NeutronStream {
    base_batch: usize,
    /// For each event of the entered chunk, the global id of the closest
    /// earlier event of the chunk sharing a node (the dependency edge
    /// NeutronStream materializes).
    dependency_edges: Vec<Option<EventId>>,
    chunk: Chunk,
    marks: NodeMarks,
    timers: StrategyTimers,
}

impl NeutronStream {
    /// Creates the strategy with the given base batch size.
    ///
    /// # Panics
    ///
    /// Panics if `base_batch == 0`.
    pub fn new(base_batch: usize) -> Self {
        assert!(base_batch > 0, "base batch must be positive");
        NeutronStream {
            base_batch,
            dependency_edges: Vec::new(),
            chunk: Chunk::default(),
            marks: NodeMarks::default(),
            timers: StrategyTimers::default(),
        }
    }

    /// Marks both endpoints of `e` as batched.
    fn admit(&mut self, e: Event) {
        self.marks.bump(e.src.index());
        self.marks.bump(e.dst.index());
    }
}

impl BatchingStrategy for NeutronStream {
    fn name(&self) -> String {
        "NeutronStream".to_string()
    }

    fn next_batch_end(&mut self, start: EventId, limit: EventId) -> EventId {
        assert!(start < limit, "next_batch_end on empty range");
        let bound = self.chunk.bound(start, limit);
        let mut end = (start + self.base_batch).min(bound);

        // Mark the base batch's nodes, then admit subsequent events while
        // they are independent of everything already batched.
        for id in start..end {
            self.admit(*self.chunk.event(id));
        }
        while end < bound {
            let e = *self.chunk.event(end);
            if self.marks.get(e.src.index()) > 0 || self.marks.get(e.dst.index()) > 0 {
                break;
            }
            self.admit(e);
            end += 1;
        }
        self.marks.clear();
        end
    }

    fn space(&self) -> StrategySpace {
        StrategySpace {
            dependency_bytes: self.dependency_edges.len() * std::mem::size_of::<Option<EventId>>(),
            flag_bytes: 0,
        }
    }

    fn timers(&self) -> StrategyTimers {
        self.timers
    }

    fn prepare_streaming(
        &mut self,
        _total_train: usize,
        num_nodes: usize,
        _chunk_size: usize,
    ) -> bool {
        self.dependency_edges.clear();
        self.chunk = Chunk::default();
        self.marks = NodeMarks::new(num_nodes);
        true
    }

    fn enter_chunk(
        &mut self,
        _idx: usize,
        base: EventId,
        events: &[Event],
        _prebuilt: Option<PrebuiltTable>,
    ) {
        // Dependency-graph construction: the preprocessing cost §5.6
        // observes ("they spend a lot of time constructing dependency
        // graphs").
        let t0 = Instant::now();
        let mut last_touch: Vec<Option<EventId>> = vec![None; self.marks.num_nodes()];
        self.dependency_edges = events
            .iter()
            .enumerate()
            .map(|(i, e)| {
                let dep = match (last_touch[e.src.index()], last_touch[e.dst.index()]) {
                    (Some(a), Some(b)) => Some(a.max(b)),
                    (a, b) => a.or(b),
                };
                last_touch[e.src.index()] = Some(base + i);
                last_touch[e.dst.index()] = Some(base + i);
                dep
            })
            .collect();
        self.chunk.enter(base, events);
        self.timers.build_table += t0.elapsed();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(s: u32, d: u32, t: f64) -> Event {
        Event::new(s, d, t)
    }

    #[test]
    fn dependency_edges_point_backwards() {
        let events = vec![ev(0, 1, 0.0), ev(2, 3, 1.0), ev(1, 2, 2.0)];
        let mut n = NeutronStream::new(1);
        n.prepare(&events, 4);
        assert_eq!(n.dependency_edges, [None, None, Some(1)]);
    }

    #[test]
    fn extends_over_independent_suffix() {
        let events = vec![
            ev(0, 1, 0.0),
            ev(2, 3, 1.0),
            ev(4, 5, 2.0),
            ev(0, 2, 3.0), // shares node 0 with the base batch
        ];
        let mut n = NeutronStream::new(1);
        n.prepare(&events, 6);
        assert_eq!(n.next_batch_end(0, 4), 3);
    }

    #[test]
    fn stops_immediately_on_dependence() {
        let events = vec![ev(0, 1, 0.0), ev(1, 2, 1.0), ev(3, 4, 2.0)];
        let mut n = NeutronStream::new(1);
        n.prepare(&events, 5);
        // Event 1 shares node 1 with the base batch: no extension.
        assert_eq!(n.next_batch_end(0, 3), 1);
    }

    #[test]
    fn base_batch_is_floor() {
        let events: Vec<Event> = (0..10).map(|i| ev(0, 1, i as f64)).collect();
        let mut n = NeutronStream::new(4);
        n.prepare(&events, 2);
        // All events hit the same nodes, so no extension past the base.
        assert_eq!(n.next_batch_end(0, 10), 4);
    }

    #[test]
    fn partitions_stream() {
        let events: Vec<Event> = (0..20).map(|i| ev(i % 4, 4 + (i % 3), i as f64)).collect();
        let mut n = NeutronStream::new(3);
        n.prepare(&events, 8);
        let mut start = 0;
        while start < 20 {
            let end = n.next_batch_end(start, 20);
            assert!(end > start && end <= 20);
            start = end;
        }
    }

    #[test]
    fn space_reflects_dependency_graph() {
        let events = vec![ev(0, 1, 0.0)];
        let mut n = NeutronStream::new(1);
        n.prepare(&events, 2);
        assert!(n.space().dependency_bytes > 0);
    }
}
