//! ETC-style information-loss-bounded batching (§5.6).
//!
//! ETC grows each batch as long as the batch's *information loss* — the
//! total number of expected node updates beyond the first per node, i.e.
//! events that would consume stale memory — stays under a threshold
//! auto-detected from the preset small batch size. One global budget
//! means a few hot nodes can exhaust it for the whole batch, which is the
//! limitation Cascade's per-node endurance avoids (§5.6).

use std::time::Instant;

use cascade_core::{BatchingStrategy, PrebuiltTable, StrategyTimers};
use cascade_tgraph::{Event, EventId};

use crate::{Chunk, NodeMarks};

/// The ETC batching scheme.
///
/// # Examples
///
/// ```
/// use cascade_baselines::Etc;
/// use cascade_core::BatchingStrategy;
/// use cascade_tgraph::Event;
///
/// let events: Vec<Event> = (0..100)
///     .map(|i| Event::new((i % 7) as u32, (7 + i % 5) as u32, i as f64))
///     .collect();
/// let mut s = Etc::new(10);
/// s.prepare(&events, 12);
/// let end = s.next_batch_end(0, 100);
/// assert!(end >= 10);
/// ```
#[derive(Clone, Debug)]
pub struct Etc {
    preset_batch: usize,
    /// The entered chunk's detected loss bound.
    threshold: usize,
    chunk: Chunk,
    marks: NodeMarks,
    timers: StrategyTimers,
}

impl Etc {
    /// Creates the strategy with the preset (profiling) batch size.
    ///
    /// # Panics
    ///
    /// Panics if `preset_batch == 0`.
    pub fn new(preset_batch: usize) -> Self {
        assert!(preset_batch > 0, "preset batch must be positive");
        Etc {
            preset_batch,
            threshold: 0,
            chunk: Chunk::default(),
            marks: NodeMarks::default(),
            timers: StrategyTimers::default(),
        }
    }

    /// The information-loss threshold detected for the entered chunk.
    pub fn threshold(&self) -> usize {
        self.threshold
    }

    /// Information loss of `events`: per node, every appearance after the
    /// first uses stale memory.
    fn information_loss(events: &[Event], marks: &mut NodeMarks) -> usize {
        let mut loss = 0usize;
        for e in events {
            for n in [e.src.index(), e.dst.index()] {
                if marks.bump(n) > 0 {
                    loss += 1;
                }
            }
        }
        marks.clear();
        loss
    }
}

impl BatchingStrategy for Etc {
    fn name(&self) -> String {
        "ETC".to_string()
    }

    fn next_batch_end(&mut self, start: EventId, limit: EventId) -> EventId {
        assert!(start < limit, "next_batch_end on empty range");
        let bound = self.chunk.bound(start, limit);
        let mut loss = 0usize;
        let mut end = start;
        while end < bound {
            let e = self.chunk.event(end);
            let mut added = 0usize;
            for n in [e.src.index(), e.dst.index()] {
                if self.marks.bump(n) > 0 {
                    added += 1;
                }
            }
            if loss + added > self.threshold && end > start {
                // Undo the tentative admission.
                for n in [e.src.index(), e.dst.index()] {
                    self.marks.unbump(n);
                }
                break;
            }
            loss += added;
            end += 1;
        }
        self.marks.clear();
        end.max(start + 1)
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
        self.threshold = 0;
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
        let t0 = Instant::now();
        self.chunk.enter(base, events);
        // Auto-detect the chunk's loss bound: the largest information
        // loss any preset-size batch of it incurs (the "upper bound of
        // the detected information loss", §5.6).
        let mut threshold = 0usize;
        for batch in events.chunks(self.preset_batch) {
            threshold = threshold.max(Self::information_loss(batch, &mut self.marks));
        }
        self.threshold = threshold.max(1);
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
    fn loss_counts_repeat_touches() {
        let events = vec![ev(0, 1, 0.0), ev(0, 2, 1.0), ev(0, 1, 2.0)];
        let mut marks = NodeMarks::new(3);
        // Node 0 appears 3x (loss 2), node 1 appears 2x (loss 1).
        assert_eq!(Etc::information_loss(&events, &mut marks), 3);
        assert!((0..3).all(|n| marks.get(n) == 0), "scratch must be reset");
    }

    #[test]
    fn disjoint_events_have_zero_loss() {
        let events = vec![ev(0, 1, 0.0), ev(2, 3, 1.0)];
        assert_eq!(Etc::information_loss(&events, &mut NodeMarks::new(4)), 0);
    }

    #[test]
    fn scattered_events_extend_far() {
        // Fully node-disjoint events never add loss: the batch runs to
        // the limit.
        let events: Vec<Event> = (0..50).map(|i| ev(2 * i, 2 * i + 1, i as f64)).collect();
        let mut s = Etc::new(5);
        s.prepare(&events, 100);
        assert_eq!(s.next_batch_end(0, 50), 50);
    }

    #[test]
    fn hot_node_caps_batch() {
        // Every event touches node 0: loss grows one per event after the
        // first; threshold from preset 5 is 2·5−... measured on chunks.
        let events: Vec<Event> = (0..50).map(|i| ev(0, 1, i as f64)).collect();
        let mut s = Etc::new(5);
        s.prepare(&events, 2);
        let end = s.next_batch_end(0, 50);
        // Threshold = loss of a 5-event all-hot chunk = 2*5-2 = 8;
        // a batch of k events costs 2k-2: 2k-2 <= 8 -> k <= 5.
        assert_eq!(end, 5);
    }

    #[test]
    fn partitions_stream() {
        let events: Vec<Event> = (0..40).map(|i| ev(i % 3, 3 + (i % 4), i as f64)).collect();
        let mut s = Etc::new(4);
        s.prepare(&events, 7);
        let mut start = 0;
        while start < 40 {
            let end = s.next_batch_end(start, 40);
            assert!(end > start && end <= 40);
            start = end;
        }
    }

    #[test]
    fn threshold_detected_positive() {
        let events: Vec<Event> = (0..20).map(|i| ev(0, 1 + i % 2, i as f64)).collect();
        let mut s = Etc::new(4);
        s.prepare(&events, 3);
        assert!(s.threshold() >= 1);
    }
}
