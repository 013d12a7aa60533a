//! The node–event Dependency Table (§4.2, Algorithm 2) and its
//! chunk-based variant for large-scale graphs.

use cascade_tgraph::{Event, EventId};

/// Per-node sorted lists of the events that may affect — or rely on — the
/// node.
///
/// Entry `n` contains:
///
/// 1. every event incident to node `n`, and
/// 2. for each incident event `e(i) = e_nq`, every event incident to the
///    neighbor `q` with index greater than `i` (the neighbor's *future*
///    events — past events of a not-yet-connected neighbor are
///    independent, and only 1-hop neighbors propagate directly).
///
/// The table is built once before training and never updated (§4.2). The
/// paper used C++ `std::set` entries; sorted, deduplicated `Vec`s have
/// identical semantics with better locality.
///
/// # Examples
///
/// Reproduces the worked example of Figure 7(a):
///
/// ```
/// use cascade_core::DependencyTable;
/// use cascade_tgraph::{Event, NodeId};
///
/// // Events 0..=11 of Figure 7: e12 e17 e18 e19 e_ab e_ac e_ad e_a5 e13 e15 e16 e34
/// let events = [
///     (1, 2), (1, 7), (1, 8), (1, 9), (10, 11), (10, 12),
///     (10, 13), (10, 4), (1, 3), (1, 5), (1, 6), (3, 4),
/// ];
/// let events: Vec<Event> = events
///     .iter()
///     .enumerate()
///     .map(|(i, &(s, d))| Event::new(s as u32, d as u32, i as f64))
///     .collect();
/// let table = DependencyTable::build(&events, 14);
/// assert_eq!(table.entry(NodeId(1)), &[0, 1, 2, 3, 8, 9, 10, 11]);
/// assert_eq!(table.entry(NodeId(2)), &[0, 1, 2, 3, 8, 9, 10]);
/// assert_eq!(table.entry(NodeId(3)), &[8, 9, 10, 11]);
/// assert_eq!(table.entry(NodeId(10)), &[4, 5, 6, 7, 11]);
/// ```
#[derive(Clone, Debug)]
pub struct DependencyTable {
    /// Entries are stored as `u32` offsets from `base` (a chunk never
    /// exceeds 4 B events), halving the table's footprint.
    entries: Vec<Vec<u32>>,
    /// Index of the first event covered (0 for whole-stream tables).
    base: EventId,
    /// One past the last event covered.
    end: EventId,
}

impl DependencyTable {
    /// Builds the table over all `events` (event `i` has id `i`).
    ///
    /// Equivalent to [`DependencyTable::build_range`] over the full range.
    pub fn build(events: &[Event], num_nodes: usize) -> Self {
        Self::build_range(events, num_nodes, 0)
    }

    /// Ablation builder: records only each node's *incident* events,
    /// dropping Algorithm 2's step 2 (neighbor future events). Batches
    /// grow larger under this table because fewer events constrain each
    /// node — at the cost of ignoring the neighbor-propagated staleness
    /// the paper's design protects against (`repro ablation` quantifies
    /// the trade-off).
    pub fn build_incident_only(events: &[Event], num_nodes: usize) -> Self {
        assert!(
            events.len() <= u32::MAX as usize,
            "chunk exceeds u32 event ids"
        );
        let mut entries: Vec<Vec<u32>> = vec![Vec::new(); num_nodes];
        for (i, e) in events.iter().enumerate() {
            entries[e.src.index()].push(i as u32);
            if e.dst != e.src {
                entries[e.dst.index()].push(i as u32);
            }
        }
        DependencyTable {
            entries,
            base: 0,
            end: events.len(),
        }
    }

    /// Builds the table for a chunk of events whose first event has global
    /// id `base`. Only within-chunk dependencies are recorded — the
    /// chunk's final event bounds all dependencies, exactly the
    /// divide-and-conquer of the paper's chunk-based optimization (§4.2).
    pub fn build_range(events: &[Event], num_nodes: usize, base: EventId) -> Self {
        // Incidence lists: node -> ascending event ids (local to chunk).
        let mut incident: Vec<Vec<u32>> = vec![Vec::new(); num_nodes];
        for (i, e) in events.iter().enumerate() {
            incident[e.src.index()].push(i as u32);
            if e.dst != e.src {
                incident[e.dst.index()].push(i as u32);
            }
        }

        assert!(
            events.len() <= u32::MAX as usize,
            "chunk exceeds u32 event ids"
        );
        let mut entries: Vec<Vec<u32>> = vec![Vec::new(); num_nodes];
        for (n, entry) in entries.iter_mut().enumerate() {
            if incident[n].is_empty() {
                continue;
            }
            // Step 1: the node's own events.
            let mut merged: Vec<u32> = incident[n].clone();
            // Step 2: each neighbor's future events (after connection).
            for &i in &incident[n] {
                let e = &events[i as usize];
                let q = if e.src.index() == n { e.dst } else { e.src };
                if q.index() == n {
                    continue;
                }
                let q_events = &incident[q.index()];
                let from = q_events.partition_point(|&x| x <= i);
                merged.extend_from_slice(&q_events[from..]);
            }
            merged.sort_unstable();
            merged.dedup();
            *entry = merged;
        }

        DependencyTable {
            entries,
            base,
            end: base + events.len(),
        }
    }

    /// The sorted (global) event ids relevant to `node`.
    pub fn entry(&self, node: cascade_tgraph::NodeId) -> Vec<EventId> {
        self.entries[node.index()]
            .iter()
            .map(|&i| i as usize + self.base)
            .collect()
    }

    /// The global event id at `pos` within node `node`'s entry, if any.
    pub fn entry_at(&self, node: usize, pos: usize) -> Option<EventId> {
        self.entries[node].get(pos).map(|&i| i as usize + self.base)
    }

    /// Position of the first entry of `node` with global id >= `event`.
    pub fn entry_lower_bound(&self, node: usize, event: EventId) -> usize {
        let local = self.local_id(event);
        self.entries[node].partition_point(|&x| x < local)
    }

    /// [`entry_lower_bound`](Self::entry_lower_bound) for a caller that
    /// knows no entry before `from` qualifies (`from` at most the entry's
    /// length). A galloping search: the probe distance doubles until it
    /// lands on a qualifying entry, then the last gap is bisected, so the
    /// cost follows how far the answer lies from `from` — one or two
    /// entries when a batch consumed that many — not the entry's length.
    pub fn entry_lower_bound_from(&self, node: usize, from: usize, event: EventId) -> usize {
        let local = self.local_id(event);
        let rest = &self.entries[node][from..];
        let mut probe = 1;
        while probe <= rest.len() && rest[probe - 1] < local {
            probe *= 2;
        }
        // The last probe that fell short was at `probe / 2 - 1`.
        let known = probe / 2;
        let gap = &rest[known..probe.min(rest.len())];
        from + known + gap.partition_point(|&x| x < local)
    }

    /// `event` as an offset from `base`, clamped into the entries' range.
    fn local_id(&self, event: EventId) -> u32 {
        event.saturating_sub(self.base).min(u32::MAX as usize) as u32
    }

    /// Number of node entries.
    pub fn num_nodes(&self) -> usize {
        self.entries.len()
    }

    /// First covered (global) event id.
    pub fn base(&self) -> EventId {
        self.base
    }

    /// One past the last covered (global) event id.
    pub fn end(&self) -> EventId {
        self.end
    }

    /// Bytes held by the table (the "DT" bar of Figure 13(c)).
    pub fn size_bytes(&self) -> usize {
        self.entries
            .iter()
            .map(|e| e.len() * std::mem::size_of::<u32>() + std::mem::size_of::<Vec<u32>>())
            .sum()
    }

    /// Total number of (node, event) dependency pairs.
    pub fn total_entries(&self) -> usize {
        self.entries.iter().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cascade_tgraph::NodeId;

    /// The 12-event example of Figure 7(a)/(b).
    pub(crate) fn figure7_events() -> Vec<Event> {
        let pairs = [
            (1, 2),
            (1, 7),
            (1, 8),
            (1, 9),
            (10, 11),
            (10, 12),
            (10, 13),
            (10, 4),
            (1, 3),
            (1, 5),
            (1, 6),
            (3, 4),
        ];
        pairs
            .iter()
            .enumerate()
            .map(|(i, &(s, d))| Event::new(s as u32, d as u32, i as f64))
            .collect()
    }

    #[test]
    fn figure7_table_matches_paper() {
        let events = figure7_events();
        let t = DependencyTable::build(&events, 14);
        assert_eq!(t.entry(NodeId(1)), &[0, 1, 2, 3, 8, 9, 10, 11]);
        assert_eq!(t.entry(NodeId(2)), &[0, 1, 2, 3, 8, 9, 10]);
        assert_eq!(t.entry(NodeId(3)), &[8, 9, 10, 11]);
        assert_eq!(t.entry(NodeId(4)), &[7, 11]);
        assert_eq!(t.entry(NodeId(5)), &[9, 10]);
        assert_eq!(t.entry(NodeId(7)), &[1, 2, 3, 8, 9, 10]);
        assert_eq!(t.entry(NodeId(8)), &[2, 3, 8, 9, 10]);
        assert_eq!(t.entry(NodeId(9)), &[3, 8, 9, 10]);
        assert_eq!(t.entry(NodeId(10)), &[4, 5, 6, 7, 11]);
        assert_eq!(t.entry(NodeId(11)), &[4, 5, 6, 7]);
        assert_eq!(t.entry(NodeId(12)), &[5, 6, 7]);
        assert_eq!(t.entry(NodeId(13)), &[6, 7]);
    }

    #[test]
    fn own_events_always_present() {
        let events = figure7_events();
        let t = DependencyTable::build(&events, 14);
        for (i, e) in events.iter().enumerate() {
            assert!(
                t.entry(e.src).contains(&i),
                "event {} missing from src entry",
                i
            );
            assert!(
                t.entry(e.dst).contains(&i),
                "event {} missing from dst entry",
                i
            );
        }
    }

    #[test]
    fn neighbor_past_events_excluded() {
        // Node 3 connects to node 1 at event 8; node 1's earlier events
        // (0..=3) must not appear in node 3's entry.
        let events = figure7_events();
        let t = DependencyTable::build(&events, 14);
        for past in 0..8 {
            assert!(!t.entry(NodeId(3)).contains(&past));
        }
    }

    #[test]
    fn entries_sorted_unique() {
        let events = figure7_events();
        let t = DependencyTable::build(&events, 14);
        for n in 0..t.num_nodes() {
            let e = t.entry(NodeId(n as u32));
            assert!(
                e.windows(2).all(|w| w[0] < w[1]),
                "entry {} not strictly sorted",
                n
            );
        }
    }

    #[test]
    fn isolated_nodes_have_empty_entries() {
        let events = figure7_events();
        let t = DependencyTable::build(&events, 14);
        assert!(t.entry(NodeId(0)).is_empty());
        assert!(t.entry(NodeId(6)).contains(&10)); // node 6 touched by e(10)
    }

    #[test]
    fn self_loops_counted_once() {
        let events = vec![Event::new(0u32, 0u32, 0.0), Event::new(0u32, 1u32, 1.0)];
        let t = DependencyTable::build(&events, 2);
        assert_eq!(t.entry(NodeId(0)), &[0, 1]);
        assert_eq!(t.entry(NodeId(1)), &[1]);
    }

    #[test]
    fn chunked_table_offsets_ids() {
        let events = figure7_events();
        let t = DependencyTable::build_range(&events[6..], 14, 6);
        // Node 10's chunk events are 6 and 7; node 4 (connected at 7)
        // has the future event 11.
        assert_eq!(t.entry(NodeId(10)), &[6, 7, 11]);
        assert_eq!(t.base(), 6);
        assert_eq!(t.end(), 12);
    }

    #[test]
    fn chunked_equals_dense_restricted() {
        // Within a chunk, the chunked table equals the dense table built
        // over just that chunk's events.
        let events = figure7_events();
        let chunk = &events[4..10];
        let chunked = DependencyTable::build_range(chunk, 14, 4);
        let dense_local = DependencyTable::build(chunk, 14);
        for n in 0..14u32 {
            let shifted: Vec<EventId> = dense_local
                .entry(NodeId(n))
                .iter()
                .map(|&i| i + 4)
                .collect();
            assert_eq!(chunked.entry(NodeId(n)), shifted, "node {}", n);
        }
    }

    #[test]
    fn lower_bound_from_a_hint_matches_the_full_search() {
        // A hub (node 0) with 40 entries — five doublings of the probe —
        // in a chunk whose ids start at 100.
        let events: Vec<Event> = (0..40)
            .map(|i| Event::new(0u32, 1 + (i % 5) as u32, i as f64))
            .collect();
        let t = DependencyTable::build_range(&events, 6, 100);
        for n in 0..6 {
            for from in 0..=t.entries[n].len() {
                for event in 90..150 {
                    assert_eq!(
                        t.entry_lower_bound_from(n, from, event),
                        t.entry_lower_bound(n, event).max(from),
                        "node {} from {} event {}",
                        n,
                        from,
                        event
                    );
                }
            }
        }
    }

    #[test]
    fn size_accounting_positive() {
        let events = figure7_events();
        let t = DependencyTable::build(&events, 14);
        assert!(t.size_bytes() > 0);
        assert!(t.total_entries() >= events.len() * 2);
    }

    #[test]
    fn empty_stream_builds_empty_table() {
        let t = DependencyTable::build(&[], 5);
        assert_eq!(t.num_nodes(), 5);
        assert_eq!(t.total_entries(), 0);
    }
}
