//! The Topology-Aware Graph Diffuser (§4.2, Algorithm 3): per-node event
//! pointers over the dependency table and the last-tolerable-event lookup
//! that decides batch boundaries.

use std::sync::Arc;

use cascade_tgraph::EventId;

use crate::dependency::DependencyTable;

/// Looks up the last tolerable event for each batch.
///
/// Each node tolerates at most `max_r` relevant events (entries of its
/// dependency-table list) per batch — the *Maximum Revisit Endurance* of
/// §4.2. The batch boundary is the minimum first-intolerable event over
/// all non-stable nodes; stable nodes (flagged by the SG-Filter) are
/// skipped, which is exactly how temporal independence relaxes the
/// boundary in Figure 8(b).
///
/// # Examples
///
/// Reproducing the Figure 7(b) walk-through (`Max_r = 4`):
///
/// ```
/// use cascade_core::{DependencyTable, TgDiffuser};
/// use cascade_tgraph::Event;
///
/// let pairs = [(1, 2), (1, 7), (1, 8), (1, 9), (10, 11), (10, 12),
///              (10, 13), (10, 4), (1, 3), (1, 5), (1, 6), (3, 4)];
/// let events: Vec<Event> = pairs.iter().enumerate()
///     .map(|(i, &(s, d))| Event::new(s as u32, d as u32, i as f64))
///     .collect();
/// let table = DependencyTable::build(&events, 14);
/// let mut diffuser = TgDiffuser::new(table, 4);
/// let no_stable = vec![false; 14];
/// // Node 1's fifth relevant event is e(8): the batch ends there.
/// assert_eq!(diffuser.next_boundary(0, 12, &no_stable), 8);
/// ```
#[derive(Clone, Debug)]
pub struct TgDiffuser {
    table: Arc<DependencyTable>,
    /// `pointers[n]`: position in node `n`'s entry of its first
    /// unprocessed relevant event.
    pointers: Vec<usize>,
    /// `head[n]`: that event's id — `entry_at(n, pointers[n])` — so the
    /// advance can skip every node the batch did not reach without
    /// touching the table. `EventId::MAX` once the entry is consumed.
    head: Vec<EventId>,
    /// `bad[n]`: node `n`'s first intolerable event, the `Max_r + 1`-th
    /// unprocessed one — `entry_at(n, pointers[n] + max_r)` — so the
    /// boundary is a flat min. `EventId::MAX` when fewer remain.
    bad: Vec<EventId>,
    max_r: usize,
}

impl TgDiffuser {
    /// Creates a diffuser over a dependency table with the given initial
    /// `Max_r`.
    ///
    /// # Panics
    ///
    /// Panics if `max_r == 0` (every batch would be empty).
    pub fn new(table: impl Into<Arc<DependencyTable>>, max_r: usize) -> Self {
        assert!(max_r > 0, "Max_r must be at least 1");
        let mut diffuser = TgDiffuser {
            table: table.into(),
            pointers: Vec::new(),
            head: Vec::new(),
            bad: Vec::new(),
            max_r,
        };
        diffuser.reset();
        diffuser
    }

    /// Current `Max_r`.
    pub fn max_r(&self) -> usize {
        self.max_r
    }

    /// Updates `Max_r` (driven by the Adaptive Batch Sensor).
    ///
    /// # Panics
    ///
    /// Panics if `max_r == 0`.
    pub fn set_max_r(&mut self, max_r: usize) {
        assert!(max_r > 0, "Max_r must be at least 1");
        if max_r != self.max_r {
            self.max_r = max_r;
            self.rebuild_bad();
        }
    }

    /// The dependency table driving this diffuser.
    pub fn table(&self) -> &DependencyTable {
        &self.table
    }

    /// Replaces the table (chunk transition) and rewinds all pointers.
    pub fn swap_table(&mut self, table: impl Into<Arc<DependencyTable>>) {
        self.table = table.into();
        self.reset();
    }

    /// Rewinds all event pointers (epoch start).
    pub fn reset(&mut self) {
        let table = &self.table;
        let nodes = 0..table.num_nodes();
        self.pointers.clear();
        self.pointers.resize(table.num_nodes(), 0);
        self.head.clear();
        self.head.extend(nodes.map(|n| event_or_max(table, n, 0)));
        self.rebuild_bad();
    }

    /// Recomputes `bad` from the pointers and the current `Max_r`.
    fn rebuild_bad(&mut self) {
        let (table, max_r) = (&self.table, self.max_r);
        let pointers = self.pointers.iter().enumerate();
        self.bad.clear();
        self.bad
            .extend(pointers.map(|(n, &p)| event_or_max(table, n, p.saturating_add(max_r))));
    }

    /// Computes the exclusive end of the batch starting at `start`
    /// (Algorithm 3), bounded by `limit`, and advances the node pointers
    /// past the consumed events.
    ///
    /// `stable[n]` marks nodes whose temporal dependencies the SG-Filter
    /// has broken; they impose no boundary but their pointers still move.
    ///
    /// The returned end is always at least `start + 1` so training makes
    /// progress even when `Max_r` would forbid any event (the guard the
    /// paper leaves implicit).
    ///
    /// The cost follows the batch, not the graph: one branch-light pass
    /// over two flat arrays, plus table work only for the nodes whose
    /// next relevant event the batch consumed.
    ///
    /// # Panics
    ///
    /// Panics if `start >= limit` or `stable.len()` differs from the node
    /// count.
    pub fn next_boundary(&mut self, start: EventId, limit: EventId, stable: &[bool]) -> EventId {
        assert!(start < limit, "next_boundary on empty range");
        assert_eq!(
            stable.len(),
            self.table.num_nodes(),
            "stable flag width mismatch"
        );

        // Algorithm 3's min-reduction: the earliest first-intolerable
        // event over the non-stable nodes.
        let constraints = self.bad.iter().zip(stable);
        let masked = constraints.map(|(&bad, &stable)| if stable { EventId::MAX } else { bad });
        let k = masked.min().unwrap_or(EventId::MAX);
        let end = k.min(limit).max(start + 1);

        // Advance past every event consumed by this batch. A node whose
        // next relevant event is at or beyond `end` keeps its pointer.
        let (table, max_r) = (&self.table, self.max_r);
        let slots = self.pointers.iter_mut().zip(&mut self.head);
        for (n, ((p, head), bad)) in slots.zip(&mut self.bad).enumerate() {
            if *head < end {
                *p = table.entry_lower_bound_from(n, *p, end);
                *head = event_or_max(table, n, *p);
                *bad = event_or_max(table, n, p.saturating_add(max_r));
            }
        }
        end
    }
}

/// The event at `pos` of node `n`'s entry, `EventId::MAX` past its end.
fn event_or_max(table: &DependencyTable, n: usize, pos: usize) -> EventId {
    table.entry_at(n, pos).unwrap_or(EventId::MAX)
}

/// The reference min-reduction of Algorithm 3, straight off the table:
/// the oracle the flat arrays are checked against.
#[cfg(test)]
fn scan_min(table: &DependencyTable, pointers: &[usize], stable: &[bool], max_r: usize) -> EventId {
    let mut k = EventId::MAX;
    for n in 0..table.num_nodes() {
        if stable[n] {
            continue;
        }
        let cur = pointers[n];
        if table.entry_at(n, cur).is_none() {
            // All of this node's events are consumed: no constraint.
            continue;
        }
        // The first intolerable event is the (Max_r + 1)-th unprocessed
        // relevant event; if fewer remain, the node never objects.
        if let Some(en) = table.entry_at(n, cur + max_r) {
            k = k.min(en);
        }
    }
    k
}

#[cfg(test)]
mod tests {
    use super::*;
    use cascade_tgraph::Event;

    fn figure7_events() -> Vec<Event> {
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

    fn diffuser(max_r: usize) -> TgDiffuser {
        let events = figure7_events();
        TgDiffuser::new(DependencyTable::build(&events, 14), max_r)
    }

    #[test]
    fn figure7b_boundary_is_8() {
        let mut d = diffuser(4);
        assert_eq!(d.next_boundary(0, 12, &[false; 14]), 8);
    }

    #[test]
    fn figure8b_stable_nodes_extend_to_10() {
        // Figure 8(b): with nodes 1, 2, 7 stable, the barrier at e(8)
        // disappears and the batch extends to e(10).
        let mut d = diffuser(4);
        let mut stable = vec![false; 14];
        stable[1] = true;
        stable[2] = true;
        stable[7] = true;
        // Nodes 8 and 9 still constrain: their entries are
        // [2,3,8,9,10] and [3,8,9,10]; with Max_r = 4 the first
        // intolerable events are 10 and none respectively.
        assert_eq!(d.next_boundary(0, 12, &stable), 10);
    }

    #[test]
    fn all_stable_runs_to_limit() {
        let mut d = diffuser(1);
        assert_eq!(d.next_boundary(0, 12, &[true; 14]), 12);
    }

    #[test]
    fn boundaries_partition_stream() {
        let mut d = diffuser(2);
        let stable = vec![false; 14];
        let mut start = 0;
        let mut boundaries = Vec::new();
        while start < 12 {
            let end = d.next_boundary(start, 12, &stable);
            assert!(end > start && end <= 12);
            boundaries.push(end);
            start = end;
        }
        assert_eq!(*boundaries.last().unwrap(), 12);
    }

    #[test]
    fn larger_max_r_never_shrinks_batches() {
        for r in 1..6 {
            let mut small = diffuser(r);
            let mut large = diffuser(r + 1);
            let stable = vec![false; 14];
            let b_small = small.next_boundary(0, 12, &stable);
            let b_large = large.next_boundary(0, 12, &stable);
            assert!(
                b_large >= b_small,
                "Max_r {} -> {}: {} < {}",
                r,
                r + 1,
                b_large,
                b_small
            );
        }
    }

    #[test]
    fn progress_guaranteed_with_tiny_max_r() {
        let mut d = diffuser(1);
        let stable = vec![false; 14];
        let mut start = 0;
        let mut iterations = 0;
        while start < 12 {
            start = d.next_boundary(start, 12, &stable);
            iterations += 1;
            assert!(iterations <= 12, "no progress");
        }
    }

    #[test]
    fn pointers_reset_between_epochs() {
        let mut d = diffuser(4);
        let stable = vec![false; 14];
        let first = d.next_boundary(0, 12, &stable);
        d.reset();
        assert_eq!(d.next_boundary(0, 12, &stable), first);
    }

    #[test]
    fn swap_table_rewinds() {
        let events = figure7_events();
        let mut d = diffuser(4);
        let stable = vec![false; 14];
        let _ = d.next_boundary(0, 12, &stable);
        d.swap_table(DependencyTable::build(&events, 14));
        assert_eq!(d.next_boundary(0, 12, &stable), 8);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn rejects_zero_max_r() {
        let _ = diffuser(0);
    }
}

/// The flat arrays against the table-walking reference they replaced.
#[cfg(test)]
mod oracle_tests {
    use super::*;
    use cascade_tgraph::Event;
    use cascade_util::{check, prop_assert_eq, Gen};

    /// `scan_min` plus the full pointer advance: every node's entry is
    /// consulted on every call, nothing is cached.
    struct Reference {
        table: Arc<DependencyTable>,
        pointers: Vec<usize>,
        max_r: usize,
    }

    impl Reference {
        fn new(table: Arc<DependencyTable>, max_r: usize) -> Self {
            let pointers = vec![0; table.num_nodes()];
            Reference {
                table,
                pointers,
                max_r,
            }
        }

        fn next_boundary(&mut self, start: EventId, limit: EventId, stable: &[bool]) -> EventId {
            let k = scan_min(&self.table, &self.pointers, stable, self.max_r);
            let end = k.min(limit).max(start + 1);
            for (n, p) in self.pointers.iter_mut().enumerate() {
                if self.table.entry_at(n, *p).is_some() {
                    *p = (*p).max(self.table.entry_lower_bound(n, end));
                }
            }
            end
        }
    }

    /// A chunk of up to 300 events over `nodes` nodes, a third of them
    /// touching one of a few hubs, with ids starting at a random base.
    fn hub_table(g: &mut Gen, nodes: usize) -> Arc<DependencyTable> {
        let len = g.usize_in(1..300);
        let hubs = g.usize_in(1..4).min(nodes);
        let events: Vec<Event> = (0..len)
            .map(|i| {
                let src = if g.usize_in(0..3) == 0 {
                    g.usize_in(0..hubs)
                } else {
                    g.usize_in(0..nodes)
                };
                Event::new(src as u32, g.usize_in(0..nodes) as u32, i as f64)
            })
            .collect();
        let base = g.usize_in(0..3) * g.usize_in(0..5000);
        Arc::new(DependencyTable::build_range(&events, nodes, base))
    }

    #[test]
    fn flat_arrays_match_the_table_walk() {
        check("diffuser_flat_arrays_match_table_walk", |g| {
            let mut nodes = g.usize_in(2..48);
            let mut table = hub_table(g, nodes);
            let mut max_r = g.usize_in(1..10);
            let mut flat = TgDiffuser::new(Arc::clone(&table), max_r);
            let mut walk = Reference::new(Arc::clone(&table), max_r);
            let mut stable: Vec<bool> = (0..nodes).map(|_| g.usize_in(0..4) == 0).collect();
            let mut start = table.base();
            let mut rewinds = 3;
            for call in 0..400 {
                // The SG-Filter flips flags between calls.
                for _ in 0..g.usize_in(0..4) {
                    let n = g.usize_in(0..nodes);
                    stable[n] = !stable[n];
                }
                match g.usize_in(0..12) {
                    // ABS moves Max_r up or down; on every other call
                    // `set_max_r` below is a move "to" the same value.
                    0 => max_r = g.usize_in(1..14),
                    1 => max_r = max_r.saturating_sub(1).max(1),
                    // Epoch start.
                    3 if rewinds > 0 => {
                        rewinds -= 1;
                        flat.reset();
                        walk.pointers.fill(0);
                        start = table.base();
                    }
                    // Chunk transition, to a table over more nodes.
                    4 if rewinds > 0 => {
                        rewinds -= 1;
                        nodes += g.usize_in(1..8);
                        table = hub_table(g, nodes);
                        flat.swap_table(Arc::clone(&table));
                        walk = Reference::new(Arc::clone(&table), max_r);
                        stable.resize(nodes, false);
                        start = table.base();
                    }
                    _ => {}
                }
                flat.set_max_r(max_r);
                walk.max_r = max_r;
                if start >= table.end() {
                    break;
                }
                // A third of the calls are cut short by the caller's limit.
                let limit = match g.usize_in(0..3) {
                    0 => start + 1 + g.usize_in(0..table.end() - start),
                    _ => table.end(),
                };
                let end = flat.next_boundary(start, limit, &stable);
                prop_assert_eq!(
                    end,
                    walk.next_boundary(start, limit, &stable),
                    "call {}: boundary from {} (limit {}, Max_r {})",
                    call,
                    start,
                    limit,
                    max_r
                );
                prop_assert_eq!(&flat.pointers, &walk.pointers, "call {}: pointers", call);
                // The arrays hold exactly what their definitions say.
                for n in 0..nodes {
                    let p = flat.pointers[n];
                    prop_assert_eq!(flat.head[n], event_or_max(&table, n, p), "head[{}]", n);
                    prop_assert_eq!(
                        flat.bad[n],
                        event_or_max(&table, n, p + max_r),
                        "bad[{}]",
                        n
                    );
                }
                start = end;
            }
            Ok(())
        });
    }
}
