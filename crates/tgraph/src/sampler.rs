//! Temporal neighborhood sampling.
//!
//! TGNN embedding (Equation 4) aggregates a node's *past* neighbors. The
//! [`AdjacencyStore`] grows as events are consumed during an epoch and
//! supports the two sampling disciplines of Table 1: `most_recent` (JODIE,
//! TGN, APAN) and `uniform` (DySAT, TGAT).
//!
//! Both random samplers are *stateless*: every draw is a pure hash of the
//! seed and the query (node, history length, slot / event key), not of a
//! mutable generator. This keeps draws reproducible when a batch's events
//! are sampled concurrently by shard workers — the result depends only on
//! what is asked, never on which thread asks first.

use crate::event::{Event, EventId, NodeId};
use cascade_util::DetRng;

/// A single stateless pseudo-random index in `[0, n)` keyed by
/// `(seed, a, b)`.
fn keyed_index(seed: u64, a: u64, b: u64, n: usize) -> usize {
    // Distinct odd multipliers keep (a, b) collisions from aliasing;
    // DetRng::new applies a splitmix64 avalanche on top.
    let key = seed ^ a.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ b.wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
    DetRng::new(key).index(n)
}

/// One sampled neighbor: the partner node, the event that connected it,
/// and the event timestamp.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NeighborRef {
    /// The partner node.
    pub node: NodeId,
    /// The event that created this adjacency entry.
    pub event: EventId,
    /// The event's timestamp.
    pub time: f64,
}

/// An incrementally grown temporal adjacency list.
///
/// # Examples
///
/// ```
/// use cascade_tgraph::{AdjacencyStore, Event, NodeId};
///
/// let mut adj = AdjacencyStore::new(3);
/// adj.insert_event(&Event::new(0u32, 1u32, 0.5), 0);
/// let recent = adj.most_recent(NodeId(0), 5);
/// assert_eq!(recent.len(), 1);
/// assert_eq!(recent[0].node, NodeId(1));
/// ```
#[derive(Clone, Debug)]
pub struct AdjacencyStore {
    lists: Vec<Vec<NeighborRef>>,
    seed: u64,
}

impl AdjacencyStore {
    /// Creates an empty store for `num_nodes` nodes (seeded sampling).
    pub fn new(num_nodes: usize) -> Self {
        AdjacencyStore {
            lists: vec![Vec::new(); num_nodes],
            seed: 0x5eed,
        }
    }

    /// Overrides the uniform-sampling seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Records an event in both endpoints' adjacency lists.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range.
    pub fn insert_event(&mut self, event: &Event, id: EventId) {
        self.lists[event.src.index()].push(NeighborRef {
            node: event.dst,
            event: id,
            time: event.time,
        });
        self.lists[event.dst.index()].push(NeighborRef {
            node: event.src,
            event: id,
            time: event.time,
        });
    }

    /// The `k` most recent neighbors of `node` (most recent first).
    pub fn most_recent(&self, node: NodeId, k: usize) -> Vec<NeighborRef> {
        let list = &self.lists[node.index()];
        list.iter().rev().take(k).copied().collect()
    }

    /// `k` uniform samples (with replacement) from the node's history;
    /// returns fewer than `k` only when the history is empty.
    ///
    /// Draws are a pure function of `(seed, node, history length, slot)`,
    /// so concurrent callers observe identical samples.
    pub fn uniform(&self, node: NodeId, k: usize) -> Vec<NeighborRef> {
        let list = &self.lists[node.index()];
        if list.is_empty() {
            return Vec::new();
        }
        (0..k)
            .map(|slot| {
                let b = ((list.len() as u64) << 32) | slot as u64;
                list[keyed_index(self.seed, node.0 as u64, b, list.len())]
            })
            .collect()
    }

    /// Number of recorded adjacencies of `node`.
    pub fn degree(&self, node: NodeId) -> usize {
        self.lists[node.index()].len()
    }

    /// Clears all adjacency lists (start of a new epoch).
    pub fn clear(&mut self) {
        for l in &mut self.lists {
            l.clear();
        }
    }

    /// Number of nodes the store covers.
    pub fn num_nodes(&self) -> usize {
        self.lists.len()
    }
}

/// Seeded negative-edge sampler for link-prediction training: draws a
/// random destination node to form the "wrong edge" of the BCE loss
/// (§2.3).
#[derive(Clone, Debug)]
pub struct NegativeSampler {
    num_nodes: usize,
    seed: u64,
}

impl NegativeSampler {
    /// Creates a sampler over `num_nodes` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `num_nodes == 0`.
    pub fn new(num_nodes: usize, seed: u64) -> Self {
        assert!(num_nodes > 0, "NegativeSampler needs at least one node");
        NegativeSampler { num_nodes, seed }
    }

    /// A random node, avoiding `exclude` when more than one node exists.
    ///
    /// `key` identifies the draw (callers use the global event id), so the
    /// sample is a pure function of `(seed, key, exclude)` and shard
    /// workers can draw negatives for disjoint event ranges in parallel.
    pub fn sample(&self, exclude: NodeId, key: u64) -> NodeId {
        if self.num_nodes == 1 {
            return NodeId(0);
        }
        // Rejection loop over per-attempt nonces; terminates after a
        // handful of attempts with overwhelming probability since only one
        // node is excluded.
        for attempt in 0u64.. {
            let n = NodeId(keyed_index(self.seed, key, attempt, self.num_nodes) as u32);
            if n != exclude {
                return n;
            }
        }
        unreachable!("rejection loop always terminates with num_nodes > 1")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store_with_events() -> AdjacencyStore {
        let mut adj = AdjacencyStore::new(4);
        adj.insert_event(&Event::new(0u32, 1u32, 1.0), 0);
        adj.insert_event(&Event::new(0u32, 2u32, 2.0), 1);
        adj.insert_event(&Event::new(3u32, 0u32, 3.0), 2);
        adj
    }

    #[test]
    fn insert_is_bidirectional() {
        let adj = store_with_events();
        assert_eq!(adj.degree(NodeId(0)), 3);
        assert_eq!(adj.degree(NodeId(1)), 1);
        assert_eq!(adj.degree(NodeId(3)), 1);
    }

    #[test]
    fn most_recent_orders_newest_first() {
        let adj = store_with_events();
        let r = adj.most_recent(NodeId(0), 2);
        assert_eq!(r.len(), 2);
        assert_eq!(r[0].node, NodeId(3)); // t=3 event
        assert_eq!(r[1].node, NodeId(2)); // t=2 event
    }

    #[test]
    fn most_recent_truncates_to_history() {
        let adj = store_with_events();
        assert_eq!(adj.most_recent(NodeId(1), 10).len(), 1);
        assert!(adj.most_recent(NodeId(2), 0).is_empty());
    }

    #[test]
    fn uniform_draws_from_history() {
        let adj = store_with_events();
        let samples = adj.uniform(NodeId(0), 20);
        assert_eq!(samples.len(), 20);
        for s in samples {
            assert!([NodeId(1), NodeId(2), NodeId(3)].contains(&s.node));
        }
    }

    #[test]
    fn uniform_is_stateless() {
        let adj = store_with_events();
        // Repeated identical queries return identical draws — no hidden
        // generator state advances.
        assert_eq!(adj.uniform(NodeId(0), 5), adj.uniform(NodeId(0), 5));
        // Different slots within one query still vary.
        let many = adj.uniform(NodeId(0), 64);
        assert!(many.iter().any(|s| s.node != many[0].node));
    }

    #[test]
    fn uniform_empty_history_is_empty() {
        let adj = AdjacencyStore::new(2);
        assert!(adj.uniform(NodeId(0), 5).is_empty());
    }

    #[test]
    fn clear_resets() {
        let mut adj = store_with_events();
        adj.clear();
        assert_eq!(adj.degree(NodeId(0)), 0);
    }

    #[test]
    fn negative_sampler_avoids_excluded() {
        let ns = NegativeSampler::new(5, 1);
        for key in 0..100 {
            assert_ne!(ns.sample(NodeId(3), key), NodeId(3));
        }
    }

    #[test]
    fn negative_sampler_is_keyed_and_stateless() {
        let ns = NegativeSampler::new(50, 7);
        // Same key → same draw; across keys the draws vary.
        assert_eq!(ns.sample(NodeId(0), 5), ns.sample(NodeId(0), 5));
        let draws: Vec<NodeId> = (0..20).map(|k| ns.sample(NodeId(0), k)).collect();
        assert!(draws.iter().any(|&d| d != draws[0]));
    }

    #[test]
    fn negative_sampler_single_node() {
        let ns = NegativeSampler::new(1, 1);
        assert_eq!(ns.sample(NodeId(0), 0), NodeId(0));
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn negative_sampler_rejects_empty() {
        let _ = NegativeSampler::new(0, 1);
    }
}
