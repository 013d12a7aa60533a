//! Node-id-hash shard partitioning for the sharded memory plane.
//!
//! Multi-worker data-parallel training (DESIGN.md §12) splits node state
//! — memory rows, mailboxes, adjacency lists — across N shards. The
//! assignment must be a **pure function** of the node id and the shard
//! count: every process, every run, and every thread computing
//! `shard_of(node)` must agree, because shard ownership decides which
//! worker applies a write-back and which TCP peer a row belongs to.
//! [`ShardMap`] precomputes the assignment plus a dense **local slot**
//! per node, so each shard can store its nodes in a compact contiguous
//! table while all sampling hashes keep using global ids (see
//! `AdjacencyStore::uniform_keyed`).

use crate::event::NodeId;
use cascade_util::DetRng;

/// The shard a node hashes to: a seedless splitmix64 avalanche of the
/// node id reduced mod `num_shards`.
///
/// Seedless on purpose — the shard layout is structural (like the CEVT
/// chunk size), not an experiment parameter, so checkpoints and TCP
/// peers never have to negotiate a shard seed.
///
/// # Panics
///
/// Panics if `num_shards == 0`.
pub fn shard_of_node(node: NodeId, num_shards: usize) -> usize {
    DetRng::new(node.0 as u64).index(num_shards)
}

/// A precomputed node → (shard, slot) assignment.
///
/// Slots number each shard's nodes densely in ascending global-id
/// order, so `owned_nodes(shard)[slot]` recovers the global id and the
/// shard's state tables can be plain `Vec`s indexed by slot.
///
/// # Examples
///
/// ```
/// use cascade_tgraph::{NodeId, ShardMap};
///
/// let map = ShardMap::new(100, 4);
/// let n = NodeId(42);
/// let (shard, slot) = map.assignment(n);
/// assert_eq!(map.owned_nodes(shard)[slot], n);
/// ```
#[derive(Clone, Debug)]
pub struct ShardMap {
    num_shards: usize,
    /// `(shard, slot)` per node, indexed by global id.
    assign: Vec<(u32, u32)>,
    /// Global ids per shard, ascending (slot order).
    owned: Vec<Vec<NodeId>>,
}

impl ShardMap {
    /// Builds the assignment for `num_nodes` nodes over `num_shards`
    /// shards.
    ///
    /// # Panics
    ///
    /// Panics if `num_shards == 0` or if `num_nodes` exceeds `u32` range.
    pub fn new(num_nodes: usize, num_shards: usize) -> Self {
        assert!(num_shards > 0, "ShardMap needs at least one shard");
        assert!(
            num_nodes <= u32::MAX as usize,
            "node ids are u32 throughout the stack"
        );
        let mut assign = Vec::with_capacity(num_nodes);
        let mut owned: Vec<Vec<NodeId>> = vec![Vec::new(); num_shards];
        for id in 0..num_nodes as u32 {
            let shard = shard_of_node(NodeId(id), num_shards);
            let slot = owned[shard].len() as u32;
            assign.push((shard as u32, slot));
            owned[shard].push(NodeId(id));
        }
        ShardMap {
            num_shards,
            assign,
            owned,
        }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.num_shards
    }

    /// Number of nodes covered.
    pub fn num_nodes(&self) -> usize {
        self.assign.len()
    }

    /// The shard owning `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn shard_of(&self, node: NodeId) -> usize {
        self.assign[node.index()].0 as usize
    }

    /// The `(shard, slot)` pair for `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn assignment(&self, node: NodeId) -> (usize, usize) {
        let (shard, slot) = self.assign[node.index()];
        (shard as usize, slot as usize)
    }

    /// Number of nodes assigned to `shard`.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn shard_size(&self, shard: usize) -> usize {
        self.owned[shard].len()
    }

    /// The global ids owned by `shard`, in slot order (ascending).
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn owned_nodes(&self, shard: usize) -> &[NodeId] {
        &self.owned[shard]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_every_node_exactly_once() {
        let map = ShardMap::new(257, 5);
        let mut seen = vec![0usize; 257];
        for shard in 0..5 {
            for &n in map.owned_nodes(shard) {
                seen[n.index()] += 1;
                assert_eq!(map.shard_of(n), shard);
            }
        }
        assert!(seen.iter().all(|&c| c == 1));
        let total: usize = (0..5).map(|s| map.shard_size(s)).sum();
        assert_eq!(total, 257);
    }

    #[test]
    fn assignment_is_pure() {
        let a = ShardMap::new(100, 3);
        let b = ShardMap::new(100, 3);
        for id in 0..100u32 {
            assert_eq!(a.assignment(NodeId(id)), b.assignment(NodeId(id)));
            assert_eq!(a.shard_of(NodeId(id)), shard_of_node(NodeId(id), 3));
        }
    }

    #[test]
    fn single_shard_is_identity_layout() {
        let map = ShardMap::new(17, 1);
        for id in 0..17u32 {
            assert_eq!(map.assignment(NodeId(id)), (0, id as usize));
        }
        assert_eq!(map.owned_nodes(0).len(), 17);
    }

    #[test]
    fn slots_are_dense_and_ascending() {
        let map = ShardMap::new(64, 4);
        for shard in 0..4 {
            let owned = map.owned_nodes(shard);
            for (slot, &n) in owned.iter().enumerate() {
                assert_eq!(map.assignment(n).1, slot);
                if slot > 0 {
                    assert!(owned[slot - 1].0 < n.0);
                }
            }
        }
    }

    #[test]
    fn spread_is_not_degenerate() {
        // The avalanche should touch every shard for a modest node count.
        let map = ShardMap::new(1000, 8);
        for shard in 0..8 {
            assert!(map.shard_size(shard) > 0, "shard {} is empty", shard);
        }
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_panics() {
        let _ = ShardMap::new(4, 0);
    }
}
