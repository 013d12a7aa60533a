//! The memory plane: the mutable-state spine of a memory-based TGNN.
//!
//! Node memory, mailboxes, and the temporal adjacency store are the
//! three per-node state structures every batch reads and writes
//! (DESIGN.md §12). [`MemoryPlane`] abstracts *where* that state lives
//! so the same [`MemoryTgnn`](crate::MemoryTgnn) compute code drives:
//!
//! * [`ShardedPlane`] — the owned plane: node-id-hash partitioned
//!   stores ([`ShardMap`]) with dense per-shard slot tables. Every
//!   sampling hash stays keyed by **global** node id, so reads, writes,
//!   and neighbor draws are bit-identical at any shard count; at one
//!   shard a node's slot is its id and the plane *is* the monolith,
//!   which is what [`MemoryTgnn::new`](crate::MemoryTgnn::new) builds.
//! * `cascade-dist`'s `SharedPlane` — [`PlaneShard`]s behind per-shard
//!   `RwLock`s, shared by N worker threads.
//!
//! All mutation goes through `&mut self` trait methods, which keeps the
//! det-taint sink analysis (`memory_write`, `mailbox_push`, receiver
//! `plane`) attached to every state write regardless of backing.

use std::sync::Arc;

use cascade_tensor::Tensor;
use cascade_tgraph::{AdjacencyStore, Event, EventId, NeighborRef, NodeId, ShardMap};

use crate::config::{ModelConfig, UpdaterKind};
use crate::memory::{Mailbox, NodeMemory};

/// The structural dimensions a plane is built from. Derived once from
/// the model configuration so every plane implementation — sharded,
/// shared, or a TCP peer's replica — agrees on widths.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlaneGeometry {
    /// Nodes covered.
    pub num_nodes: usize,
    /// Node-memory width.
    pub memory_dim: usize,
    /// Per-node mailbox capacity (10 for APAN's mailbox attention,
    /// 1 otherwise — Table 1).
    pub mailbox_capacity: usize,
    /// Raw mailbox message width `[s_src ‖ s_partner ‖ feat ‖ t]`.
    pub raw_msg_dim: usize,
    /// Uniform-sampling seed of the adjacency store.
    pub adj_seed: u64,
}

impl PlaneGeometry {
    /// The geometry a [`MemoryTgnn`](crate::MemoryTgnn) with this
    /// configuration requires.
    ///
    /// # Panics
    ///
    /// Panics if `num_nodes == 0`.
    pub fn for_config(
        config: &ModelConfig,
        num_nodes: usize,
        edge_feat_dim: usize,
        seed: u64,
    ) -> Self {
        assert!(num_nodes > 0, "a memory plane needs at least one node");
        let d = config.memory_dim;
        PlaneGeometry {
            num_nodes,
            memory_dim: d,
            mailbox_capacity: match config.updater {
                UpdaterKind::MailboxAttention => 10,
                _ => 1,
            },
            raw_msg_dim: 2 * d + edge_feat_dim + 1,
            adj_seed: seed ^ 0x0b,
        }
    }
}

/// Storage backend for a model's per-node state. See the module docs
/// for the implementations.
///
/// Reads are global — any node can be read from any shard's owner or
/// peer (message generation needs both endpoints' memories). Writes are
/// what shard ownership partitions; the dist runtime filters write
/// application by `shard_of` before calling the mutating methods.
pub trait MemoryPlane: Send + Sync {
    /// Nodes covered.
    fn num_nodes(&self) -> usize;
    /// Node-memory width.
    fn memory_dim(&self) -> usize;
    /// Number of shards state is partitioned into.
    fn num_shards(&self) -> usize;
    /// The shard owning `node`.
    fn shard_of(&self, node: NodeId) -> usize;

    /// Copies one node's memory row out.
    fn memory_read(&self, node: NodeId) -> Vec<f32>;
    /// The node's last memory-update timestamp (0 before any update).
    fn memory_last_update(&self, node: NodeId) -> f64;
    /// Gathers rows for `nodes` into a detached `[len, dim]` leaf
    /// tensor, in `nodes` order.
    fn memory_gather(&self, nodes: &[NodeId]) -> Tensor;
    /// Overwrites one node's memory and records the update time.
    fn memory_write(&mut self, node: NodeId, values: &[f32], time: f64);

    /// Per-node mailbox capacity.
    fn mailbox_capacity(&self) -> usize;
    /// Raw mailbox message width.
    fn mailbox_msg_dim(&self) -> usize;
    /// The pending messages of a node, oldest first (owned: a plane may
    /// hold its slots behind locks, so borrows cannot escape).
    fn mailbox_messages(&self, node: NodeId) -> Vec<Vec<f32>>;
    /// `true` if the node has at least one pending message.
    fn mailbox_has_messages(&self, node: NodeId) -> bool;
    /// Appends a message, evicting the oldest beyond capacity.
    fn mailbox_push(&mut self, node: NodeId, msg: Vec<f32>);
    /// Drops the pending messages of one node (after consumption).
    fn mailbox_clear(&mut self, node: NodeId);

    /// Registers one endpoint's half of an event: `neighbor` joins
    /// `owner`'s history. Two half-inserts make up
    /// [`adj_insert`](Self::adj_insert); the halves are separate because
    /// the endpoints may live in different shards.
    fn adj_insert_half(&mut self, owner: NodeId, neighbor: NeighborRef);
    /// Number of recorded adjacencies of `node`.
    fn adj_degree(&self, node: NodeId) -> usize;
    /// The `k` most recent neighbors of `node` (most recent first).
    fn adj_most_recent(&self, node: NodeId, k: usize) -> Vec<NeighborRef>;
    /// `k` uniform samples from the node's history, hashed by global id.
    fn adj_uniform(&self, node: NodeId, k: usize) -> Vec<NeighborRef>;

    /// Zeroes memories, drops messages, clears adjacency (epoch start).
    fn reset(&mut self);
    /// Bytes held by the node-memory matrix.
    fn memory_size_bytes(&self) -> usize;
    /// Approximate bytes held by pending mailbox messages.
    fn mailbox_size_bytes(&self) -> usize;
    /// An independent deep copy of the plane's state.
    fn clone_plane(&self) -> Box<dyn MemoryPlane>;

    /// Registers an event in both endpoints' histories.
    fn adj_insert(&mut self, event: &Event, id: EventId) {
        self.adj_insert_half(
            event.src,
            NeighborRef {
                node: event.dst,
                event: id,
                time: event.time,
            },
        );
        self.adj_insert_half(
            event.dst,
            NeighborRef {
                node: event.src,
                event: id,
                time: event.time,
            },
        );
    }
}

/// One shard's slice of the plane: dense slot-indexed stores for the
/// nodes a [`ShardMap`] assigns to it. The building block both
/// [`ShardedPlane`] (single-owner) and `cascade-dist`'s `SharedPlane`
/// (per-shard `RwLock`s) compose.
///
/// Fields are public because the dist crate addresses shards directly
/// under its own locking; all slot bookkeeping lives in the owning
/// plane's [`ShardMap`].
#[derive(Clone)]
pub struct PlaneShard {
    /// Slot-indexed node memory.
    pub memory: NodeMemory,
    /// Slot-indexed mailboxes.
    pub mailbox: Mailbox,
    /// Slot-indexed adjacency lists; entries name **global** partner
    /// ids and draws hash by global id (`uniform_keyed`).
    pub adjacency: AdjacencyStore,
}

impl PlaneShard {
    /// Zeroed state for a shard of `num_slots` nodes.
    pub fn new(geom: &PlaneGeometry, num_slots: usize) -> Self {
        PlaneShard {
            memory: NodeMemory::new(num_slots, geom.memory_dim),
            mailbox: Mailbox::new(num_slots, geom.mailbox_capacity, geom.raw_msg_dim),
            adjacency: AdjacencyStore::new(num_slots).with_seed(geom.adj_seed),
        }
    }

    /// Zeroes this shard's state.
    pub fn reset(&mut self) {
        self.memory.reset();
        self.mailbox.reset();
        self.adjacency.clear();
    }
}

/// The node-id-hash sharded plane with a single owner: state is
/// partitioned the way the dist runtime partitions it, without locks.
/// One shard is the serial default; more shards are the local replica
/// each TCP dist process trains against.
#[derive(Clone)]
pub struct ShardedPlane {
    geom: PlaneGeometry,
    /// Immutable once built, so clones share it.
    map: Arc<ShardMap>,
    shards: Vec<PlaneShard>,
}

impl ShardedPlane {
    /// Partitions `geom.num_nodes` nodes over `num_shards` shards.
    ///
    /// # Panics
    ///
    /// Panics if `num_shards == 0`.
    pub fn new(geom: &PlaneGeometry, num_shards: usize) -> Self {
        let map = ShardMap::new(geom.num_nodes, num_shards);
        let shards = (0..num_shards)
            .map(|s| PlaneShard::new(geom, map.shard_size(s)))
            .collect();
        ShardedPlane {
            geom: *geom,
            map: Arc::new(map),
            shards,
        }
    }

    fn slot(&self, node: NodeId) -> (usize, NodeId) {
        let (shard, slot) = self.map.assignment(node);
        (shard, NodeId(slot as u32))
    }
}

impl MemoryPlane for ShardedPlane {
    fn num_nodes(&self) -> usize {
        self.geom.num_nodes
    }

    fn memory_dim(&self) -> usize {
        self.geom.memory_dim
    }

    fn num_shards(&self) -> usize {
        self.shards.len()
    }

    fn shard_of(&self, node: NodeId) -> usize {
        self.map.shard_of(node)
    }

    fn memory_read(&self, node: NodeId) -> Vec<f32> {
        let (s, slot) = self.slot(node);
        self.shards[s].memory.snapshot(slot)
    }

    fn memory_last_update(&self, node: NodeId) -> f64 {
        let (s, slot) = self.slot(node);
        self.shards[s].memory.last_update(slot)
    }

    fn memory_gather(&self, nodes: &[NodeId]) -> Tensor {
        let d = self.geom.memory_dim;
        let mut out = Vec::with_capacity(nodes.len() * d);
        for &n in nodes {
            let (s, slot) = self.slot(n);
            out.extend_from_slice(self.shards[s].memory.read(slot));
        }
        Tensor::from_vec(out, [nodes.len(), d])
    }

    fn memory_write(&mut self, node: NodeId, values: &[f32], time: f64) {
        let (s, slot) = self.slot(node);
        self.shards[s].memory.write(slot, values, time);
    }

    fn mailbox_capacity(&self) -> usize {
        self.geom.mailbox_capacity
    }

    fn mailbox_msg_dim(&self) -> usize {
        self.geom.raw_msg_dim
    }

    fn mailbox_messages(&self, node: NodeId) -> Vec<Vec<f32>> {
        let (s, slot) = self.slot(node);
        self.shards[s].mailbox.messages(slot).to_vec()
    }

    fn mailbox_has_messages(&self, node: NodeId) -> bool {
        let (s, slot) = self.slot(node);
        self.shards[s].mailbox.has_messages(slot)
    }

    fn mailbox_push(&mut self, node: NodeId, msg: Vec<f32>) {
        let (s, slot) = self.slot(node);
        self.shards[s].mailbox.push(slot, msg);
    }

    fn mailbox_clear(&mut self, node: NodeId) {
        let (s, slot) = self.slot(node);
        self.shards[s].mailbox.clear_node(slot);
    }

    fn adj_insert_half(&mut self, owner: NodeId, neighbor: NeighborRef) {
        let (s, slot) = self.slot(owner);
        self.shards[s].adjacency.insert_ref(slot, neighbor);
    }

    fn adj_degree(&self, node: NodeId) -> usize {
        let (s, slot) = self.slot(node);
        self.shards[s].adjacency.degree(slot)
    }

    fn adj_most_recent(&self, node: NodeId, k: usize) -> Vec<NeighborRef> {
        let (s, slot) = self.slot(node);
        self.shards[s].adjacency.most_recent(slot, k)
    }

    fn adj_uniform(&self, node: NodeId, k: usize) -> Vec<NeighborRef> {
        let (s, slot) = self.slot(node);
        self.shards[s].adjacency.uniform_keyed(slot, node, k)
    }

    fn reset(&mut self) {
        for s in &mut self.shards {
            s.reset();
        }
    }

    fn memory_size_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.memory.size_bytes()).sum()
    }

    fn mailbox_size_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.mailbox.size_bytes()).sum()
    }

    fn clone_plane(&self) -> Box<dyn MemoryPlane> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;

    fn geom() -> PlaneGeometry {
        PlaneGeometry::for_config(&ModelConfig::tgn().with_dims(4, 2), 12, 3, 42)
    }

    /// The monolith the sharded plane is held to: one [`PlaneShard`]
    /// covering every node, addressed by global id — the same three
    /// stores with no shard map and no trait in between.
    fn seeded_planes(num_shards: usize) -> (PlaneShard, ShardedPlane) {
        let g = geom();
        let mut mono = PlaneShard::new(&g, g.num_nodes);
        let mut sharded = ShardedPlane::new(&g, num_shards);
        let events = [
            Event::new(0u32, 1u32, 1.0),
            Event::new(2u32, 5u32, 2.0),
            Event::new(0u32, 7u32, 3.0),
            Event::new(11u32, 1u32, 4.0),
        ];
        for (i, e) in events.iter().enumerate() {
            let row = [i as f32, 1.0, 2.0, 3.0];
            sharded.adj_insert(e, i);
            sharded.memory_write(e.src, &row, e.time);
            sharded.mailbox_push(e.src, vec![0.5; 12]);
            mono.adjacency.insert_event(e, i);
            mono.memory.write(e.src, &row, e.time);
            mono.mailbox.push(e.src, vec![0.5; 12]);
        }
        (mono, sharded)
    }

    #[test]
    fn sharded_reads_match_the_monolith_at_every_shard_count() {
        for num_shards in [1, 3, 12] {
            let (mono, sharded) = seeded_planes(num_shards);
            for n in 0..12u32 {
                let n = NodeId(n);
                assert_eq!(mono.memory.read(n), sharded.memory_read(n));
                assert_eq!(
                    mono.memory.last_update(n).to_bits(),
                    sharded.memory_last_update(n).to_bits()
                );
                assert_eq!(mono.mailbox.messages(n), sharded.mailbox_messages(n));
                assert_eq!(mono.adjacency.degree(n), sharded.adj_degree(n));
                assert_eq!(
                    mono.adjacency.most_recent(n, 4),
                    sharded.adj_most_recent(n, 4)
                );
                // The partition-critical property: uniform draws hash by
                // global id, so shard placement is invisible to sampling.
                assert_eq!(mono.adjacency.uniform(n, 8), sharded.adj_uniform(n, 8));
            }
            let picked = [NodeId(0), NodeId(7), NodeId(11)];
            let rows: Vec<f32> = picked
                .iter()
                .flat_map(|&n| mono.memory.snapshot(n))
                .collect();
            let gathered = sharded.memory_gather(&picked);
            assert_eq!(gathered.dims(), &[3, 4]);
            assert!(!gathered.is_requires_grad(), "gathered rows are a leaf");
            assert_eq!(rows, gathered.to_vec());
            assert_eq!(mono.mailbox.size_bytes(), sharded.mailbox_size_bytes());
            assert_eq!(mono.memory.size_bytes(), sharded.memory_size_bytes());
        }
    }

    #[test]
    fn sharded_reset_matches_the_monolith() {
        let (mut mono, mut sharded) = seeded_planes(3);
        mono.reset();
        sharded.reset();
        for n in 0..12u32 {
            let n = NodeId(n);
            assert_eq!(mono.memory.read(n), sharded.memory_read(n));
            assert_eq!(mono.adjacency.degree(n), 0);
            assert_eq!(sharded.adj_degree(n), 0);
            assert!(!sharded.mailbox_has_messages(n));
        }
    }

    #[test]
    fn clone_plane_detaches_state() {
        let (_, sharded) = seeded_planes(3);
        let mut copy = sharded.clone_plane();
        copy.memory_write(NodeId(3), &[9.0; 4], 9.0);
        assert_ne!(sharded.memory_read(NodeId(3)), copy.memory_read(NodeId(3)));
    }

    #[test]
    fn geometry_follows_updater_kind() {
        let apan = PlaneGeometry::for_config(&ModelConfig::apan().with_dims(4, 2), 5, 3, 1);
        assert_eq!(apan.mailbox_capacity, 10);
        let g = geom();
        assert_eq!(g.mailbox_capacity, 1);
        assert_eq!(g.raw_msg_dim, 2 * 4 + 3 + 1);
        assert_eq!(g.adj_seed, 42 ^ 0x0b);
    }
}
