//! The memory plane: the mutable-state spine of a memory-based TGNN.
//!
//! Node memory, mailboxes, and the temporal adjacency store are the
//! three per-node state structures every batch reads and writes
//! (DESIGN.md §12a). [`MemoryPlane`] holds all three, indexed by global
//! node id, and is the only place a model's node state lives — a dist
//! replica owns one like every other driver does.
//!
//! All mutation goes through `&mut self` methods (`memory_write`,
//! `mailbox_push`, …), so every state write has one call site to audit.

use cascade_tensor::Tensor;
use cascade_tgraph::{AdjacencyStore, Event, EventId, NeighborRef, NodeId};

use crate::config::{ModelConfig, UpdaterKind};
use crate::memory::{Mailbox, NodeMemory};

/// A model's per-node state: memory rows with their last-update times,
/// pending mailbox messages, and the temporal adjacency store.
#[derive(Clone)]
pub struct MemoryPlane {
    memory: NodeMemory,
    mailbox: Mailbox,
    adjacency: AdjacencyStore,
}

impl MemoryPlane {
    /// Zeroed state for `num_nodes` nodes, shaped for a model with this
    /// configuration and `edge_feat_dim`-wide edge features.
    ///
    /// # Panics
    ///
    /// Panics if `num_nodes == 0`.
    pub(crate) fn new(
        config: &ModelConfig,
        num_nodes: usize,
        edge_feat_dim: usize,
        seed: u64,
    ) -> Self {
        assert!(num_nodes > 0, "a memory plane needs at least one node");
        let d = config.memory_dim;
        // APAN's mailbox attention reads 10 messages, the rest 1 (Table 1).
        let capacity = match config.updater {
            UpdaterKind::MailboxAttention => 10,
            _ => 1,
        };
        // Raw mailbox message: [s_src ‖ s_partner ‖ feat ‖ abs_time].
        let raw_msg_dim = 2 * d + edge_feat_dim + 1;
        MemoryPlane {
            memory: NodeMemory::new(num_nodes, d),
            mailbox: Mailbox::new(num_nodes, capacity, raw_msg_dim),
            adjacency: AdjacencyStore::new(num_nodes).with_seed(seed ^ 0x0b),
        }
    }

    /// Nodes covered.
    pub fn num_nodes(&self) -> usize {
        self.adjacency.num_nodes()
    }

    /// Node-memory width.
    pub fn memory_dim(&self) -> usize {
        self.memory.dim()
    }

    /// One node's memory row.
    pub fn memory_read(&self, node: NodeId) -> &[f32] {
        self.memory.read(node)
    }

    /// The node's last memory-update timestamp (0 before any update).
    pub fn memory_last_update(&self, node: NodeId) -> f64 {
        self.memory.last_update(node)
    }

    /// Gathers rows for `nodes` into a detached `[len, dim]` leaf tensor,
    /// in `nodes` order.
    pub fn memory_gather(&self, nodes: &[NodeId]) -> Tensor {
        let d = self.memory.dim();
        let mut out = Vec::with_capacity(nodes.len() * d);
        for &n in nodes {
            out.extend_from_slice(self.memory.read(n));
        }
        Tensor::from_vec(out, [nodes.len(), d])
    }

    /// Overwrites one node's memory and records the update time.
    pub fn memory_write(&mut self, node: NodeId, values: &[f32], time: f64) {
        self.memory.write(node, values, time);
    }

    /// Per-node mailbox capacity.
    pub fn mailbox_capacity(&self) -> usize {
        self.mailbox.capacity()
    }

    /// Raw mailbox message width.
    pub fn mailbox_msg_dim(&self) -> usize {
        self.mailbox.msg_dim()
    }

    /// The pending messages of a node, oldest first.
    pub fn mailbox_messages(&self, node: NodeId) -> &[Vec<f32>] {
        self.mailbox.messages(node)
    }

    /// `true` if the node has at least one pending message.
    pub fn mailbox_has_messages(&self, node: NodeId) -> bool {
        self.mailbox.has_messages(node)
    }

    /// Appends a message, evicting the oldest beyond capacity.
    pub fn mailbox_push(&mut self, node: NodeId, msg: Vec<f32>) {
        self.mailbox.push(node, msg);
    }

    /// Drops the pending messages of one node (after consumption).
    pub fn mailbox_clear(&mut self, node: NodeId) {
        self.mailbox.clear_node(node);
    }

    /// Registers an event in both endpoints' histories.
    pub fn adj_insert(&mut self, event: &Event, id: EventId) {
        self.adjacency.insert_event(event, id);
    }

    /// Number of recorded adjacencies of `node`.
    pub fn adj_degree(&self, node: NodeId) -> usize {
        self.adjacency.degree(node)
    }

    /// The `k` most recent neighbors of `node` (most recent first).
    pub fn adj_most_recent(&self, node: NodeId, k: usize) -> Vec<NeighborRef> {
        self.adjacency.most_recent(node, k)
    }

    /// `k` uniform samples from the node's history.
    pub fn adj_uniform(&self, node: NodeId, k: usize) -> Vec<NeighborRef> {
        self.adjacency.uniform(node, k)
    }

    /// Zeroes memories, drops messages, clears adjacency (epoch start).
    pub fn reset(&mut self) {
        self.memory.reset();
        self.mailbox.reset();
        self.adjacency.clear();
    }

    /// Bytes held by the node-memory matrix.
    pub fn memory_size_bytes(&self) -> usize {
        self.memory.size_bytes()
    }

    /// Approximate bytes held by pending mailbox messages.
    pub fn mailbox_size_bytes(&self) -> usize {
        self.mailbox.size_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seeded() -> MemoryPlane {
        let mut plane = MemoryPlane::new(&ModelConfig::tgn().with_dims(4, 2), 12, 3, 42);
        let events = [
            Event::new(0u32, 1u32, 1.0),
            Event::new(2u32, 5u32, 2.0),
            Event::new(0u32, 7u32, 3.0),
            Event::new(11u32, 1u32, 4.0),
        ];
        for (i, e) in events.iter().enumerate() {
            plane.adj_insert(e, i);
            plane.memory_write(e.src, &[i as f32, 1.0, 2.0, 3.0], e.time);
            plane.mailbox_push(e.src, vec![0.5; 12]);
        }
        plane
    }

    #[test]
    fn gather_copies_rows_in_request_order() {
        let plane = seeded();
        let picked = [NodeId(11), NodeId(0), NodeId(7)];
        let gathered = plane.memory_gather(&picked);
        assert_eq!(gathered.dims(), &[3, 4]);
        assert!(!gathered.is_requires_grad(), "gathered rows are a leaf");
        let rows: Vec<f32> = picked
            .iter()
            .flat_map(|&n| plane.memory_read(n).to_vec())
            .collect();
        assert_eq!(rows, gathered.to_vec());
        assert_eq!(plane.memory_read(NodeId(0)), &[2.0, 1.0, 2.0, 3.0]);
        assert_eq!(plane.memory_last_update(NodeId(0)), 3.0);
        assert_eq!(plane.adj_degree(NodeId(1)), 2);
        assert_eq!(plane.adj_most_recent(NodeId(1), 1)[0].node, NodeId(11));
    }

    #[test]
    fn reset_clears_every_store() {
        let mut plane = seeded();
        plane.reset();
        for n in 0..12u32 {
            let n = NodeId(n);
            assert_eq!(plane.memory_read(n), &[0.0; 4]);
            assert_eq!(plane.adj_degree(n), 0);
            assert!(!plane.mailbox_has_messages(n));
        }
        assert_eq!(plane.mailbox_size_bytes(), 0);
    }

    #[test]
    fn geometry_follows_updater_kind() {
        let apan = MemoryPlane::new(&ModelConfig::apan().with_dims(4, 2), 5, 3, 1);
        assert_eq!(apan.mailbox_capacity(), 10);
        let plane = seeded();
        assert_eq!(plane.mailbox_capacity(), 1);
        assert_eq!(plane.mailbox_msg_dim(), 2 * 4 + 3 + 1);
        assert_eq!((plane.num_nodes(), plane.memory_dim()), (12, 4));
    }
}
