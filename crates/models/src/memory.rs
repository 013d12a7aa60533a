//! Node memory and message mailboxes.
//!
//! Every memory-based TGNN keeps a state vector per node ("node memory",
//! §2.2) plus the raw messages pending aggregation (Equation 2/3). Both
//! stores live outside the autograd graph: batches read rows into leaf
//! tensors and write detached results back — the stop-gradient-at-batch-
//! boundary semantics of TGN/TGL training.

use cascade_tgraph::NodeId;

/// Dense per-node state vectors with last-update timestamps.
#[derive(Clone, Debug)]
pub(crate) struct NodeMemory {
    data: Vec<f32>,
    last_update: Vec<f64>,
    dim: usize,
}

impl NodeMemory {
    /// Creates zeroed memory for `num_nodes` nodes of width `dim`.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    pub fn new(num_nodes: usize, dim: usize) -> Self {
        assert!(dim > 0, "memory dim must be positive");
        NodeMemory {
            data: vec![0.0; num_nodes * dim],
            last_update: vec![0.0; num_nodes],
            dim,
        }
    }

    /// Borrow of one node's memory.
    ///
    /// # Panics
    ///
    /// Panics if the node is out of range.
    pub fn read(&self, node: NodeId) -> &[f32] {
        let i = node.index();
        &self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// Memory width.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Overwrites one node's memory and records the update time.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != dim` or the node is out of range.
    pub fn write(&mut self, node: NodeId, values: &[f32], time: f64) {
        assert_eq!(values.len(), self.dim, "memory write width mismatch");
        let i = node.index();
        self.data[i * self.dim..(i + 1) * self.dim].copy_from_slice(values);
        self.last_update[i] = time;
    }

    /// The node's last memory-update timestamp (0 before any update).
    pub fn last_update(&self, node: NodeId) -> f64 {
        self.last_update[node.index()]
    }

    /// Zeroes all memories and timestamps (epoch start).
    pub fn reset(&mut self) {
        self.data.fill(0.0);
        self.last_update.fill(0.0);
    }

    /// Bytes held by the memory matrix.
    pub fn size_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f32>()
            + self.last_update.len() * std::mem::size_of::<f64>()
    }
}

/// A bounded per-node queue of raw messages awaiting aggregation.
///
/// Capacity 1 realizes the `most_recent(num = 1)` aggregation of JODIE and
/// TGN; capacity 10 realizes APAN's asynchronous mailbox (Table 1).
#[derive(Clone, Debug)]
pub(crate) struct Mailbox {
    slots: Vec<Vec<Vec<f32>>>,
    capacity: usize,
    msg_dim: usize,
}

impl Mailbox {
    /// Creates an empty mailbox.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0` or `msg_dim == 0`.
    pub fn new(num_nodes: usize, capacity: usize, msg_dim: usize) -> Self {
        assert!(capacity > 0, "mailbox capacity must be positive");
        assert!(msg_dim > 0, "mailbox message dim must be positive");
        Mailbox {
            slots: vec![Vec::new(); num_nodes],
            capacity,
            msg_dim,
        }
    }

    /// Per-node capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Message width.
    pub fn msg_dim(&self) -> usize {
        self.msg_dim
    }

    /// Appends a message, evicting the oldest beyond capacity.
    ///
    /// # Panics
    ///
    /// Panics if `msg.len() != msg_dim`.
    pub fn push(&mut self, node: NodeId, msg: Vec<f32>) {
        assert_eq!(msg.len(), self.msg_dim, "mailbox message width mismatch");
        let q = &mut self.slots[node.index()];
        if q.len() >= self.capacity {
            q.remove(0);
        }
        q.push(msg);
    }

    /// The pending messages of a node, oldest first.
    pub fn messages(&self, node: NodeId) -> &[Vec<f32>] {
        &self.slots[node.index()]
    }

    /// `true` if the node has at least one pending message.
    pub fn has_messages(&self, node: NodeId) -> bool {
        !self.slots[node.index()].is_empty()
    }

    /// Drops the pending messages of one node (after consumption).
    pub fn clear_node(&mut self, node: NodeId) {
        self.slots[node.index()].clear();
    }

    /// Drops all messages (epoch start).
    pub fn reset(&mut self) {
        for q in &mut self.slots {
            q.clear();
        }
    }

    /// Approximate bytes held by pending messages.
    pub fn size_bytes(&self) -> usize {
        self.slots
            .iter()
            .map(|q| q.iter().map(|m| m.len() * 4).sum::<usize>())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_starts_zeroed() {
        let m = NodeMemory::new(3, 2);
        assert_eq!(m.read(NodeId(1)), &[0.0, 0.0]);
        assert_eq!(m.last_update(NodeId(1)), 0.0);
    }

    #[test]
    fn write_then_read() {
        let mut m = NodeMemory::new(3, 2);
        m.write(NodeId(2), &[5.0, 6.0], 9.0);
        assert_eq!(m.read(NodeId(2)), &[5.0, 6.0]);
        assert_eq!(m.last_update(NodeId(2)), 9.0);
        // Neighbors untouched.
        assert_eq!(m.read(NodeId(1)), &[0.0, 0.0]);
    }

    #[test]
    fn reset_clears() {
        let mut m = NodeMemory::new(2, 2);
        m.write(NodeId(0), &[1.0, 1.0], 5.0);
        m.reset();
        assert_eq!(m.read(NodeId(0)), &[0.0, 0.0]);
        assert_eq!(m.last_update(NodeId(0)), 0.0);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn write_rejects_bad_width() {
        NodeMemory::new(2, 3).write(NodeId(0), &[1.0], 0.0);
    }

    #[test]
    fn mailbox_evicts_oldest() {
        let mut mb = Mailbox::new(2, 2, 1);
        mb.push(NodeId(0), vec![1.0]);
        mb.push(NodeId(0), vec![2.0]);
        mb.push(NodeId(0), vec![3.0]);
        assert_eq!(mb.messages(NodeId(0)), &[vec![2.0], vec![3.0]]);
    }

    #[test]
    fn mailbox_capacity_one_keeps_latest() {
        let mut mb = Mailbox::new(1, 1, 2);
        mb.push(NodeId(0), vec![1.0, 1.0]);
        mb.push(NodeId(0), vec![2.0, 2.0]);
        assert_eq!(mb.messages(NodeId(0)), &[vec![2.0, 2.0]]);
    }

    #[test]
    fn mailbox_reset() {
        let mut mb = Mailbox::new(1, 4, 1);
        mb.push(NodeId(0), vec![1.0]);
        mb.reset();
        assert!(!mb.has_messages(NodeId(0)));
        assert_eq!(mb.size_bytes(), 0);
    }

    #[test]
    fn size_accounting() {
        let m = NodeMemory::new(10, 4);
        assert_eq!(m.size_bytes(), 10 * 4 * 4 + 10 * 8);
    }
}
