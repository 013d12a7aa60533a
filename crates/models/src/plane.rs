//! The memory plane: the one module that knows how a node's state is
//! stored, written, read and serialised.
//!
//! Every memory-based TGNN keeps, per node, a memory row with the time
//! of its last update ("node memory", §2.2), the raw messages pending
//! aggregation (Equations 2–3), and a temporal adjacency history
//! (DESIGN.md §12a). [`MemoryPlane`] holds all three by global node id,
//! and the steps of a batch ask it for what they need in their own
//! terms: gather rows, post a batch's messages, hand the updater its
//! mailed inputs, write a batch back, sample a hop. The message layout
//! `[s_self ‖ s_partner ‖ feat ‖ t]` and the body of the `NODE_STATE`
//! checkpoint section are known here and nowhere else.
//!
//! Node state lives outside the autograd graph: batches read rows into
//! leaf tensors and write detached results back — the
//! stop-gradient-at-batch-boundary semantics of TGN/TGL training. All
//! mutation goes through `&mut self` methods, so every state write has
//! one call site to audit.

use cascade_tensor::Tensor;
use cascade_tgraph::{AdjacencyStore, EdgeFeatures, Event, EventId, NodeId};
use cascade_util::bytes::{tag, ByteReader, ByteWriter};

use crate::checkpoint::CheckpointError;
use crate::config::{ModelConfig, Sampling, UpdaterKind};
use crate::model::{BatchPending, MemoryDelta};

/// A model's per-node state: memory rows with their last-update times,
/// pending mailbox messages, and the temporal adjacency store.
#[derive(Clone)]
pub struct MemoryPlane {
    /// Row-major `[num_nodes, dim]` memories.
    rows: Vec<f32>,
    /// Each node's last memory-update time (0 before any update).
    times: Vec<f64>,
    /// Each node's pending messages, oldest first, at most `capacity`;
    /// a message is `[s_self ‖ s_partner ‖ feat ‖ t]`.
    mail: Vec<Vec<Vec<f32>>>,
    adjacency: AdjacencyStore,
    /// Memory width.
    dim: usize,
    /// Edge-feature width.
    feat_dim: usize,
    /// Messages a node keeps: APAN's mailbox attention reads 10, the
    /// rest 1 (Table 1); a new message evicts the oldest beyond it.
    capacity: usize,
    sampling: Sampling,
}

/// The valid neighbour slots of one sampling hop, back to back: node
/// `i`'s are entries `offsets[i]..offsets[i + 1]`. Nodes with fewer than
/// `k` neighbours own fewer entries; nothing is padded.
pub(crate) struct Hop {
    /// The neighbours.
    pub(crate) nodes: Vec<NodeId>,
    /// Time of each connecting event.
    pub(crate) times: Vec<f64>,
    /// Id of each connecting event.
    pub(crate) events: Vec<EventId>,
    /// `nodes.len() + 1` ascending bounds.
    pub(crate) offsets: Vec<usize>,
}

/// A decoded `NODE_STATE` section, checked against the plane that will
/// install it.
pub(crate) struct NodeState {
    rows: Vec<f32>,
    times: Vec<f64>,
    mail: Vec<Vec<Vec<f32>>>,
}

impl MemoryPlane {
    /// Zeroed state for `num_nodes` nodes, shaped for a model with this
    /// configuration and `edge_feat_dim`-wide edge features.
    ///
    /// # Panics
    ///
    /// Panics if `num_nodes == 0` or the memory width is 0.
    pub(crate) fn new(
        config: &ModelConfig,
        num_nodes: usize,
        edge_feat_dim: usize,
        seed: u64,
    ) -> Self {
        assert!(num_nodes > 0, "a memory plane needs at least one node");
        assert!(config.memory_dim > 0, "memory dim must be positive");
        MemoryPlane {
            rows: vec![0.0; num_nodes * config.memory_dim],
            times: vec![0.0; num_nodes],
            mail: vec![Vec::new(); num_nodes],
            adjacency: AdjacencyStore::new(num_nodes).with_seed(seed ^ 0x0b),
            dim: config.memory_dim,
            feat_dim: edge_feat_dim,
            capacity: match config.updater {
                UpdaterKind::MailboxAttention => 10,
                _ => 1,
            },
            sampling: config.sampling,
        }
    }

    /// Nodes covered.
    pub(crate) fn num_nodes(&self) -> usize {
        self.times.len()
    }

    /// One node's memory row.
    pub fn memory_read(&self, node: NodeId) -> &[f32] {
        let i = node.index();
        &self.rows[i * self.dim..(i + 1) * self.dim]
    }

    /// The node's last memory-update timestamp (0 before any update).
    pub(crate) fn memory_last_update(&self, node: NodeId) -> f64 {
        self.times[node.index()]
    }

    /// The pending messages of a node, oldest first.
    #[cfg(test)]
    pub(crate) fn mailbox_messages(&self, node: NodeId) -> &[Vec<f32>] {
        &self.mail[node.index()]
    }

    /// `true` if the node has at least one pending message.
    pub fn mailbox_has_messages(&self, node: NodeId) -> bool {
        !self.mail[node.index()].is_empty()
    }

    /// Number of recorded adjacencies of `node`.
    pub fn adj_degree(&self, node: NodeId) -> usize {
        self.adjacency.degree(node)
    }

    /// Width of a message without its time column, `[s_self ‖ s_partner
    /// ‖ feat]`: what the updater reads besides the time encoding.
    pub(crate) fn payload_width(&self) -> usize {
        2 * self.dim + self.feat_dim
    }

    /// Gathers rows for `nodes` into a detached `[len, dim]` leaf tensor,
    /// in `nodes` order.
    pub(crate) fn gather(&self, nodes: &[NodeId]) -> Tensor {
        let mut out = Vec::with_capacity(nodes.len() * self.dim);
        for &n in nodes {
            out.extend_from_slice(self.memory_read(n));
        }
        Tensor::from_vec(out, [nodes.len(), self.dim])
    }

    /// Figure 1 step 2 plus adjacency registration: every event reads
    /// both endpoints' *current* memories, posts one message to each,
    /// and joins both endpoints' histories. `first_id` is the stream id
    /// of `events[0]`.
    ///
    /// # Panics
    ///
    /// Panics if a feature row is not `edge_feat_dim` wide or an
    /// endpoint is out of range.
    pub(crate) fn post(&mut self, events: &[Event], first_id: EventId, feats: &EdgeFeatures) {
        for (i, e) in events.iter().enumerate() {
            let feat = feats.row(first_id + i);
            let to_src = self.message(e.src, e.dst, feat, e.time);
            let to_dst = self.message(e.dst, e.src, feat, e.time);
            self.push(e.src, to_src);
            self.push(e.dst, to_dst);
        }
        self.register(events, first_id);
    }

    /// One message to `own`: `[s_own ‖ s_partner ‖ feat ‖ time]`.
    fn message(&self, own: NodeId, partner: NodeId, feat: &[f32], time: f64) -> Vec<f32> {
        let mut msg = Vec::with_capacity(self.payload_width() + 1);
        msg.extend_from_slice(self.memory_read(own));
        msg.extend_from_slice(self.memory_read(partner));
        msg.extend_from_slice(feat);
        msg.push(time as f32);
        msg
    }

    /// Appends a message, evicting the oldest beyond capacity.
    fn push(&mut self, node: NodeId, msg: Vec<f32>) {
        let width = self.payload_width() + 1;
        assert_eq!(msg.len(), width, "mailbox message width mismatch");
        let q = &mut self.mail[node.index()];
        if q.len() >= self.capacity {
            q.remove(0);
        }
        q.push(msg);
    }

    /// Registers events in both endpoints' histories without posting
    /// messages: the replay of an already-processed prefix. Insertion is
    /// a pure function of `(event, id)`, so a replay reproduces the store
    /// exactly.
    pub(crate) fn register(&mut self, events: &[Event], first_id: EventId) {
        for (i, e) in events.iter().enumerate() {
            self.adjacency.insert_event(e, first_id + i);
        }
    }

    /// The mean path's updater inputs for `nodes`, which all have mail:
    /// the `[M, 2d + f]` mean of their message payloads and the `[M, 1]`
    /// mean time since each node's last update.
    pub(crate) fn mean_mail(&self, nodes: &[NodeId]) -> (Tensor, Tensor) {
        let (m, w) = (nodes.len(), self.payload_width());
        let mut agg = vec![0.0f32; m * w];
        let mut dts = vec![0.0f32; m];
        for (i, &n) in nodes.iter().enumerate() {
            let msgs = &self.mail[n.index()];
            for msg in msgs {
                for (j, &v) in msg[..w].iter().enumerate() {
                    agg[i * w + j] += v / msgs.len() as f32;
                }
                let t_msg = msg[w] as f64;
                dts[i] += ((t_msg - self.times[n.index()]).max(0.0) / msgs.len() as f64) as f32;
            }
        }
        (Tensor::from_vec(agg, [m, w]), Tensor::from_vec(dts, [m, 1]))
    }

    /// APAN's updater inputs for `nodes`: `capacity` slots per node, a
    /// message payload in each filled one, as `[C·cap, 2d + f]` payloads,
    /// `[C·cap, 1]` times since the node's last update and a `[C, cap]`
    /// mask of the filled slots.
    pub(crate) fn slot_mail(&self, nodes: &[NodeId]) -> (Tensor, Tensor, Tensor) {
        let (c, cap, w) = (nodes.len(), self.capacity, self.payload_width());
        let mut raw = vec![0.0f32; c * cap * w];
        let mut dts = vec![0.0f32; c * cap];
        let mut mask = vec![0.0f32; c * cap];
        for (i, &n) in nodes.iter().enumerate() {
            for (j, msg) in self.mail[n.index()].iter().enumerate() {
                let row = i * cap + j;
                raw[row * w..(row + 1) * w].copy_from_slice(&msg[..w]);
                dts[row] = (msg[w] as f64 - self.times[n.index()]).max(0.0) as f32;
                mask[row] = 1.0;
            }
        }
        (
            Tensor::from_vec(raw, [c * cap, w]),
            Tensor::from_vec(dts, [c * cap, 1]),
            Tensor::from_vec(mask, [c, cap]),
        )
    }

    /// Figure 1 step 3: writes `pending`'s updated rows for the centers
    /// that had mail, dates each as of its newest consumed message, drops
    /// that mail, and returns one [`MemoryDelta`] per write.
    ///
    /// # Panics
    ///
    /// Panics if `pending`'s shape does not match the memory width.
    pub(crate) fn write_back(&mut self, pending: &BatchPending) -> Vec<MemoryDelta> {
        let (d, w) = (self.dim, self.payload_width());
        let (centers, has_msg, post) = (pending.centers(), pending.has_msg(), pending.post());
        assert_eq!(centers.len(), has_msg.len(), "pending shape mismatch");
        assert_eq!(post.len(), centers.len() * d, "pending width mismatch");
        let mut deltas = Vec::new();
        for (c, &node) in centers.iter().enumerate() {
            if !has_msg[c] {
                continue;
            }
            let i = node.index();
            let pre = self.memory_read(node).to_vec();
            let row = post[c * d..(c + 1) * d].to_vec();
            let mail = &mut self.mail[i];
            self.times[i] = mail
                .iter()
                .map(|m| m[w] as f64)
                .fold(self.times[i], f64::max);
            mail.clear();
            self.rows[i * d..(i + 1) * d].copy_from_slice(&row);
            deltas.push(MemoryDelta {
                node,
                pre,
                post: row,
            });
        }
        deltas
    }

    /// Samples each node's neighbours under the model's discipline and
    /// keeps only the slots the sampler filled.
    pub(crate) fn sample_hop(&self, nodes: &[NodeId]) -> Hop {
        let k = self.sampling.count();
        let mut hop = Hop {
            nodes: Vec::with_capacity(nodes.len() * k),
            times: Vec::with_capacity(nodes.len() * k),
            events: Vec::with_capacity(nodes.len() * k),
            offsets: Vec::with_capacity(nodes.len() + 1),
        };
        hop.offsets.push(0);
        for &n in nodes {
            let nbrs = match self.sampling {
                Sampling::MostRecent(k) => self.adjacency.most_recent(n, k),
                Sampling::Uniform(k) => self.adjacency.uniform(n, k),
            };
            for nb in &nbrs {
                hop.nodes.push(nb.node);
                hop.times.push(nb.time);
                hop.events.push(nb.event);
            }
            hop.offsets.push(hop.nodes.len());
        }
        hop
    }

    /// Zeroes memories, drops messages, clears adjacency (epoch start).
    pub(crate) fn reset(&mut self) {
        self.rows.fill(0.0);
        self.times.fill(0.0);
        for q in &mut self.mail {
            q.clear();
        }
        self.adjacency.clear();
    }

    /// Bytes held by the memory rows and their update times.
    pub fn memory_size_bytes(&self) -> usize {
        self.rows.len() * std::mem::size_of::<f32>() + self.times.len() * std::mem::size_of::<f64>()
    }

    /// Bytes held by pending mailbox messages.
    pub fn mailbox_size_bytes(&self) -> usize {
        let messages = self.mail.iter().flatten();
        messages.map(|m| m.len() * std::mem::size_of::<f32>()).sum()
    }

    /// Writes the `NODE_STATE` section: the node count, memory width,
    /// message width and mailbox capacity, then memory rows, last-update
    /// times and each node's counted messages, in global node-id order.
    /// Adjacency is not stored: it is replayed ([`Self::register`]).
    pub(crate) fn write_node_state(&self, w: &mut ByteWriter) {
        w.section(tag::NODE_STATE, |body| {
            body.usize(self.num_nodes());
            for width in [self.dim, self.payload_width() + 1, self.capacity] {
                body.u32(width as u32);
            }
            body.f32_array(&self.rows);
            for &t in &self.times {
                body.f64(t);
            }
            for msgs in &self.mail {
                body.u32(msgs.len() as u32);
                for msg in msgs {
                    body.f32_array(msg);
                }
            }
        });
    }

    /// The `NODE_STATE` section, if it is next, checked against this
    /// plane's shape.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::StateMismatch`] when the section's shape is not
    /// this plane's or a node declares more messages than its capacity,
    /// and [`CheckpointError::Decode`] when the bytes are malformed.
    pub(crate) fn read_node_state(
        &self,
        r: &mut ByteReader,
    ) -> Result<Option<NodeState>, CheckpointError> {
        let Some(mut body) = r.section(tag::NODE_STATE)? else {
            return Ok(None);
        };
        let found = [
            body.usize()?,
            body.u32()? as usize,
            body.u32()? as usize,
            body.u32()? as usize,
        ];
        let (nodes, dim, capacity) = (self.num_nodes(), self.dim, self.capacity);
        let msg_dim = self.payload_width() + 1;
        if found != [nodes, dim, msg_dim, capacity] {
            return Err(CheckpointError::StateMismatch(format!(
                "file holds {} nodes x {} memory, mailboxes of {} x {}; model expects {} x {}, {} x {}",
                found[0], found[1], found[3], found[2], nodes, dim, capacity, msg_dim
            )));
        }
        // The shape is the receiver's own from here on, so it bounds every
        // reservation below; the reads themselves are bounded by the input.
        let rows = body.f32_array(nodes * dim)?;
        let times = (0..nodes)
            .map(|_| body.f64())
            .collect::<Result<Vec<_>, _>>()?;
        let mut mail = Vec::with_capacity(nodes);
        for n in 0..nodes {
            let count = body.u32()? as usize;
            if count > capacity {
                return Err(CheckpointError::StateMismatch(format!(
                    "node {} declares {} messages (capacity {})",
                    n, count, capacity
                )));
            }
            let msgs = (0..count).map(|_| body.f32_array(msg_dim));
            mail.push(msgs.collect::<Result<Vec<_>, _>>()?);
        }
        body.finish()?;
        Ok(Some(NodeState { rows, times, mail }))
    }

    /// Installs a state [`read_node_state`](Self::read_node_state)
    /// decoded for this plane. Adjacency is left as it is.
    pub(crate) fn install(&mut self, state: NodeState) {
        self.rows = state.rows;
        self.times = state.times;
        self.mail = state.mail;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cascade_tgraph::synth_features;

    /// TGN at width 4 over 12 nodes and 3-wide features, after one batch
    /// of four events whose memories were then written back.
    fn seeded() -> MemoryPlane {
        let mut plane = MemoryPlane::new(&ModelConfig::tgn().with_dims(4, 2), 12, 3, 42);
        let events = [
            Event::new(0u32, 1u32, 1.0),
            Event::new(2u32, 5u32, 2.0),
            Event::new(0u32, 7u32, 3.0),
            Event::new(11u32, 1u32, 4.0),
        ];
        plane.post(&events, 0, &synth_features(4, 3, 5));
        let centers: Vec<NodeId> = [0u32, 1, 2, 5, 7, 11].map(NodeId).to_vec();
        let post = (0..centers.len() * 4).map(|v| v as f32).collect();
        plane.write_back(&BatchPending::from_parts(centers, vec![true; 6], post));
        plane
    }

    #[test]
    fn gather_copies_rows_in_request_order() {
        let plane = seeded();
        let picked = [NodeId(11), NodeId(0), NodeId(7)];
        let gathered = plane.gather(&picked);
        assert_eq!(gathered.dims(), &[3, 4]);
        assert!(!gathered.is_requires_grad(), "gathered rows are a leaf");
        let rows: Vec<f32> = picked
            .iter()
            .flat_map(|&n| plane.memory_read(n).to_vec())
            .collect();
        assert_eq!(rows, gathered.to_vec());
        assert_eq!(plane.memory_read(NodeId(0)), &[0.0, 1.0, 2.0, 3.0]);
        assert_eq!(plane.adj_degree(NodeId(1)), 2);
        let hop = plane.sample_hop(&[NodeId(1), NodeId(3)]);
        // TGN samples its one most recent neighbour.
        assert_eq!(
            (hop.nodes[0], &hop.offsets[..]),
            (NodeId(11), &[0, 1, 1][..])
        );
    }

    #[test]
    fn write_back_dates_rows_by_their_newest_message_and_drops_it() {
        let plane = seeded();
        // Node 0 held its t = 3 message (capacity 1), node 5 its t = 2.
        assert_eq!(plane.memory_last_update(NodeId(0)), 3.0);
        assert_eq!(plane.memory_last_update(NodeId(5)), 2.0);
        assert_eq!(plane.memory_last_update(NodeId(3)), 0.0);
        assert!((0..12).all(|n| !plane.mailbox_has_messages(NodeId(n))));
    }

    #[test]
    fn mail_keeps_the_newest_messages_up_to_capacity() {
        let apan = ModelConfig::apan().with_dims(4, 2);
        let mut plane = MemoryPlane::new(&apan, 3, 0, 1);
        let events: Vec<Event> = (0..12).map(|t| Event::new(0u32, 1u32, t as f64)).collect();
        plane.post(&events, 0, &EdgeFeatures::none());
        let times: Vec<f32> = plane
            .mailbox_messages(NodeId(1))
            .iter()
            .map(|m| m[8])
            .collect();
        assert_eq!(times, (2..12).map(|t| t as f32).collect::<Vec<_>>());
        let (raw, dts, mask) = plane.slot_mail(&[NodeId(2), NodeId(0)]);
        assert_eq!((raw.dims(), dts.dims()), (&[20, 8][..], &[20, 1][..]));
        assert_eq!(mask.to_vec().iter().sum::<f32>(), 10.0);
        let (agg, dts) = plane.mean_mail(&[NodeId(0)]);
        assert_eq!(agg.dims(), &[1, 8]);
        assert!((dts.item() - 6.5).abs() < 1e-5, "the mean of 2..=11");
    }

    #[test]
    fn reset_clears_every_store() {
        let mut plane = seeded();
        plane.post(&[Event::new(3u32, 4u32, 5.0)], 4, &synth_features(5, 3, 5));
        plane.reset();
        for n in 0..12u32 {
            let n = NodeId(n);
            assert_eq!(plane.memory_read(n), &[0.0; 4]);
            assert_eq!(plane.adj_degree(n), 0);
            assert!(!plane.mailbox_has_messages(n));
        }
        assert_eq!(plane.mailbox_size_bytes(), 0);
        assert_eq!(plane.memory_size_bytes(), 12 * 4 * 4 + 12 * 8);
    }

    #[test]
    fn geometry_follows_updater_kind() {
        let apan = MemoryPlane::new(&ModelConfig::apan().with_dims(4, 2), 5, 3, 1);
        assert_eq!(apan.capacity, 10);
        let plane = seeded();
        assert_eq!(plane.capacity, 1);
        assert_eq!(plane.payload_width() + 1, 2 * 4 + 3 + 1);
        assert_eq!((plane.num_nodes(), plane.dim), (12, 4));
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn a_feature_row_of_the_wrong_width_is_refused() {
        let mut plane = MemoryPlane::new(&ModelConfig::tgn().with_dims(4, 2), 2, 3, 1);
        plane.post(&[Event::new(0u32, 1u32, 1.0)], 0, &synth_features(1, 2, 5));
    }
}
