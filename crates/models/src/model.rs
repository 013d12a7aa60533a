//! The unified memory-based TGNN.
//!
//! [`MemoryTgnn`] implements the three training steps of Figure 1 for all
//! five Table 1 configurations:
//!
//! 1. **Node embedding & prediction** — pending mailbox messages are
//!    consumed through the memory updater (keeping it on the loss path,
//!    as in TGL/TGN), the embedder produces node representations, and the
//!    link predictor scores the batch's positive and negative edges.
//! 2. **Message generating** — each event emits raw messages
//!    `[s_src ‖ s_dst ‖ e_feat ‖ t]` into both endpoints' mailboxes.
//! 3. **Memory updating** — updated center memories are written back
//!    detached (stop-gradient at batch boundaries), yielding the
//!    pre/post pairs the SG-Filter inspects.

// cascade-lint: allow(det-hash-iter): imported only for the insert/lookup index maps below, which are never iterated.
use std::collections::HashMap;
use std::time::Duration;

use cascade_nn::{
    bce_with_logits, bce_with_logits_sum, EdgePredictor, GatLayer, GruCell, Linear, Module,
    RnnCell, TimeEncode,
};
use cascade_tensor::{scoped_chunks, ColBlock, Tensor};
use cascade_tgraph::{EdgeFeatures, Event, EventId, NegativeSampler, NodeId};

use crate::config::{EmbedderKind, ModelConfig, Sampling, UpdaterKind};
use crate::plane::MemoryPlane;

/// One node-memory transition produced by a batch (consumed by the
/// SG-Filter to decide stability).
#[derive(Clone, Debug)]
pub struct MemoryDelta {
    /// The updated node.
    pub node: NodeId,
    /// Memory before the update.
    pub pre: Vec<f32>,
    /// Memory after the update.
    pub post: Vec<f32>,
}

/// The result of processing one batch.
#[derive(Debug)]
pub struct BatchOutput {
    /// Scalar BCE loss over the batch's positive and negative edges.
    /// Call `backward()` and step the optimizer to train.
    pub loss: Tensor,
    /// Memory transitions applied by this batch.
    pub deltas: Vec<MemoryDelta>,
    /// Logits of the batch's true edges (one per event).
    pub pos_logits: Vec<f32>,
    /// Logits of the negative-sampled wrong edges (one per event).
    pub neg_logits: Vec<f32>,
}

/// The forward half of a batch (Figure 1 step 1): loss and logits, plus
/// the deferred state mutations [`MemoryTgnn::apply_batch`] completes.
///
/// Produced by [`MemoryTgnn::forward_batch`]; the embedded
/// [`BatchPending`] must be handed to `apply_batch` with the same events
/// before the next batch's forward pass, or memories and mailboxes fall
/// out of sync with the stream.
#[derive(Debug)]
pub struct BatchForward {
    /// Scalar BCE loss over the batch's positive and negative edges.
    pub loss: Tensor,
    /// Logits of the batch's true edges (one per event).
    pub pos_logits: Vec<f32>,
    /// Logits of the negative-sampled wrong edges (one per event).
    pub neg_logits: Vec<f32>,
    /// Wall-clock busy time of each compute shard's forward pass, in
    /// shard-index order (empty when the batch ran unsharded, e.g. in
    /// lite mode). Telemetry only — never fed back into computation.
    pub shard_busy: Vec<Duration>,
    /// The write-back ticket for [`MemoryTgnn::apply_batch`].
    pub pending: BatchPending,
}

/// Deferred memory write-backs computed by [`MemoryTgnn::forward_batch`]
/// or [`MemoryTgnn::pending_batch`] (Figure 1 steps 2–3), detached from
/// the autograd graph so it can cross pipeline-stage boundaries.
#[derive(Clone, Debug, PartialEq)]
pub struct BatchPending {
    /// Distinct batch endpoints, in first-appearance order.
    centers: Vec<NodeId>,
    /// Per-center: had pending mailbox messages (i.e. memory moved).
    has_msg: Vec<bool>,
    /// Row-major `[centers.len(), memory_dim]` updated memories.
    post: Vec<f32>,
}

impl BatchPending {
    /// Reassembles a ticket from its parts (the dist wire codec decodes
    /// tickets received from peer workers).
    ///
    /// # Panics
    ///
    /// Panics if `centers` and `has_msg` disagree in length or `post` is
    /// not a whole number of `centers.len()` rows.
    pub fn from_parts(centers: Vec<NodeId>, has_msg: Vec<bool>, post: Vec<f32>) -> Self {
        assert_eq!(centers.len(), has_msg.len(), "pending shape mismatch");
        assert!(
            centers.is_empty() || post.len().is_multiple_of(centers.len()),
            "pending width mismatch"
        );
        BatchPending {
            centers,
            has_msg,
            post,
        }
    }

    /// Distinct batch endpoints, in first-appearance order.
    pub fn centers(&self) -> &[NodeId] {
        &self.centers
    }

    /// Per-center had-pending-messages flags.
    pub fn has_msg(&self) -> &[bool] {
        &self.has_msg
    }

    /// Row-major `[centers.len(), memory_dim]` updated memories.
    pub fn post(&self) -> &[f32] {
        &self.post
    }
}

/// Most shards a batch is cut into for parallel batch compute.
const MAX_SHARDS: usize = 8;

/// Fewest events worth a shard of their own: every shard is a separate
/// autograd graph with its own backward pass, a fixed cost that a shard
/// of two or three events cannot repay — a ~22-event dependency-bound
/// batch is one graph, not eight. (64 is ~3 % faster still on such
/// batches but re-buckets the serve ingest thread's arena: +4 % peak
/// RSS on the benchmark's `serve_mixed`.)
const MIN_SHARD_EVENTS: usize = 32;

/// How many contiguous event ranges a batch of `b` events is split into.
///
/// **Invariant: a function of `b` only** — never of the worker-thread
/// count, the driver, or anything measured — so the loss graph, and
/// therefore every gradient bit, is identical at any thread count and
/// under every executor. Batches of 225 events or more (every preset-
/// sized and evaluation batch) get exactly [`MAX_SHARDS`].
fn shard_count(b: usize) -> usize {
    b.div_ceil(MIN_SHARD_EVENTS).min(MAX_SHARDS)
}

/// BCE targets for a `[pos… ‖ neg…]` logit column: `b` ones, then `b`
/// zeros, in one arena-backed buffer.
fn link_labels(b: usize) -> Tensor {
    let labels = Tensor::zeros([2 * b, 1]);
    labels.update_data(|l| l[..b].fill(1.0));
    labels
}

/// A batch after step 1a: its endpoints and their updated memories, on
/// the autograd graph until [`Consumed::detach`].
struct Consumed {
    /// Distinct batch endpoints, in first-appearance order.
    centers: Vec<NodeId>,
    /// Row of each center in `updated`.
    // cascade-lint: allow(det-hash-iter): lookup-only index map; ordered traversal runs over `centers`.
    center_idx: HashMap<NodeId, usize>,
    /// `[C, d]` memories after mailbox consumption.
    updated: Tensor,
    /// Per-center: had pending mailbox messages.
    has_msg: Vec<bool>,
}

impl Consumed {
    /// Updated memories leave the autograd graph here: `post` holds the
    /// detached rows `apply_batch` writes back (Figure 1 step 3).
    fn detach(self, memory_dim: usize) -> BatchPending {
        let post = self.updated.data()[..self.centers.len() * memory_dim].to_vec();
        BatchPending {
            centers: self.centers,
            has_msg: self.has_msg,
            post,
        }
    }
}

/// The valid neighbour slots of one sampling hop, back to back: node
/// `i`'s are entries `offsets[i]..offsets[i + 1]`. Nodes with fewer than
/// `k` neighbours own fewer entries; nothing is padded.
struct Hop {
    /// The neighbours.
    nodes: Vec<NodeId>,
    /// Time of each connecting event.
    times: Vec<f64>,
    /// Id of each connecting event.
    events: Vec<EventId>,
    /// `nodes.len() + 1` ascending bounds.
    offsets: Vec<usize>,
}

/// One shard's forward result, reduced on the driver in shard-index
/// order.
struct ShardForward {
    loss_sum: Tensor,
    pos: Vec<f32>,
    neg: Vec<f32>,
    busy: Duration,
}

#[derive(Clone)]
enum Updater {
    Rnn(RnnCell),
    Gru(GruCell),
    Attention {
        query: Linear,
        key: Linear,
        value: Linear,
        out: Linear,
    },
    Identity(Linear),
}

#[derive(Clone)]
enum Embedder {
    Jodie { decay: Tensor },
    Identity,
    Gat1(GatLayer),
    Gat2(GatLayer, GatLayer),
}

/// A memory-based temporal graph neural network (JODIE / TGN / APAN /
/// DySAT / TGAT depending on [`ModelConfig`]).
///
/// # Examples
///
/// ```
/// use cascade_models::{MemoryTgnn, ModelConfig};
/// use cascade_nn::Module;
/// use cascade_tgraph::{Event, EventStream, synth_features};
///
/// let cfg = ModelConfig::tgn().with_dims(8, 4);
/// let mut model = MemoryTgnn::new(cfg, 10, 4, 42);
/// let events = vec![Event::new(0u32, 1u32, 1.0), Event::new(2u32, 3u32, 2.0)];
/// let feats = synth_features(2, 4, 7);
/// let out = model.process_batch(&events, 0, &feats);
/// assert!(out.loss.item().is_finite());
/// ```
///
/// Cloning shares the *parameter* tensors (a [`Tensor`] clone is a
/// shallow handle onto the same storage, so both clones see the same
/// trained weights) while deep-copying the [`MemoryPlane`].
///
/// That split is what online serving needs: a second copy of the
/// evolving state, scored with the same weights. `cascade-serve` keeps
/// two and alternates them, cloning only when a reader still holds the
/// copy it would reuse. It also means a clone is **not** an
/// independent trainable model: stepping an optimizer on either clone
/// moves the weights of both. Use
/// [`export_state`](MemoryTgnn::export_state) /
/// [`import_state`](MemoryTgnn::import_state) into a freshly built model
/// for a fully detached copy.
#[derive(Clone)]
pub struct MemoryTgnn {
    config: ModelConfig,
    edge_feat_dim: usize,
    plane: MemoryPlane,
    time_enc: TimeEncode,
    updater: Updater,
    embedder: Embedder,
    predictor: EdgePredictor,
    neg_sampler: NegativeSampler,
}

impl MemoryTgnn {
    /// Builds a model for a graph of `num_nodes` nodes with
    /// `edge_feat_dim`-wide edge features.
    ///
    /// # Panics
    ///
    /// Panics if `num_nodes == 0`.
    pub fn new(config: ModelConfig, num_nodes: usize, edge_feat_dim: usize, seed: u64) -> Self {
        let plane = MemoryPlane::new(&config, num_nodes, edge_feat_dim, seed);
        let d = config.memory_dim;
        let td = config.time_dim;
        let f = edge_feat_dim;
        // Message after time encoding at consumption.
        let msg_in_dim = 2 * d + f + td;

        let updater = match config.updater {
            UpdaterKind::Rnn => Updater::Rnn(RnnCell::new(msg_in_dim, d, seed ^ 0x01)),
            UpdaterKind::Gru => Updater::Gru(GruCell::new(msg_in_dim, d, seed ^ 0x02)),
            UpdaterKind::MailboxAttention => Updater::Attention {
                query: Linear::new(d, d, seed ^ 0x03),
                key: Linear::new(msg_in_dim, d, seed ^ 0x04),
                value: Linear::new(msg_in_dim, d, seed ^ 0x05),
                out: Linear::new(2 * d, d, seed ^ 0x06),
            },
            UpdaterKind::Identity => Updater::Identity(Linear::new(msg_in_dim, d, seed ^ 0x07)),
        };

        let gat_in = d + f + td;
        let embedder = match config.embedder {
            EmbedderKind::JodieDecay => Embedder::Jodie {
                decay: Tensor::zeros([1, d]).requires_grad(),
            },
            EmbedderKind::Identity => Embedder::Identity,
            EmbedderKind::Gat1 => Embedder::Gat1(GatLayer::new(gat_in, d, seed ^ 0x08)),
            EmbedderKind::Gat2 => Embedder::Gat2(
                GatLayer::new(gat_in, d, seed ^ 0x09),
                GatLayer::new(gat_in, d, seed ^ 0x0a),
            ),
        };

        MemoryTgnn {
            edge_feat_dim,
            plane,
            time_enc: TimeEncode::new(td),
            updater,
            embedder,
            predictor: EdgePredictor::new(d, seed ^ 0x0c),
            neg_sampler: NegativeSampler::new(num_nodes, seed ^ 0x0d),
            config,
        }
    }

    /// Sets the calling thread's compute budget to `threads` for good:
    /// [`cascade_tensor::install_budget`] without the restore. The model
    /// holds no thread count; this stays only for the benchmark package's
    /// traced pass (`benchmark/src/train.rs`) until it installs a budget.
    #[doc(hidden)]
    pub fn set_compute_threads(&mut self, threads: usize) {
        std::mem::forget(cascade_tensor::install_budget(threads));
    }

    /// The model configuration.
    pub fn config(&self) -> &ModelConfig {
        &self.config
    }

    /// Model name (JODIE, TGN, …).
    pub fn name(&self) -> &'static str {
        self.config.name
    }

    /// Number of nodes covered.
    pub fn num_nodes(&self) -> usize {
        self.plane.num_nodes()
    }

    /// Edge-feature width this model was built for.
    pub fn edge_feat_dim(&self) -> usize {
        self.edge_feat_dim
    }

    /// The memory plane holding this model's node state.
    pub fn plane(&self) -> &MemoryPlane {
        &self.plane
    }

    /// Write access to the plane, for checkpoint restoration.
    pub(crate) fn plane_mut(&mut self) -> &mut MemoryPlane {
        &mut self.plane
    }

    /// Bytes held by the node-memory matrix.
    pub fn memory_size_bytes(&self) -> usize {
        self.plane.memory_size_bytes()
    }

    /// Bytes held by pending mailbox messages.
    pub fn mailbox_size_bytes(&self) -> usize {
        self.plane.mailbox_size_bytes()
    }

    /// Clears memory, mailboxes, and the temporal adjacency store
    /// (called at the start of every epoch).
    pub fn reset_state(&mut self) {
        self.plane.reset();
    }

    /// Re-registers an already-processed event prefix in the temporal
    /// adjacency store after [`import_state`](Self::import_state) (which,
    /// like `export_state`, lives with the format in `checkpoint.rs`).
    /// `first_id` is the stream id of `events[0]`; insertion is a pure
    /// function of `(event, id)`, so replaying reproduces the store
    /// exactly.
    pub fn replay_adjacency(&mut self, events: &[Event], first_id: EventId) {
        for (i, e) in events.iter().enumerate() {
            self.plane.adj_insert(e, first_id + i);
        }
    }

    /// Runs the full batch pipeline (predict → message → update) and
    /// returns the loss tensor plus the applied memory transitions.
    ///
    /// `first_id` is the stream index of `events[0]`, used to look up edge
    /// features and to register adjacency.
    ///
    /// Thin wrapper over [`forward_batch`](Self::forward_batch) followed
    /// by [`apply_batch`](Self::apply_batch) — callers with work between
    /// the two (the train step's optimizer, a dist round's all-reduce, a
    /// served ingest) invoke the halves directly.
    ///
    /// # Panics
    ///
    /// Panics if `events` is empty or any endpoint is out of range.
    pub fn process_batch(
        &mut self,
        events: &[Event],
        first_id: EventId,
        feats: &EdgeFeatures,
    ) -> BatchOutput {
        let fwd = self.forward_batch(events, first_id, feats);
        let deltas = self.apply_batch(events, first_id, feats, fwd.pending);
        BatchOutput {
            loss: fwd.loss,
            deltas,
            pos_logits: fwd.pos_logits,
            neg_logits: fwd.neg_logits,
        }
    }

    /// The forward half of [`process_batch`](Self::process_batch): message
    /// consumption, embedding, link prediction, and the loss (Figure 1
    /// step 1). Mutates nothing — samplers are stateless and memories,
    /// mailboxes, and adjacency are untouched until the returned ticket
    /// goes through [`apply_batch`](Self::apply_batch).
    ///
    /// Outside lite mode the batch's events are split into
    /// `ceil(batch_len / 32)` contiguous shards, at most 8, whose
    /// embedding, prediction, and partial loss are evaluated on up to the
    /// calling thread's [`compute_budget`](cascade_tensor::compute_budget)
    /// threads (the caller's and scoped workers, see [`scoped_chunks`]);
    /// the partial losses are reduced in fixed shard-index order, so the
    /// result is bit-identical at any thread count.
    ///
    /// # Panics
    ///
    /// Panics if `events` is empty or any endpoint is out of range.
    pub fn forward_batch(
        &self,
        events: &[Event],
        first_id: EventId,
        feats: &EdgeFeatures,
    ) -> BatchForward {
        assert!(!events.is_empty(), "process_batch on empty batch");
        let consumed = self.consume_batch(events);

        // ---- Step 1b: embed src/dst/neg and compute the loss. ----
        // Negative draws are keyed by global event id, so a shard's draws
        // depend only on which events it holds, never on evaluation order.
        let negs: Vec<NodeId> = events
            .iter()
            .enumerate()
            .map(|(i, e)| self.neg_sampler.sample(e.dst, (first_id + i) as u64))
            .collect();

        let updated = &consumed.updated;
        let center_idx = &consumed.center_idx;
        let (loss, pos_vec, neg_vec, shard_busy) = if self.config.lite {
            // Lite mode deduplicates embeddings across the whole batch, so
            // its events are not independent; it stays on the serial path.
            let (loss, p, n) = self.lite_forward(events, updated, center_idx, &negs, feats);
            (loss, p, n, Vec::new())
        } else {
            self.sharded_forward(events, updated, center_idx, &negs, feats)
        };

        BatchForward {
            loss,
            pos_logits: pos_vec,
            neg_logits: neg_vec,
            shard_busy,
            pending: consumed.detach(self.config.memory_dim),
        }
    }

    /// The state half of [`forward_batch`](Self::forward_batch) alone:
    /// the write-back ticket for [`apply_batch`](Self::apply_batch),
    /// without negatives, embeddings, a loss or the graph behind it — all
    /// a served ingest needs to carry memory forward (Figure 1 steps 2–3).
    ///
    /// Bit-identical to `forward_batch(events, ..).pending`: both run the
    /// same step 1a (gather the batch's endpoints, consume their
    /// mailboxes) and detach the same rows.
    ///
    /// # Panics
    ///
    /// Panics if `events` is empty or any endpoint is out of range.
    pub fn pending_batch(&self, events: &[Event]) -> BatchPending {
        assert!(!events.is_empty(), "pending_batch on empty batch");
        self.consume_batch(events).detach(self.config.memory_dim)
    }

    /// Step 1a of a batch: collects its distinct endpoints in
    /// first-appearance order, gathers their stored memories and consumes
    /// their pending mailbox messages through the updater.
    fn consume_batch(&self, events: &[Event]) -> Consumed {
        let mut centers: Vec<NodeId> = Vec::new();
        // cascade-lint: allow(det-hash-iter): insert/lookup only, never iterated — ordered traversal runs over `centers`, which records insertion order.
        let mut center_idx: HashMap<NodeId, usize> = HashMap::new();
        for e in events {
            for n in [e.src, e.dst] {
                center_idx.entry(n).or_insert_with(|| {
                    centers.push(n);
                    centers.len() - 1
                });
            }
        }
        let stored = self.plane.memory_gather(&centers); // [C, d] leaf
        let (updated, has_msg) = self.consume_mailboxes(&centers, &stored);
        Consumed {
            centers,
            center_idx,
            updated,
            has_msg,
        }
    }

    /// TGLite-style redundancy elimination: embed each distinct node once
    /// at the batch-end timestamp, then scatter back to the per-event
    /// slots. Batch-global by construction, hence unsharded.
    fn lite_forward(
        &self,
        events: &[Event],
        updated: &Tensor,
        // cascade-lint: allow(det-hash-iter): lookup-only index map; every traversal runs over slices in event order.
        center_idx: &HashMap<NodeId, usize>,
        negs: &[NodeId],
        feats: &EdgeFeatures,
    ) -> (Tensor, Vec<f32>, Vec<f32>) {
        let b = events.len();
        let d = self.config.memory_dim;
        let (all_nodes, _times) = Self::event_columns(events, negs);

        let t_end = events.last().expect("non-empty batch").time;
        let mut uniq: Vec<NodeId> = Vec::new();
        // cascade-lint: allow(det-hash-iter): insert/lookup only, never iterated — ordered traversal runs over `uniq`, which records insertion order.
        let mut uniq_idx: HashMap<NodeId, usize> = HashMap::new();
        for &n in &all_nodes {
            uniq_idx.entry(n).or_insert_with(|| {
                uniq.push(n);
                uniq.len() - 1
            });
        }
        // Base rows: updated memories for batch centers, stored memories
        // for everything else, in `uniq` order.
        let rows: Vec<Tensor> = uniq
            .iter()
            .map(|n| match center_idx.get(n) {
                Some(&c) => updated.index_select(&[c]),
                None => self.plane.memory_gather(std::slice::from_ref(n)),
            })
            .collect();
        let row_refs: Vec<&Tensor> = rows.iter().collect();
        let base_u = Tensor::concat_rows(&row_refs);
        let times_u = vec![t_end; uniq.len()];
        let h_u = self.embed(&uniq, &times_u, &base_u, feats);
        let scatter: Vec<usize> = all_nodes.iter().map(|n| uniq_idx[n]).collect();
        let h = h_u.index_select(&scatter);
        debug_assert_eq!(h.dims(), &[3 * b, d]);

        let h_src = h.slice_rows(0, b);
        let h_dst = h.slice_rows(b, 2 * b);
        let h_neg = h.slice_rows(2 * b, 3 * b);

        let pos_logits = self.predictor.forward(&h_src, &h_dst);
        let neg_logits = self.predictor.forward(&h_src, &h_neg);
        let pos_vec = pos_logits.to_vec();
        let neg_vec = neg_logits.to_vec();
        let logits = Tensor::concat_rows(&[&pos_logits, &neg_logits]);
        (bce_with_logits(&logits, &link_labels(b)), pos_vec, neg_vec)
    }

    /// Splits the batch into [`shard_count`] contiguous shards,
    /// evaluates each shard's forward pass through [`scoped_chunks`], and
    /// reduces the per-shard loss sums in
    /// shard-index order via [`Tensor::sharded_sum_scaled`].
    fn sharded_forward(
        &self,
        events: &[Event],
        updated: &Tensor,
        // cascade-lint: allow(det-hash-iter): lookup-only index map; every traversal runs over slices in event order.
        center_idx: &HashMap<NodeId, usize>,
        negs: &[NodeId],
        feats: &EdgeFeatures,
    ) -> (Tensor, Vec<f32>, Vec<f32>, Vec<Duration>) {
        let b = events.len();
        let shards = shard_count(b);
        // Balanced contiguous partition: shard s covers [bounds[s], bounds[s+1]).
        let bounds: Vec<usize> = (0..=shards).map(|s| s * b / shards).collect();
        let mut results: Vec<Option<ShardForward>> = (0..shards).map(|_| None).collect();
        scoped_chunks(&mut results, |first, part| {
            for (off, slot) in part.iter_mut().enumerate() {
                let s = first + off;
                *slot = Some(self.shard_forward(
                    &events[bounds[s]..bounds[s + 1]],
                    &negs[bounds[s]..bounds[s + 1]],
                    updated,
                    center_idx,
                    feats,
                ));
            }
        });

        // Reduce in fixed shard-index order regardless of which worker
        // finished first — this is what makes thread count invisible.
        let mut pos_vec = Vec::with_capacity(b);
        let mut neg_vec = Vec::with_capacity(b);
        let mut busy = Vec::with_capacity(shards);
        let mut losses = Vec::with_capacity(shards);
        for r in results {
            let r = r.expect("every shard slot is filled exactly once");
            pos_vec.extend(r.pos);
            neg_vec.extend(r.neg);
            busy.push(r.busy);
            losses.push(r.loss_sum);
        }
        // The batch mean: per-shard sums scaled by 1/(2B). `updated` is
        // shared by every shard, so it rides along as a reduction barrier
        // and its subgraph is walked serially after the sink merge.
        let loss = Tensor::sharded_sum_scaled(
            &losses,
            1.0 / (2 * b) as f32,
            std::slice::from_ref(updated),
        );
        (loss, pos_vec, neg_vec, busy)
    }

    /// One shard's forward pass: embed the shard's src/dst/neg nodes,
    /// score its edges, and sum (not average) its BCE terms. A pure
    /// function of the shard's events — safe to run on any worker thread.
    fn shard_forward(
        &self,
        events: &[Event],
        negs: &[NodeId],
        updated: &Tensor,
        // cascade-lint: allow(det-hash-iter): lookup-only index map; every traversal runs over slices in event order.
        center_idx: &HashMap<NodeId, usize>,
        feats: &EdgeFeatures,
    ) -> ShardForward {
        // cascade-lint: allow(det-wallclock): telemetry only — per-shard busy time fills instrument reports and never feeds computation.
        let start = std::time::Instant::now();
        let sb = events.len();
        let (all_nodes, times) = Self::event_columns(events, negs);

        // Base representations: src/dst rows come from the updated tensor
        // (gradients flow into the updater), negatives from stored memory.
        let sd_indices: Vec<usize> = all_nodes[..2 * sb].iter().map(|n| center_idx[n]).collect();
        let sd_base = updated.index_select(&sd_indices); // [2S, d]
        let neg_base = self.plane.memory_gather(&all_nodes[2 * sb..]); // [S, d] leaf
        let base = Tensor::concat_rows(&[&sd_base, &neg_base]); // [3S, d]
        let h = self.embed(&all_nodes, &times, &base, feats);
        debug_assert_eq!(h.dims(), &[3 * sb, self.config.memory_dim]);

        let h_src = h.slice_rows(0, sb);
        let h_dst = h.slice_rows(sb, 2 * sb);
        let h_neg = h.slice_rows(2 * sb, 3 * sb);

        let pos_logits = self.predictor.forward(&h_src, &h_dst);
        let neg_logits = self.predictor.forward(&h_src, &h_neg);
        let pos = pos_logits.to_vec();
        let neg = neg_logits.to_vec();
        let logits = Tensor::concat_rows(&[&pos_logits, &neg_logits]);
        let loss_sum = bce_with_logits_sum(&logits, &link_labels(sb));

        ShardForward {
            loss_sum,
            pos,
            neg,
            busy: start.elapsed(),
        }
    }

    /// The `[src… ‖ dst… ‖ neg…]` node and timestamp columns of a batch
    /// (or shard) — the layout every embedding pass consumes.
    fn event_columns(events: &[Event], negs: &[NodeId]) -> (Vec<NodeId>, Vec<f64>) {
        let b = events.len();
        let mut all_nodes: Vec<NodeId> = Vec::with_capacity(3 * b);
        let mut times: Vec<f64> = Vec::with_capacity(3 * b);
        for e in events {
            all_nodes.push(e.src);
            times.push(e.time);
        }
        for e in events {
            all_nodes.push(e.dst);
            times.push(e.time);
        }
        for (e, &n) in events.iter().zip(negs) {
            all_nodes.push(n);
            times.push(e.time);
        }
        (all_nodes, times)
    }

    /// The state half of [`process_batch`](Self::process_batch): writes
    /// back updated memories (Figure 1 step 3), drops consumed mailbox
    /// messages, generates this batch's messages (step 2), and registers
    /// the events in the temporal adjacency store.
    ///
    /// `events`, `first_id`, and `feats` must be exactly the arguments of
    /// the [`forward_batch`](Self::forward_batch) (or
    /// [`pending_batch`](Self::pending_batch)) call that produced
    /// `pending`, and no other forward pass may run in between. The ticket
    /// is a pure function of the state it was computed on, so it applies
    /// equally to any bit-identical copy of that state.
    ///
    /// # Panics
    ///
    /// Panics if `pending`'s shape does not match this model's memory
    /// width or any endpoint is out of range.
    pub fn apply_batch(
        &mut self,
        events: &[Event],
        first_id: EventId,
        feats: &EdgeFeatures,
        pending: BatchPending,
    ) -> Vec<MemoryDelta> {
        let deltas = self.apply_writeback(&pending);
        self.apply_messages(events, first_id, feats);
        deltas
    }

    /// The write-back half of [`apply_batch`](Self::apply_batch) (Figure 1
    /// step 3): writes updated center memories into the plane, drops
    /// their consumed mailbox messages, and returns one [`MemoryDelta`]
    /// per applied write.
    ///
    /// A dist replica calls this for every payload of a round, in worker
    /// order, before any payload's [`apply_messages`](Self::apply_messages).
    pub fn apply_writeback(&mut self, pending: &BatchPending) -> Vec<MemoryDelta> {
        let d = self.config.memory_dim;
        let centers = &pending.centers;
        let has_msg = &pending.has_msg;
        let post = &pending.post;
        assert_eq!(centers.len(), has_msg.len(), "pending shape mismatch");
        assert_eq!(post.len(), centers.len() * d, "pending width mismatch");

        // ---- Step 3: write back updated memories (detached). ----
        let mut deltas = Vec::new();
        for (c, &node) in centers.iter().enumerate() {
            if !has_msg[c] {
                continue;
            }
            let pre = self.plane.memory_read(node).to_vec();
            let row = post[c * d..(c + 1) * d].to_vec();
            // The node is now fresh as of its newest consumed message.
            let t = self.newest_message_time(node);
            self.plane.memory_write(node, &row, t);
            deltas.push(MemoryDelta {
                node,
                pre,
                post: row,
            });
        }
        // Consumed messages are dropped.
        for (c, &node) in centers.iter().enumerate() {
            if has_msg[c] {
                self.clear_mailbox(node);
            }
        }
        deltas
    }

    /// The message-generation half of [`apply_batch`](Self::apply_batch)
    /// (Figure 1 step 2 plus adjacency registration): every event reads
    /// both endpoints' *current* memories, pushes the raw messages, and
    /// registers the event in the temporal adjacency store. Message
    /// content reads memories, so in a dist round every payload's
    /// write-back lands first.
    pub fn apply_messages(&mut self, events: &[Event], first_id: EventId, feats: &EdgeFeatures) {
        let d = self.config.memory_dim;
        // ---- Step 2: generate messages from this batch's events. ----
        for (i, e) in events.iter().enumerate() {
            let feat = feats.row(first_id + i);
            let s_src = self.plane.memory_read(e.src);
            let s_dst = self.plane.memory_read(e.dst);
            let mut msg_src = Vec::with_capacity(2 * d + feat.len() + 1);
            msg_src.extend_from_slice(s_src);
            msg_src.extend_from_slice(s_dst);
            msg_src.extend_from_slice(feat);
            msg_src.push(e.time as f32);
            let mut msg_dst = Vec::with_capacity(2 * d + feat.len() + 1);
            msg_dst.extend_from_slice(s_dst);
            msg_dst.extend_from_slice(s_src);
            msg_dst.extend_from_slice(feat);
            msg_dst.push(e.time as f32);
            self.plane.mailbox_push(e.src, msg_src);
            self.plane.mailbox_push(e.dst, msg_dst);
        }

        // Register the batch in the temporal adjacency store so later
        // batches can sample these events as neighbors.
        for (i, e) in events.iter().enumerate() {
            self.plane.adj_insert(e, first_id + i);
        }
    }

    /// Scores candidate edges `(src, dst)` for each `dst` in `dsts` at
    /// `time`, using the current memories and temporal neighborhoods —
    /// the inference entry point for recommendation and link-prediction
    /// serving.
    ///
    /// Returns one logit per candidate (higher = more likely edge).
    ///
    /// # Panics
    ///
    /// Panics if `dsts` is empty or any node is out of range.
    pub fn score_links(
        &self,
        src: NodeId,
        dsts: &[NodeId],
        time: f64,
        feats: &EdgeFeatures,
    ) -> Vec<f32> {
        assert!(!dsts.is_empty(), "score_links needs at least one candidate");
        let mut nodes = Vec::with_capacity(dsts.len() + 1);
        nodes.push(src);
        nodes.extend_from_slice(dsts);
        let times = vec![time; nodes.len()];
        let base = self.plane.memory_gather(&nodes);
        let h = self.embed(&nodes, &times, &base, feats);
        let h_src = h.slice_rows(0, 1);
        let h_dst = h.slice_rows(1, nodes.len());
        let src_rep = h_src.index_select(&vec![0; dsts.len()]);
        self.predictor.forward(&src_rep, &h_dst).to_vec()
    }

    /// Embeds `nodes` at `time` from their current memories and temporal
    /// neighborhoods, returning a `[len, memory_dim]` tensor on the
    /// autograd graph — the representation downstream heads (node
    /// classifiers, recommenders) consume.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is empty or any node is out of range.
    pub fn embed_nodes(&self, nodes: &[NodeId], time: f64, feats: &EdgeFeatures) -> Tensor {
        assert!(!nodes.is_empty(), "embed_nodes on empty node list");
        let times = vec![time; nodes.len()];
        let base = self.plane.memory_gather(nodes);
        self.embed(nodes, &times, &base, feats)
    }

    /// Absolute time of the newest pending message of `node` (its update
    /// freshness after consumption).
    fn newest_message_time(&self, node: NodeId) -> f64 {
        self.plane
            .mailbox_messages(node)
            .iter()
            .map(|m| *m.last().expect("message has time column") as f64)
            .fold(self.plane.memory_last_update(node), f64::max)
    }

    fn clear_mailbox(&mut self, node: NodeId) {
        self.plane.mailbox_clear(node);
    }

    /// Aggregates the mailboxes of the centers that have mail and runs the
    /// memory updater on those rows only. Returns the `[C, d]`
    /// updated-memory tensor, which is `stored` with the updater's rows
    /// merged in by index, and a per-center had-pending-messages flag;
    /// centers without messages keep their stored memory and cost nothing.
    fn consume_mailboxes(&self, centers: &[NodeId], stored: &Tensor) -> (Tensor, Vec<bool>) {
        let d = self.config.memory_dim;
        let f = self.edge_feat_dim;
        let has_msg: Vec<bool> = centers
            .iter()
            .map(|&n| self.plane.mailbox_has_messages(n))
            .collect();
        let rows: Vec<usize> = (0..centers.len()).filter(|&i| has_msg[i]).collect();
        if rows.is_empty() {
            return (stored.clone(), has_msg);
        }
        let mailed: Vec<NodeId> = rows.iter().map(|&i| centers[i]).collect();
        let m = mailed.len();
        let h = self.plane.memory_gather(&mailed); // [M, d] leaf

        let upd = match &self.updater {
            Updater::Attention {
                query,
                key,
                value,
                out,
            } => self.attention_update(&mailed, &h, query, key, value, out),
            _ => {
                // Mean-aggregate raw messages, then encode time.
                let mut agg = vec![0.0f32; m * (2 * d + f)];
                let mut dts = vec![0.0f32; m];
                for (i, &n) in mailed.iter().enumerate() {
                    let msgs = self.plane.mailbox_messages(n);
                    for msg in msgs {
                        for (j, &v) in msg[..2 * d + f].iter().enumerate() {
                            agg[i * (2 * d + f) + j] += v / msgs.len() as f32;
                        }
                        let t_msg = *msg
                            .last()
                            .expect("mailbox rows end with the event time column")
                            as f64;
                        dts[i] += ((t_msg - self.plane.memory_last_update(n)).max(0.0)
                            / msgs.len() as f64) as f32;
                    }
                }
                let agg = Tensor::from_vec(agg, [m, 2 * d + f]);
                let dts = Tensor::from_vec(dts, [m, 1]);
                let phi = self.time_enc.forward(&dts);
                // `[agg | φ]`, never concatenated: `agg` wants no gradient.
                let input = [ColBlock::Dense(agg), ColBlock::Dense(phi)];
                match &self.updater {
                    Updater::Rnn(cell) => cell.forward_cols(&input, &h),
                    Updater::Gru(cell) => cell.forward_cols(&input, &h),
                    Updater::Identity(proj) => proj.forward_cols(&input).tanh(),
                    // cascade-lint: allow(panic-macro): the enclosing match routed Attention to attention_update above; this arm cannot be reached from the `_` branch.
                    Updater::Attention { .. } => unreachable!(),
                }
            }
        };
        (stored.merge_rows(&rows, &upd), has_msg)
    }

    /// APAN-style single-head attention over the mailbox: the stored
    /// memory queries its pending messages.
    fn attention_update(
        &self,
        centers: &[NodeId],
        stored: &Tensor,
        query: &Linear,
        key: &Linear,
        value: &Linear,
        out: &Linear,
    ) -> Tensor {
        let c = centers.len();
        let d = self.config.memory_dim;
        let f = self.edge_feat_dim;
        let cap = self.plane.mailbox_capacity();
        let raw_w = 2 * d + f;

        let mut raw = vec![0.0f32; c * cap * raw_w];
        let mut dts = vec![0.0f32; c * cap];
        let mut mask = vec![0.0f32; c * cap];
        for (i, &n) in centers.iter().enumerate() {
            for (j, m) in self.plane.mailbox_messages(n).iter().enumerate().take(cap) {
                let row = i * cap + j;
                raw[row * raw_w..(row + 1) * raw_w].copy_from_slice(&m[..raw_w]);
                let t_msg = *m
                    .last()
                    .expect("mailbox rows end with the event time column")
                    as f64;
                dts[row] = (t_msg - self.plane.memory_last_update(n)).max(0.0) as f32;
                mask[row] = 1.0;
            }
        }
        let raw = Tensor::from_vec(raw, [c * cap, raw_w]);
        let phi = self.time_enc.forward(&Tensor::from_vec(dts, [c * cap, 1]));
        let msgs = [ColBlock::Dense(raw), ColBlock::Dense(phi)]; // [C*cap, msg_in]

        let q = query.forward(stored); // [C, d]
        let k = key.forward_cols(&msgs); // [C*cap, d]
        let v = value.forward_cols(&msgs); // [C*cap, d]

        // Row-wise grouped dot product q_i · k_{i,j}.
        let rep: Vec<usize> = (0..c).flat_map(|i| std::iter::repeat_n(i, cap)).collect();
        let q_exp = q.index_select(&rep); // [C*cap, d]
        let scores = q_exp
            .mul(&k)
            .sum_axis(1)
            .mul_scalar(1.0 / (d as f32).sqrt())
            .reshape([c, cap]);
        let mask_t = Tensor::from_vec(mask, [c, cap]);
        let neg_inf = mask_t.sub_scalar(1.0).mul_scalar(1e9);
        let alpha = scores.mul(&mask_t).add(&neg_inf).softmax(); // [C, cap]

        let attended = v
            .mul(&alpha.reshape([c * cap, 1]))
            .reshape([c, cap, d])
            .sum_axis(1); // [C, d]
        out.forward_cols(&[ColBlock::from(stored), ColBlock::Dense(attended)])
            .tanh()
    }

    /// Applies the configured embedder to `base` representations of
    /// `nodes` evaluated at `times`.
    fn embed(
        &self,
        nodes: &[NodeId],
        times: &[f64],
        base: &Tensor,
        feats: &EdgeFeatures,
    ) -> Tensor {
        match &self.embedder {
            Embedder::Identity => base.clone(),
            Embedder::Jodie { decay } => {
                let dts: Vec<f32> = nodes
                    .iter()
                    .zip(times)
                    .map(|(&n, &t)| {
                        ((t - self.plane.memory_last_update(n)).max(0.0) as f32).ln_1p()
                    })
                    .collect();
                let dts = Tensor::from_vec(dts, [nodes.len(), 1]);
                // h = s ⊙ (1 + w · log(1 + Δt))
                let scale = dts.matmul(decay).add_scalar(1.0);
                base.mul(&scale)
            }
            Embedder::Gat1(gat) => {
                let k = self.config.sampling.count();
                let (n_in, offsets) = self.neighbor_inputs(nodes, times, k, feats);
                let c_in = self.center_inputs(base);
                gat.forward_ragged(&c_in, &n_in, &offsets)
            }
            Embedder::Gat2(l1, l2) => {
                let k = self.config.sampling.count();
                // Hop 1: the centers' valid neighbour slots; padded slots
                // never reach layer 1.
                let hop1 = self.sample_hop(nodes, k);
                // Hop 2: neighbors of the hop-1 nodes.
                let (n2_in, offsets2) = self.neighbor_inputs(&hop1.nodes, &hop1.times, k, feats);
                // Layer 1 on hop-1 nodes (their own memories as base).
                let hop1_base = self.plane.memory_gather(&hop1.nodes);
                let hop1_center_in = self.center_inputs(&hop1_base);
                let emb1 = l1.forward_ragged(&hop1_center_in, &n2_in, &offsets2);
                // Layer 1 on the centers themselves.
                let n1_in = self.assemble_rows(&hop1_base, &hop1, times, feats);
                let c_in = self.center_inputs(base);
                let emb0 = l1.forward_ragged(&c_in, &n1_in, &hop1.offsets);
                // Layer 2: centers = emb0, neighbors = emb1 with hop-1
                // edge features and time deltas.
                let n1_emb_in = self.assemble_rows(&emb1, &hop1, times, feats);
                let c2_in = self.center_inputs(&emb0);
                l2.forward_ragged(&c2_in, &n1_emb_in, &hop1.offsets)
            }
        }
    }

    /// Samples up to `k` neighbours of each node and keeps only the slots
    /// the sampler filled: node `i`'s neighbours are entries
    /// `offsets[i]..offsets[i + 1]` of the returned [`Hop`].
    fn sample_hop(&self, nodes: &[NodeId], k: usize) -> Hop {
        let mut hop = Hop {
            nodes: Vec::with_capacity(nodes.len() * k),
            times: Vec::with_capacity(nodes.len() * k),
            events: Vec::with_capacity(nodes.len() * k),
            offsets: Vec::with_capacity(nodes.len() + 1),
        };
        hop.offsets.push(0);
        for &n in nodes {
            let nbrs = match self.config.sampling {
                Sampling::MostRecent(_) => self.plane.adj_most_recent(n, k),
                Sampling::Uniform(_) => self.plane.adj_uniform(n, k),
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

    /// Builds the `[V, d + f + time]` rows of the valid neighbours of
    /// `nodes` by sampling, as column blocks, with their per-node offsets.
    fn neighbor_inputs(
        &self,
        nodes: &[NodeId],
        times: &[f64],
        k: usize,
        feats: &EdgeFeatures,
    ) -> (Vec<ColBlock>, Vec<usize>) {
        let hop = self.sample_hop(nodes, k);
        let mem = self.plane.memory_gather(&hop.nodes);
        let rows = self.assemble_rows(&mem, &hop, times, feats);
        (rows, hop.offsets)
    }

    /// Assembles neighbor rows `[base ‖ e_feat ‖ φ(Δt)]` for the sampled
    /// neighbours of `hop`, as column blocks for the projection; `base`
    /// is either raw memories (layer 1) or lower-layer embeddings (layer 2
    /// of TGAT), one row per neighbour.
    fn assemble_rows(
        &self,
        base: &Tensor,
        hop: &Hop,
        center_times: &[f64],
        feats: &EdgeFeatures,
    ) -> Vec<ColBlock> {
        let rows = hop.times.len();
        let f = self.edge_feat_dim;
        debug_assert_eq!(hop.offsets.len(), center_times.len() + 1);

        let mut dts = Vec::with_capacity(rows);
        for (c, &center_t) in center_times.iter().enumerate() {
            for &t_nb in &hop.times[hop.offsets[c]..hop.offsets[c + 1]] {
                dts.push((center_t - t_nb).max(0.0) as f32);
            }
        }
        let phi = self.time_enc.forward(&Tensor::from_vec(dts, [rows, 1]));

        if f > 0 {
            let mut feat = Vec::with_capacity(rows * f);
            for &id in &hop.events {
                feat.extend_from_slice(feats.row(id));
            }
            let feat = Tensor::from_vec(feat, [rows, f]);
            vec![base.into(), ColBlock::Dense(feat), ColBlock::Dense(phi)]
        } else {
            vec![base.into(), ColBlock::Dense(phi)]
        }
    }

    /// Builds `[n, d + f + time]` center rows as column blocks: base, zero
    /// features (never materialised) and the encoding of a zero time
    /// delta.
    fn center_inputs(&self, base: &Tensor) -> Vec<ColBlock> {
        let n = base.dims()[0];
        let phi = self.time_enc.forward(&Tensor::zeros([n, 1]));
        vec![
            base.into(),
            ColBlock::Zeros(self.edge_feat_dim),
            ColBlock::Dense(phi),
        ]
    }
}

impl Module for MemoryTgnn {
    fn parameters(&self) -> Vec<Tensor> {
        let mut ps = self.time_enc.parameters();
        match &self.updater {
            Updater::Rnn(c) => ps.extend(c.parameters()),
            Updater::Gru(c) => ps.extend(c.parameters()),
            Updater::Attention {
                query,
                key,
                value,
                out,
            } => {
                ps.extend(query.parameters());
                ps.extend(key.parameters());
                ps.extend(value.parameters());
                ps.extend(out.parameters());
            }
            Updater::Identity(l) => ps.extend(l.parameters()),
        }
        match &self.embedder {
            Embedder::Jodie { decay } => ps.push(decay.clone()),
            Embedder::Identity => {}
            Embedder::Gat1(g) => ps.extend(g.parameters()),
            Embedder::Gat2(a, b) => {
                ps.extend(a.parameters());
                ps.extend(b.parameters());
            }
        }
        ps.extend(self.predictor.parameters());
        ps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cascade_tgraph::synth_features;

    fn toy_events() -> Vec<Event> {
        vec![
            Event::new(0u32, 1u32, 1.0),
            Event::new(2u32, 3u32, 2.0),
            Event::new(0u32, 2u32, 3.0),
        ]
    }

    fn run_one(cfg: ModelConfig) -> BatchOutput {
        let mut model = MemoryTgnn::new(cfg.with_dims(8, 4), 6, 4, 1);
        let feats = synth_features(3, 4, 2);
        model.process_batch(&toy_events(), 0, &feats)
    }

    #[test]
    fn shard_count_is_one_per_32_events_capped_at_8() {
        for b in 1..=32 {
            assert_eq!(shard_count(b), 1, "{b} events");
        }
        let table = [(33, 2), (64, 2), (65, 3), (224, 7)];
        for (b, shards) in table {
            assert_eq!(shard_count(b), shards, "{b} events");
        }
        for b in [225, 256, 512, 10_000] {
            assert_eq!(shard_count(b), MAX_SHARDS, "{b} events");
        }
    }

    #[test]
    fn all_models_produce_finite_loss() {
        for cfg in ModelConfig::all() {
            let out = run_one(cfg.clone());
            assert!(out.loss.item().is_finite(), "{} loss not finite", cfg.name);
        }
    }

    #[test]
    fn first_batch_has_no_deltas() {
        // No pending messages before the first batch, so no memory updates.
        let out = run_one(ModelConfig::tgn());
        assert!(out.deltas.is_empty());
    }

    #[test]
    fn second_batch_updates_memories() {
        let mut model = MemoryTgnn::new(ModelConfig::tgn().with_dims(8, 4), 6, 4, 1);
        let feats = synth_features(6, 4, 2);
        model.process_batch(&toy_events(), 0, &feats);
        let out = model.process_batch(&toy_events(), 3, &feats);
        assert!(!out.deltas.is_empty());
        for dta in &out.deltas {
            assert_ne!(dta.pre, dta.post, "memory must move on update");
            assert_eq!(model.plane().memory_read(dta.node), &dta.post[..]);
        }
    }

    #[test]
    fn state_roundtrip_is_bit_exact() {
        let mut model = MemoryTgnn::new(ModelConfig::tgn().with_dims(8, 4), 6, 4, 1);
        let feats = synth_features(9, 4, 2);
        model.process_batch(&toy_events(), 0, &feats);
        model.process_batch(&toy_events(), 3, &feats);
        let blob = model.export_state();

        // Same constructor seed: the negative sampler's key is
        // configuration, not serialized state.
        let mut restored = MemoryTgnn::new(ModelConfig::tgn().with_dims(8, 4), 6, 4, 1);
        restored.import_state(&blob).expect("state roundtrips");
        restored.replay_adjacency(&toy_events(), 0);
        restored.replay_adjacency(&toy_events(), 3);
        assert_eq!(restored.export_state(), blob);
        for n in 0..6u32 {
            assert_eq!(
                restored.plane().memory_read(NodeId(n)),
                model.plane().memory_read(NodeId(n))
            );
            assert_eq!(
                restored.plane().adj_degree(NodeId(n)),
                model.plane().adj_degree(NodeId(n))
            );
        }
        // Both models continue identically from the restored state.
        let a = model.process_batch(&toy_events(), 6, &feats);
        let b = restored.process_batch(&toy_events(), 6, &feats);
        assert_eq!(a.loss.item().to_bits(), b.loss.item().to_bits());
    }

    #[test]
    fn import_rejects_mismatched_shapes() {
        let model = MemoryTgnn::new(ModelConfig::tgn().with_dims(8, 4), 6, 4, 1);
        let mut other = MemoryTgnn::new(ModelConfig::tgn().with_dims(16, 4), 6, 4, 1);
        assert!(other.import_state(&model.export_state()).is_err());
        assert!(other.import_state(&[1, 0, 0]).is_err());
    }

    #[test]
    fn gradients_reach_parameters_after_updates() {
        let mut model = MemoryTgnn::new(ModelConfig::tgn().with_dims(8, 4), 6, 4, 1);
        let feats = synth_features(6, 4, 2);
        model.process_batch(&toy_events(), 0, &feats);
        let out = model.process_batch(&toy_events(), 3, &feats);
        out.loss.backward();
        let with_grad = model
            .parameters()
            .iter()
            .filter(|p| p.grad().is_some())
            .count();
        assert!(with_grad > 0, "no parameter received a gradient");
    }

    #[test]
    fn reset_state_clears_everything() {
        let mut model = MemoryTgnn::new(ModelConfig::tgn().with_dims(8, 4), 6, 4, 1);
        let feats = synth_features(3, 4, 2);
        model.process_batch(&toy_events(), 0, &feats);
        model.reset_state();
        assert_eq!(model.plane().memory_read(NodeId(0)), &[0.0; 8]);
        assert_eq!(model.mailbox_size_bytes(), 0);
    }

    #[test]
    fn training_reduces_loss() {
        use cascade_nn::Adam;
        let mut model = MemoryTgnn::new(ModelConfig::tgn().with_dims(8, 4), 6, 4, 1);
        let mut opt = Adam::new(model.parameters(), 1e-2);
        let feats = synth_features(30, 4, 2);
        let events = toy_events();
        let mut first = None;
        let mut last = 0.0;
        for epoch in 0..20 {
            model.reset_state();
            let out = model.process_batch(&events, 0, &feats);
            out.loss.backward();
            opt.step();
            let l = out.loss.item();
            if epoch == 0 {
                first = Some(l);
            }
            last = l;
        }
        assert!(
            last < first.unwrap(),
            "loss did not decrease: {} -> {}",
            first.unwrap(),
            last
        );
    }

    #[test]
    fn lite_mode_trains_like_full_mode() {
        for base_cfg in [
            ModelConfig::tgn(),
            ModelConfig::jodie(),
            ModelConfig::apan(),
        ] {
            let cfg = base_cfg.with_dims(8, 4).with_lite();
            let mut model = MemoryTgnn::new(cfg, 6, 4, 1);
            let feats = synth_features(6, 4, 2);
            let out = model.process_batch(&toy_events(), 0, &feats);
            assert!(out.loss.item().is_finite());
            out.loss.backward();
            let second = model.process_batch(&toy_events(), 3, &feats);
            assert!(!second.deltas.is_empty());
        }
    }

    #[test]
    fn split_halves_equal_combined_step() {
        // forward_batch + apply_batch must be bit-identical to
        // process_batch: same losses, same deltas, same memory state.
        let feats = synth_features(6, 4, 2);
        let mut combined = MemoryTgnn::new(ModelConfig::tgn().with_dims(8, 4), 6, 4, 1);
        let mut split = MemoryTgnn::new(ModelConfig::tgn().with_dims(8, 4), 6, 4, 1);
        for first_id in [0usize, 3] {
            let events = toy_events();
            let out = combined.process_batch(&events, first_id, &feats);
            let fwd = split.forward_batch(&events, first_id, &feats);
            let deltas = split.apply_batch(&events, first_id, &feats, fwd.pending);
            assert_eq!(out.loss.item(), fwd.loss.item());
            assert_eq!(out.pos_logits, fwd.pos_logits);
            assert_eq!(out.neg_logits, fwd.neg_logits);
            assert_eq!(out.deltas.len(), deltas.len());
            for (a, b) in out.deltas.iter().zip(&deltas) {
                assert_eq!(a.node, b.node);
                assert_eq!(a.pre, b.pre);
                assert_eq!(a.post, b.post);
            }
        }
        for n in 0..6u32 {
            assert_eq!(
                combined.plane().memory_read(NodeId(n)),
                split.plane().memory_read(NodeId(n))
            );
        }
    }

    #[test]
    fn clone_detaches_node_state() {
        let mut model = MemoryTgnn::new(ModelConfig::tgn().with_dims(8, 4), 6, 4, 1);
        let feats = synth_features(3, 4, 2);
        model.process_batch(&toy_events(), 0, &feats);
        let copy = model.clone();
        let frozen = copy.export_state();
        model.plane_mut().memory_write(NodeId(3), &[9.0; 8], 9.0);
        model.plane_mut().mailbox_clear(NodeId(0));
        model
            .plane_mut()
            .adj_insert(&Event::new(3u32, 5u32, 4.0), 3);
        assert_eq!(copy.plane().memory_read(NodeId(3)), &[0.0; 8]);
        assert!(copy.plane().mailbox_has_messages(NodeId(0)));
        assert_eq!(copy.plane().adj_degree(NodeId(5)), 0);
        assert_eq!(copy.export_state(), frozen);
        model.reset_state();
        assert_eq!(copy.export_state(), frozen, "a reset stays on its side");
    }

    #[test]
    #[should_panic(expected = "empty batch")]
    fn rejects_empty_batch() {
        let mut model = MemoryTgnn::new(ModelConfig::tgn().with_dims(8, 4), 6, 4, 1);
        let feats = synth_features(0, 4, 2);
        let _ = model.process_batch(&[], 0, &feats);
    }
}

#[cfg(test)]
mod temporal_leakage_tests {
    use super::*;
    use cascade_tgraph::synth_features;

    /// The sampler must never expose an event to the batch that contains
    /// it (or to any earlier batch): adjacency grows only after
    /// processing.
    #[test]
    fn adjacency_history_lags_processing() {
        let mut model = MemoryTgnn::new(ModelConfig::tgn().with_dims(8, 4), 8, 4, 1);
        let feats = synth_features(6, 4, 2);
        let batch1 = vec![Event::new(0u32, 1u32, 1.0), Event::new(2u32, 3u32, 2.0)];
        let batch2 = vec![Event::new(0u32, 4u32, 3.0), Event::new(5u32, 1u32, 4.0)];

        assert_eq!(model.plane().adj_degree(NodeId(0)), 0);
        model.process_batch(&batch1, 0, &feats);
        // Only batch-1 events visible now.
        assert_eq!(model.plane().adj_degree(NodeId(0)), 1);
        assert_eq!(model.plane().adj_degree(NodeId(4)), 0);
        model.process_batch(&batch2, 2, &feats);
        assert_eq!(model.plane().adj_degree(NodeId(0)), 2);
        assert_eq!(model.plane().adj_degree(NodeId(4)), 1);
    }

    /// First-batch embeddings cannot depend on first-batch edges: two
    /// streams differing only in their first batch's connectivity must
    /// produce identical first-batch base representations for a
    /// memory-identical node set (no future leakage through sampling).
    #[test]
    fn first_batch_sampling_sees_empty_history() {
        let feats = synth_features(4, 4, 2);
        let mk = || MemoryTgnn::new(ModelConfig::tgn().with_dims(8, 4), 8, 4, 1);

        // Different destination wirings within the first batch.
        let a = vec![Event::new(0u32, 1u32, 1.0), Event::new(2u32, 3u32, 2.0)];
        let b = vec![Event::new(0u32, 3u32, 1.0), Event::new(2u32, 1u32, 2.0)];

        let mut ma = mk();
        let mut mb = mk();
        let la = ma.process_batch(&a, 0, &feats).loss.item();
        let lb = mb.process_batch(&b, 0, &feats).loss.item();
        // All memories are zero and no history exists, so both batches
        // score structurally identical inputs: identical losses.
        assert_eq!(la, lb);
    }

    #[test]
    fn reset_clears_history() {
        let mut model = MemoryTgnn::new(ModelConfig::tgn().with_dims(8, 4), 8, 4, 1);
        let feats = synth_features(2, 4, 2);
        model.process_batch(&[Event::new(0u32, 1u32, 1.0)], 0, &feats);
        assert_eq!(model.plane().adj_degree(NodeId(0)), 1);
        model.reset_state();
        assert_eq!(model.plane().adj_degree(NodeId(0)), 0);
    }
}
