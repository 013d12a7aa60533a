//! The model half of the determinism contract (DESIGN §12c) as one table
//! of batch rows.
//!
//! A case is a model and a stream cut into batches; every batch but the
//! last warms the model up (so the measured one consumes mailboxes). Each
//! column computes the measured batch its own way and reduces it to a
//! [`BatchPrint`]; every column must equal column 0, bit for bit:
//!
//! - threads {1, 2, 4} × arena {off, on}. The shard layout follows the
//!   batch length alone, so thread count only picks who evaluates which
//!   shard; every buffer the arena hands out is overwritten before use,
//!   so recycling is invisible. Column 0 is one thread, arena off.
//! - `pending_batch` at every batch, against `forward_batch(..).pending`:
//!   the state-only advance is the forward pass's state half.

use cascade_models::{BatchPending, MemoryTgnn, ModelConfig};
use cascade_nn::{clip_grad_norm, Adam, Module};
use cascade_tensor::{arena, GRU_MIN_ROWS_PER_WORKER};
use std::collections::BTreeSet;

use cascade_tgraph::{synth_features, Event, NodeId};
use cascade_util::{check, Gen};

const FEAT_DIM: usize = 4;

/// A model config, a stream over `nodes` nodes, and the end of every
/// batch; the last batch is the measured one.
struct Case {
    cfg: ModelConfig,
    nodes: usize,
    events: Vec<Event>,
    ends: Vec<usize>,
}

/// What a column computed on the measured batch. `None` where the column
/// computes no such thing; it is not compared.
#[derive(Debug, PartialEq)]
struct BatchPrint {
    loss: Option<u32>,
    /// Positive then negative logits.
    logits: Option<Vec<u32>>,
    /// Per parameter, its gradient if it holds one.
    grads: Option<Vec<Option<Vec<u32>>>>,
    /// Every parameter after clip and one Adam step.
    params: Option<Vec<Vec<u32>>>,
    /// Shards the forward pass split the batch into.
    shards: Option<usize>,
    /// The write-back ticket: centers, their mail flags, `post()`.
    ticket: (Vec<u32>, Vec<bool>, Vec<u32>),
    /// Every node's memory after the write-back.
    memories: Vec<u32>,
}

impl BatchPrint {
    /// The fields where both sides hold a value and the values differ.
    fn moved(&self, base: &BatchPrint) -> Vec<&'static str> {
        fn differ<T: PartialEq>(a: &Option<T>, b: &Option<T>) -> bool {
            matches!((a, b), (Some(a), Some(b)) if a != b)
        }
        [
            ("loss", differ(&self.loss, &base.loss)),
            ("logits", differ(&self.logits, &base.logits)),
            ("grads", differ(&self.grads, &base.grads)),
            ("params", differ(&self.params, &base.params)),
            ("shards", differ(&self.shards, &base.shards)),
            ("ticket", self.ticket != base.ticket),
            ("memories", self.memories != base.memories),
        ]
        .into_iter()
        .filter_map(|(field, moved)| moved.then_some(field))
        .collect()
    }
}

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

fn ticket(p: &BatchPending) -> (Vec<u32>, Vec<bool>, Vec<u32>) {
    let centers = p.centers().iter().map(|n| n.0).collect();
    (centers, p.has_msg().to_vec(), bits(p.post()))
}

fn memories(model: &MemoryTgnn, nodes: usize) -> Vec<u32> {
    let rows = (0..nodes as u32).map(|n| bits(model.plane().memory_read(NodeId(n))));
    rows.flatten().collect()
}

impl Case {
    fn model(&self) -> MemoryTgnn {
        MemoryTgnn::new(self.cfg.clone(), self.nodes, FEAT_DIM, 3)
    }

    /// The batches as `(first event id, events)`.
    fn batches(&self) -> impl Iterator<Item = (usize, &[Event])> {
        let starts = std::iter::once(0).chain(self.ends.iter().copied());
        let spans = starts.zip(&self.ends);
        spans.map(|(start, &end)| (start, &self.events[start..end]))
    }

    /// A full training step on the measured batch at `threads` compute
    /// threads with the buffer arena on or off.
    fn step(&self, threads: usize, arena_on: bool) -> BatchPrint {
        let was = arena::set_enabled(arena_on);
        let hits = arena::stats().hits;
        let feats = synth_features(self.events.len(), FEAT_DIM, 9);
        let mut model = self.model();
        model.set_compute_threads(threads);
        let mut batches: Vec<_> = self.batches().collect();
        let (first, batch) = batches.pop().expect("a measured batch");
        for (start, warm) in batches {
            model.process_batch(warm, start, &feats);
            arena::reset(); // the batch-boundary trim must be invisible too
        }
        let fwd = model.forward_batch(batch, first, &feats);
        fwd.loss.backward();
        let params = model.parameters();
        let grads = params.iter().map(|p| p.grad().map(|g| bits(&g))).collect();
        clip_grad_norm(&params, 1.0);
        Adam::new(params.clone(), 1e-2).step();
        let print = BatchPrint {
            loss: Some(fwd.loss.item().to_bits()),
            logits: Some(bits(&[fwd.pos_logits, fwd.neg_logits].concat())),
            grads: Some(grads),
            params: Some(params.iter().map(|p| bits(&p.to_vec())).collect()),
            shards: Some(fwd.shard_busy.len()),
            ticket: ticket(&fwd.pending),
            memories: Vec::new(),
        };
        model.apply_batch(batch, first, &feats, fwd.pending);
        if !arena_on {
            assert_eq!(
                arena::stats().hits,
                hits,
                "an arena-off run took a pooled buffer"
            );
        }
        arena::set_enabled(was);
        BatchPrint {
            memories: memories(&model, self.nodes),
            ..print
        }
    }

    /// The state-only advance: `pending_batch` then `apply_batch`, batch
    /// after batch, with the arena off like column 0.
    fn pending(&self) -> BatchPrint {
        let was = arena::set_enabled(false);
        let feats = synth_features(self.events.len(), FEAT_DIM, 9);
        let mut model = self.model();
        let mut last = None;
        for (start, batch) in self.batches() {
            let pending = model.pending_batch(batch);
            last = Some(ticket(&pending));
            model.apply_batch(batch, start, &feats, pending);
        }
        arena::set_enabled(was);
        BatchPrint {
            loss: None,
            logits: None,
            grads: None,
            params: None,
            shards: None,
            ticket: last.expect("a measured batch"),
            memories: memories(&model, self.nodes),
        }
    }

    /// Column 0, and one line per other column that moved from it.
    fn table(&self) -> (BatchPrint, Vec<String>) {
        let base = self.step(1, false);
        let steps = [(1, true), (2, false), (2, true), (4, false), (4, true)];
        let steps = steps.map(|(t, on)| (format!("{t} threads, arena {on}"), self.step(t, on)));
        let pending = ("pending_batch".to_string(), self.pending());
        let lite = if self.cfg.lite { " lite" } else { "" };
        let failures = steps
            .into_iter()
            .chain([pending])
            .filter_map(|(column, print)| {
                let moved = print.moved(&base).join(", ");
                let line = format!("{}{lite} / {column}: {moved} moved", self.cfg.name);
                (!moved.is_empty()).then_some(line)
            });
        let failures = failures.collect();
        (base, failures)
    }
}

fn case(cfg: ModelConfig, nodes: usize, events: Vec<Event>, ends: &[usize]) -> Case {
    let cfg = cfg.with_dims(8, 4);
    let ends = ends.to_vec();
    Case {
        cfg,
        nodes,
        events,
        ends,
    }
}

/// Fails once, listing every moved column of every case.
fn verdict(failures: Vec<String>) {
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// A random, time-ordered stream over `nodes` nodes, its times from `t`.
fn random_events(g: &mut Gen, nodes: usize, len: usize, t: &mut f64) -> Vec<Event> {
    let mut event = || {
        *t += g.f64_in(0.01..1.0);
        Event::new(g.usize_in(0..nodes) as u32, g.usize_in(0..nodes) as u32, *t)
    };
    (0..len).map(|_| event()).collect()
}

/// Two-batch streams of 6 to 200 events over 4 to 16 nodes: measured
/// batches of 3 to 100 events, one to four shards. TGN, JODIE or TGAT,
/// full or lite.
#[test]
fn random_streams_are_bit_identical_in_every_column() {
    check("batch_identity", |g| {
        let (nodes, len) = (g.usize_in(4..16), g.usize_in(6..200));
        let models = [ModelConfig::tgn, ModelConfig::jodie, ModelConfig::tgat];
        let base = models[g.usize_in(0..3)]().with_neighbors(3);
        let cfg = ModelConfig {
            lite: g.usize_in(0..2) == 1,
            ..base
        };
        let events = random_events(g, nodes, len, &mut 0.0);
        let (_, failures) = case(cfg, nodes, events, &[len / 2, len]).table();
        failures.is_empty().then_some(()).ok_or(failures.join("\n"))
    });
}

/// One shard per 32 events, at most 8, on both sides of each step of the
/// rule; 256 events, the preset batch, stays at 8 shards.
#[test]
fn shard_boundaries_are_bit_identical_in_every_column() {
    const WARM: usize = 40;
    let mut failures = Vec::new();
    for (len, shards) in [(1, 1), (23, 1), (33, 2), (100, 4), (224, 7), (256, 8)] {
        let events = random_events(&mut Gen::new(len as u64), 24, WARM + len, &mut 0.0);
        let cfg = ModelConfig::tgn().with_neighbors(3);
        let (base, moved) = case(cfg, 24, events, &[WARM, WARM + len]).table();
        failures.extend(moved);
        if base.shards != Some(shards) {
            failures.push(format!("{len} events: {:?} shards", base.shards));
        }
    }
    verdict(failures);
}

/// After two warm-up batches have written non-zero memories, 500 events
/// over 1 000 nodes touch some 630 centers: enough rows for the fused GRU
/// cell to split its forward and backward over four threads.
#[test]
fn a_fanned_out_updater_is_bit_identical_in_every_column() {
    let events = random_events(&mut Gen::new(29), 1000, 1100, &mut 0.0);
    let cfg = ModelConfig::tgn().with_neighbors(3);
    let (base, mut failures) = case(cfg, 1000, events, &[300, 600, 1100]).table();
    if base.ticket.0.len() < 4 * GRU_MIN_ROWS_PER_WORKER {
        failures.push(format!("only {} updater rows", base.ticket.0.len()));
    }
    verdict(failures);
}

/// Nodes of the sparse stream, and events per half.
const SPARSE: usize = 360;
/// Neighbour slots per center.
const K: usize = 4;

/// Compaction at work. The stream: 360 warm-up events among nodes
/// `0..240` (three per node on average, so a `MostRecent(4)` sampler fills
/// some two thirds of their slots), then one batch of 360 events over all
/// 360 nodes, a third of whose endpoints have neither history nor mail.
/// That batch leaves about half of its neighbour slots empty and a third
/// of its centers without mail, so the ragged attention and the compacted
/// updater drop that many rows. Every model, full and lite.
#[test]
fn a_sparse_batch_is_bit_identical_in_every_column() {
    let (mut g, mut t) = (Gen::new(31), 0.0);
    let warm = random_events(&mut g, 2 * SPARSE / 3, SPARSE, &mut t);
    let batch = random_events(&mut g, SPARSE, SPARSE, &mut t);
    // The shares are the stream's: any model shows them once warm.
    let mut model = MemoryTgnn::new(ModelConfig::tgn(), SPARSE, FEAT_DIM, 3);
    model.process_batch(&warm, 0, &synth_features(SPARSE, FEAT_DIM, 9));
    let ends: BTreeSet<NodeId> = batch.iter().flat_map(|e| [e.src, e.dst]).collect();
    let slots = batch.iter().flat_map(|e| [e.src, e.dst]);
    let filled: usize = slots.map(|n| model.plane().adj_degree(n).min(K)).sum();
    let padded = 1.0 - filled as f64 / (2 * SPARSE * K) as f64;
    let mailed = ends
        .iter()
        .filter(|&&n| model.plane().mailbox_has_messages(n));
    let mailless = 1.0 - mailed.count() as f64 / ends.len() as f64;
    let mut failures = Vec::new();
    if !(0.45..0.6).contains(&padded) || !(0.28..0.4).contains(&mailless) {
        failures.push(format!(
            "{padded} of slots padded, {mailless} of centers mail-less"
        ));
    }
    let events = [warm, batch].concat();
    for base in ModelConfig::all() {
        for cfg in [base.clone(), base.with_lite()] {
            let case = case(
                cfg.with_neighbors(K),
                SPARSE,
                events.clone(),
                &[SPARSE, 2 * SPARSE],
            );
            failures.extend(case.table().1);
        }
    }
    verdict(failures);
}
