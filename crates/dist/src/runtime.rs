//! The dist runtime: the one [`Replica`] both transports drive, and the
//! in-process transport — N worker threads, each a full replica over its
//! own memory plane, sharing nothing but a board of round payloads.
//!
//! # Round protocol
//!
//! Training proceeds in synchronous rounds. Worker `w` streams only the
//! chunks `PartitionedSource` routes to it (`chunk.index % N == w`).
//! Each round:
//!
//! 1. **Compute** — every worker with remaining events runs the train
//!    step's forward and backward pass (`TrainStep::compute`) on its
//!    next batch against its own replica, then publishes a
//!    [`RoundPayload`] (batch, write-back ticket, gradients).
//! 2. **Reduce** — every replica takes all payloads, performs the same
//!    worker-index-ordered [`all_reduce`], installs the reduced
//!    gradients and runs the step's clip + optimizer half
//!    (`TrainStep::optimize`). Replicas were seeded identically and
//!    receive identical updates, so parameters stay bit-identical
//!    across workers without ever being exchanged.
//! 3. **Apply** — every replica applies *all* payloads' memory
//!    write-backs and mailbox clears, then all payloads' message
//!    generation and adjacency registration, in worker-index payload
//!    order. Message content reads both endpoints' memories, which is
//!    why every write-back lands first. Every replica runs the same
//!    write sequence on the same state, so node state stays equal
//!    across replicas without ever being exchanged either.
//! 4. Each replica closes the step (`TrainStep::close`: the arena trim,
//!    then its own batch's graph drops) and records every payload.
//!
//! With `N == 1` the protocol degenerates to exactly the serial loop
//! (forward → backward → clip → step → apply → arena trim) and is
//! bit-identical to it — enforced by the `n1_bit_identity` integration
//! test. With `N > 1` the schedule is still fully deterministic for a
//! given `(workers, seed, stream)` but *diverges* from serial training
//! by a bounded, documented amount: the batches of one round are
//! computed against memory that excludes the other same-round batches'
//! updates — DistTGL-style staleness, bounded by one round — and their
//! gradients are averaged rather than applied sequentially. See
//! DESIGN.md §12.

use std::sync::{Arc, Barrier, RwLock};

use cascade_core::{TrainConfig, TrainStep};
use cascade_models::{MemoryTgnn, ModelConfig};
use cascade_tensor::Tensor;
use cascade_tgraph::{Dataset, Event, EventChunk, EventSource, InMemorySource, PartitionedSource};

use crate::grad::{all_reduce, collect_grads, install_grads, GradSet};
use crate::round::RoundPayload;
use crate::stats::DistReport;

/// Configuration of a dist training run.
#[derive(Clone, Debug)]
pub struct DistConfig {
    /// Worker count.
    pub workers: usize,
    /// Events per streamed chunk; must be a multiple of `batch_size` so
    /// batches never straddle chunk (= ownership) boundaries.
    pub chunk_size: usize,
    /// Events per training batch.
    pub batch_size: usize,
    /// Epochs to train.
    pub epochs: usize,
    /// Learning rate.
    pub lr: f32,
    /// Gradient-clipping threshold (`None` disables).
    pub clip_norm: Option<f32>,
    /// Seed for parameter init and samplers (all workers share it).
    pub seed: u64,
}

impl DistConfig {
    /// A small default: 1 worker, chunks of 256, batches of 128, one
    /// epoch, `lr = 1e-3`, clip at 5.0, seed 7.
    pub fn new() -> Self {
        DistConfig {
            workers: 1,
            chunk_size: 256,
            batch_size: 128,
            epochs: 1,
            lr: 1e-3,
            clip_norm: Some(5.0),
            seed: 7,
        }
    }

    /// Sets the worker count.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets chunk and batch size together.
    pub fn with_batching(mut self, chunk_size: usize, batch_size: usize) -> Self {
        self.chunk_size = chunk_size;
        self.batch_size = batch_size;
        self
    }

    /// Sets the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    pub(crate) fn validate(&self) {
        assert!(self.workers > 0, "dist training needs at least one worker");
        assert!(self.epochs > 0, "dist training needs at least one epoch");
        assert!(
            self.batch_size > 0 && self.chunk_size.is_multiple_of(self.batch_size),
            "chunk size {} must be a positive multiple of batch size {} so \
             batches never straddle chunk ownership boundaries",
            self.chunk_size,
            self.batch_size
        );
    }
}

impl Default for DistConfig {
    fn default() -> Self {
        DistConfig::new()
    }
}

/// One batch's record in the run log (telemetry and identity tests).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BatchRecord {
    /// Synchronous round index (across epochs).
    pub round: usize,
    /// Worker that computed the batch.
    pub worker: usize,
    /// Global stream id of the batch's first event.
    pub first_id: usize,
    /// Events in the batch.
    pub events: usize,
    /// Batch loss.
    pub loss: f32,
}

/// Everything a dist run produces.
#[derive(Clone, Debug)]
pub struct DistOutcome {
    /// Run telemetry.
    pub report: DistReport,
    /// Final model state (`MemoryTgnn::export_state` of worker 0 —
    /// every replica applied the same updates and the same writes, so
    /// this is *the* model).
    pub state: Vec<u8>,
    /// Final optimizer state (worker 0's, replica-identical).
    pub optimizer: Vec<u8>,
    /// Per-batch log in (round, worker-index) order.
    pub batches: Vec<BatchRecord>,
}

/// Cuts a worker's streamed chunks into batches of `(first_id, events)`.
///
/// `chunk_size % batch_size == 0` guarantees a batch never spans two
/// chunks, so `first_id = chunk.base + offset` stays globally correct.
struct BatchCutter {
    source: PartitionedSource<InMemorySource>,
    current: Option<EventChunk>,
    offset: usize,
    batch_size: usize,
}

impl BatchCutter {
    fn next_batch(&mut self) -> Option<(usize, Vec<Event>)> {
        loop {
            if let Some(chunk) = &self.current {
                if self.offset < chunk.events.len() {
                    let start = self.offset;
                    let end = (start + self.batch_size).min(chunk.events.len());
                    self.offset = end;
                    return Some((chunk.base + start, chunk.events[start..end].to_vec()));
                }
            }
            self.offset = 0;
            self.current = self
                .source
                .next_chunk()
                .expect("in-memory sources never fail");
            self.current.as_ref()?;
        }
    }

    fn rewind(&mut self) {
        self.current = None;
        self.offset = 0;
        self.source.reset().expect("in-memory sources never fail");
    }
}

/// One worker's whole training state, and the only implementation of
/// the round protocol's moves: [`next_payload`](Self::next_payload),
/// [`apply`](Self::apply) and [`end_epoch`](Self::end_epoch). The
/// in-process worker threads and the TCP leader and followers differ
/// only in how a round's payloads reach every replica, so their apply
/// schedules cannot drift apart.
///
/// Each replica builds its own model from the shared configuration and
/// seed, so parameters and node state start equal everywhere.
///
/// A payload carries no feature rows: every participant holds the
/// dataset's full feature table, and needs all of it — neighbor
/// embedding reads the rows of arbitrary *earlier* events (whichever
/// the plane's adjacency samples), which a batch's own rows could not
/// cover.
pub(crate) struct Replica<'a> {
    worker: usize,
    data: &'a Dataset,
    cfg: &'a DistConfig,
    cutter: BatchCutter,
    model: MemoryTgnn,
    step: TrainStep,
    /// The loss graph of the batch computed for the round in flight,
    /// kept until the step closes.
    graph: Option<Tensor>,
    batches: Vec<BatchRecord>,
    rounds: usize,
}

impl<'a> Replica<'a> {
    pub(crate) fn new(
        worker: usize,
        data: &'a Dataset,
        model_cfg: &ModelConfig,
        cfg: &'a DistConfig,
    ) -> Self {
        let mut model = MemoryTgnn::new(
            model_cfg.clone(),
            data.num_nodes(),
            data.features().dim(),
            cfg.seed,
        );
        let source = PartitionedSource::new(
            InMemorySource::from_dataset(data, cfg.chunk_size),
            worker,
            cfg.workers,
        );
        // The host's cores are divided among the replicas; thread count
        // never moves a bit, so this only keeps N replicas from running
        // N × host workers.
        let defaults = TrainConfig::default();
        let train_cfg = TrainConfig {
            epochs: cfg.epochs,
            lr: cfg.lr,
            clip_norm: cfg.clip_norm,
            compute_threads: (defaults.compute_threads / cfg.workers).max(1),
            ..defaults
        };
        Replica {
            worker,
            data,
            cfg,
            cutter: BatchCutter {
                source,
                current: None,
                offset: 0,
                batch_size: cfg.batch_size,
            },
            step: TrainStep::new(&mut model, &train_cfg),
            model,
            graph: None,
            batches: Vec::new(),
            rounds: 0,
        }
    }

    /// Forward and backward over this worker's next batch; `None` once
    /// its partition is exhausted for the epoch.
    pub(crate) fn next_payload(&mut self) -> Option<RoundPayload> {
        let (first_id, events) = self.cutter.next_batch()?;
        let fwd = self
            .step
            .compute(&self.model, &events, first_id, self.data.features())
            .expect("forward_batch's loss is a scalar");
        let loss = fwd.loss.item();
        self.graph = Some(fwd.loss);
        Some(RoundPayload {
            worker: self.worker,
            first_id,
            events,
            pending: fwd.pending,
            grads: collect_grads(self.step.params()),
            loss,
        })
    }

    /// Checks a round that came off a socket against this process's own
    /// dataset and model before [`apply`](Self::apply) indexes with it.
    /// (In-process payloads are produced by the code that consumes them
    /// and are not checked.)
    ///
    /// # Errors
    ///
    /// Names the first field that does not fit.
    pub(crate) fn check(&self, round: &[Option<Arc<RoundPayload>>]) -> Result<(), String> {
        if round.len() != self.cfg.workers {
            return Err(format!(
                "round bundle holds {} slots for {} workers",
                round.len(),
                self.cfg.workers
            ));
        }
        if round.iter().all(Option::is_none) {
            return Err("round bundle holds no payload".into());
        }
        let stream = self.data.stream().events();
        let params = self.step.params();
        let (nodes, width) = (self.model.num_nodes(), self.model.config().memory_dim);
        for (slot, p) in round.iter().enumerate() {
            let Some(p) = p else { continue };
            let centers = p.pending.centers();
            let end = p.first_id.checked_add(p.events.len());
            let fault = if p.worker != slot {
                format!("`worker` is {}", p.worker)
            } else if end.and_then(|end| stream.get(p.first_id..end)) != Some(&p.events[..]) {
                format!(
                    "`events` are not events {}..+{} of this process's dataset: all \
                     processes must agree on --dataset, --scale and --data-seed",
                    p.first_id,
                    p.events.len()
                )
            } else if let Some(c) = centers.iter().find(|c| c.index() >= nodes) {
                format!("`centers` name node {} of {}", c.index(), nodes)
            } else if p.pending.post().len() != centers.len() * width {
                format!(
                    "`post` holds {} floats for {} centers of memory width {}",
                    p.pending.post().len(),
                    centers.len(),
                    width
                )
            } else if p.grads.len() != params.len() {
                format!(
                    "`grads` hold {} entries for {} parameters",
                    p.grads.len(),
                    params.len()
                )
            } else if let Some(i) = (0..params.len()).find(|&i| {
                p.grads[i]
                    .as_ref()
                    .is_some_and(|g| g.len() != params[i].len())
            }) {
                format!(
                    "`grads[{}]` is not its parameter's {} floats",
                    i,
                    params[i].len()
                )
            } else {
                continue;
            };
            return Err(format!("payload in slot {}: {}", slot, fault));
        }
        Ok(())
    }

    /// Applies one round: all-reduce, the step's optimizer half, every
    /// payload's write-backs and then every payload's messages, and the
    /// step's close.
    pub(crate) fn apply(&mut self, round: &[Option<Arc<RoundPayload>>]) {
        for p in round.iter().flatten() {
            self.batches.push(BatchRecord {
                round: self.rounds,
                worker: p.worker,
                first_id: p.first_id,
                events: p.events.len(),
                loss: p.loss,
            });
        }
        let contributions: Vec<&GradSet> = round.iter().flatten().map(|p| &p.grads).collect();
        install_grads(self.step.params(), &all_reduce(&contributions));
        self.step.optimize();

        // Every payload's write-backs, in worker-index payload order,
        // before any message reads a memory row.
        for p in round.iter().flatten() {
            self.model.apply_writeback(&p.pending);
        }
        for p in round.iter().flatten() {
            self.model
                .apply_messages(&p.events, p.first_id, self.data.features());
        }

        self.step.close(self.graph.take());
        for p in round.iter().flatten() {
            self.step.record(p.events.len(), p.loss);
        }
        self.rounds += 1;
    }

    /// Epoch boundary: closes the step's epoch and — unless the run is
    /// over — rewinds the partition and resets this replica's node
    /// state. The final boundary keeps the last epoch's memories: they
    /// are the exported state (serial trainers reset at epoch *start*,
    /// never after the run).
    pub(crate) fn end_epoch(&mut self, done: bool) {
        self.step.end_epoch();
        if !done {
            self.model.reset_state();
            self.cutter.rewind();
        }
    }

    /// Every replica sees every payload, so any one's outcome covers the
    /// whole run in (round, worker) order.
    pub(crate) fn outcome(self) -> DistOutcome {
        DistOutcome {
            report: DistReport {
                workers: self.cfg.workers,
                epochs: self.cfg.epochs,
                rounds: self.rounds,
                events: self.batches.iter().map(|b| b.events).sum(),
                epoch_losses: self.step.epoch_losses().to_vec(),
            },
            state: self.model.export_state(),
            optimizer: self.step.optimizer_state(),
            batches: self.batches,
        }
    }
}

/// The one thing in-process workers share: one payload slot per
/// worker, fenced by the barrier. Slots are written by their owner
/// before the first barrier of a round and copied by everyone after it;
/// the second barrier keeps any worker from overwriting a slot before
/// all peers have copied the round. A copy is one `Arc` per slot.
struct RoundBoard {
    slots: Vec<RwLock<Option<Arc<RoundPayload>>>>,
    barrier: Barrier,
}

impl RoundBoard {
    fn new(workers: usize) -> Self {
        RoundBoard {
            slots: (0..workers).map(|_| RwLock::new(None)).collect(),
            barrier: Barrier::new(workers),
        }
    }

    fn publish(&self, worker: usize, payload: Option<RoundPayload>) {
        let mut slot = self.slots[worker]
            .write()
            .expect("round slots are never poisoned");
        *slot = payload.map(Arc::new);
    }

    fn snapshot(&self) -> Vec<Option<Arc<RoundPayload>>> {
        self.slots
            .iter()
            .map(|s| s.read().expect("round slots are never poisoned").clone())
            .collect()
    }
}

/// Trains `model_cfg` on `data` with `cfg.workers` threads, each a full
/// replica over its own memory plane, and returns the run's outcome.
///
/// The run covers the dataset's full event stream each epoch (the dist
/// trainer has no train/validation split of its own; evaluation goes
/// through the serial stack against the exported state).
///
/// # Panics
///
/// Panics on an invalid configuration (zero workers/epochs, chunk size
/// not a multiple of batch size) or if a worker thread panics.
pub fn train_dist(data: &Dataset, model_cfg: &ModelConfig, cfg: &DistConfig) -> DistOutcome {
    cfg.validate();
    let board = RoundBoard::new(cfg.workers);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..cfg.workers)
            .map(|w| {
                let board = &board;
                scope.spawn(move || worker_loop(Replica::new(w, data, model_cfg, cfg), board))
            })
            .collect();
        let mut outs = Vec::new();
        for h in handles {
            outs.push(h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)));
        }
        outs.swap_remove(0).expect("worker 0 reports the outcome")
    })
}

/// One worker thread: publish → barrier → snapshot → barrier → apply,
/// until the last epoch's boundary. Worker 0 returns the run's outcome.
fn worker_loop(mut rep: Replica<'_>, board: &RoundBoard) -> Option<DistOutcome> {
    let w = rep.worker;
    let mut epoch = 0usize;
    loop {
        board.publish(w, rep.next_payload());
        board.barrier.wait();
        let round = board.snapshot();
        board.barrier.wait();
        if round.iter().any(Option::is_some) {
            rep.apply(&round);
            continue;
        }
        epoch += 1;
        let done = epoch == rep.cfg.epochs;
        rep.end_epoch(done);
        if done {
            return (w == 0).then(|| rep.outcome());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cascade_tgraph::SynthConfig;

    fn data() -> Dataset {
        SynthConfig::wiki().with_scale(0.004).generate(11)
    }

    #[test]
    fn single_worker_runs_and_reports() {
        let d = data();
        let cfg = DistConfig {
            epochs: 2,
            ..DistConfig::new().with_batching(128, 64)
        };
        let out = train_dist(&d, &ModelConfig::tgn().with_dims(8, 4), &cfg);
        assert_eq!(out.report.workers, 1);
        assert_eq!(out.report.epochs, 2);
        assert_eq!(out.report.events, 2 * d.num_events());
        assert_eq!(out.report.epoch_losses.len(), 2);
        assert!(out.report.epoch_losses.iter().all(|l| l.is_finite()));
        assert!(!out.state.is_empty());
        assert!(!out.batches.is_empty());
    }

    #[test]
    fn two_workers_cover_every_event_exactly_once() {
        let d = data();
        let cfg = DistConfig::new().with_workers(2).with_batching(128, 64);
        let out = train_dist(&d, &ModelConfig::tgn().with_dims(8, 4), &cfg);
        assert_eq!(out.report.events, d.num_events());
        let mut covered = vec![0usize; d.num_events()];
        for b in &out.batches {
            for c in covered.iter_mut().skip(b.first_id).take(b.events) {
                *c += 1;
            }
        }
        assert!(
            covered.iter().all(|&c| c == 1),
            "events must stream exactly once"
        );
    }

    /// The loop both transports run, with no transport: every replica
    /// over its own full plane, rounds handed over by value. Three
    /// workers over two chunks leave worker 2's partition empty all run
    /// — `None` payloads, a close with no graph — and it must still end
    /// where worker 0 does, which is where the threaded run ends.
    #[test]
    fn a_replica_with_an_empty_partition_tracks_the_others() {
        let d = data();
        let model_cfg = ModelConfig::tgn().with_dims(8, 4);
        let cfg = DistConfig {
            epochs: 2,
            ..DistConfig::new().with_workers(3).with_batching(512, 64)
        };
        assert!(d.num_events() <= 2 * cfg.chunk_size, "worker 2 must idle");
        let mut reps: Vec<Replica<'_>> = (0..cfg.workers)
            .map(|w| Replica::new(w, &d, &model_cfg, &cfg))
            .collect();
        for epoch in 1..=cfg.epochs {
            loop {
                let round: Vec<_> = reps
                    .iter_mut()
                    .map(|rep| rep.next_payload().map(Arc::new))
                    .collect();
                assert!(round[2].is_none());
                if round.iter().all(Option::is_none) {
                    break;
                }
                for rep in &mut reps {
                    rep.check(&round)
                        .expect("honest rounds pass the peer checks");
                    rep.apply(&round);
                }
            }
            for rep in &mut reps {
                rep.end_epoch(epoch == cfg.epochs);
            }
        }
        let idle = reps.pop().expect("three replicas").outcome();
        let zero = reps.swap_remove(0).outcome();
        let threaded = train_dist(&d, &model_cfg, &cfg);
        for other in [&idle, &threaded] {
            assert_eq!(zero.state, other.state);
            assert_eq!(zero.optimizer, other.optimizer);
            assert_eq!(zero.batches, other.batches);
            assert_eq!(zero.report.epoch_losses, other.report.epoch_losses);
            assert_eq!(zero.report.events, 2 * d.num_events());
            assert_eq!(zero.report.rounds, other.report.rounds);
        }
    }

    /// The epoch-loss arithmetic lives in `TrainStep`; hold it to the
    /// definition, recomputed from the per-batch log.
    #[test]
    fn epoch_losses_are_the_size_weighted_means_of_their_batches() {
        let d = data();
        let cfg = DistConfig {
            epochs: 2,
            ..DistConfig::new().with_workers(2).with_batching(128, 64)
        };
        let out = train_dist(&d, &ModelConfig::tgn().with_dims(8, 4), &cfg);
        // Every epoch streams the same batches, so each is half the log.
        let halves = out.batches.chunks(out.batches.len() / 2);
        let means: Vec<f32> = halves
            .map(|epoch| {
                let weighted: f64 = epoch.iter().map(|b| b.loss as f64 * b.events as f64).sum();
                let events: usize = epoch.iter().map(|b| b.events).sum();
                assert_eq!(events, d.num_events());
                (weighted / events as f64) as f32
            })
            .collect();
        assert_eq!(out.report.epoch_losses, means);
    }

    #[test]
    #[should_panic(expected = "multiple of batch size")]
    fn straddling_batches_are_rejected() {
        let d = data();
        let cfg = DistConfig::new().with_batching(100, 64);
        let _ = train_dist(&d, &ModelConfig::tgn().with_dims(8, 4), &cfg);
    }
}
