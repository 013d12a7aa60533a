//! The driver matrix (DESIGN §12c) that `identity.rs` and
//! `streaming_identity.rs` fill. Every driver is the same `TrainStep` fed
//! from a different place, so one model, strategy and config must come
//! out of each with the same bits. A run is reduced to a [`Fingerprint`];
//! rows are grouped by the geometry under which identity holds, and each
//! is held to its group's pin, recorded from row 0. Facts that are not
//! identities (naming, resident bytes, background builds, stage counts,
//! the dist loss band) are checked on the row that shows them. A group
//! runs every row, then fails once with every mismatch it found.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use cascade_core::{
    evaluate, train, train_streaming, BatchingStrategy, CascadeConfig, CascadeScheduler,
    StepOutput, StrategyTimers, TrainConfig, TrainReport, TrainStep,
};
use cascade_models::{MemoryTgnn, ModelConfig};
use cascade_store::{export_dataset, StreamingEventSource};
use cascade_tgraph::{Dataset, EventSource, InMemorySource, SynthConfig};

/// The numbers a run is reduced to. A field the row cannot observe is
/// `None` and is not compared.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fingerprint {
    /// Batches across all epochs.
    pub batches: usize,
    /// FNV of every batch's size and loss bits, in order.
    pub losses: u64,
    /// FNV of which parameters held a gradient after each backward pass.
    /// `Adam::step` decays its moments on an all-zero gradient but skips a
    /// parameter that has none, so presence is part of the trajectory.
    pub presence: Option<u64>,
    /// Validation loss bits.
    pub val_loss: Option<u32>,
    /// Validation AP bits.
    pub val_ap: Option<u32>,
    /// FNV of `export_state()`: parameters, memories, mailboxes.
    pub state: u64,
    /// FNV of the optimizer's exported state.
    pub optimizer: Option<u64>,
}

impl Fingerprint {
    pub fn of_report(r: &TrainReport, model: &MemoryTgnn) -> Self {
        let batches = r.batch_sizes.iter().zip(&r.batch_losses);
        Fingerprint {
            batches: r.num_batches,
            losses: losses(batches.map(|(&n, &l)| (n as usize, l))),
            presence: None,
            val_loss: Some(r.val_loss.to_bits()),
            val_ap: Some(r.val_ap.to_bits()),
            state: fnv(model.export_state()),
            optimizer: None,
        }
    }

    /// The fields where both sides hold a value and the values differ.
    fn moved(&self, pin: &Fingerprint) -> Vec<&'static str> {
        fn differ<T: PartialEq>(a: Option<T>, b: Option<T>) -> bool {
            matches!((a, b), (Some(a), Some(b)) if a != b)
        }
        [
            ("batches", self.batches != pin.batches),
            ("losses", self.losses != pin.losses),
            ("presence", differ(self.presence, pin.presence)),
            ("val_loss", differ(self.val_loss, pin.val_loss)),
            ("val_ap", differ(self.val_ap, pin.val_ap)),
            ("state", self.state != pin.state),
            ("optimizer", differ(self.optimizer, pin.optimizer)),
        ]
        .into_iter()
        .filter_map(|(field, moved)| moved.then_some(field))
        .collect()
    }
}

/// FNV-1a over `bytes`.
pub fn fnv(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// FNV-1a over the little-endian bytes of each word.
fn fnv_words(words: impl IntoIterator<Item = u64>) -> u64 {
    fnv(words.into_iter().flat_map(u64::to_le_bytes))
}

pub fn losses(batches: impl IntoIterator<Item = (usize, f32)>) -> u64 {
    let words = batches
        .into_iter()
        .flat_map(|(n, l)| [n as u64, l.to_bits() as u64]);
    fnv_words(words)
}

/// The yardstick: `TrainStep`'s moves called one by one on the dataset's
/// slice, with no source, chunk, window or loader in between. It trains
/// on the training split, then validates, as every driver does; or, with
/// `whole_stream`, on every event without validation, as a dist run does.
fn reference(
    data: &Dataset,
    mut model: MemoryTgnn,
    strategy: &mut dyn BatchingStrategy,
    cfg: &TrainConfig,
    whole_stream: bool,
) -> Fingerprint {
    let events = data.stream().events();
    let n = if whole_stream {
        events.len()
    } else {
        data.train_range().end
    };
    let mut step = TrainStep::new(&mut model, cfg);
    assert!(step.params().len() <= 64, "a u64 presence mask");
    strategy.prepare(&events[..n], data.num_nodes());
    let (mut batches, mut masks) = (Vec::new(), Vec::new());
    for _ in 0..cfg.epochs {
        model.reset_state();
        strategy.reset_epoch();
        let mut start = 0;
        while start < n {
            let end = step.scan(strategy, start, n).expect("a good batch");
            let batch = &events[start..end];
            let fwd = step
                .compute(&model, batch, start, data.features())
                .expect("a scalar loss");
            let params = step.params().iter().enumerate();
            masks.push(params.fold(0u64, |m, (i, p)| m | (p.grad().is_some() as u64) << i));
            let loss = fwd.loss.item();
            step.optimize();
            let deltas = model.apply_batch(batch, start, data.features(), fwd.pending);
            step.close(Some(fwd.loss));
            let batch_idx = step.record(batch.len(), loss);
            TrainStep::feedback(
                strategy,
                &StepOutput {
                    batch_idx,
                    loss,
                    deltas,
                },
            );
            batches.push((batch.len(), loss));
            start = end;
        }
        step.end_epoch();
    }
    let val = (!whole_stream).then(|| evaluate(&mut model, data, cfg.eval_batch_size));
    Fingerprint {
        batches: batches.len(),
        losses: losses(batches),
        presence: Some(fnv_words(masks)),
        val_loss: val.map(|v| v.loss.to_bits()),
        val_ap: val.map(|v| v.average_precision.to_bits()),
        state: fnv(model.export_state()),
        optimizer: Some(fnv(step.optimizer_state())),
    }
}

/// What the rows of a group share: the data, a model constructor, a
/// strategy constructor and the config at two compute threads.
pub struct Setup {
    pub data: Dataset,
    pub model: ModelConfig,
    pub seed: u64,
    pub strategy: fn() -> Box<dyn BatchingStrategy>,
    pub cfg: TrainConfig,
}

impl Setup {
    pub fn model(&self) -> MemoryTgnn {
        let (n, dim) = (self.data.num_nodes(), self.data.features().dim());
        MemoryTgnn::new(self.model.clone(), n, dim, self.seed)
    }

    pub fn cfg(&self, compute_threads: usize) -> TrainConfig {
        TrainConfig {
            compute_threads,
            ..self.cfg.clone()
        }
    }

    /// The data in memory at `chunk` events a chunk.
    pub fn chunks(&self, chunk: usize) -> InMemorySource {
        InMemorySource::from_dataset(&self.data, chunk)
    }

    /// A store file of the data at `chunk` events a chunk.
    pub fn store(&self, chunk: usize) -> Store {
        static FILES: AtomicUsize = AtomicUsize::new(0);
        let n = FILES.fetch_add(1, Ordering::Relaxed);
        let name = format!("cascade-identity-{}-{n}.evt", std::process::id());
        let path = std::env::temp_dir().join(name);
        export_dataset(&self.data, &path, chunk).expect("export succeeds");
        Store(path)
    }

    pub fn group(&self, name: impl Into<String>, pin: Fingerprint) -> Group<'_> {
        Group {
            setup: self,
            name: name.into(),
            pin,
            failures: Vec::new(),
        }
    }
}

/// A store file, removed on drop.
pub struct Store(PathBuf);

impl Store {
    pub fn open(&self) -> StreamingEventSource {
        StreamingEventSource::open(&self.0, 2).expect("store opens")
    }
}

impl Drop for Store {
    fn drop(&mut self) {
        std::fs::remove_file(&self.0).ok();
    }
}

/// One group's rows, held to its pin. Mismatches are collected, not
/// raised, so a group reports every row that moved.
pub struct Group<'a> {
    setup: &'a Setup,
    name: String,
    pin: Fingerprint,
    failures: Vec<String>,
}

/// Records a fact that is not an identity, observed on row `$row`.
macro_rules! fact {
    ($g:expr, $row:expr, $holds:expr) => {
        $g.fact($row, $holds, stringify!($holds))
    };
}

impl Group<'_> {
    pub fn fact(&mut self, row: &str, holds: bool, what: &str) {
        if !holds {
            self.failures.push(format!("{} / {row}: {what}", self.name));
        }
    }

    /// Holds row `name` to the pin. A mismatch prints the row's whole
    /// fingerprint in hex, as the pins are written (bar the batch count).
    pub fn row(&mut self, name: &str, got: Fingerprint) {
        let moved = got.moved(&self.pin).join(", ");
        let what = format!("{moved} moved; got {got:x?}, {} batches", got.batches);
        self.fact(name, moved.is_empty(), &what);
    }

    /// Row 0 of a group that has one: the reference loop.
    pub fn reference(&mut self, whole_stream: bool) {
        let s = self.setup;
        let strategy = &mut *(s.strategy)();
        let got = reference(&s.data, s.model(), strategy, &s.cfg, whole_stream);
        self.row("reference", got);
    }

    /// Holds a driver's run to the pin, and to the stage counts every
    /// driver keeps: one scan, compute and update per batch.
    fn driver(&mut self, name: &str, report: &TrainReport, model: &MemoryTgnn) {
        self.row(name, Fingerprint::of_report(report, model));
        let s = &report.stages;
        let items = [s.scan.items, s.compute.items, s.update.items];
        fact!(self, name, items.iter().all(|&n| n == report.num_batches));
    }

    /// `train` at `threads` compute threads.
    pub fn train(&mut self, name: &str, threads: usize) {
        let (s, mut model) = (self.setup, self.setup.model());
        let report = train(&mut model, &s.data, &mut *(s.strategy)(), &s.cfg(threads));
        self.driver(name, &report, &model);
    }

    /// `train_streaming` over `source` at `threads` compute threads.
    pub fn stream(
        &mut self,
        name: &str,
        mut source: impl EventSource + Send,
        threads: usize,
    ) -> (TrainReport, StrategyTimers) {
        let (s, mut model) = (self.setup, self.setup.model());
        let mut strategy = (s.strategy)();
        let run = train_streaming(&mut model, &mut source, &mut *strategy, &s.cfg(threads));
        let report = run.expect("streams cleanly");
        self.driver(name, &report, &model);
        (report, strategy.timers())
    }
}

/// Fails once, listing every mismatch of every group.
pub fn verdict<'a>(groups: impl IntoIterator<Item = Group<'a>>) {
    let failures: Vec<String> = groups.into_iter().flat_map(|g| g.failures).collect();
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// Cascade at a preset of 32 events.
pub fn cascade() -> Box<dyn BatchingStrategy> {
    Box::new(CascadeScheduler::new(CascadeConfig {
        preset_batch_size: 32,
        ..CascadeConfig::default()
    }))
}

/// The model seed of G2–G5.
pub const SEED: u64 = 17;

/// G2–G5's setup: one dataset, one TGN.
pub fn small(strategy: fn() -> Box<dyn BatchingStrategy>) -> Setup {
    Setup {
        data: SynthConfig::wiki().with_scale(0.004).generate(23),
        model: ModelConfig::tgn().with_dims(8, 4).with_neighbors(3),
        seed: SEED,
        strategy,
        cfg: TrainConfig {
            epochs: 2,
            eval_batch_size: 64,
            scale_lr_with_batch: true,
            compute_threads: 2,
            ..TrainConfig::default()
        },
    }
}
