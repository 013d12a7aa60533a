//! The scenario runner: drives a [`Recipe`] through the repo's
//! existing entry points — out-of-core streaming training
//! (`cascade-core`), data-parallel training (`cascade-dist`), and
//! live-ingest replay
//! (`cascade-serve`) — and distills each run into a
//! [`ScenarioReport`].
//!
//! Every mode consumes the stream through a
//! [`ReorderingSource`]: recipes with reorder phases get
//! `BufferedReorder` sized to the recipe's widest scramble window,
//! well-behaved recipes get the `Reject` validator — so a generator
//! regression that breaks ordering fails loudly instead of training on
//! garbage. Per-phase loss is carved out of the final epoch's batch
//! trajectory by mapping each batch's first event id onto the recipe's
//! phase boundaries (streaming modes only; the dist runtime reports
//! epoch granularity).

use std::path::Path;

use cascade_core::{train_streaming, CascadeConfig, CascadeScheduler, TrainConfig, TrainReport};
use cascade_dist::{train_dist, DistConfig};
use cascade_models::{MemoryTgnn, ModelConfig};
use cascade_serve::{Engine, EngineConfig};
use cascade_store::StreamingEventSource;
use cascade_tgraph::{
    chronological_split, Dataset, EdgeFeatures, EventSource, EventStream, ReorderPolicy,
    ReorderingSource,
};

use crate::gen::{generate_to_store, ScenarioSource};
use crate::recipe::Recipe;
use crate::report::{PhaseLoss, ScenarioReport};
use crate::rss::{peak_rss_bytes, Stopwatch};
use crate::ScenarioError;

/// Drives one recipe through generation, training, or replay.
pub struct ScenarioRunner {
    recipe: Recipe,
}

impl ScenarioRunner {
    /// Wraps `recipe`.
    pub fn new(recipe: Recipe) -> Self {
        ScenarioRunner { recipe }
    }

    /// The normalization policy this recipe's stream needs: buffered
    /// reordering sized to the widest scramble window, else the strict
    /// validator.
    pub fn policy(&self) -> ReorderPolicy {
        let window = self.recipe.max_reorder_window();
        if window > 0 {
            ReorderPolicy::BufferedReorder(window)
        } else {
            ReorderPolicy::Reject
        }
    }

    /// Generates the recipe's delivered stream into a CEVT store file,
    /// reporting generation throughput and peak RSS.
    ///
    /// # Errors
    ///
    /// Returns a [`ScenarioError`] on recipe misuse or store I/O
    /// failure.
    pub fn generate(&self, out: &Path) -> Result<ScenarioReport, ScenarioError> {
        let sw = Stopwatch::start();
        let summary = generate_to_store(&self.recipe, out)?;
        let secs = sw.elapsed_secs();
        let mut report = self.blank_report("generate");
        report.wall_secs = secs;
        report.events_per_sec = rate(summary.events, secs);
        Ok(report)
    }

    /// Trains through the streaming path. With `store` the stream is
    /// read back out-of-core from a generated CEVT file; without it the
    /// stream regenerates on the fly (bit-identical either way).
    ///
    /// # Errors
    ///
    /// Returns a [`ScenarioError`] on recipe misuse, store corruption,
    /// or a training-driver failure.
    pub fn train(&self, store: Option<&Path>) -> Result<ScenarioReport, ScenarioError> {
        let (train_report, secs) = match store {
            Some(path) => {
                let inner = StreamingEventSource::open(path, 2).map_err(|e| {
                    ScenarioError::new(format!("cannot open store {}: {}", path.display(), e))
                })?;
                if inner.num_events() != self.recipe.delivered_events() {
                    return Err(ScenarioError::new(format!(
                        "store {} holds {} events but recipe '{}' delivers {}",
                        path.display(),
                        inner.num_events(),
                        self.recipe.name,
                        self.recipe.delivered_events()
                    )));
                }
                self.train_source(inner)?
            }
            None => {
                let inner = ScenarioSource::new(self.recipe.clone())?;
                self.train_source(inner)?
            }
        };
        let mut report = self.blank_report("train");
        report.wall_secs = secs;
        report.events_per_sec = rate(
            self.recipe.delivered_events() * self.recipe.train.epochs,
            secs,
        );
        report.epochs = train_report.epochs;
        report.epoch_losses = train_report.epoch_losses.clone();
        report.final_train_loss = train_report.final_train_loss;
        report.val_loss = train_report.val_loss;
        report.phases = self.phase_losses(&train_report);
        report.space = Some(train_report.space);
        Ok(report)
    }

    /// Trains `workers`-way data-parallel on the materialized
    /// normalized stream (the dist runtime batches an in-memory
    /// [`Dataset`]; per-phase losses are not available at epoch
    /// granularity).
    ///
    /// # Errors
    ///
    /// Returns a [`ScenarioError`] on recipe misuse or generation
    /// failure.
    pub fn train_dist(&self, workers: usize) -> Result<ScenarioReport, ScenarioError> {
        let data = self.realize_dataset()?;
        let spec = &self.recipe.train;
        let batch = spec.batch;
        // The dist runtime requires chunk_size to be a batch multiple
        // so batches never span chunks.
        let chunk = self.recipe.chunk_size.div_ceil(batch).max(1) * batch;
        let cfg = DistConfig {
            workers: workers.max(1),
            chunk_size: chunk,
            batch_size: batch,
            epochs: spec.epochs,
            lr: spec.lr as f32,
            clip_norm: Some(5.0),
            seed: self.recipe.seed,
        };
        let model_cfg = self.model_config()?;
        let sw = Stopwatch::start();
        let outcome = train_dist(&data, &model_cfg, &cfg);
        let secs = sw.elapsed_secs();
        let mut report = self.blank_report(&format!("train-dist{}", cfg.workers));
        report.wall_secs = secs;
        report.events_per_sec = rate(outcome.report.events, secs);
        report.epochs = outcome.report.epochs;
        report.epoch_losses = outcome.report.epoch_losses.clone();
        report.final_train_loss = outcome.report.epoch_losses.last().copied().unwrap_or(0.0);
        Ok(report)
    }

    /// Replays the normalized stream through the serving engine's
    /// ingest path (WAL + snapshot under `scratch`), measuring
    /// sustained ingest throughput.
    ///
    /// # Errors
    ///
    /// Returns a [`ScenarioError`] on recipe misuse or a serving-engine
    /// failure.
    pub fn serve_replay(&self, scratch: &Path) -> Result<ScenarioReport, ScenarioError> {
        let model = self.build_model()?;
        let stem = self.recipe.name.replace(['@', '/'], "_");
        let wal = scratch.join(format!("{}_replay.wal", stem));
        let snapshot = scratch.join(format!("{}_replay.csc", stem));
        let mut engine = Engine::open(model, EngineConfig::new(&wal, &snapshot))
            .map_err(|e| ScenarioError::new(format!("cannot open serve engine: {}", e)))?;

        let sw = Stopwatch::start();
        let acked = self.replay_into(&mut engine)?;
        let secs = sw.elapsed_secs();
        if acked != self.recipe.base_events() {
            return Err(ScenarioError::new(format!(
                "serve replay acked {} of {} events",
                acked,
                self.recipe.base_events()
            )));
        }
        let mut report = self.blank_report("serve-replay");
        report.wall_secs = secs;
        report.events_per_sec = rate(acked, secs);
        Ok(report)
    }

    /// Drains the normalized stream into the serving engine in
    /// train-batch-sized ingest calls, returning the acked event count.
    /// Deliberately clock-free: only recipe-derived data flows into
    /// `ingest`, which keeps replay deterministic and the determinism
    /// lint's taint analysis vacuously satisfied.
    fn replay_into(&self, engine: &mut Engine) -> Result<usize, ScenarioError> {
        let inner = ScenarioSource::new(self.recipe.clone())?;
        let mut source =
            ReorderingSource::with_declared_events(inner, self.policy(), self.recipe.base_events());
        let batch = self.recipe.train.batch;
        let dim = self.recipe.feature_dim;
        let mut acked = 0usize;
        while let Some(chunk) = source
            .next_chunk()
            .map_err(|e| ScenarioError::new(format!("replay stream failed: {}", e)))?
        {
            let mut start = 0usize;
            while start < chunk.events.len() {
                let end = (start + batch).min(chunk.events.len());
                let ack = engine
                    .ingest(
                        &chunk.events[start..end],
                        &chunk.features[start * dim..end * dim],
                    )
                    .map_err(|e| ScenarioError::new(format!("ingest failed: {}", e)))?;
                acked += ack.acked;
                start = end;
            }
        }
        Ok(acked)
    }

    /// Materializes the normalized stream as an in-memory [`Dataset`]
    /// (dist mode only — streaming modes never materialize).
    fn realize_dataset(&self) -> Result<Dataset, ScenarioError> {
        let inner = ScenarioSource::new(self.recipe.clone())?;
        let base = self.recipe.base_events();
        let dim = self.recipe.feature_dim;
        let mut source = ReorderingSource::with_declared_events(inner, self.policy(), base);
        let mut events = Vec::with_capacity(base);
        let mut feats = Vec::with_capacity(base * dim);
        while let Some(chunk) = source
            .next_chunk()
            .map_err(|e| ScenarioError::new(format!("generation failed: {}", e)))?
        {
            events.extend_from_slice(&chunk.events);
            feats.extend_from_slice(&chunk.features);
        }
        let stream = EventStream::new(events)
            .map_err(|e| ScenarioError::new(format!("normalized stream is unordered: {}", e)))?;
        let features = if dim == 0 {
            EdgeFeatures::none()
        } else {
            EdgeFeatures::new(feats, dim)
        };
        Ok(Dataset::new(self.recipe.name.clone(), stream, features))
    }

    fn model_config(&self) -> Result<ModelConfig, ScenarioError> {
        let spec = &self.recipe.train;
        let base = ModelConfig::by_name(&spec.model).ok_or_else(|| {
            ScenarioError::new(format!(
                "recipe '{}' names unknown model '{}'",
                self.recipe.name,
                spec.model.to_lowercase()
            ))
        })?;
        Ok(base.at_width(spec.dim))
    }

    fn build_model(&self) -> Result<MemoryTgnn, ScenarioError> {
        let cfg = self.model_config()?;
        Ok(MemoryTgnn::new(
            cfg,
            self.recipe.nodes,
            self.recipe.feature_dim,
            self.recipe.seed,
        ))
    }

    fn train_source<S: EventSource + Send>(
        &self,
        inner: S,
    ) -> Result<(TrainReport, f64), ScenarioError> {
        let mut source =
            ReorderingSource::with_declared_events(inner, self.policy(), self.recipe.base_events());
        let mut model = self.build_model()?;
        let spec = &self.recipe.train;
        let mut strategy = CascadeScheduler::new(CascadeConfig {
            preset_batch_size: spec.batch,
            seed: self.recipe.seed,
            ..CascadeConfig::default()
        });
        let cfg = TrainConfig {
            epochs: spec.epochs,
            lr: spec.lr as f32,
            eval_batch_size: spec.batch,
            clip_norm: Some(5.0),
            scale_lr_with_batch: true,
            ..TrainConfig::default()
        };
        let sw = Stopwatch::start();
        let report = train_streaming(&mut model, &mut source, &mut strategy, &cfg)
            .map_err(|e| ScenarioError::new(format!("streaming training failed: {}", e)))?;
        Ok((report, sw.elapsed_secs()))
    }

    /// Maps the final epoch's batch trajectory onto phase boundaries.
    fn phase_losses(&self, report: &TrainReport) -> Vec<PhaseLoss> {
        let (n_train, _) = chronological_split(self.recipe.base_events());
        // Split the cross-epoch batch series at train-split boundaries:
        // a batch's start id is its running event offset within the
        // epoch, and an epoch ends when the offsets reach the split.
        let mut epochs: Vec<Vec<(usize, u32, f32)>> = vec![Vec::new()];
        let mut cursor = 0usize;
        for (size, loss) in report.batch_sizes.iter().zip(&report.batch_losses) {
            if let Some(epoch) = epochs.last_mut() {
                epoch.push((cursor, *size, *loss));
            }
            cursor += *size as usize;
            if cursor >= n_train {
                epochs.push(Vec::new());
                cursor = 0;
            }
        }
        let empty = Vec::new();
        let last = epochs
            .iter()
            .rev()
            .find(|e| !e.is_empty())
            .unwrap_or(&empty);

        let mut out = Vec::with_capacity(self.recipe.phases.len());
        let mut start = 0usize;
        for phase in &self.recipe.phases {
            let end = start + phase.events;
            let mut batches = 0usize;
            let mut weighted = 0.0f64;
            let mut weight = 0.0f64;
            for (first, size, loss) in last {
                if *first >= start && *first < end {
                    batches += 1;
                    weighted += *loss as f64 * *size as f64;
                    weight += *size as f64;
                }
            }
            out.push(PhaseLoss {
                name: phase.name.clone(),
                kind: phase.kind.keyword().into(),
                events: phase.events,
                batches,
                mean_loss: if weight > 0.0 {
                    (weighted / weight) as f32
                } else {
                    0.0
                },
            });
            start = end;
        }
        out
    }

    fn blank_report(&self, mode: &str) -> ScenarioReport {
        ScenarioReport {
            name: self.recipe.name.clone(),
            seed: self.recipe.seed,
            host_parallelism: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            mode: mode.into(),
            nodes: self.recipe.nodes,
            feature_dim: self.recipe.feature_dim,
            chunk_size: self.recipe.chunk_size,
            base_events: self.recipe.base_events(),
            delivered_events: self.recipe.delivered_events(),
            reorder_policy: self.policy().to_string(),
            peak_rss_bytes: peak_rss_bytes().unwrap_or(0),
            wall_secs: 0.0,
            events_per_sec: 0.0,
            epochs: 0,
            epoch_losses: Vec::new(),
            final_train_loss: 0.0,
            val_loss: 0.0,
            phases: Vec::new(),
            space: None,
        }
    }
}

fn rate(events: usize, secs: f64) -> f64 {
    if secs > 0.0 {
        events as f64 / secs
    } else {
        0.0
    }
}
