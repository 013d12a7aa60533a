//! Shared experiment plumbing: scaled datasets, model construction, and
//! single-run execution.

use std::time::Duration;

use cascade_baselines::{tgl, tgl_lb, tglite, Etc, NeutronStream};
use cascade_core::{
    train, train_streaming, BatchingStrategy, CascadeConfig, CascadeScheduler, TrainConfig,
    TrainReport,
};
use cascade_models::{MemoryTgnn, ModelConfig};
use cascade_tgraph::{Dataset, InMemorySource, SynthConfig};

use crate::a100::A100;

/// Which scheduler a run uses (plus the paired model-execution mode).
#[derive(Clone, Debug, PartialEq)]
pub enum StrategyKind {
    /// TGL: fixed batching at the preset size.
    Tgl,
    /// TGL with an enlarged fixed batch (Figure 12(b)).
    TglLb(usize),
    /// TGLite: fixed batching + redundancy-eliminating model execution.
    TgLite,
    /// Full Cascade.
    Cascade,
    /// Cascade + TGLite model execution ("Cascade-Lite").
    CascadeLite,
    /// Cascade without the SG-Filter ("Cascade-TB", §5.3).
    CascadeTb,
    /// Cascade with a custom θ_sim (Figure 13(a)).
    CascadeTheta(f32),
    /// Cascade over chunks of this many events, each chunk's table built
    /// by the loader thread while the previous one trains ("Cascade_EX").
    CascadeEx(usize),
    /// NeutronStream dependency batching.
    Neutron,
    /// ETC information-loss-bounded batching.
    Etc,
}

impl StrategyKind {
    /// Display label matching the paper's figures.
    pub fn label(&self) -> String {
        match self {
            StrategyKind::Tgl => "TGL".into(),
            StrategyKind::TglLb(b) => format!("TGL-LB({})", b),
            StrategyKind::TgLite => "TGLite".into(),
            StrategyKind::Cascade => "Cascade".into(),
            StrategyKind::CascadeLite => "Cascade-Lite".into(),
            StrategyKind::CascadeTb => "Cascade-TB".into(),
            StrategyKind::CascadeTheta(t) => format!("Cascade(θ={})", t),
            StrategyKind::CascadeEx(_) => "Cascade_EX".into(),
            StrategyKind::Neutron => "NeutronStream".into(),
            StrategyKind::Etc => "ETC".into(),
        }
    }

    /// Whether the paired model runs in TGLite execution mode.
    fn lite_model(&self) -> bool {
        matches!(self, StrategyKind::TgLite | StrategyKind::CascadeLite)
    }

    fn build(&self, preset: usize, seed: u64) -> Box<dyn BatchingStrategy> {
        let cascade = CascadeConfig {
            preset_batch_size: preset,
            seed,
            ..CascadeConfig::default()
        };
        match self {
            StrategyKind::Tgl => Box::new(tgl(preset)),
            StrategyKind::TglLb(b) => Box::new(tgl_lb(*b)),
            StrategyKind::TgLite => Box::new(tglite(preset)),
            // Cascade_EX is the same scheduler: the chunks are the
            // source's, see `Harness::run`.
            StrategyKind::Cascade | StrategyKind::CascadeLite | StrategyKind::CascadeEx(_) => {
                Box::new(CascadeScheduler::new(cascade))
            }
            StrategyKind::CascadeTb => Box::new(CascadeScheduler::new(cascade.without_sg_filter())),
            StrategyKind::CascadeTheta(t) => {
                Box::new(CascadeScheduler::new(cascade.with_theta(*t)))
            }
            StrategyKind::Neutron => Box::new(NeutronStream::new(preset)),
            StrategyKind::Etc => Box::new(Etc::new(preset)),
        }
    }
}

/// The outcome of a run: the trainer's full report, the display label,
/// and the modelled A100 latency every latency figure plots.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// Strategy label (Cascade, TGL, …).
    pub label: String,
    /// The measured report.
    pub report: TrainReport,
    /// The run's modelled A100 latency ([`A100::modelled_time`]).
    pub modelled: Duration,
}

/// Global experiment knobs.
///
/// The defaults scale the paper's setup (A100, batch 900, dim 100,
/// 100 epochs, full datasets) down to a single CPU core: the event
/// streams shrink proportionally per dataset (preserving each dataset's
/// average degree — the property the speedup ordering depends on), the
/// preset batch scales from 900 to 64, and model widths from 100 to 16.
/// Environment variables `CASCADE_EVENTS`, `CASCADE_EPOCHS`,
/// `CASCADE_DIM`, and `CASCADE_PRESET` override the corresponding knobs
/// for larger runs.
#[derive(Clone, Debug)]
pub struct Harness {
    /// Target event count for moderate-profile datasets.
    pub moderate_events: usize,
    /// Target event count for the billion-scale profiles (GDELT, MAG).
    pub large_events: usize,
    /// Node-memory width.
    pub memory_dim: usize,
    /// Time-encoding width.
    pub time_dim: usize,
    /// Edge-feature width used at runtime (profiles report the paper's
    /// widths; compute uses this).
    pub feature_dim: usize,
    /// Cap on sampled neighbors for the 10-neighbor models.
    pub neighbor_cap: usize,
    /// Training epochs per run.
    pub epochs: usize,
    /// Preset small batch size (the scaled analogue of the paper's 900).
    pub preset_batch: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Master seed.
    pub seed: u64,
    /// Worker threads for shard-parallel batch compute (bit-identical
    /// results at any value; wall-clock only).
    pub compute_threads: usize,
}

impl Default for Harness {
    fn default() -> Self {
        Harness {
            moderate_events: 4_000,
            large_events: 12_000,
            memory_dim: 16,
            time_dim: 8,
            feature_dim: 8,
            neighbor_cap: 4,
            epochs: 4,
            preset_batch: 64,
            lr: 1e-3,
            seed: 42,
            compute_threads: TrainConfig::default().compute_threads,
        }
    }
}

impl Harness {
    /// Defaults overridden by `CASCADE_*` environment variables.
    pub fn from_env() -> Self {
        let mut h = Harness::default();
        let get = |k: &str| std::env::var(k).ok().and_then(|v| v.parse::<usize>().ok());
        if let Some(v) = get("CASCADE_EVENTS") {
            h.moderate_events = v;
            h.large_events = v * 3;
        }
        if let Some(v) = get("CASCADE_EPOCHS") {
            h.epochs = v.max(1);
        }
        if let Some(v) = get("CASCADE_DIM") {
            h.memory_dim = v.max(2);
        }
        if let Some(v) = get("CASCADE_PRESET") {
            h.preset_batch = v.max(2);
        }
        if let Some(v) = get("CASCADE_THREADS") {
            h.compute_threads = v.max(1);
        }
        h
    }

    /// Generates a profile scaled to the harness target.
    pub fn dataset(&self, profile: SynthConfig) -> Dataset {
        let target = if profile.name == "GDELT" || profile.name == "MAG" {
            self.large_events
        } else {
            self.moderate_events
        };
        let scale = (target as f64 / profile.num_events as f64).min(1.0);
        // Nodes shrink more gently than events (exponent 0.85): scaling
        // both linearly would make hubs adjacent to most of the graph,
        // saturating the dependency table in a way real datasets do not.
        let node_scale = if profile.name == "MAG" {
            // MAG is the node-heavy profile (121.75 M nodes): its
            // preprocessing and lookup costs are driven by the node
            // dimension, so its node count shrinks more gently to keep
            // that cost visible at reproduction scale.
            scale.powf(0.7)
        } else {
            scale.powf(0.75)
        };
        profile
            .with_scale(scale)
            .with_node_scale(node_scale)
            .with_feature_dim(self.feature_dim)
            .generate(self.seed)
    }

    /// A model configuration scaled to the harness dimensions.
    pub fn model_cfg(&self, base: ModelConfig, lite: bool) -> ModelConfig {
        let mut cfg = base.with_dims(self.memory_dim, self.time_dim);
        if cfg.sampling.count() > self.neighbor_cap {
            cfg = cfg.with_neighbors(self.neighbor_cap);
        }
        if lite {
            cfg = cfg.with_lite();
        }
        cfg
    }

    /// The trainer configuration.
    pub fn train_cfg(&self) -> TrainConfig {
        TrainConfig {
            epochs: self.epochs,
            lr: self.lr,
            eval_batch_size: self.preset_batch,
            clip_norm: Some(5.0),
            scale_lr_with_batch: true,
            compute_threads: self.compute_threads,
        }
    }

    /// The latency model at this harness's preset batch.
    pub fn a100(&self) -> A100 {
        A100::at_preset(self.preset_batch)
    }

    /// Builds a fresh model (identical weights for every strategy so loss
    /// comparisons are apples-to-apples).
    pub fn build_model(&self, data: &Dataset, base: ModelConfig, lite: bool) -> MemoryTgnn {
        MemoryTgnn::new(
            self.model_cfg(base, lite),
            data.num_nodes(),
            data.features().dim(),
            self.seed,
        )
    }

    /// Runs one (dataset, model, strategy) training and returns the
    /// outcome. Cascade_EX streams the dataset in chunks; everything else
    /// trains in memory as one chunk.
    ///
    /// # Panics
    ///
    /// Panics if the Cascade_EX stream fails; an in-memory source cannot,
    /// so a failure is a bug worth aborting on.
    pub fn run(&self, data: &Dataset, base: ModelConfig, strategy: &StrategyKind) -> RunOutcome {
        let mut model = self.build_model(data, base, strategy.lite_model());
        let mut strat = strategy.build(self.preset_batch, self.seed);
        let cfg = self.train_cfg();
        let report = match strategy {
            StrategyKind::CascadeEx(chunk) => {
                let mut source = InMemorySource::from_dataset(data, *chunk);
                train_streaming(&mut model, &mut source, strat.as_mut(), &cfg)
                    .unwrap_or_else(|e| panic!("Cascade_EX run failed: {}", e))
            }
            _ => train(&mut model, data, strat.as_mut(), &cfg),
        };
        RunOutcome {
            label: strategy.label(),
            modelled: self.a100().modelled_time(&report, &strat.timers()),
            report,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Harness {
        Harness {
            moderate_events: 600,
            large_events: 800,
            epochs: 1,
            preset_batch: 32,
            memory_dim: 8,
            time_dim: 4,
            feature_dim: 4,
            neighbor_cap: 2,
            ..Harness::default()
        }
    }

    #[test]
    fn datasets_hit_target_size() {
        let h = tiny();
        let d = h.dataset(SynthConfig::wiki());
        assert!((d.num_events() as i64 - 600).abs() < 10);
        assert_eq!(d.features().dim(), 4);
    }

    #[test]
    fn model_cfg_caps_neighbors() {
        let h = tiny();
        let cfg = h.model_cfg(ModelConfig::tgat(), false);
        assert_eq!(cfg.sampling.count(), 2);
        let cfg = h.model_cfg(ModelConfig::tgn(), false);
        assert_eq!(cfg.sampling.count(), 1); // under the cap: unchanged
    }

    #[test]
    fn run_produces_report() {
        let h = tiny();
        let d = h.dataset(SynthConfig::wiki());
        let out = h.run(&d, ModelConfig::jodie(), &StrategyKind::Tgl);
        assert_eq!(out.label, "TGL");
        assert!(out.report.val_loss.is_finite());
    }

    #[test]
    fn cascade_run_beats_tgl_batch_size() {
        let h = tiny();
        let d = h.dataset(SynthConfig::wiki());
        let tgl = h.run(&d, ModelConfig::jodie(), &StrategyKind::Tgl);
        let cas = h.run(&d, ModelConfig::jodie(), &StrategyKind::Cascade);
        assert!(cas.report.avg_batch_size >= tgl.report.avg_batch_size);
    }

    #[test]
    fn labels_cover_all_variants() {
        assert_eq!(StrategyKind::CascadeEx(100).label(), "Cascade_EX");
        assert_eq!(StrategyKind::TglLb(400).label(), "TGL-LB(400)");
        assert!(StrategyKind::CascadeLite.lite_model());
        assert!(!StrategyKind::Cascade.lite_model());
    }
}
