//! What the benchmark runs and what it reports: the four workload
//! specs (a scenario recipe plus the benchmark's own knobs, one
//! committed JSON file each) and the metric registry that
//! `BENCHMARK.json` mirrors.

use cascade_models::ModelConfig;
use cascade_scenario::Recipe;
use cascade_util::Json;

/// The workloads, in reporting order. Each has a file in `recipes/`.
pub const WORKLOADS: [&str; 4] = ["steady_narrow", "flash_crowd", "wide_store", "serve_mixed"];

/// The committed spec of `name`, embedded at build time so the binary
/// reads nothing outside its scratch directory.
fn spec_text(name: &str) -> Option<&'static str> {
    Some(match name {
        "steady_narrow" => include_str!("../recipes/steady_narrow.json"),
        "flash_crowd" => include_str!("../recipes/flash_crowd.json"),
        "wide_store" => include_str!("../recipes/wide_store.json"),
        "serve_mixed" => include_str!("../recipes/serve_mixed.json"),
        _ => return None,
    })
}

/// The serve phase's shape (the `bench` object of a spec file).
#[derive(Clone, Debug, PartialEq)]
pub struct ServeShape {
    /// Events per `/ingest` request.
    pub request_events: usize,
    /// Back-to-back requests of the closed-loop replay phase.
    pub replay_requests: usize,
    /// Paced ingest rate of the mixed phase, events per second.
    pub ingest_rate: f64,
    /// Open-loop `/predict` rate of the mixed phase, queries per second.
    pub predict_rate: f64,
    /// Candidate destinations per query.
    pub candidates: usize,
    /// Length of the mixed phase, seconds.
    pub mixed_seconds: f64,
}

/// One workload: the stream recipe and the serve shape. Every workload
/// trains out of core: CEVT file → `StreamingEventSource` →
/// `ReorderingSource` → `core::train_streaming` with the Cascade
/// scheduler.
#[derive(Clone, Debug)]
pub struct Spec {
    /// Workload name.
    pub name: String,
    /// The run's seed: node relabelling, edge features, model
    /// initialisation, the scheduler's profiling sample, the query pool.
    pub seed: u64,
    /// Stream and training shape (`cascade-scenario`'s recipe). Its own
    /// `seed` fixes the temporal graph's shape and is not the run's.
    pub recipe: Recipe,
    /// Serve-phase shape.
    pub serve: ServeShape,
    /// Most-recent neighbours the TGN samples per node.
    pub neighbors: usize,
    /// A traced run also trains once through `exec::train_streamed`
    /// and reports the serial-over-pipelined wall ratio.
    pub compare_pipelined: bool,
    /// A traced run also trains the training split through
    /// `dist::train_dist`, at one worker and at two, and reports the
    /// `dist.*` metrics.
    pub compare_dist: bool,
}

fn bench_f64(bench: &Json, key: &str) -> Result<f64, String> {
    bench
        .get(key)
        .and_then(Json::as_f64)
        .filter(|v| v.is_finite() && *v > 0.0)
        .ok_or_else(|| format!("bench field '{}' must be a positive number", key))
}

fn bench_usize(bench: &Json, key: &str) -> Result<usize, String> {
    bench
        .get(key)
        .and_then(Json::as_usize)
        .filter(|v| *v > 0)
        .ok_or_else(|| format!("bench field '{}' must be a positive integer", key))
}

impl Spec {
    /// Loads the committed spec of `name` for a run seeded with `seed`
    /// (the recipe's own seed when none is given).
    ///
    /// # Errors
    ///
    /// An unknown workload name or a malformed spec file.
    pub fn load(name: &str, seed: Option<u64>) -> Result<Spec, String> {
        let text = spec_text(name).ok_or_else(|| {
            format!(
                "unknown workload '{}' (expected one of {})",
                name,
                WORKLOADS.join(", ")
            )
        })?;
        Spec::parse(text, seed).map_err(|e| format!("recipes/{}.json: {}", name, e))
    }

    fn parse(text: &str, seed: Option<u64>) -> Result<Spec, String> {
        let recipe = Recipe::parse(text).map_err(|e| e.to_string())?;
        if recipe.train.model != "tgn" {
            return Err(format!(
                "model '{}' is not benchmarked (tgn only)",
                recipe.train.model
            ));
        }
        if recipe.train.epochs != 1 {
            return Err("the traced driver replays exactly one epoch".to_string());
        }
        let json = Json::parse(text).map_err(|e| e.to_string())?;
        let bench = json.get("bench").ok_or("missing 'bench' object")?;
        let serve = ServeShape {
            request_events: bench_usize(bench, "request_events")?,
            replay_requests: bench_usize(bench, "replay_requests")?,
            ingest_rate: bench_f64(bench, "ingest_rate")?,
            predict_rate: bench_f64(bench, "predict_rate")?,
            candidates: bench_usize(bench, "candidates")?,
            mixed_seconds: bench_f64(bench, "mixed_seconds")?,
        };
        let spec = Spec {
            name: recipe.name.clone(),
            seed: seed.unwrap_or(recipe.seed),
            recipe,
            serve,
            neighbors: bench_usize(bench, "neighbors")?,
            compare_pipelined: bench
                .get("compare_pipelined")
                .and_then(Json::as_bool)
                .unwrap_or(false),
            compare_dist: bench
                .get("compare_dist")
                .and_then(Json::as_bool)
                .unwrap_or(false),
        };
        if spec.serve_events() > spec.recipe.base_events() {
            return Err(format!(
                "the serve phase needs {} events, the stream has {}",
                spec.serve_events(),
                spec.recipe.base_events()
            ));
        }
        Ok(spec)
    }

    /// The same workload at `factor` of its size: stream length, events
    /// per request, paced ingest rate and candidates per query shrink
    /// together, so request counts, query rates and phase lengths — and
    /// with them every sample count — stay what they are at full size.
    #[cfg(test)]
    pub fn scaled(&self, factor: f64) -> Spec {
        let mut out = self.clone();
        out.recipe = self.recipe.scaled(factor);
        out.recipe.name = self.recipe.name.clone();
        let request_events = ((self.serve.request_events as f64 * factor) as usize).max(1);
        out.serve.ingest_rate =
            self.serve.ingest_rate * request_events as f64 / self.serve.request_events as f64;
        out.serve.request_events = request_events;
        out.serve.candidates = ((self.serve.candidates as f64 * factor) as usize).max(2);
        out
    }

    /// Requests the serve phase sends: the replay, plus what the mixed
    /// phase sends at the paced rate.
    pub fn serve_requests(&self) -> usize {
        let per_second = self.serve.ingest_rate / self.serve.request_events as f64;
        self.serve.replay_requests + (per_second * self.serve.mixed_seconds).ceil() as usize
    }

    /// Stream prefix the serve phase may ingest.
    pub fn serve_events(&self) -> usize {
        self.serve_requests() * self.serve.request_events
    }

    /// The model the workload trains and serves: TGN at the recipe's
    /// memory width with a time encoding half as wide (the shape
    /// `ScenarioRunner` builds for the same recipe).
    pub fn model_config(&self) -> ModelConfig {
        let dim = self.recipe.train.dim;
        ModelConfig::tgn()
            .with_dims(dim, (dim / 2).max(2))
            .with_neighbors(self.neighbors)
    }
}

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    #[cfg(test)]
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric's name, unit and direction; end-to-end metrics also carry
/// the share of the parent's median by which they may worsen.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    /// Metric name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Regression bound (end-to-end metrics only; 0 for layer metrics).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

/// The end-to-end metrics: reported by every workload on an untraced
/// run. `BENCHMARK.json` repeats this table; a test keeps them equal.
pub const END_TO_END: [MetricDef; 8] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("train_events_per_s", "events/s", Better::Higher, 0.25),
    e2e("val_loss", "BCE", Better::Lower, 0.25),
    e2e("train_loss", "BCE", Better::Lower, 0.15),
    e2e("peak_rss_mb", "MiB", Better::Lower, 0.10),
    e2e("ingest_events_per_s", "events/s", Better::Higher, 0.25),
    e2e("predict_p50_us", "us", Better::Lower, 0.25),
    e2e("predict_on_time_share", "ratio", Better::Higher, 0.25),
];

/// The per-layer metrics: reported by every workload on a traced run
/// (0 where a workload does not drive the layer).
pub const PER_LAYER: [MetricDef; 39] = [
    layer("scenario.generate_events_per_s", "events/s", Better::Higher),
    layer("store.read_s", "s", Better::Lower),
    layer("store.read_mb_s", "MB/s", Better::Higher),
    layer("store.wait_s", "s", Better::Lower),
    layer("tgraph.reorder_s", "s", Better::Lower),
    layer("tgraph.dropped_events", "count", Better::Lower),
    layer("core.table_build_s", "s", Better::Lower),
    layer("core.table_entries", "count", Better::Lower),
    layer("core.scan_s", "s", Better::Lower),
    layer("core.feedback_s", "s", Better::Lower),
    layer("core.batches", "count", Better::Lower),
    layer("core.mean_batch_events", "events", Better::Higher),
    layer("core.train_wall_s", "s", Better::Lower),
    layer("core.unattributed_share", "ratio", Better::Lower),
    layer("models.forward_s", "s", Better::Lower),
    layer("models.apply_s", "s", Better::Lower),
    layer("models.eval_s", "s", Better::Lower),
    layer("tensor.backward_s", "s", Better::Lower),
    layer("tensor.arena_reset_s", "s", Better::Lower),
    layer("tensor.arena_hit_ratio", "ratio", Better::Higher),
    layer("nn.optim_s", "s", Better::Lower),
    layer("trace_overhead_share", "ratio", Better::Lower),
    layer("exec.pipelined_speedup", "ratio", Better::Higher),
    layer("dist.events_per_s", "events/s", Better::Higher),
    layer("dist.speedup_2_over_1", "ratio", Better::Higher),
    layer("dist.rounds", "count", Better::Lower),
    layer("dist.loss_gap", "BCE", Better::Lower),
    layer("serve.start_s", "s", Better::Lower),
    layer(
        "serve.engine_ingest_events_per_s",
        "events/s",
        Better::Higher,
    ),
    layer("serve.ingest_p50_ms", "ms", Better::Lower),
    layer("serve.ingest_growth", "ratio", Better::Lower),
    layer("serve.ingest_samples", "count", Better::Higher),
    layer("serve.score_p50_us", "us", Better::Lower),
    layer("serve.predict_mixed_p50_us", "us", Better::Lower),
    layer("serve.predict_p90_us", "us", Better::Lower),
    layer("serve.predict_samples", "count", Better::Higher),
    layer("serve.generator_late_p50_ms", "ms", Better::Lower),
    layer("serve.generator_late_max_ms", "ms", Better::Lower),
    layer("serve.failed_requests", "count", Better::Lower),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_committed_spec_loads_and_scales() {
        for name in WORKLOADS {
            let spec = Spec::load(name, Some(9)).expect("committed spec is valid");
            assert_eq!(spec.name, name);
            assert_eq!(spec.seed, 9);
            let small = spec.scaled(0.02);
            assert_eq!(small.name, name);
            assert_eq!(small.serve_requests(), spec.serve_requests());
            assert!(small.serve_events() <= small.recipe.base_events());
        }
        assert!(Spec::load("nope", None).is_err());
    }

    #[test]
    fn malformed_bench_objects_are_rejected() {
        let base = include_str!("../recipes/steady_narrow.json");
        assert!(Spec::parse(base, None).expect("valid").compare_dist);
        for (from, to) in [
            ("\"neighbors\": 1", "\"neighbors\": 0"),
            ("\"mixed_seconds\": 0.3", "\"mixed_seconds\": -1"),
            ("\"model\": \"tgn\"", "\"model\": \"jodie\""),
            ("\"epochs\": 1", "\"epochs\": 2"),
            ("\"replay_requests\": 20", "\"replay_requests\": 1000000"),
        ] {
            assert!(base.contains(from), "fixture drifted: {}", from);
            assert!(
                Spec::parse(&base.replace(from, to), None).is_err(),
                "{}",
                to
            );
        }
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(seen.insert(m.name), "duplicate metric {}", m.name);
            assert!(!m.name.is_empty() && m.name.len() <= 64);
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(m.unit.len() <= 16);
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }
}
