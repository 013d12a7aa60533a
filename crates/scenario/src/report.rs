//! Scenario reporting and the crate's designated I/O module: recipe
//! loading, `bench_results/scenario_<name>.json` writing, and the raw
//! `/proc/self/status` read the RSS sampler parses.
//!
//! Every other module in this crate is `io-fs-confined`: all `std::fs`
//! access funnels through here so error typing and path resolution live
//! in one place (mirroring `models/checkpoint.rs` and
//! `serve/persist.rs`).

use std::path::{Path, PathBuf};

use cascade_core::SpaceBreakdown;
use cascade_util::Json;

use crate::recipe::Recipe;
use crate::ScenarioError;

/// Raw `/proc/self/status` text, `None` when unavailable (non-Linux).
pub fn proc_self_status() -> Option<String> {
    std::fs::read_to_string("/proc/self/status").ok()
}

/// Loads and parses a recipe file.
///
/// # Errors
///
/// Returns a [`ScenarioError`] when the file cannot be read or fails
/// schema validation.
pub fn load_recipe(path: &Path) -> Result<Recipe, ScenarioError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| ScenarioError::new(format!("cannot read {}: {}", path.display(), e)))?;
    Recipe::parse(&text).map_err(|e| ScenarioError::new(format!("{}: {}", path.display(), e)))
}

/// Lists `<name>.json` recipes under `dir`, sorted by file name.
///
/// # Errors
///
/// Returns a [`ScenarioError`] when the directory cannot be read.
pub fn list_recipes(dir: &Path) -> Result<Vec<PathBuf>, ScenarioError> {
    let entries = std::fs::read_dir(dir)
        .map_err(|e| ScenarioError::new(format!("cannot list {}: {}", dir.display(), e)))?;
    let mut out: Vec<PathBuf> = Vec::new();
    for entry in entries {
        let path = entry
            .map_err(|e| ScenarioError::new(format!("cannot list {}: {}", dir.display(), e)))?
            .path();
        if path.extension().and_then(|e| e.to_str()) == Some("json") {
            out.push(path);
        }
    }
    out.sort();
    Ok(out)
}

/// Per-phase slice of the final-epoch training loss trajectory.
#[derive(Clone, Debug)]
pub struct PhaseLoss {
    /// Phase display name.
    pub name: String,
    /// Phase kind keyword.
    pub kind: String,
    /// Base events the phase contributes to the stream.
    pub events: usize,
    /// Final-epoch training batches whose first event falls in the
    /// phase (0 for phases entirely past the train split).
    pub batches: usize,
    /// Event-weighted mean loss of those batches (NaN-free: 0 when the
    /// phase saw no training batches).
    pub mean_loss: f32,
}

/// The structured result of one scenario run, serialized to
/// `bench_results/scenario_<name>.json`.
#[derive(Clone, Debug)]
pub struct ScenarioReport {
    /// Scenario name (report file stem; scaled runs carry an `@f`
    /// suffix from [`Recipe::scaled`]).
    pub name: String,
    /// Generation seed.
    pub seed: u64,
    /// Cores the host granted (`std::thread::available_parallelism`).
    pub host_parallelism: usize,
    /// What ran: `generate`, `train`, `train-dist<N>`, or
    /// `serve-replay`.
    pub mode: String,
    /// Node-id space.
    pub nodes: usize,
    /// Edge-feature width.
    pub feature_dim: usize,
    /// CEVT chunk size.
    pub chunk_size: usize,
    /// Normalized (post-dedup) stream length.
    pub base_events: usize,
    /// Raw delivered stream length (with injected duplicates).
    pub delivered_events: usize,
    /// Ingest normalization policy applied (`reject`,
    /// `buffered-reorder(w)`, …).
    pub reorder_policy: String,
    /// `VmHWM` after the run, bytes (0 when `/proc` is unavailable).
    pub peak_rss_bytes: usize,
    /// Wall-clock of the measured span, seconds.
    pub wall_secs: f64,
    /// Delivered events processed per wall-second across the run.
    pub events_per_sec: f64,
    /// Epochs trained (0 in generate/serve modes).
    pub epochs: usize,
    /// Mean training loss per epoch.
    pub epoch_losses: Vec<f32>,
    /// Final-epoch mean training loss.
    pub final_train_loss: f32,
    /// Validation loss (NaN-free: 0 when not evaluated).
    pub val_loss: f32,
    /// Per-phase final-epoch loss trajectory.
    pub phases: Vec<PhaseLoss>,
    /// End-of-run space accounting, when the mode trains.
    pub space: Option<SpaceBreakdown>,
}

impl ScenarioReport {
    /// Serializes to the report JSON object.
    pub fn to_json(&self) -> Json {
        let mut fields: Vec<(String, Json)> = vec![
            ("scenario".into(), Json::from(self.name.as_str())),
            ("seed".into(), Json::from(self.seed as usize)),
            ("host_parallelism".into(), Json::from(self.host_parallelism)),
            ("mode".into(), Json::from(self.mode.as_str())),
            ("nodes".into(), Json::from(self.nodes)),
            ("feature_dim".into(), Json::from(self.feature_dim)),
            ("chunk_size".into(), Json::from(self.chunk_size)),
            ("base_events".into(), Json::from(self.base_events)),
            ("delivered_events".into(), Json::from(self.delivered_events)),
            (
                "reorder_policy".into(),
                Json::from(self.reorder_policy.as_str()),
            ),
            ("peak_rss_bytes".into(), Json::from(self.peak_rss_bytes)),
            ("wall_secs".into(), Json::from(self.wall_secs)),
            ("events_per_sec".into(), Json::from(self.events_per_sec)),
            ("epochs".into(), Json::from(self.epochs)),
            (
                "epoch_losses".into(),
                Json::Arr(
                    self.epoch_losses
                        .iter()
                        .map(|l| Json::from(*l as f64))
                        .collect(),
                ),
            ),
            (
                "final_train_loss".into(),
                Json::from(self.final_train_loss as f64),
            ),
            ("val_loss".into(), Json::from(self.val_loss as f64)),
            (
                "phase_losses".into(),
                Json::Arr(
                    self.phases
                        .iter()
                        .map(|p| {
                            Json::Obj(vec![
                                ("name".into(), Json::from(p.name.as_str())),
                                ("kind".into(), Json::from(p.kind.as_str())),
                                ("events".into(), Json::from(p.events)),
                                ("batches".into(), Json::from(p.batches)),
                                ("mean_loss".into(), Json::from(p.mean_loss as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ];
        if let Some(space) = &self.space {
            fields.push((
                "space".into(),
                Json::Obj(vec![
                    (
                        "dependency_table".into(),
                        Json::from(space.dependency_table),
                    ),
                    ("stable_flags".into(), Json::from(space.stable_flags)),
                    ("graph".into(), Json::from(space.graph)),
                    ("edge_features".into(), Json::from(space.edge_features)),
                    ("model".into(), Json::from(space.model)),
                    ("mailbox".into(), Json::from(space.mailbox)),
                    ("memory".into(), Json::from(space.memory)),
                    ("total".into(), Json::from(space.total())),
                ]),
            ));
        }
        Json::Obj(fields)
    }

    /// Writes the report to `dir` (default: the nearest `bench_results`
    /// directory, honoring `CASCADE_BENCH_DIR` like the bench harness)
    /// as `scenario_<name>.json`, returning the path.
    ///
    /// # Errors
    ///
    /// Returns a [`ScenarioError`] on any filesystem failure.
    pub fn write(&self, dir: Option<&Path>) -> Result<PathBuf, ScenarioError> {
        let dir = match dir {
            Some(d) => d.to_path_buf(),
            None => default_report_dir(),
        };
        std::fs::create_dir_all(&dir)
            .map_err(|e| ScenarioError::new(format!("cannot create {}: {}", dir.display(), e)))?;
        // `@` in scaled names is awkward in shell globs; keep stems flat.
        let stem = self.name.replace(['@', '/'], "_");
        let path = dir.join(format!("scenario_{}.json", stem));
        std::fs::write(&path, self.to_json().to_string())
            .map_err(|e| ScenarioError::new(format!("cannot write {}: {}", path.display(), e)))?;
        Ok(path)
    }
}

/// Report directory resolution, mirroring the bench harness: the
/// `CASCADE_BENCH_DIR` override, else the nearest `bench_results`
/// ancestor directory, else `./bench_results`.
fn default_report_dir() -> PathBuf {
    if let Ok(dir) = std::env::var("CASCADE_BENCH_DIR") {
        return PathBuf::from(dir);
    }
    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    let mut probe: Option<&Path> = Some(&cwd);
    while let Some(dir) = probe {
        let candidate = dir.join("bench_results");
        if candidate.is_dir() {
            return candidate;
        }
        probe = dir.parent();
    }
    cwd.join("bench_results")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> ScenarioReport {
        ScenarioReport {
            name: "unit".into(),
            seed: 9,
            host_parallelism: 1,
            mode: "train".into(),
            nodes: 10,
            feature_dim: 4,
            chunk_size: 64,
            base_events: 100,
            delivered_events: 110,
            reorder_policy: "buffered-reorder(16)".into(),
            peak_rss_bytes: 1024,
            wall_secs: 0.5,
            events_per_sec: 220.0,
            epochs: 1,
            epoch_losses: vec![0.7],
            final_train_loss: 0.7,
            val_loss: 0.69,
            phases: vec![PhaseLoss {
                name: "warm".into(),
                kind: "baseline".into(),
                events: 100,
                batches: 2,
                mean_loss: 0.7,
            }],
            space: None,
        }
    }

    #[test]
    fn report_json_carries_the_required_fields() {
        let json = sample_report().to_json();
        assert_eq!(json.get("seed").and_then(|v| v.as_usize()), Some(9));
        assert_eq!(
            json.get("host_parallelism").and_then(|v| v.as_usize()),
            Some(1)
        );
        assert!(json.get("peak_rss_bytes").is_some());
        assert!(json.get("events_per_sec").is_some());
        let phases = json
            .get("phase_losses")
            .and_then(|v| v.as_arr())
            .expect("phase losses serialize");
        assert_eq!(phases.len(), 1);
        assert_eq!(
            phases[0].get("kind").and_then(|v| v.as_str()),
            Some("baseline")
        );
        // Round-trips through the vendored parser.
        let text = json.to_string();
        assert!(Json::parse(&text).is_ok());
    }

    #[test]
    fn write_lands_in_the_requested_dir_and_flattens_scaled_names() {
        let dir = std::env::temp_dir().join("cascade_scenario_report_test");
        let mut report = sample_report();
        report.name = "unit@0.1".into();
        let path = report.write(Some(&dir)).expect("write succeeds");
        assert!(path.ends_with("scenario_unit_0.1.json"));
        let text = std::fs::read_to_string(&path).expect("report is readable");
        assert!(text.contains("\"scenario\""));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn proc_status_is_readable_on_linux() {
        if let Some(status) = proc_self_status() {
            assert!(status.contains("VmHWM") || !status.is_empty());
        }
    }
}
