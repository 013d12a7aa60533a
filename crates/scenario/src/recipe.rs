//! The recipe file format: a declarative description of a synthetic
//! workload — graph shape, training shape, and an ordered list of
//! mid-stream perturbation phases.
//!
//! Recipes are JSON (parsed with the vendored `cascade_util::Json`
//! reader — no external crates) and are the *only* input to generation:
//! a `(recipe, seed)` pair regenerates its event stream bit-identically
//! on any host, which is what lets dist followers re-synthesize a
//! leader's dataset and CI replay a committed scenario. See DESIGN.md
//! §13 for the schema and perturbation semantics.
//!
//! ```json
//! {
//!   "name": "adv_reorder",
//!   "seed": 42,
//!   "nodes": 3000,
//!   "feature_dim": 16,
//!   "skew": 2.0,
//!   "burstiness": 0.3,
//!   "repeat_prob": 0.5,
//!   "chunk_size": 1024,
//!   "train": { "model": "tgn", "dim": 16, "batch": 256, "epochs": 1 },
//!   "phases": [
//!     { "name": "warmup", "kind": "baseline", "events": 30000 },
//!     { "name": "storm", "kind": "reorder", "events": 30000,
//!       "window": 64, "duplicate_every": 16 }
//!   ]
//! }
//! ```

use cascade_util::Json;

use crate::ScenarioError;

/// One perturbation phase: `events` *base* events generated under
/// `kind`'s modified dynamics. Phases run in recipe order and partition
/// the stream.
#[derive(Clone, Debug, PartialEq)]
pub struct Phase {
    /// Display name, used in per-phase loss reporting.
    pub name: String,
    /// Base (pre-duplication) events this phase contributes.
    pub events: usize,
    /// Which perturbation is applied.
    pub kind: PhaseKind,
}

/// Perturbation semantics, applied for the duration of one phase.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum PhaseKind {
    /// Recipe-level dynamics, unmodified.
    Baseline,
    /// A flash crowd: inter-arrival times compress by `compression`
    /// and sources concentrate on the `hubs` currently-hottest nodes.
    FlashCrowd {
        /// Inter-arrival divisor (10.0 = ten times the event rate).
        compression: f64,
        /// Size of the hot-hub set sources concentrate on.
        hubs: usize,
    },
    /// Node churn: the active-node window advances an extra `rotate`
    /// fraction of its span over the phase, replacing that share of the
    /// population mid-stream.
    Churn {
        /// Fraction of the active window replaced during the phase.
        rotate: f64,
    },
    /// The hub-skew exponent jumps to `skew` for the phase (hot hubs
    /// shift because the window keeps advancing).
    SkewShift {
        /// Replacement skew exponent.
        skew: f64,
    },
    /// Delivery-order perturbation: events are scrambled within
    /// consecutive blocks of `window`, and every `duplicate_every`-th
    /// event is delivered twice (0 = no duplicates). Base dynamics are
    /// untouched — the sorted stream is bit-identical to a `Baseline`
    /// phase, which is what the reorder-identity acceptance test
    /// asserts end to end.
    Reorder {
        /// Scramble block size (also the consumer's reorder window).
        window: usize,
        /// Duplicate cadence in events (0 disables duplication).
        duplicate_every: usize,
    },
}

impl Phase {
    /// Duplicates this phase delivers on top of its base events (only a
    /// reorder phase with a duplicate cadence injects any).
    fn duplicates(&self) -> usize {
        match self.kind {
            PhaseKind::Reorder {
                duplicate_every, ..
            } if duplicate_every > 0 => self.events / duplicate_every,
            _ => 0,
        }
    }
}

impl PhaseKind {
    /// Schema keyword for this kind.
    pub fn keyword(&self) -> &'static str {
        match self {
            PhaseKind::Baseline => "baseline",
            PhaseKind::FlashCrowd { .. } => "flash_crowd",
            PhaseKind::Churn { .. } => "churn",
            PhaseKind::SkewShift { .. } => "skew_shift",
            PhaseKind::Reorder { .. } => "reorder",
        }
    }
}

/// Training shape: which model the runner trains on the stream.
#[derive(Clone, Debug, PartialEq)]
pub struct TrainSpec {
    /// Model keyword (`jodie|tgn|apan|dysat|tgat`).
    pub model: String,
    /// Memory/embedding dimension.
    pub dim: usize,
    /// Preset batch size.
    pub batch: usize,
    /// Epochs to train.
    pub epochs: usize,
    /// Learning rate.
    pub lr: f64,
}

impl Default for TrainSpec {
    fn default() -> Self {
        TrainSpec {
            model: "tgn".into(),
            dim: 16,
            batch: 256,
            epochs: 1,
            lr: 1e-3,
        }
    }
}

/// A parsed scenario recipe. See the module docs for the schema.
#[derive(Clone, Debug, PartialEq)]
pub struct Recipe {
    /// Scenario name (report file stem).
    pub name: String,
    /// Generation seed; the `(recipe, seed)` pair addresses the stream.
    pub seed: u64,
    /// Node-id space of the generated stream.
    pub nodes: usize,
    /// Edge-feature width.
    pub feature_dim: usize,
    /// Hub-skew exponent (higher = heavier concentration on hot nodes).
    pub skew: f64,
    /// Probability an inter-arrival gap is a burst gap (20x shorter).
    pub burstiness: f64,
    /// Probability a destination repeats a recent partner.
    pub repeat_prob: f64,
    /// Fraction of the node space active at any instant.
    pub pool_fraction: f64,
    /// Recent partners remembered per source slot.
    pub partner_cap: usize,
    /// CEVT chunk size (events per frame).
    pub chunk_size: usize,
    /// Training shape.
    pub train: TrainSpec,
    /// Ordered perturbation phases.
    pub phases: Vec<Phase>,
}

impl Recipe {
    /// Parses a recipe from JSON text.
    ///
    /// # Errors
    ///
    /// Returns a [`ScenarioError`] naming the offending field on any
    /// schema violation.
    pub fn parse(text: &str) -> Result<Recipe, ScenarioError> {
        let json = Json::parse(text)
            .map_err(|e| ScenarioError::new(format!("recipe is not valid JSON: {}", e)))?;
        let name = req_str(&json, "name")?.to_string();
        let seed = req_usize(&json, "seed")? as u64;
        let nodes = req_usize(&json, "nodes")?;
        if nodes == 0 {
            return Err(ScenarioError::new("recipe field 'nodes' must be positive"));
        }
        let feature_dim = opt_usize(&json, "feature_dim", 0)?;
        let skew = opt_f64(&json, "skew", 2.0)?;
        let burstiness = opt_f64(&json, "burstiness", 0.0)?;
        let repeat_prob = opt_f64(&json, "repeat_prob", 0.0)?;
        let pool_fraction = opt_f64(&json, "pool_fraction", 0.2)?;
        let partner_cap = opt_usize(&json, "partner_cap", 8)?;
        let chunk_size = opt_usize(&json, "chunk_size", 4096)?;
        if chunk_size == 0 {
            return Err(ScenarioError::new(
                "recipe field 'chunk_size' must be positive",
            ));
        }
        if !(0.0..=1.0).contains(&burstiness) || !(0.0..=1.0).contains(&repeat_prob) {
            return Err(ScenarioError::new(
                "recipe fields 'burstiness' and 'repeat_prob' must be in [0, 1]",
            ));
        }
        if pool_fraction <= 0.0 || pool_fraction > 1.0 {
            return Err(ScenarioError::new(
                "recipe field 'pool_fraction' must be in (0, 1]",
            ));
        }

        let train = match json.get("train") {
            Some(t) => TrainSpec {
                model: opt_str(t, "model", "tgn")?.to_string(),
                dim: opt_usize(t, "dim", 16)?,
                batch: opt_usize(t, "batch", 256)?,
                epochs: opt_usize(t, "epochs", 1)?,
                lr: opt_f64(t, "lr", 1e-3)?,
            },
            None => TrainSpec::default(),
        };
        if train.batch == 0 || train.dim == 0 || train.epochs == 0 {
            return Err(ScenarioError::new(
                "train fields 'batch', 'dim', and 'epochs' must be positive",
            ));
        }

        let phases_json = json
            .get("phases")
            .and_then(|p| p.as_arr())
            .ok_or_else(|| ScenarioError::new("recipe needs a non-empty 'phases' array"))?;
        if phases_json.is_empty() {
            return Err(ScenarioError::new(
                "recipe needs a non-empty 'phases' array",
            ));
        }
        let mut phases = Vec::with_capacity(phases_json.len());
        for (i, p) in phases_json.iter().enumerate() {
            phases.push(parse_phase(p, i)?);
        }
        // The delivered total bounds every sum `base_events` and
        // `delivered_events` take, so neither can overflow once it fits.
        phases
            .iter()
            .try_fold(0usize, |n, p| {
                n.checked_add(p.events)?.checked_add(p.duplicates())
            })
            .ok_or_else(|| {
                ScenarioError::new("recipe phases total more events than a usize holds")
            })?;

        Ok(Recipe {
            name,
            seed,
            nodes,
            feature_dim,
            skew,
            burstiness,
            repeat_prob,
            pool_fraction,
            partner_cap,
            chunk_size,
            train,
            phases,
        })
    }

    /// Total *base* events across all phases (the normalized stream
    /// length: duplicates injected by reorder phases are on top of
    /// this, and are dropped again by ingest normalization).
    pub fn base_events(&self) -> usize {
        self.phases.iter().map(|p| p.events).sum()
    }

    /// Total events as *delivered*, including injected duplicates —
    /// the raw stream length a generated CEVT file holds.
    pub fn delivered_events(&self) -> usize {
        self.base_events() + self.phases.iter().map(Phase::duplicates).sum::<usize>()
    }

    /// The widest reorder window any phase uses (0 when no phase
    /// perturbs delivery order): the [`ReorderPolicy`] window a
    /// consumer needs to normalize this recipe's stream.
    ///
    /// [`ReorderPolicy`]: cascade_tgraph::ReorderPolicy
    pub fn max_reorder_window(&self) -> usize {
        self.phases
            .iter()
            .map(|p| match p.kind {
                PhaseKind::Reorder { window, .. } => window,
                _ => 0,
            })
            .max()
            .unwrap_or(0)
    }

    /// A copy with every phase's event budget scaled by `factor`
    /// (minimum 16 events per phase), for running a recipe's exact
    /// dynamics at test size. The name gains a `@f` suffix so reports
    /// of scaled runs are never mistaken for the committed scenario.
    pub fn scaled(&self, factor: f64) -> Recipe {
        let mut out = self.clone();
        if (factor - 1.0).abs() < f64::EPSILON {
            return out;
        }
        for p in &mut out.phases {
            p.events = ((p.events as f64 * factor) as usize).max(16);
        }
        out.name = format!("{}@{}", self.name, factor);
        out
    }

    /// A copy with reorder phases' delivery perturbation disabled
    /// (kind → `Baseline`): the pre-sorted control stream. Base
    /// dynamics are untouched, so the control's events are bit-identical
    /// to the perturbed recipe's events after ingest normalization.
    pub fn presorted_control(&self) -> Recipe {
        let mut out = self.clone();
        for p in &mut out.phases {
            if let PhaseKind::Reorder { .. } = p.kind {
                p.kind = PhaseKind::Baseline;
            }
        }
        out.name = format!("{}_control", self.name);
        out
    }
}

fn parse_phase(p: &Json, index: usize) -> Result<Phase, ScenarioError> {
    let name = opt_str(p, "name", "")?.to_string();
    let name = if name.is_empty() {
        format!("phase{}", index)
    } else {
        name
    };
    let events = req_usize(p, "events")?;
    if events == 0 {
        return Err(ScenarioError::new(format!(
            "phase '{}' needs a positive 'events' count",
            name
        )));
    }
    let kind_str = opt_str(p, "kind", "baseline")?;
    let kind = match kind_str {
        "baseline" => PhaseKind::Baseline,
        "flash_crowd" => PhaseKind::FlashCrowd {
            compression: opt_f64(p, "compression", 10.0)?,
            hubs: opt_usize(p, "hubs", 16)?.max(1),
        },
        "churn" => PhaseKind::Churn {
            rotate: opt_f64(p, "rotate", 1.0)?,
        },
        "skew_shift" => PhaseKind::SkewShift {
            skew: opt_f64(p, "skew", 4.0)?,
        },
        "reorder" => PhaseKind::Reorder {
            window: opt_usize(p, "window", 64)?.max(2),
            duplicate_every: opt_usize(p, "duplicate_every", 0)?,
        },
        other => {
            return Err(ScenarioError::new(format!(
                "phase '{}' has unknown kind '{}' \
                 (expected baseline|flash_crowd|churn|skew_shift|reorder)",
                name, other
            )))
        }
    };
    Ok(Phase { name, events, kind })
}

fn req_str<'a>(json: &'a Json, key: &str) -> Result<&'a str, ScenarioError> {
    json.get(key)
        .and_then(|v| v.as_str())
        .ok_or_else(|| ScenarioError::new(format!("recipe needs a string field '{}'", key)))
}

fn opt_str<'a>(json: &'a Json, key: &str, default: &'static str) -> Result<&'a str, ScenarioError> {
    match json.get(key) {
        None => Ok(default),
        Some(v) => v
            .as_str()
            .ok_or_else(|| ScenarioError::new(format!("field '{}' must be a string", key))),
    }
}

fn req_usize(json: &Json, key: &str) -> Result<usize, ScenarioError> {
    json.get(key).and_then(|v| v.as_usize()).ok_or_else(|| {
        ScenarioError::new(format!(
            "recipe needs a non-negative integer field '{}'",
            key
        ))
    })
}

fn opt_usize(json: &Json, key: &str, default: usize) -> Result<usize, ScenarioError> {
    match json.get(key) {
        None => Ok(default),
        Some(v) => v.as_usize().ok_or_else(|| {
            ScenarioError::new(format!("field '{}' must be a non-negative integer", key))
        }),
    }
}

fn opt_f64(json: &Json, key: &str, default: f64) -> Result<f64, ScenarioError> {
    match json.get(key) {
        None => Ok(default),
        Some(v) => v
            .as_f64()
            .ok_or_else(|| ScenarioError::new(format!("field '{}' must be a number", key))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{
        "name": "t",
        "seed": 7,
        "nodes": 100,
        "feature_dim": 4,
        "skew": 1.5,
        "burstiness": 0.2,
        "repeat_prob": 0.4,
        "chunk_size": 64,
        "train": { "model": "tgn", "dim": 8, "batch": 32, "epochs": 2 },
        "phases": [
            { "name": "a", "kind": "baseline", "events": 100 },
            { "name": "b", "kind": "reorder", "events": 90, "window": 16,
              "duplicate_every": 9 },
            { "name": "c", "kind": "flash_crowd", "events": 50,
              "compression": 20, "hubs": 4 }
        ]
    }"#;

    #[test]
    fn parses_the_full_schema() {
        let r = Recipe::parse(SAMPLE).expect("sample is valid");
        assert_eq!(r.name, "t");
        assert_eq!(r.seed, 7);
        assert_eq!(r.nodes, 100);
        assert_eq!(r.phases.len(), 3);
        assert_eq!(r.base_events(), 240);
        // 90 / 9 = 10 duplicates on top.
        assert_eq!(r.delivered_events(), 250);
        assert_eq!(r.max_reorder_window(), 16);
        assert_eq!(r.train.epochs, 2);
        assert_eq!(
            r.phases[2].kind,
            PhaseKind::FlashCrowd {
                compression: 20.0,
                hubs: 4
            }
        );
    }

    #[test]
    fn missing_fields_name_the_field() {
        let err = Recipe::parse(r#"{"seed": 1}"#).expect_err("name is required");
        assert!(err.to_string().contains("'name'"));
        let err = Recipe::parse(r#"{"name": "x", "seed": 1}"#).expect_err("nodes required");
        assert!(err.to_string().contains("'nodes'"));
    }

    #[test]
    fn unknown_phase_kind_is_rejected() {
        let text = r#"{"name": "x", "seed": 1, "nodes": 10,
                       "phases": [{"kind": "meteor", "events": 5}]}"#;
        let err = Recipe::parse(text).expect_err("meteor is not a phase kind");
        assert!(err.to_string().contains("meteor"));
    }

    #[test]
    fn scaled_shrinks_phases_and_renames() {
        let r = Recipe::parse(SAMPLE).expect("sample is valid");
        let s = r.scaled(0.1);
        assert_eq!(s.phases[0].events, 16); // 10 clamped to the minimum
        assert_eq!(s.name, "t@0.1");
        assert_eq!(r.scaled(1.0).name, "t");
    }

    #[test]
    fn presorted_control_neutralizes_reorder_only() {
        let r = Recipe::parse(SAMPLE).expect("sample is valid");
        let c = r.presorted_control();
        assert_eq!(c.phases[1].kind, PhaseKind::Baseline);
        assert_eq!(c.phases[2].kind, r.phases[2].kind);
        assert_eq!(c.base_events(), r.base_events());
        assert_eq!(c.delivered_events(), c.base_events());
    }

    #[test]
    fn event_totals_past_usize_are_refused() {
        // Each count alone is a valid usize; their sum is not.
        let two = r#"{"name": "x", "seed": 1, "nodes": 10, "phases": [
                        {"events": 1e19}, {"events": 1e19}]}"#;
        let err = Recipe::parse(two).expect_err("1e19 + 1e19 overflows a usize");
        assert!(err.to_string().contains("total"), "{err}");
        // Duplicates count toward the delivered total too.
        let dups = r#"{"name": "x", "seed": 1, "nodes": 10, "phases": [
                        {"kind": "reorder", "events": 1e19, "duplicate_every": 1}]}"#;
        assert!(Recipe::parse(dups).is_err());
        let one = r#"{"name": "x", "seed": 1, "nodes": 10, "phases": [{"events": 1e19}]}"#;
        let r = Recipe::parse(one).expect("one 1e19 phase fits");
        assert_eq!(r.delivered_events(), 10_000_000_000_000_000_000);
    }

    /// `check_decoder` over every committed recipe, decoding through
    /// `from_utf8` and [`Recipe::parse`]. JSON has many spellings of one
    /// recipe, so a decoded recipe hands back its input once its own
    /// invariants hold, and the battery checks that every prefix, huge
    /// value and bit flip is a typed refusal or such a recipe, never a
    /// panic. Trailing whitespace is trimmed: a prefix that only drops it
    /// is the same document.
    #[test]
    fn committed_recipes_survive_the_hostile_input_battery() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../recipes");
        let mut paths: Vec<_> = std::fs::read_dir(&dir)
            .expect("recipes/ is committed")
            .map(|e| e.expect("recipes/ entries are readable").path())
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .collect();
        paths.sort();
        assert!(!paths.is_empty(), "no recipes under {}", dir.display());
        for path in paths {
            let text = std::fs::read_to_string(&path).expect("recipes are UTF-8");
            let name = path.display().to_string();
            cascade_util::check_decoder(&name, text.trim().as_bytes(), |bytes| {
                let r = Recipe::parse(std::str::from_utf8(bytes).ok()?).ok()?;
                assert!(r.nodes > 0 && r.chunk_size > 0);
                assert!(r.train.batch > 0 && r.train.dim > 0 && r.train.epochs > 0);
                assert!(r.phases.iter().all(|p| p.events > 0));
                assert!(r.delivered_events() >= r.base_events());
                Some(bytes.to_vec())
            });
        }
    }
}
