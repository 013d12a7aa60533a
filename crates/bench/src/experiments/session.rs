//! A memoizing run cache so `repro all` never repeats a training run.

use std::cell::RefCell;
use std::collections::HashMap;

use cascade_models::ModelConfig;
use cascade_tgraph::{Dataset, SynthConfig};

use crate::harness::{Harness, RunOutcome, StrategyKind};

/// Shared state for one `repro` invocation: the harness knobs, generated
/// datasets, and memoized training runs.
pub struct Session {
    harness: Harness,
    datasets: RefCell<HashMap<String, Dataset>>,
    runs: RefCell<HashMap<String, RunOutcome>>,
}

impl Session {
    /// Creates a session over the given harness.
    pub fn new(harness: Harness) -> Self {
        Session {
            harness,
            datasets: RefCell::new(HashMap::new()),
            runs: RefCell::new(HashMap::new()),
        }
    }

    /// The harness knobs.
    pub fn harness(&self) -> &Harness {
        &self.harness
    }

    /// The scaled dataset for a profile name (generated once).
    ///
    /// # Panics
    ///
    /// Panics on unknown profile names.
    pub fn dataset(&self, name: &str) -> Dataset {
        if let Some(d) = self.datasets.borrow().get(name) {
            return d.clone();
        }
        let profile = SynthConfig::by_name(name)
            .unwrap_or_else(|| panic!("unknown dataset profile '{}'", name));
        let d = self.harness.dataset(profile);
        self.datasets
            .borrow_mut()
            .insert(name.to_string(), d.clone());
        d
    }

    /// Runs (or replays) one (dataset, model, strategy) training.
    pub fn run(&self, dataset: &str, model: ModelConfig, strategy: &StrategyKind) -> RunOutcome {
        let key = format!("{}|{}|{}", dataset, model.name, strategy.label());
        if let Some(o) = self.runs.borrow().get(&key) {
            return o.clone();
        }
        eprintln!("  [run] {}", key);
        let data = self.dataset(dataset);
        let out = self.harness.run(&data, model, strategy);
        self.runs.borrow_mut().insert(key, out.clone());
        out
    }
}

/// The moderate dataset names, in the paper's plotting order.
pub const MODERATE: &[&str] = &["WIKI", "REDDIT", "MOOC", "WIKI-TALK", "SX-FULL"];

/// The billion-scale dataset names.
pub const LARGE: &[&str] = &["GDELT", "MAG"];

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_session() -> Session {
        Session::new(Harness {
            moderate_events: 400,
            large_events: 500,
            epochs: 1,
            preset_batch: 32,
            memory_dim: 8,
            feature_dim: 4,
            ..Harness::default()
        })
    }

    #[test]
    fn datasets_are_cached() {
        let s = tiny_session();
        let a = s.dataset("WIKI");
        let b = s.dataset("WIKI");
        assert_eq!(a.num_events(), b.num_events());
    }

    #[test]
    fn runs_are_memoized() {
        let s = tiny_session();
        let _ = s.run("WIKI", ModelConfig::jodie(), &StrategyKind::Tgl);
        assert_eq!(s.runs.borrow().len(), 1);
        let _ = s.run("WIKI", ModelConfig::jodie(), &StrategyKind::Tgl);
        assert_eq!(s.runs.borrow().len(), 1);
    }

    #[test]
    fn profiles_resolve() {
        for name in MODERATE.iter().chain(LARGE) {
            assert!(SynthConfig::by_name(name).is_some(), "{}", name);
        }
        assert!(SynthConfig::by_name("NOPE").is_none());
    }
}
