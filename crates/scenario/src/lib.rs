//! cascade-scenario: recipe-driven workload replay with adversarial
//! stream perturbations.
//!
//! A [`Recipe`] is a small JSON document describing a synthetic
//! temporal-graph workload: node-id space, hub-skew exponent,
//! burstiness, training shape, and an ordered list of mid-stream
//! perturbation phases (flash crowds, node churn, skew shifts,
//! duplicate/out-of-order delivery). [`ScenarioSource`] turns a recipe
//! into a deterministic, seed-addressable event stream that never
//! materializes in RAM — it implements the same
//! [`EventSource`](cascade_tgraph::EventSource) contract the streaming
//! trainer, its loader thread, and dist followers already consume, and
//! [`generate_to_store`] spills the identical bytes into CEVT chunks
//! for multi-GB out-of-core runs.
//!
//! [`ScenarioRunner`] drives a recipe end to end (generate, train,
//! train-dist, serve-replay) and emits a structured
//! [`ScenarioReport`] — peak RSS, sustained events/sec, per-phase loss
//! trajectory — to `bench_results/scenario_<name>.json`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod gen;
mod recipe;
mod report;
mod rss;
mod runner;

pub use gen::{feature_row_into, generate_to_store, ScenarioSource, PARTNER_SLOTS_MAX};
pub use recipe::{Phase, PhaseKind, Recipe, TrainSpec};
pub use report::{list_recipes, load_recipe, proc_self_status, PhaseLoss, ScenarioReport};
pub use rss::{peak_rss_bytes, Stopwatch};
pub use runner::ScenarioRunner;

/// A scenario-layer failure: recipe schema violations, generation
/// invariant breaks, or a wrapped store/training error.
#[derive(Debug)]
pub struct ScenarioError {
    message: String,
}

impl ScenarioError {
    /// Wraps a message.
    pub fn new(message: impl Into<String>) -> Self {
        ScenarioError {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "scenario error: {}", self.message)
    }
}

impl std::error::Error for ScenarioError {}
