//! # cascade-bench
//!
//! The experiment harness that regenerates every table and figure of the
//! Cascade paper's evaluation (§3, §5) on the scaled synthetic substrate.
//!
//! Run everything:
//!
//! ```text
//! cargo run --release -p cascade-bench --bin repro -- all
//! ```
//!
//! or a single artifact (`table2`, `fig2`, `fig3`, `fig5`, `fig10`, …).
//! Absolute numbers differ from the paper (CPU tensor engine vs. A100);
//! the reproduced quantity is the *shape*: who wins, by what factor, and
//! where the trade-offs fall. Latencies are the modelled A100's ([`A100`]),
//! a view over each finished run. EXPERIMENTS.md records both sides.

mod a100;
pub mod experiments;
mod harness;
mod table;

pub use a100::{UtilizationProxy, A100};
pub use harness::{Harness, RunOutcome, StrategyKind};
pub use table::TextTable;
