#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # cascade-lint
//!
//! A zero-dependency static-analysis gate for the Cascade workspace.
//!
//! The compiler cannot check the invariants Cascade's correctness claims
//! rest on: every training driver must stay **bit-identical** to the
//! serial one (serial ≡ streamed ≡ dist N=1, DESIGN.md §6), and the TG-Diffuser /
//! SG-Filter / ABS loop is only reproducible if no nondeterministic API
//! leaks into a compute path. Regressions there are silent data
//! corruption, not crashes — so this crate walks the whole workspace at
//! CI time and enforces the project invariants as named, suppressible
//! rules (see [`rules::RULES`]):
//!
//! * **determinism** — no `HashMap`/`HashSet`, `Instant::now` /
//!   `SystemTime`, or hash-ordered float accumulation in the compute
//!   crates (`core`, `exec`, `models`, `nn`); telemetry is allowlisted.
//! * **panic-safety** — no bare `unwrap()` / one-word `expect()` /
//!   `panic!`-family macros in hot paths; unchecked indexing is banned
//!   in the executor.
//! * **concurrency** — no detached `thread::spawn` outside the
//!   designated modules, no lock guard held across a blocking call
//!   (channel ops, joins, fsync, accept), no lock-order cycles across
//!   the workspace call graph, no `static mut` anywhere.
//! * **lifecycle** — arena `take_*` buffers recycled or moved out on
//!   every path out of a function; `arena::reset()` confined to batch
//!   boundaries.
//! * **policy** — no unexplained `#[allow(clippy::…)]`, no registry
//!   dependencies in any manifest, no suppression without a reason.
//!
//! The determinism and concurrency families are *flow-aware* since v2:
//! a lightweight item parser ([`parse`]) recovers function boundaries
//! and call edges, per-function scans ([`flow`]) track guard scopes,
//! arena buffer lifetimes, and taint sources, and the call-graph layer
//! ([`callgraph`]) propagates lock orders and determinism taint across
//! the whole workspace (`conc-lock-order`, `det-taint`).
//!
//! Findings are diffed against a checked-in [`baseline`] so CI fails
//! only on *new* violations, and every finding can be silenced in place
//! with `// cascade-lint: allow(<rule>): <reason>` — the reason is
//! mandatory and audited.
//!
//! # Examples
//!
//! Lint a source fragment as if it lived in a compute crate:
//!
//! ```
//! use cascade_lint::check_source;
//!
//! let report = check_source(
//!     "crates/exec/src/worker.rs",
//!     "fn f(v: &[u32]) -> u32 { v.first().copied().unwrap() }",
//! );
//! assert_eq!(report.findings.len(), 1);
//! assert_eq!(report.findings[0].rule, "panic-unwrap");
//! ```

pub mod baseline;
pub mod callgraph;
pub mod engine;
pub mod flow;
pub mod lexer;
pub mod manifest;
pub mod parse;
pub mod report;
pub mod rules;
pub mod walk;

pub use baseline::{Baseline, BaselineEntry, Diff};
pub use engine::{analyze_program, check_file, check_source, FileFacts, FileReport, Finding};
pub use lexer::{lex, Tok, TokKind};
pub use manifest::check_manifest;
pub use report::RunSummary;
pub use rules::{RuleSpec, RULES};
pub use walk::{find_root, workspace_files, SourceFile};

use std::path::Path;

/// Scans every workspace file under `root` and returns all findings
/// (pre-baseline) plus the suppressed count and the file count.
///
/// Per-file rules run file by file; the interprocedural analyses
/// (lock order, determinism taint) then run once over every file's
/// facts, so call-graph edges cross crate boundaries. Findings are
/// sorted by (path, line, col, rule) so the report — and any baseline
/// written from it — is byte-identical across runs.
///
/// # Errors
///
/// Returns a description of the first unreadable file or directory.
pub fn scan_workspace(root: &Path) -> Result<(Vec<Finding>, usize, usize), String> {
    let files = workspace_files(root)?;
    let mut findings = Vec::new();
    let mut suppressed = 0usize;
    let mut facts: Vec<FileFacts> = Vec::new();
    let count = files.len();
    for file in &files {
        let text = std::fs::read_to_string(&file.disk_path)
            .map_err(|e| format!("read {}: {}", file.disk_path.display(), e))?;
        if file.is_manifest {
            findings.extend(check_manifest(&file.rel_path, &text));
        } else {
            let (report, file_facts) = check_file(&file.rel_path, &text);
            findings.extend(report.findings);
            suppressed += report.suppressed;
            facts.push(file_facts);
        }
    }
    let (global, global_suppressed) = analyze_program(&facts);
    findings.extend(global);
    suppressed += global_suppressed;
    engine::sort_findings(&mut findings);
    Ok((findings, suppressed, count))
}
