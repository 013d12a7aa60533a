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
//! rules (see [`RULES`]):
//!
//! * **determinism** — no `HashMap`/`HashSet`, `Instant::now` /
//!   `SystemTime`, or hash-ordered float accumulation in the compute,
//!   serving, storage and scenario crates; telemetry is allowlisted.
//! * **panic-safety** — no bare `unwrap()` / one-word `expect()` /
//!   `panic!`-family macros in hot paths; unchecked indexing is banned
//!   in the streaming driver and its loader.
//! * **concurrency** — no detached `thread::spawn` outside the
//!   designated modules, no `static mut` anywhere.
//! * **confinement** — `arena::reset()` only at the batch boundary,
//!   `std::fs` only in the designated I/O modules.
//! * **policy** — no unexplained `#[allow(clippy::…)]`, no registry
//!   dependencies in any manifest, no suppression without a reason.
//!
//! Every rule is a pattern over one file's token stream, so the engine
//! is a single pass per file and a file's findings depend on nothing
//! else. What a token pattern cannot see — whether a clock value reaches
//! training state, lock order across calls — is held by the
//! bit-identity suites instead (DESIGN.md §8).
//!
//! Findings are diffed against a checked-in baseline so CI fails
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
//!     "crates/core/src/scheduler.rs",
//!     "fn f(v: &[u32]) -> u32 { v.first().copied().unwrap() }",
//! );
//! assert_eq!(report.findings.len(), 1);
//! assert_eq!(report.findings[0].rule, "panic-unwrap");
//! ```

mod baseline;
mod engine;
mod lexer;
mod manifest;
mod report;
mod rules;
mod walk;

pub use baseline::Baseline;
pub use engine::check_source;
use engine::Finding;
pub use lexer::{lex, TokKind};
pub use manifest::check_manifest;
pub use report::RunSummary;
pub use rules::RULES;
pub use walk::{find_root, workspace_files};

use std::path::Path;

/// Scans every workspace file under `root` and returns all findings
/// (pre-baseline) plus the suppressed count and the file count.
///
/// Each file is checked on its own; the walk is sorted and each file's
/// findings are sorted by (line, col, rule), so the result — and any
/// baseline written from it — is byte-identical across runs.
///
/// # Errors
///
/// Returns a description of the first unreadable file or directory.
pub fn scan_workspace(root: &Path) -> Result<(Vec<Finding>, usize, usize), String> {
    let files = workspace_files(root)?;
    let mut findings = Vec::new();
    let mut suppressed = 0usize;
    for file in &files {
        let text = std::fs::read_to_string(&file.disk_path)
            .map_err(|e| format!("read {}: {}", file.disk_path.display(), e))?;
        if file.is_manifest {
            findings.extend(check_manifest(&file.rel_path, &text));
        } else {
            let report = check_source(&file.rel_path, &text);
            findings.extend(report.findings);
            suppressed += report.suppressed;
        }
    }
    Ok((findings, suppressed, files.len()))
}
