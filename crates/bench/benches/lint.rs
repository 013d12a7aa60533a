//! Lint self-benchmark: times a whole-workspace `cascade-lint` scan —
//! walk, then one lex + token-rule pass per file — over this very
//! repository.
//!
//! The gate runs on every CI push and inside `cargo test` (self_gate),
//! so its wall time is a developer-facing latency budget: the ceiling
//! is 10 s single-core for the full workspace. This bench pins that
//! number in `bench_results/lint.json` so a regression in the lexer or
//! the rule pass shows up as a curve, not an anecdote.
//!
//! Run with `cargo bench -p cascade-bench --bench lint`.

use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

use cascade_lint::{find_root, scan_workspace, workspace_files};
use cascade_util::{BenchSuite, Json};

fn repo_root() -> PathBuf {
    let here = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    find_root(&here).expect("bench crate lives inside the workspace")
}

fn main() {
    let mut suite = BenchSuite::new("lint");
    let root = repo_root();

    suite.bench("lint/walk_workspace", || {
        black_box(
            workspace_files(&root)
                .expect("workspace walk succeeds")
                .len(),
        )
    });
    suite.bench("lint/scan_workspace", || {
        let (findings, suppressed, files) =
            scan_workspace(&root).expect("workspace sources are readable");
        black_box((findings.len(), suppressed, files))
    });

    // One instrumented pass supplies the budget record: absolute wall
    // time against the 10 s single-core ceiling, plus the scan counters
    // so the artifact is self-describing. Measured only when the suite
    // itself is measuring, so `cargo test` smoke runs stay write-free.
    if let Some(path) = suite.finish() {
        let t0 = Instant::now();
        let (findings, suppressed, files) =
            scan_workspace(&root).expect("workspace sources are readable");
        let wall = t0.elapsed();

        let raw = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot re-read {}: {}", path.display(), e));
        let mut report = Json::parse(&raw).expect("suite report is valid JSON");
        if let Json::Obj(fields) = &mut report {
            fields.push((
                "workspace_scan".into(),
                Json::Obj(vec![
                    ("files_scanned".into(), Json::from(files)),
                    ("findings".into(), Json::from(findings.len())),
                    ("suppressed".into(), Json::from(suppressed)),
                    ("wall_ns".into(), Json::from(wall.as_nanos() as f64)),
                    (
                        "budget_secs".into(),
                        // The acceptance ceiling from ISSUE 8; the gate
                        // below turns a breach into a bench failure.
                        Json::from(10.0),
                    ),
                    (
                        "within_budget".into(),
                        Json::from(wall.as_secs_f64() < 10.0),
                    ),
                ]),
            ));
        }
        std::fs::write(&path, report.to_string())
            .unwrap_or_else(|e| panic!("cannot write {}: {}", path.display(), e));
        eprintln!(
            "[bench lint] scanned {} files in {:.3}s ({} finding(s), {} suppressed); \
             report at {}",
            files,
            wall.as_secs_f64(),
            findings.len(),
            suppressed,
            path.display()
        );
        assert!(
            wall.as_secs_f64() < 10.0,
            "whole-workspace lint took {:.3}s — over the 10s single-core budget",
            wall.as_secs_f64()
        );
    }
}
