//! The linter gates its own workspace: scanning the repository against
//! the committed `lint_baseline.json` must produce zero new findings.
//! This is the same check CI runs via the binary, kept as a test so
//! `cargo test` alone catches a regression.

use std::path::PathBuf;

use cascade_lint::{find_root, scan_workspace, Baseline, RunSummary};

#[test]
fn workspace_is_clean_against_committed_baseline() {
    let here = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let root = find_root(&here).expect("lint crate lives inside the workspace");
    let (findings, suppressed, files) =
        scan_workspace(&root).expect("workspace sources are readable");

    let baseline_path = root.join("lint_baseline.json");
    let text = std::fs::read_to_string(&baseline_path)
        .expect("lint_baseline.json is committed at the workspace root");
    let baseline = Baseline::parse(&text).expect("committed baseline parses");

    let summary = RunSummary::new(baseline.diff(&findings), suppressed, files);
    assert!(
        summary.clean(),
        "new lint findings not in lint_baseline.json:\n{}",
        summary.render_text()
    );
    assert!(
        summary.stale.is_empty(),
        "stale baseline entries — regenerate with --write-baseline:\n{}",
        summary.render_text()
    );
}

#[test]
fn two_scans_render_byte_identical_baselines() {
    // The baseline file is reviewed as a diff: findings are sorted by
    // (path, line, col, rule) before rendering, so two runs over the
    // same tree must agree byte for byte.
    let here = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let root = find_root(&here).expect("lint crate lives inside the workspace");
    let (first, _, _) = scan_workspace(&root).expect("workspace sources are readable");
    let (second, _, _) = scan_workspace(&root).expect("workspace sources are readable");
    assert_eq!(first, second, "finding order must not vary across runs");
    assert_eq!(
        Baseline::from_findings(&first).render(),
        Baseline::from_findings(&second).render(),
        "rendered baselines must be byte-identical across runs"
    );
}

#[test]
fn suppressions_in_the_workspace_carry_reasons() {
    // Every suppression that silences a finding parsed with a valid
    // reason (bare ones are findings and would fail the gate above);
    // this pins the expectation that the count stays meaningful.
    let here = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let root = find_root(&here).expect("lint crate lives inside the workspace");
    let (_, suppressed, _) = scan_workspace(&root).expect("workspace sources are readable");
    assert!(
        suppressed > 0,
        "the workspace documents its telemetry/index-map exceptions via suppressions"
    );
}
