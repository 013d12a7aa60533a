//! Deterministic workspace traversal: which files the gate scans.
//!
//! The walk is sorted at every directory level so the findings list —
//! and therefore the rendered baseline — is byte-identical across runs
//! and machines (the linter holds itself to its own determinism rules).

use std::fs;
use std::path::{Path, PathBuf};

/// Directory names never descended into.
const SKIP_DIRS: &[&str] = &[".git", "target", "bench_results"];

/// Path prefixes (workspace-relative) excluded from scanning: the lint
/// crate's rule fixtures are violations *by design*.
const SKIP_PREFIXES: &[&str] = &["crates/lint/tests/fixtures/"];

/// A file selected for scanning.
#[derive(Clone, Debug)]
pub struct SourceFile {
    /// Absolute (or root-joined) path on disk.
    pub disk_path: PathBuf,
    /// Workspace-relative `/`-separated path used in findings.
    pub rel_path: String,
    /// Whether this is a `Cargo.toml` (manifest rules) or `.rs` source.
    pub is_manifest: bool,
}

/// Collects every `.rs` and `Cargo.toml` under `root`, sorted, skipping
/// build output, VCS metadata, and the lint fixtures.
///
/// # Errors
///
/// Returns the first I/O failure with the path that caused it.
pub fn workspace_files(root: &Path) -> Result<Vec<SourceFile>, String> {
    let mut out = Vec::new();
    descend(root, root, &mut out)?;
    // Final sort by relative path: directory traversal order and string
    // order disagree on names like `ops` vs `ops.rs`, and the report and
    // baseline must not depend on which the filesystem happens to yield.
    out.sort_by(|a, b| a.rel_path.cmp(&b.rel_path));
    Ok(out)
}

fn descend(root: &Path, dir: &Path, out: &mut Vec<SourceFile>) -> Result<(), String> {
    let entries = fs::read_dir(dir).map_err(|e| format!("read_dir {}: {}", dir.display(), e))?;
    let mut paths: Vec<PathBuf> = Vec::new();
    for entry in entries {
        paths.push(
            entry
                .map_err(|e| format!("read_dir {}: {}", dir.display(), e))?
                .path(),
        );
    }
    paths.sort();
    for path in paths {
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default()
            .to_string();
        let rel = rel_path(root, &path);
        if SKIP_PREFIXES.iter().any(|p| rel.starts_with(p)) {
            continue;
        }
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name.as_str()) {
                descend(root, &path, out)?;
            }
        } else if name == "Cargo.toml" || name.ends_with(".rs") {
            out.push(SourceFile {
                disk_path: path,
                rel_path: rel,
                is_manifest: name == "Cargo.toml",
            });
        }
    }
    Ok(())
}

/// Workspace-relative `/`-separated path of `path` under `root`.
fn rel_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Finds the workspace root: the nearest ancestor of `start` (inclusive)
/// whose `Cargo.toml` contains a `[workspace]` table.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start);
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d.to_path_buf());
            }
        }
        dir = d.parent();
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_this_workspace_and_skips_fixtures() {
        let here = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        let root = find_root(&here).expect("lint crate lives inside the workspace");
        let files = workspace_files(&root).expect("workspace scan succeeds");
        assert!(files
            .iter()
            .any(|f| f.rel_path == "crates/lint/src/walk.rs"));
        assert!(files
            .iter()
            .any(|f| f.rel_path == "Cargo.toml" && f.is_manifest));
        assert!(
            !files.iter().any(|f| f.rel_path.contains("tests/fixtures/")),
            "fixture violations must not be scanned"
        );
        assert!(
            files
                .iter()
                .any(|f| f.rel_path == "crates/lint/tests/fixtures.rs"),
            "the fixture *driver* is ordinary code and is scanned"
        );
        assert!(!files.iter().any(|f| f.rel_path.starts_with("target")));
        // Sorted ⇒ deterministic report and baseline ordering.
        let mut sorted = files.iter().map(|f| f.rel_path.clone()).collect::<Vec<_>>();
        sorted.sort();
        assert_eq!(
            sorted,
            files.iter().map(|f| f.rel_path.clone()).collect::<Vec<_>>()
        );
    }
}
