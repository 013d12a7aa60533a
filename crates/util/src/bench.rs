//! A micro-bench harness replacing `criterion`.
//!
//! Bench targets are plain `harness = false` binaries that build a
//! [`BenchSuite`], register closures with [`BenchSuite::bench`], and call
//! [`BenchSuite::finish`]. Mirroring criterion's behaviour:
//!
//! * under `cargo bench` (cargo passes `--bench`) every closure runs
//!   `CASCADE_BENCH_WARMUP` warmup iterations (default 3) plus
//!   `CASCADE_BENCH_ITERS` timed iterations (default 30), and the suite
//!   writes a JSON report into `bench_results/<suite>.json`;
//! * under `cargo test` (no `--bench` argument) every closure runs once
//!   as a smoke test and nothing is written.
//!
//! The report lists per-bench mean/median/p10/p90/min/max in nanoseconds.

use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::json::Json;

/// Timing statistics of one benchmark, in nanoseconds per iteration.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchStats {
    /// Benchmark id (unique within a suite).
    pub id: String,
    /// Timed iterations behind the statistics.
    pub iters: usize,
    /// Arithmetic mean.
    pub mean_ns: f64,
    /// Median (50th percentile).
    pub median_ns: f64,
    /// 10th percentile.
    pub p10_ns: f64,
    /// 90th percentile.
    pub p90_ns: f64,
    /// Fastest iteration.
    pub min_ns: f64,
    /// Slowest iteration.
    pub max_ns: f64,
}

impl BenchStats {
    /// Computes statistics from raw per-iteration samples.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty.
    pub fn from_samples(id: &str, samples: &[f64]) -> BenchStats {
        assert!(!samples.is_empty(), "no samples for '{}'", id);
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite sample"));
        BenchStats {
            id: id.to_string(),
            iters: sorted.len(),
            mean_ns: sorted.iter().sum::<f64>() / sorted.len() as f64,
            median_ns: quantile(&sorted, 0.5),
            p10_ns: quantile(&sorted, 0.1),
            p90_ns: quantile(&sorted, 0.9),
            min_ns: sorted[0],
            max_ns: sorted[sorted.len() - 1],
        }
    }

    /// This record as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("id".into(), Json::from(self.id.as_str())),
            ("iters".into(), Json::from(self.iters)),
            ("mean_ns".into(), Json::from(self.mean_ns)),
            ("median_ns".into(), Json::from(self.median_ns)),
            ("p10_ns".into(), Json::from(self.p10_ns)),
            ("p90_ns".into(), Json::from(self.p90_ns)),
            ("min_ns".into(), Json::from(self.min_ns)),
            ("max_ns".into(), Json::from(self.max_ns)),
        ])
    }
}

/// Linear-interpolated quantile of an ascending-sorted sample set.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let rank = q * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

/// A named collection of benchmarks, run and reported together.
///
/// # Examples
///
/// ```
/// use cascade_util::BenchSuite;
///
/// let mut suite = BenchSuite::with_config("doc", 5, 1, false);
/// suite.bench("sum_1k", || (0..1000u64).sum::<u64>());
/// let stats = suite.stats();
/// assert_eq!(stats[0].id, "sum_1k");
/// assert!(stats[0].median_ns >= 0.0);
/// ```
pub struct BenchSuite {
    name: String,
    iters: usize,
    warmup: usize,
    /// Smoke mode: run each closure once, skip timing and reporting.
    smoke: bool,
    /// Workload seed recorded in the report (0 = unseeded workload).
    seed: u64,
    results: Vec<BenchStats>,
}

impl BenchSuite {
    /// Creates a suite configured from the environment and command line,
    /// the constructor bench binaries use.
    ///
    /// Full measurement mode requires `--bench` among the process
    /// arguments (which `cargo bench` passes) or `CASCADE_BENCH_FORCE=1`;
    /// otherwise the suite runs in smoke mode, matching criterion's
    /// `cargo test` behaviour.
    pub fn new(name: &str) -> BenchSuite {
        let full = std::env::args().any(|a| a == "--bench")
            || std::env::var("CASCADE_BENCH_FORCE").is_ok_and(|v| v == "1");
        let env = |k: &str, d: usize| {
            std::env::var(k)
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(d)
        };
        BenchSuite::with_config(
            name,
            env("CASCADE_BENCH_ITERS", 30).max(1),
            env("CASCADE_BENCH_WARMUP", 3),
            !full,
        )
    }

    /// Creates a suite with explicit iteration counts (tests, docs).
    pub fn with_config(name: &str, iters: usize, warmup: usize, smoke: bool) -> BenchSuite {
        BenchSuite {
            name: name.to_string(),
            iters: iters.max(1),
            warmup,
            smoke,
            seed: 0,
            results: Vec::new(),
        }
    }

    /// Records the workload seed the suite's closures were built from, so
    /// every report carries its reproduction key (`seed` stays 0 for
    /// unseeded workloads).
    pub fn with_seed(mut self, seed: u64) -> BenchSuite {
        self.seed = seed;
        self
    }

    /// Runs one benchmark closure and records its statistics.
    ///
    /// In smoke mode the closure runs exactly once and nothing is
    /// recorded.
    pub fn bench<R>(&mut self, id: &str, mut f: impl FnMut() -> R) {
        if self.smoke {
            std::hint::black_box(f());
            eprintln!("[bench {}] {}: smoke ok", self.name, id);
            return;
        }
        for _ in 0..self.warmup {
            std::hint::black_box(f());
        }
        let mut samples = Vec::with_capacity(self.iters);
        for _ in 0..self.iters {
            let t0 = Instant::now();
            std::hint::black_box(f());
            samples.push(t0.elapsed().as_nanos() as f64);
        }
        let stats = BenchStats::from_samples(id, &samples);
        eprintln!(
            "[bench {}] {}: median {} (p10 {}, p90 {}) over {} iters",
            self.name,
            stats.id,
            humanize_ns(stats.median_ns),
            humanize_ns(stats.p10_ns),
            humanize_ns(stats.p90_ns),
            stats.iters,
        );
        self.results.push(stats);
    }

    /// The statistics recorded so far.
    pub fn stats(&self) -> &[BenchStats] {
        &self.results
    }

    /// The whole suite as a JSON report.
    ///
    /// Every report carries its provenance: the workload `seed` (see
    /// [`BenchSuite::with_seed`]) and `host_parallelism`, the core count
    /// the host actually granted — numbers from a one-core container and
    /// a 32-core box are not comparable without it.
    pub fn to_json(&self) -> Json {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Json::Obj(vec![
            ("suite".into(), Json::from(self.name.as_str())),
            ("seed".into(), Json::from(self.seed as usize)),
            ("host_parallelism".into(), Json::from(cores)),
            (
                "results".into(),
                Json::Arr(self.results.iter().map(BenchStats::to_json).collect()),
            ),
        ])
    }

    /// Finishes the suite: in measurement mode, writes
    /// `bench_results/<suite>.json` and returns the path.
    ///
    /// The output directory is `CASCADE_BENCH_DIR` if set, otherwise the
    /// nearest `bench_results/` directory among the working directory and
    /// its ancestors (`cargo bench` runs bench binaries from the package
    /// directory, not the workspace root), otherwise `bench_results/` in
    /// the working directory.
    ///
    /// # Panics
    ///
    /// Panics if the report cannot be written.
    pub fn finish(self) -> Option<PathBuf> {
        if self.smoke {
            return None;
        }
        let dir = output_dir();
        std::fs::create_dir_all(&dir)
            .unwrap_or_else(|e| panic!("cannot create {}: {}", dir.display(), e));
        let path = dir.join(format!("{}.json", self.name));
        std::fs::write(&path, self.to_json().to_string())
            .unwrap_or_else(|e| panic!("cannot write {}: {}", path.display(), e));
        eprintln!("[bench {}] wrote {}", self.name, path.display());
        Some(path)
    }
}

fn output_dir() -> PathBuf {
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

fn humanize_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.2}s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.2}ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.2}µs", ns / 1e3)
    } else {
        format!("{:.0}ns", ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_from_known_samples() {
        let samples: Vec<f64> = (1..=11).map(|v| v as f64).collect();
        let s = BenchStats::from_samples("x", &samples);
        assert_eq!(s.iters, 11);
        assert_eq!(s.median_ns, 6.0);
        assert_eq!(s.p10_ns, 2.0);
        assert_eq!(s.p90_ns, 10.0);
        assert_eq!(s.min_ns, 1.0);
        assert_eq!(s.max_ns, 11.0);
        assert!((s.mean_ns - 6.0).abs() < 1e-12);
    }

    #[test]
    fn suite_measures_and_serializes() {
        let mut suite = BenchSuite::with_config("unit", 8, 1, false);
        suite.bench("spin", || {
            std::hint::black_box((0..100u64).fold(0u64, |a, b| a.wrapping_add(b)))
        });
        assert_eq!(suite.stats().len(), 1);
        let json = suite.to_json();
        assert_eq!(json.get("suite").and_then(Json::as_str), Some("unit"));
        let results = json.get("results").and_then(Json::as_arr).unwrap();
        assert_eq!(results[0].get("id").and_then(Json::as_str), Some("spin"));
        assert_eq!(results[0].get("iters").and_then(Json::as_usize), Some(8));
        let ns = |k: &str| results[0].get(k).and_then(Json::as_f64).unwrap();
        assert!(ns("min_ns") <= ns("median_ns") && ns("median_ns") <= ns("max_ns"));
        assert!(ns("p10_ns") <= ns("median_ns") && ns("median_ns") <= ns("p90_ns"));
    }

    #[test]
    fn reports_carry_seed_and_host_parallelism() {
        let suite = BenchSuite::with_config("prov", 1, 0, false).with_seed(9);
        let json = suite.to_json();
        assert_eq!(json.get("seed").and_then(Json::as_usize), Some(9));
        assert!(json.get("host_parallelism").and_then(Json::as_usize) >= Some(1));
        let unseeded = BenchSuite::with_config("prov0", 1, 0, false).to_json();
        assert_eq!(unseeded.get("seed").and_then(Json::as_usize), Some(0));
    }

    #[test]
    fn smoke_mode_records_nothing() {
        let mut suite = BenchSuite::with_config("smoke", 1000, 1000, true);
        let mut calls = 0usize;
        suite.bench("once", || calls += 1);
        assert_eq!(calls, 1);
        assert!(suite.stats().is_empty());
        assert_eq!(suite.finish(), None);
    }
}
