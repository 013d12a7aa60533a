//! `cascade-benchmark`: the repository's end-to-end and per-layer
//! benchmark. See `README.md` beside this package for the workloads,
//! the metrics and how they are meant to be read.
//!
//! ```text
//! cascade-benchmark --workload NAME --seed N --seconds S --trace 0|1
//!     one run in this process; the last line of standard output is
//!     {"correct":…,"attempted":…,"failed":…,"metrics":{…}}
//! cascade-benchmark [--seed N] [--workload NAME] [--seconds S]
//!     every workload (or NAME), untraced then traced, each run in a
//!     child process; prints every metric by name with its unit and
//!     writes out/results_seed<N>.json
//! cascade-benchmark --compare A.json B.json
//!     holds two results files against the bounds
//! ```

mod client;
mod compare;
mod inputs;
mod serve;
mod spec;
mod stats;
mod trace;
mod train;
mod workload;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use cascade_util::Json;

use crate::spec::{MetricDef, Spec, END_TO_END, PER_LAYER, WORKLOADS};
use crate::workload::RunResult;

/// Seconds one run measures when `--seconds` is not given; the harness
/// passes `run_seconds` of `BENCHMARK.json`, which is the same number.
pub const DEFAULT_SECONDS: f64 = 30.0;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    compare: Option<(String, String)>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: None,
        compare: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("missing value for {}", flag))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => {
                args.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number".to_string())?
            }
            "--seconds" => {
                args.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds takes a positive number")?
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            "--compare" => args.compare = Some((value()?, value()?)),
            other => return Err(format!("unknown argument {}", other)),
        }
    }
    Ok(args)
}

/// Where scratch stores, WALs, trace files and results files go.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn metrics_json(defs: &[MetricDef], values: &[(&'static str, f64)]) -> Json {
    Json::Obj(
        defs.iter()
            .zip(values)
            .map(|(def, (name, value))| {
                debug_assert_eq!(def.name, *name);
                (
                    name.to_string(),
                    Json::Obj(vec![
                        ("value".to_string(), Json::from(*value)),
                        ("unit".to_string(), Json::from(def.unit)),
                    ]),
                )
            })
            .collect(),
    )
}

fn result_json(result: &RunResult) -> Json {
    Json::Obj(vec![
        ("correct".to_string(), Json::from(result.correct)),
        (
            "attempted".to_string(),
            Json::from(result.attempted as usize),
        ),
        ("failed".to_string(), Json::from(result.failed as usize)),
        (
            "metrics".to_string(),
            metrics_json(result.registry, &result.metrics),
        ),
    ])
}

/// One run in this process. Prints the result line even when a check
/// failed (with `"correct":false`, and the reasons on standard error),
/// and then fails the process, so neither a harness nor a shell can
/// mistake the run for a good one.
fn run_one(name: &str, args: &Args, traced: bool) -> Result<ExitCode, String> {
    let spec = Spec::load(name, Some(args.seed))?;
    let result = workload::run(&spec, args.seconds, traced, &out_dir())?;
    for problem in &result.problems {
        eprintln!("check failed on {}: {}", name, problem);
    }
    println!("{}", result_json(&result));
    Ok(if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    })
}

/// Runs this executable again for one workload and one trace mode and
/// parses the result line it prints.
fn run_child(name: &str, args: &Args, traced: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find myself: {}", e))?;
    let output = Command::new(exe)
        .args(["--workload", name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the child run: {}", e))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or("");
    Json::parse(line).map_err(|_| {
        format!(
            "{} (trace {}) printed no result ({})",
            name,
            u8::from(traced),
            output.status
        )
    })
}

fn print_metrics(title: &str, defs: &[MetricDef], result: &Json) {
    println!("  {}", title);
    for def in defs {
        let value = result
            .get("metrics")
            .and_then(|m| m.get(def.name))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64);
        match value {
            Some(v) => println!("    {:<34} {:>16.6} {}", def.name, v, def.unit),
            None => println!("    {:<34} {:>16} {}", def.name, "missing", def.unit),
        }
    }
}

/// Every workload (or the one named), untraced then traced.
fn run_all(args: &Args) -> Result<ExitCode, String> {
    let names: Vec<&str> = match &args.workload {
        Some(name) => vec![name.as_str()],
        None => WORKLOADS.to_vec(),
    };
    let mut all_correct = true;
    let mut workloads = Vec::new();
    for name in names {
        Spec::load(name, None)?;
        println!("== {} (seed {}) ==", name, args.seed);
        let untraced = run_child(name, args, false)?;
        print_metrics("end to end", &END_TO_END, &untraced);
        let traced = run_child(name, args, true)?;
        print_metrics("per layer", &PER_LAYER, &traced);
        let field = |j: &Json, key: &str| j.get(key).cloned().unwrap_or(Json::Null);
        let correct = [&untraced, &traced]
            .iter()
            .all(|j| j.get("correct").and_then(Json::as_bool) == Some(true));
        println!(
            "  checks {} ({} + {} operations, {} + {} failed)",
            if correct { "passed" } else { "FAILED" },
            field(&untraced, "attempted"),
            field(&traced, "attempted"),
            field(&untraced, "failed"),
            field(&traced, "failed"),
        );
        all_correct &= correct;
        workloads.push((
            name.to_string(),
            Json::Obj(vec![
                ("correct".to_string(), Json::from(correct)),
                ("end_to_end".to_string(), field(&untraced, "metrics")),
                ("per_layer".to_string(), field(&traced, "metrics")),
            ]),
        ));
    }
    let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    let results = Json::Obj(vec![
        ("seed".to_string(), Json::from(args.seed as usize)),
        ("run_seconds".to_string(), Json::from(args.seconds)),
        ("host_parallelism".to_string(), Json::from(parallelism)),
        ("workloads".to_string(), Json::Obj(workloads)),
    ]);
    let path = out_dir().join(format!("results_seed{}.json", args.seed));
    std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::write(&path, format!("{}\n", results)))
        .map_err(|e| format!("cannot write {}: {}", path.display(), e))?;
    println!("results -> {}", path.display());
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    })
}

fn run_compare(a: &str, b: &str) -> Result<ExitCode, String> {
    let load = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {}", path, e))
            .and_then(|text| Json::parse(&text).map_err(|e| format!("{}: {}", path, e)))
    };
    let rows = compare::compare(&load(a)?, &load(b)?)?;
    let exceeding = compare::print(&rows);
    println!(
        "{} of {} pairings exceed their bound",
        exceeding,
        rows.len()
    );
    Ok(if exceeding == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&argv).and_then(|args| match (&args.compare, args.trace) {
        (Some((a, b)), _) => run_compare(a, b),
        (None, Some(traced)) => {
            let name = args.workload.clone().ok_or("--trace needs --workload")?;
            run_one(&name, &args, traced)
        }
        (None, None) => run_all(&args),
    });
    match outcome {
        Ok(code) => code,
        Err(why) => {
            eprintln!("cascade-benchmark: {}", why);
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn benchmark_json() -> Json {
        Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json is JSON")
    }

    fn keys(obj: &Json) -> Vec<&str> {
        obj.as_obj()
            .expect("an object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect()
    }

    fn text<'a>(obj: &'a Json, key: &str) -> &'a str {
        obj.get(key).and_then(Json::as_str).expect("a string field")
    }

    #[test]
    fn benchmark_json_mirrors_the_registry() {
        let json = benchmark_json();
        assert_eq!(
            keys(&json),
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let strings = |key: &str| -> Vec<&str> {
            json.get(key)
                .and_then(Json::as_arr)
                .expect("an array")
                .iter()
                .map(|v| v.as_str().expect("a string"))
                .collect()
        };
        assert_eq!(strings("command"), ["bash", "benchmark/run.sh"]);
        assert_eq!(strings("paths"), ["benchmark"]);
        assert_eq!(
            json.get("run_seconds").and_then(Json::as_f64),
            Some(DEFAULT_SECONDS)
        );

        let workloads = json.get("workloads").and_then(Json::as_arr).expect("array");
        let names: Vec<&str> = workloads.iter().map(|w| text(w, "name")).collect();
        assert_eq!(names, WORKLOADS);
        for w in workloads {
            assert_eq!(keys(w), ["name", "why"]);
            let why = text(w, "why");
            assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
        }

        let listed = json
            .get("end_to_end")
            .and_then(Json::as_arr)
            .expect("array");
        assert_eq!(listed.len(), END_TO_END.len());
        for (entry, def) in listed.iter().zip(&END_TO_END) {
            assert_eq!(keys(entry), ["name", "unit", "better", "bound"]);
            assert_eq!(text(entry, "name"), def.name);
            assert_eq!(text(entry, "unit"), def.unit);
            assert_eq!(text(entry, "better"), def.better.word());
            assert_eq!(entry.get("bound").and_then(Json::as_f64), Some(def.bound));
        }
        let listed = json.get("per_layer").and_then(Json::as_arr).expect("array");
        assert_eq!(listed.len(), PER_LAYER.len());
        for (entry, def) in listed.iter().zip(&PER_LAYER) {
            assert_eq!(keys(entry), ["name", "unit", "better"]);
            assert_eq!(text(entry, "name"), def.name);
            assert_eq!(text(entry, "unit"), def.unit);
            assert_eq!(text(entry, "better"), def.better.word());
        }
    }

    /// All four workloads at 1/50 size, both modes: every output check
    /// holds, and the result line names exactly the metrics
    /// `BENCHMARK.json` lists — none missing, none extra, none twice.
    #[test]
    fn every_workload_runs_small_and_prints_exactly_the_listed_metrics() {
        let json = benchmark_json();
        let out = out_dir().join(format!("test_smoke_{}", std::process::id()));
        for name in WORKLOADS {
            let spec = Spec::load(name, Some(11))
                .expect("committed spec")
                .scaled(0.02);
            for (traced, list) in [(false, "end_to_end"), (true, "per_layer")] {
                let result = workload::run(&spec, 0.5, traced, &out).expect("the run completes");
                assert!(
                    result.correct && result.failed == 0 && result.attempted > 0,
                    "{} (traced {}): {:?}",
                    name,
                    traced,
                    result.problems
                );
                let line = result_json(&result).to_string();
                let printed = Json::parse(&line).expect("the result line is JSON");
                assert_eq!(
                    keys(&printed),
                    ["correct", "attempted", "failed", "metrics"]
                );
                let metrics = printed.get("metrics").expect("metrics");
                let names = keys(metrics);
                let unique: BTreeSet<&str> = names.iter().copied().collect();
                assert_eq!(unique.len(), names.len(), "a metric is printed twice");
                let listed: BTreeSet<&str> = json
                    .get(list)
                    .and_then(Json::as_arr)
                    .expect("array")
                    .iter()
                    .map(|m| text(m, "name"))
                    .collect();
                assert_eq!(unique, listed, "{} (traced {})", name, traced);
                for (metric, value) in metrics.as_obj().expect("object") {
                    assert!(metric
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
                    assert_eq!(keys(value), ["value", "unit"]);
                    assert!(value.get("value").and_then(Json::as_f64).is_some());
                }
            }
            assert!(out.join(format!("trace_{}.jsonl", name)).is_file());
        }
        std::fs::remove_dir_all(&out).ok();
    }

    #[test]
    fn arguments_select_the_mode() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let one = parse_args(&argv(
            "--workload wide_store --seed 9 --seconds 3.5 --trace 1",
        ))
        .expect("valid");
        assert_eq!(one.workload.as_deref(), Some("wide_store"));
        assert_eq!((one.seed, one.seconds, one.trace), (9, 3.5, Some(true)));
        let all = parse_args(&[]).expect("valid");
        assert_eq!(
            (all.seed, all.seconds, all.trace),
            (1, DEFAULT_SECONDS, None)
        );
        let cmp = parse_args(&argv("--compare a.json b.json")).expect("valid");
        assert_eq!(
            cmp.compare,
            Some(("a.json".to_string(), "b.json".to_string()))
        );
        for bad in [
            "--trace 2",
            "--seconds 0",
            "--seed x",
            "--workload",
            "--frobnicate",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{}", bad);
        }
    }
}
