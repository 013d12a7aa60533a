//! Folds the benchmark runs that `scripts/bench_record.sh` collected into
//! one `BENCH_<pr>.json`: per workload, every metric of the untraced runs
//! as median, quartiles, extremes and the raw values in seed order, and
//! the traced pass's metrics as they were read.
//!
//! Usage:
//!
//! ```text
//!   bench_record workloads BENCHMARK.json
//!       prints the workload names, one a line
//!   bench_record write --runs DIR --out FILE --pr N --commit SHA
//!                [--dirty] --host-parallelism P --seconds S
//!       reads DIR/<workload>/untraced/*.json and DIR/<workload>/traced.json
//!       (each the result line of one `benchmark/run.sh` run) and writes
//!       FILE, refusing to replace one that exists
//!   bench_record compare OLD.json NEW.json
//!       prints the trajectory between two recordings: per workload and
//!       end-to-end metric both share, the old and new medians, new/old,
//!       and whether the new median lies outside the old quartiles
//! ```
//!
//! Quartiles interpolate linearly between order statistics, so the
//! median of an even count is the mean of the middle two.

use std::io::Write;
use std::path::Path;
use std::process::ExitCode;

use cascade_util::Json;

/// The `q`-quantile of ascending `sorted`, interpolated linearly.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median, quartiles, extremes and the values themselves.
fn summary(values: &[f64], unit: &str) -> Json {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Json::Obj(vec![
        ("unit".into(), unit.into()),
        ("median".into(), quantile(&sorted, 0.5).into()),
        ("q1".into(), quantile(&sorted, 0.25).into()),
        ("q3".into(), quantile(&sorted, 0.75).into()),
        ("min".into(), sorted[0].into()),
        ("max".into(), sorted[sorted.len() - 1].into()),
        (
            "values".into(),
            values
                .iter()
                .map(|&v| Json::from(v))
                .collect::<Vec<_>>()
                .into(),
        ),
    ])
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {}", path.display(), e))?;
    Json::parse(text.trim()).map_err(|e| format!("{} is not a result line: {}", path.display(), e))
}

/// `(name, value, unit)` of every metric of one result line.
fn metrics(result: &Json) -> Vec<(String, f64, String)> {
    let members = result
        .get("metrics")
        .and_then(Json::as_obj)
        .unwrap_or_default();
    members
        .iter()
        .filter_map(|(name, m)| {
            let value = m.get("value").and_then(Json::as_f64)?;
            let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
            Some((name.clone(), value, unit.to_string()))
        })
        .collect()
}

fn count(result: &Json, key: &str) -> usize {
    result.get(key).and_then(Json::as_usize).unwrap_or(0)
}

/// One workload's entry from its run directory.
fn workload(dir: &Path) -> Result<Json, String> {
    let mut files: Vec<_> = std::fs::read_dir(dir.join("untraced"))
        .map_err(|e| format!("cannot list {}: {}", dir.display(), e))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    files.sort();
    let runs: Vec<Json> = files
        .iter()
        .map(|p| read_json(p))
        .collect::<Result<_, _>>()?;
    if runs.is_empty() {
        return Err(format!("{} holds no untraced run", dir.display()));
    }
    let traced = read_json(&dir.join("traced.json"))?;

    // Metrics in the first run's order; each summarised over the runs
    // that reported it.
    let mut end_to_end = Vec::new();
    for (name, _, unit) in metrics(&runs[0]) {
        let values: Vec<f64> = runs
            .iter()
            .filter_map(|r| metrics(r).into_iter().find(|m| m.0 == name).map(|m| m.1))
            .collect();
        end_to_end.push((name, summary(&values, &unit)));
    }
    let per_layer = metrics(&traced)
        .into_iter()
        .map(|(name, value, unit)| {
            let m = Json::Obj(vec![
                ("value".into(), value.into()),
                ("unit".into(), unit.into()),
            ]);
            (name, m)
        })
        .collect();
    let all_correct = runs
        .iter()
        .chain([&traced])
        .all(|r| r.get("correct").and_then(Json::as_bool) == Some(true));
    let sum = |key: &str| runs.iter().map(|r| count(r, key)).sum::<usize>();
    Ok(Json::Obj(vec![
        ("runs".into(), runs.len().into()),
        ("correct".into(), all_correct.into()),
        ("attempted".into(), sum("attempted").into()),
        ("failed".into(), sum("failed").into()),
        ("end_to_end".into(), Json::Obj(end_to_end)),
        ("per_layer_traced".into(), Json::Obj(per_layer)),
    ]))
}

struct WriteArgs {
    runs: String,
    out: String,
    pr: usize,
    commit: String,
    dirty: bool,
    host_parallelism: usize,
    seconds: f64,
}

fn parse_write(argv: &[String]) -> Result<WriteArgs, String> {
    let mut args = WriteArgs {
        runs: String::new(),
        out: String::new(),
        pr: 0,
        commit: String::new(),
        dirty: false,
        host_parallelism: 0,
        seconds: 0.0,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--dirty" {
            args.dirty = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<usize>()
                .map_err(|_| format!("bad {flag} {value}"))
        };
        match flag.as_str() {
            "--runs" => args.runs = value.clone(),
            "--out" => args.out = value.clone(),
            "--pr" => args.pr = number()?,
            "--commit" => args.commit = value.clone(),
            "--host-parallelism" => args.host_parallelism = number()?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.runs.is_empty() || args.out.is_empty() || args.commit.is_empty() {
        return Err("write needs --runs, --out and --commit".into());
    }
    Ok(args)
}

fn write(argv: &[String]) -> Result<(), String> {
    let args = parse_write(argv)?;
    let mut dirs: Vec<_> = std::fs::read_dir(&args.runs)
        .map_err(|e| format!("cannot list {}: {}", args.runs, e))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_dir())
        .collect();
    dirs.sort();
    let mut workloads = Vec::new();
    for dir in &dirs {
        let name = dir.file_name().map(|n| n.to_string_lossy().into_owned());
        workloads.push((name.unwrap_or_default(), workload(dir)?));
    }
    let doc = Json::Obj(vec![
        ("pr".into(), args.pr.into()),
        ("commit".into(), args.commit.into()),
        ("dirty".into(), args.dirty.into()),
        ("host_parallelism".into(), args.host_parallelism.into()),
        ("seconds".into(), args.seconds.into()),
        ("workloads".into(), Json::Obj(workloads)),
    ]);
    // `create_new`: a recorded point is never replaced.
    let mut file = std::fs::OpenOptions::new()
        .write(true)
        .create_new(true)
        .open(&args.out)
        .map_err(|e| format!("cannot create {}: {}", args.out, e))?;
    writeln!(file, "{doc}").map_err(|e| format!("cannot write {}: {}", args.out, e))
}

fn workload_names(path: &str) -> Result<(), String> {
    let doc = read_json(Path::new(path))?;
    let names = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .ok_or(format!("{path} lists no workloads"))?;
    for w in names {
        println!(
            "{}",
            w.get("name")
                .and_then(Json::as_str)
                .ok_or("a workload without a name")?
        );
    }
    Ok(())
}

/// `(workload, metric, old median, new median, outside the old quartiles)`
/// for every workload and end-to-end metric both recordings hold, in the
/// new recording's order.
fn trajectory(old: &Json, new: &Json) -> Vec<(String, String, f64, f64, bool)> {
    let metrics = |doc: &Json, w: &str| {
        let e2e = doc
            .get("workloads")
            .and_then(|ws| ws.get(w)?.get("end_to_end"));
        e2e.and_then(Json::as_obj).unwrap_or_default().to_vec()
    };
    let stat = |m: &Json, key| m.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN);
    let workloads = new
        .get("workloads")
        .and_then(Json::as_obj)
        .unwrap_or_default();
    let mut rows = Vec::new();
    for (w, _) in workloads {
        let was = metrics(old, w);
        for (name, m) in metrics(new, w) {
            let Some((_, o)) = was.iter().find(|(n, _)| *n == name) else {
                continue;
            };
            let median = stat(&m, "median");
            let outside = median < stat(o, "q1") || median > stat(o, "q3");
            rows.push((w.clone(), name, stat(o, "median"), median, outside));
        }
    }
    rows
}

fn compare(old: &str, new: &str) -> Result<(), String> {
    let (old, new) = (read_json(Path::new(old))?, read_json(Path::new(new))?);
    let head = ("workload", "metric", "old median", "new median", "new/old");
    println!(
        "{:<14} {:<24} {:>12} {:>12} {:>8}  outside old IQR",
        head.0, head.1, head.2, head.3, head.4
    );
    for (w, metric, was, now, outside) in trajectory(&old, &new) {
        let outside = if outside { "yes" } else { "no" };
        println!(
            "{w:<14} {metric:<24} {was:>12.4} {now:>12.4} {:>8.3}  {outside}",
            now / was
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.first().map(String::as_str) {
        Some("workloads") if argv.len() == 2 => workload_names(&argv[1]),
        Some("write") => write(&argv[1..]),
        Some("compare") if argv.len() == 3 => compare(&argv[1], &argv[2]),
        _ => Err("usage: bench_record workloads BENCHMARK.json | write … | compare OLD NEW".into()),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(why) => {
            eprintln!("bench_record: {why}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_interpolate_between_order_statistics() {
        let v = [1.0, 2.0, 3.0, 4.0, 10.0];
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert_eq!(quantile(&v, 0.25), 2.0);
        assert_eq!(quantile(&v, 0.75), 4.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.5), 1.5);
        assert_eq!(quantile(&[7.0], 0.25), 7.0);
    }

    #[test]
    fn summary_keeps_the_values_in_run_order() {
        let s = summary(&[3.0, 1.0, 2.0], "s");
        assert_eq!(s.get("median").and_then(Json::as_f64), Some(2.0));
        assert_eq!(s.get("min").and_then(Json::as_f64), Some(1.0));
        let values: Vec<f64> = s
            .get("values")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .filter_map(Json::as_f64)
            .collect();
        assert_eq!(values, [3.0, 1.0, 2.0]);
    }

    #[test]
    fn trajectory_pairs_shared_metrics_and_flags_medians_outside_the_quartiles() {
        let doc = |median: f64| {
            let m = Json::Obj(vec![
                ("median".into(), median.into()),
                ("q1".into(), 9.0.into()),
                ("q3".into(), 11.0.into()),
            ]);
            let w = Json::Obj(vec![(
                "end_to_end".into(),
                Json::Obj(vec![("x".into(), m)]),
            )]);
            Json::Obj(vec![("workloads".into(), Json::Obj(vec![("w".into(), w)]))])
        };
        let row = |old: f64, new: f64| trajectory(&doc(old), &doc(new));
        assert_eq!(
            row(10.0, 10.5),
            [("w".into(), "x".into(), 10.0, 10.5, false)]
        );
        assert!(row(10.0, 12.0)[0].4 && row(10.0, 8.0)[0].4);
        assert!(trajectory(&doc(10.0), &Json::Obj(vec![])).is_empty());
    }
}
