//! Folds the benchmark runs that `scripts/bench_record.sh` collected into
//! one `BENCH_<pr>.json`: per workload, every metric of the untraced runs
//! as median, quartiles, extremes and the raw values in seed order, and
//! the traced pass's metrics as they were read. Also the verdict of the
//! paired kernel gate, `scripts/perf_pair.sh`.
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
//!   bench_record kernels BASE-RUNS CHANGE-RUNS
//!       the paired kernel gate: each directory holds one subdirectory per
//!       run with that run's kernels.json and parallel_compute.json; every
//!       entry fails whose fastest change sample over its fastest base
//!       sample exceeds its bound (1.20, or 1.50 for an id naming
//!       `threadsN` with N >= 2). An entry only one side ran is listed,
//!       not gated. Each side's fastest `tensor_matmul/16` and that run's
//!       `matmul_gflops` block are printed first, so a reader can see
//!       which host mode each side ran in (each GFLOP/s rate is one bench
//!       entry's FLOPs over its own fastest sample; `dA` and `dB` count
//!       the forward product their closures also run)
//! ```
//!
//! Quartiles interpolate linearly between order statistics, so the
//! median of an even count is the mean of the middle two.

use std::io::Write;
use std::path::{Path, PathBuf};
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

/// The paths in `dir`, sorted.
fn listing(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot list {}: {}", dir.display(), e))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    paths.sort();
    Ok(paths)
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
    let runs: Vec<Json> = listing(&dir.join("untraced"))?
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
    let mut workloads = Vec::new();
    let dirs = listing(Path::new(&args.runs))?;
    for dir in dirs.iter().filter(|p| p.is_dir()) {
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

/// The suites every run of the paired kernel gate holds, one
/// `<suite>.json` report each.
const GATE_SUITES: [&str; 2] = ["kernels", "parallel_compute"];

/// The largest passing change/base ratio of an entry's fastest sample:
/// for a single-thread entry, and for one that runs on two threads or
/// more, whose spread on a small host is wider.
const SINGLE_THREAD_BOUND: f64 = 1.20;
const MULTI_THREAD_BOUND: f64 = 1.50;

/// The reports of every run under `dir`, run by run, each run a
/// subdirectory holding every suite of [`GATE_SUITES`].
fn gate_runs(dir: &Path) -> Result<Vec<Json>, String> {
    let runs: Vec<_> = listing(dir)?.into_iter().filter(|p| p.is_dir()).collect();
    if runs.is_empty() {
        return Err(format!("{} holds no run", dir.display()));
    }
    let mut reports = Vec::new();
    for run in runs {
        for suite in GATE_SUITES {
            reports.push(read_json(&run.join(format!("{suite}.json")))?);
        }
    }
    Ok(reports)
}

/// Each entry's fastest sample (`min_ns`) over `reports`, in the order
/// the entries first appear.
fn fastest(reports: &[Json]) -> Vec<(String, f64)> {
    let mut best: Vec<(String, f64)> = Vec::new();
    let results = reports
        .iter()
        .flat_map(|r| r.get("results").and_then(Json::as_arr).unwrap_or_default());
    for entry in results {
        let id = entry.get("id").and_then(Json::as_str);
        let (Some(id), Some(ns)) = (id, entry.get("min_ns").and_then(Json::as_f64)) else {
            continue;
        };
        match best.iter_mut().find(|(b, _)| b == id) {
            Some((_, b)) => *b = b.min(ns),
            None => best.push((id.to_string(), ns)),
        }
    }
    best
}

/// The bound of entry `id`: an id with a `threadsN` segment, N ≥ 2, runs
/// on more than one thread.
fn bound(id: &str) -> f64 {
    let threads = |part: &str| part.strip_prefix("threads")?.parse::<usize>().ok();
    match id.split('/').find_map(threads) {
        Some(2..) => MULTI_THREAD_BOUND,
        _ => SINGLE_THREAD_BOUND,
    }
}

/// One entry of the paired gate: its fastest sample on each side that
/// ran it.
struct Verdict {
    id: String,
    base_ns: Option<f64>,
    change_ns: Option<f64>,
}

impl Verdict {
    /// change / base; `None` when only one side ran the entry, which is
    /// then not gated.
    fn ratio(&self) -> Option<f64> {
        Some(self.change_ns? / self.base_ns?)
    }

    fn fails(&self) -> bool {
        self.ratio().is_some_and(|r| r > bound(&self.id))
    }
}

/// Every entry either side ran: the base's in their order, then the ones
/// only the change ran.
fn verdicts(base: &[Json], change: &[Json]) -> Vec<Verdict> {
    let entry = |id, base_ns, change_ns| Verdict {
        id,
        base_ns,
        change_ns,
    };
    let base = fastest(base).into_iter();
    let mut all: Vec<_> = base.map(|(id, ns)| entry(id, Some(ns), None)).collect();
    for (id, ns) in fastest(change) {
        match all.iter().position(|v| v.id == id) {
            Some(i) => all[i].change_ns = Some(ns),
            None => all.push(entry(id, None, Some(ns))),
        }
    }
    all
}

/// One side's host calibration: its fastest `tensor_matmul/16`, and the
/// `matmul_gflops` block of the run that read it (rates from each entry's
/// own fastest sample, forward product included in `dA` and `dB`).
fn calibration(reports: &[Json]) -> String {
    let matmul16 = |r| {
        fastest(std::slice::from_ref(r))
            .into_iter()
            .find(|e| e.0 == "tensor_matmul/16")
    };
    let best = reports
        .iter()
        .filter_map(|r| Some((matmul16(r)?.1, r)))
        .min_by(|a, b| a.0.total_cmp(&b.0));
    let Some((ns, report)) = best else {
        return "no tensor_matmul/16".to_string();
    };
    let mut line = format!("tensor_matmul/16 {:.2} us", ns / 1e3);
    let rows = report.get("matmul_gflops").and_then(Json::as_arr);
    for row in rows.unwrap_or_default() {
        let rate = |key| row.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN);
        let [f, a, b] = ["fwd", "dA", "dB"].map(rate);
        let shape = row.get("shape").and_then(Json::as_str).unwrap_or("?");
        line += &format!("; {shape} GFLOP/s fwd {f:.1} dA {a:.1} dB {b:.1}");
    }
    line
}

/// The paired kernel gate over two directories of runs.
fn kernels(base: &str, change: &str) -> Result<(), String> {
    let (base, change) = (gate_runs(Path::new(base))?, gate_runs(Path::new(change))?);
    let runs = |side: &[Json]| side.len() / GATE_SUITES.len();
    println!("base:   {} runs; {}", runs(&base), calibration(&base));
    println!("change: {} runs; {}", runs(&change), calibration(&change));
    let head = ("entry", "base min ns", "change min ns");
    println!("{:<44} {:>13} {:>13}  change/base", head.0, head.1, head.2);
    let show = |ns: Option<f64>| ns.map_or("-".to_string(), |ns| format!("{ns:.0}"));
    let mut failed = 0;
    for v in verdicts(&base, &change) {
        let verdict = match v.ratio() {
            Some(r) if v.fails() => format!("{r:.3} > {:.2}  FAIL", bound(&v.id)),
            Some(r) => format!("{r:.3} <= {:.2}  ok", bound(&v.id)),
            None => "one side only, not gated".to_string(),
        };
        failed += usize::from(v.fails());
        let (b, c) = (show(v.base_ns), show(v.change_ns));
        println!("{:<44} {b:>13} {c:>13}  {verdict}", v.id);
    }
    match failed {
        0 => Ok(()),
        n => Err(format!("{n} entries slower than their bound")),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.first().map(String::as_str) {
        Some("workloads") if argv.len() == 2 => workload_names(&argv[1]),
        Some("write") => write(&argv[1..]),
        Some("compare") if argv.len() == 3 => compare(&argv[1], &argv[2]),
        Some("kernels") if argv.len() == 3 => kernels(&argv[1], &argv[2]),
        _ => Err(
            "usage: bench_record workloads BENCHMARK.json | write … | compare OLD NEW \
                  | kernels BASE-RUNS CHANGE-RUNS"
                .into(),
        ),
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

    /// A suite report whose entries have the given `(id, min_ns, median_ns)`.
    fn report(entries: &[(&str, f64, f64)]) -> Json {
        let entry = |&(id, min, median): &(&str, f64, f64)| {
            Json::Obj(vec![
                ("id".into(), id.into()),
                ("min_ns".into(), min.into()),
                ("median_ns".into(), median.into()),
            ])
        };
        let results: Vec<Json> = entries.iter().map(entry).collect();
        Json::Obj(vec![("results".into(), results.into())])
    }

    #[test]
    fn the_gate_compares_each_sides_fastest_sample_across_runs() {
        // Every change median is slower than every base median, but the
        // change's fastest sample is the faster one: only `min_ns` counts.
        let base = [
            report(&[("k", 100.0, 110.0)]),
            report(&[("k", 105.0, 106.0)]),
        ];
        let change = [
            report(&[("k", 130.0, 200.0)]),
            report(&[("k", 95.0, 190.0)]),
        ];
        let v = verdicts(&base, &change);
        assert_eq!((v[0].base_ns, v[0].change_ns), (Some(100.0), Some(95.0)));
        assert!(!v[0].fails());
    }

    #[test]
    fn a_single_thread_entry_fails_just_over_its_bound() {
        let base = [report(&[("over", 100.0, 100.0), ("under", 100.0, 100.0)])];
        let change = [report(&[("over", 120.5, 100.0), ("under", 119.5, 200.0)])];
        let v = verdicts(&base, &change);
        assert!(v[0].fails() && !v[1].fails());
    }

    #[test]
    fn entries_on_two_threads_or_more_get_the_wider_bound() {
        assert_eq!(
            bound("gru_cell/fwd_bwd_1536x112/threads2"),
            MULTI_THREAD_BOUND
        );
        assert_eq!(bound("forward_backward/threads8"), MULTI_THREAD_BOUND);
        assert_eq!(bound("forward_backward/threads1"), SINGLE_THREAD_BOUND);
        assert_eq!(bound("forward_backward/batch23"), SINGLE_THREAD_BOUND);
        let base = [report(&[("x/threads2", 100.0, 100.0)])];
        let under = verdicts(&base, &[report(&[("x/threads2", 149.0, 149.0)])]);
        let over = verdicts(&base, &[report(&[("x/threads2", 151.0, 151.0)])]);
        assert!(!under[0].fails() && over[0].fails());
    }

    #[test]
    fn an_entry_on_one_side_only_is_listed_but_not_gated() {
        let base = [report(&[("gone", 100.0, 100.0), ("kept", 100.0, 100.0)])];
        let change = [report(&[("kept", 100.0, 100.0), ("new", 1e9, 1e9)])];
        let v = verdicts(&base, &change);
        let ids: Vec<_> = v.iter().map(|v| v.id.as_str()).collect();
        assert_eq!(ids, ["gone", "kept", "new"]);
        assert_eq!((v[0].change_ns, v[2].base_ns), (None, None));
        assert_eq!(
            (v[0].ratio(), v[1].ratio(), v[2].ratio()),
            (None, Some(1.0), None)
        );
        assert!(v.iter().all(|v| !v.fails()));
    }

    #[test]
    fn the_gate_errs_on_a_missing_run_or_report_and_on_a_slow_entry() {
        let root = std::env::temp_dir().join(format!("bench_record_gate_{}", std::process::id()));
        let write_run = |run: &Path, suites: &[&str], ns: f64| {
            std::fs::create_dir_all(run).unwrap();
            for suite in suites {
                let text = report(&[(suite, ns, ns)]).to_string();
                std::fs::write(run.join(format!("{suite}.json")), text).unwrap();
            }
        };
        let gate =
            |base: &Path, change: &Path| kernels(base.to_str().unwrap(), change.to_str().unwrap());
        let (base, change) = (root.join("base"), root.join("change"));
        write_run(&base.join("01"), &GATE_SUITES, 100.0);
        std::fs::create_dir_all(&change).unwrap();
        assert_eq!(gate(&base, &base), Ok(()));
        assert!(gate(&base, &change).unwrap_err().contains("holds no run"));
        assert!(gate(&change, &base).unwrap_err().contains("holds no run"));
        assert!(gate(&root.join("absent"), &base).is_err());
        write_run(&change.join("01"), &["parallel_compute"], 100.0);
        assert!(gate(&base, &change).unwrap_err().contains("kernels.json"));
        write_run(&change.join("01"), &GATE_SUITES, 130.0);
        assert_eq!(
            gate(&base, &change),
            Err("2 entries slower than their bound".into())
        );
        std::fs::remove_dir_all(&root).unwrap();
    }
}
