//! `--compare a.json b.json`: holds two result files of the full run
//! against each other, one row per workload × end-to-end metric, and
//! says whether `b` is worse than `a` by more than the metric's bound.

use cascade_util::Json;

use crate::spec::{Better, MetricDef, END_TO_END, WORKLOADS};

/// One workload × metric pairing.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// The metric compared.
    pub metric: &'static str,
    /// Value in the first file.
    pub a: f64,
    /// Value in the second file.
    pub b: f64,
    /// How much worse `b` is than `a`, as a share of `a` (negative when
    /// it is better), in the metric's own direction.
    pub worse_by: f64,
    /// The bound the benchmark fixed for the metric.
    pub bound: f64,
}

impl Row {
    /// `b` is worse than `a` by more than the bound.
    pub fn exceeds(&self) -> bool {
        // NaN (a zero base) must not pass as "within".
        self.worse_by.is_nan() || self.worse_by > self.bound
    }
}

/// How much worse `b` is than `a`, relative to `a`.
pub fn worse_by(def: &MetricDef, a: f64, b: f64) -> f64 {
    match def.better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

fn value(results: &Json, workload: &str, metric: &str) -> Option<f64> {
    results
        .get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(metric)?
        .get("value")?
        .as_f64()
}

/// Pairs up every workload both files report.
///
/// # Errors
///
/// A workload both files name that lacks an end-to-end metric, or no
/// workload in common.
pub fn compare(a: &Json, b: &Json) -> Result<Vec<Row>, String> {
    let has = |j: &Json, w: &str| j.get("workloads").and_then(|ws| ws.get(w)).is_some();
    let mut rows = Vec::new();
    for workload in WORKLOADS.iter().filter(|w| has(a, w) && has(b, w)) {
        for def in &END_TO_END {
            let pick = |j: &Json, which: &str| {
                value(j, workload, def.name)
                    .ok_or_else(|| format!("{} file lacks {} on {}", which, def.name, workload))
            };
            let (va, vb) = (pick(a, "first")?, pick(b, "second")?);
            rows.push(Row {
                workload: workload.to_string(),
                metric: def.name,
                a: va,
                b: vb,
                worse_by: worse_by(def, va, vb),
                bound: def.bound,
            });
        }
    }
    if rows.is_empty() {
        return Err("the two files share no workload".to_string());
    }
    Ok(rows)
}

/// Prints the table; returns how many pairings exceed their bound.
pub fn print(rows: &[Row]) -> usize {
    println!(
        "{:<14} {:<20} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "a", "b", "worse by", "bound"
    );
    for r in rows {
        println!(
            "{:<14} {:<20} {:>14.6} {:>14.6} {:>8.2}% {:>6.0}%  {}",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.worse_by * 100.0,
            r.bound * 100.0,
            if r.exceeds() { "EXCEEDS" } else { "within" }
        );
    }
    rows.iter().filter(|r| r.exceeds()).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn results(scale_throughput: f64, scale_latency: f64) -> Json {
        let metrics: Vec<String> = END_TO_END
            .iter()
            .map(|m| {
                let v = match m.better {
                    Better::Higher => 1000.0 * scale_throughput,
                    Better::Lower => 10.0 * scale_latency,
                };
                format!("\"{}\":{{\"value\":{},\"unit\":\"{}\"}}", m.name, v, m.unit)
            })
            .collect();
        let text = format!(
            "{{\"workloads\":{{\"wide_store\":{{\"end_to_end\":{{{}}}}}}}}}",
            metrics.join(",")
        );
        Json::parse(&text).expect("fixture is JSON")
    }

    #[test]
    fn identical_files_are_within_every_bound() {
        let rows = compare(&results(1.0, 1.0), &results(1.0, 1.0)).expect("comparable");
        assert_eq!(rows.len(), END_TO_END.len());
        assert!(rows.iter().all(|r| r.worse_by == 0.0 && !r.exceeds()));
    }

    #[test]
    fn direction_decides_what_worse_means() {
        // Throughput halved, latencies halved: only the
        // higher-is-better metrics got worse, and by more than any bound
        // the harness allows (0.25).
        let rows = compare(&results(1.0, 1.0), &results(0.5, 0.5)).expect("comparable");
        for r in &rows {
            let def = END_TO_END
                .iter()
                .find(|m| m.name == r.metric)
                .expect("known");
            match def.better {
                Better::Higher => {
                    assert!((r.worse_by - 0.5).abs() < 1e-12);
                    assert!(r.exceeds());
                }
                Better::Lower => {
                    assert!((r.worse_by + 0.5).abs() < 1e-12);
                    assert!(!r.exceeds());
                }
            }
        }
        // A worsening inside the bound passes.
        let rows = compare(&results(1.0, 1.0), &results(0.99, 1.0)).expect("comparable");
        assert!(!rows.iter().any(Row::exceeds));
    }

    #[test]
    fn missing_metrics_and_disjoint_files_are_errors() {
        let whole = results(1.0, 1.0);
        let partial =
            Json::parse("{\"workloads\":{\"wide_store\":{\"end_to_end\":{}}}}").expect("json");
        assert!(compare(&whole, &partial).is_err());
        let other = Json::parse("{\"workloads\":{\"flash_crowd\":{}}}").expect("json");
        assert!(compare(&whole, &other).is_err());
        // A zero base gives NaN, which must not pass as "within".
        let def = &END_TO_END[0];
        let row = Row {
            workload: "w".into(),
            metric: def.name,
            a: 0.0,
            b: 0.0,
            worse_by: worse_by(def, 0.0, 0.0),
            bound: def.bound,
        };
        assert!(row.exceeds());
    }
}
