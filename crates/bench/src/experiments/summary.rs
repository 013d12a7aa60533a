//! `repro summary` — the headline reproduction table (reuses the
//! Figure 10/11 runs, so it is nearly free after `repro all`).

use cascade_models::ModelConfig;

use crate::harness::StrategyKind;
use crate::table::TextTable;

use super::session::{Session, MODERATE};

/// The paper's headline numbers next to this reproduction's.
pub fn summary(session: &Session) -> String {
    let mut speedups = Vec::new();
    let mut norms = Vec::new();
    let mut per_dataset: Vec<(String, f64)> = Vec::new();

    for name in MODERATE {
        let mut ds_speedups = Vec::new();
        for model in ModelConfig::all() {
            let tgl = session.run(name, model.clone(), &StrategyKind::Tgl);
            let cas = session.run(name, model.clone(), &StrategyKind::Cascade);
            let s = tgl.modelled.as_secs_f64() / cas.modelled.as_secs_f64();
            speedups.push(s);
            ds_speedups.push(s);
            norms.push(cas.report.val_loss as f64 / tgl.report.val_loss as f64);
        }
        let geo = geomean(&ds_speedups);
        per_dataset.push((name.to_string(), geo));
    }

    let mean = geomean(&speedups);
    let max = speedups.iter().cloned().fold(0.0, f64::max);
    let min = speedups.iter().cloned().fold(f64::INFINITY, f64::min);
    let mean_loss = norms.iter().sum::<f64>() / norms.len() as f64;

    let mut t = TextTable::new(&["Quantity", "Paper", "This reproduction"]);
    t.row(&[
        "Mean Cascade speedup vs TGL (modelled)".into(),
        "2.3x".to_string(),
        format!("{:.2}x", mean),
    ]);
    t.row(&[
        "Speedup range".into(),
        "1.3x - 5.1x".to_string(),
        format!("{:.2}x - {:.2}x", min, max),
    ]);
    t.row(&[
        "Validation loss vs TGL".into(),
        "99.4%".to_string(),
        format!("{:.1}%", mean_loss * 100.0),
    ]);

    let mut d = TextTable::new(&["Dataset", "Geomean speedup"]);
    let mut ordering: Vec<(String, f64)> = per_dataset.clone();
    ordering.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    for (name, s) in &per_dataset {
        d.row(&[name.clone(), format!("{:.2}x", s)]);
    }
    let order: Vec<&str> = ordering.iter().map(|(n, _)| n.as_str()).collect();

    format!(
        "Headline reproduction summary (Figures 10/11)\n{}\n\
         Per-dataset speedups (paper ordering: sparse gains most)\n{}\n\
         Speedup ordering observed: {}\n",
        t,
        d,
        order.join(" > ")
    )
}

fn geomean(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
}
