//! The headline results: Figures 10–12.

use cascade_models::ModelConfig;

use crate::harness::StrategyKind;
use crate::table::{f2, f3, TextTable};

use super::session::{Session, MODERATE};

fn models() -> Vec<ModelConfig> {
    ModelConfig::all()
}

/// Figure 10: training speedups of Cascade vs TGL and Cascade-Lite vs
/// TGLite across all five models and datasets.
pub fn fig10(session: &Session) -> String {
    let mut t = TextTable::new(&[
        "Dataset",
        "Model",
        "TGL(s)",
        "Cascade(s)",
        "Speedup",
        "TGLite(s)",
        "Cascade-Lite(s)",
        "Lite speedup",
    ]);
    let mut speedups = Vec::new();
    for name in MODERATE {
        for model in models() {
            let tgl = session.run(name, model.clone(), &StrategyKind::Tgl);
            let cas = session.run(name, model.clone(), &StrategyKind::Cascade);
            let lite = session.run(name, model.clone(), &StrategyKind::TgLite);
            let clite = session.run(name, model.clone(), &StrategyKind::CascadeLite);
            let s = tgl.modelled.as_secs_f64() / cas.modelled.as_secs_f64();
            let sl = lite.modelled.as_secs_f64() / clite.modelled.as_secs_f64();
            speedups.push(s);
            t.row(&[
                name.to_string(),
                model.name.to_string(),
                f2(tgl.modelled.as_secs_f64()),
                f2(cas.modelled.as_secs_f64()),
                format!("{:.2}x", s),
                f2(lite.modelled.as_secs_f64()),
                f2(clite.modelled.as_secs_f64()),
                format!("{:.2}x", sl),
            ]);
        }
    }
    let geo = geometric_mean(&speedups);
    let max = speedups.iter().cloned().fold(0.0, f64::max);
    format!(
        "Figure 10: Cascade speedups over TGL / TGLite (modelled A100 latency, s)\n\
         Paper: 1.3x-5.1x, average 2.3x; sparser datasets and lighter models gain more.\n{}\n\
         Mean Cascade-vs-TGL speedup: {:.2}x (max {:.2}x)\n",
        t, geo, max
    )
}

/// Figure 11: validation losses normalized to the TGL baseline.
pub fn fig11(session: &Session) -> String {
    let mut t = TextTable::new(&[
        "Dataset",
        "Model",
        "TGL",
        "Cascade",
        "Norm",
        "Cascade-Lite norm",
    ]);
    let mut norms = Vec::new();
    for name in MODERATE {
        for model in models() {
            let tgl = session.run(name, model.clone(), &StrategyKind::Tgl);
            let cas = session.run(name, model.clone(), &StrategyKind::Cascade);
            let lite = session.run(name, model.clone(), &StrategyKind::TgLite);
            let clite = session.run(name, model.clone(), &StrategyKind::CascadeLite);
            let norm = cas.report.val_loss as f64 / tgl.report.val_loss as f64;
            let norm_lite = clite.report.val_loss as f64 / lite.report.val_loss as f64;
            norms.push(norm);
            t.row(&[
                name.to_string(),
                model.name.to_string(),
                f3(tgl.report.val_loss as f64),
                f3(cas.report.val_loss as f64),
                f2(norm),
                f2(norm_lite),
            ]);
        }
    }
    let mean = norms.iter().sum::<f64>() / norms.len() as f64;
    format!(
        "Figure 11: validation loss normalized to TGL\n\
         Paper: Cascade averages 99.4% of the baseline loss (i.e. no degradation).\n{}\n\
         Mean normalized loss: {:.3}\n",
        t, mean
    )
}

/// Figure 12(a): achieved batch sizes, TGL vs Cascade.
pub fn fig12a(session: &Session) -> String {
    let mut t = TextTable::new(&[
        "Dataset",
        "Model",
        "TGL batch",
        "Cascade avg batch",
        "Cascade max",
    ]);
    for name in ["WIKI", "REDDIT", "WIKI-TALK"] {
        for model in [ModelConfig::jodie(), ModelConfig::tgn()] {
            let tgl = session.run(name, model.clone(), &StrategyKind::Tgl);
            let cas = session.run(name, model.clone(), &StrategyKind::Cascade);
            t.row(&[
                name.to_string(),
                model.name.to_string(),
                f2(tgl.report.avg_batch_size),
                f2(cas.report.avg_batch_size),
                cas.report.max_batch_size.to_string(),
            ]);
        }
    }
    format!(
        "Figure 12(a): batch sizes (paper: Cascade grows 900 to ~4200)\n{}",
        t
    )
}

/// Figure 12(b): validation loss of TGL, TGL-LB (fixed batching at the
/// batch size Cascade achieved), and Cascade.
pub fn fig12b(session: &Session) -> String {
    let mut t = TextTable::new(&[
        "Dataset",
        "Model",
        "TGL",
        "TGL-LB",
        "Cascade",
        "LB/TGL",
        "Cascade/TGL",
    ]);
    for name in ["WIKI", "REDDIT"] {
        for model in [
            ModelConfig::apan(),
            ModelConfig::jodie(),
            ModelConfig::tgn(),
        ] {
            let tgl = session.run(name, model.clone(), &StrategyKind::Tgl);
            let cas = session.run(name, model.clone(), &StrategyKind::Cascade);
            let lb_size = (cas.report.avg_batch_size.round() as usize).max(1);
            let lb = session.run(name, model.clone(), &StrategyKind::TglLb(lb_size));
            t.row(&[
                name.to_string(),
                model.name.to_string(),
                f3(tgl.report.val_loss as f64),
                f3(lb.report.val_loss as f64),
                f3(cas.report.val_loss as f64),
                f2(lb.report.val_loss as f64 / tgl.report.val_loss as f64),
                f2(cas.report.val_loss as f64 / tgl.report.val_loss as f64),
            ]);
        }
    }
    format!(
        "Figure 12(b): naive large batches (TGL-LB) hurt loss; Cascade does not\n\
         Paper: TGL-LB degrades loss by 1-83%; Cascade improves it by 1-15%.\n{}",
        t
    )
}

/// Figure 12(c): Cascade-TB (no SG-Filter) vs Cascade speedups.
pub fn fig12c(session: &Session) -> String {
    let mut t = TextTable::new(&["Dataset", "Model", "TB speedup", "Cascade speedup"]);
    for name in ["WIKI", "REDDIT"] {
        for model in [
            ModelConfig::apan(),
            ModelConfig::jodie(),
            ModelConfig::tgn(),
        ] {
            let tgl = session.run(name, model.clone(), &StrategyKind::Tgl);
            let tb = session.run(name, model.clone(), &StrategyKind::CascadeTb);
            let cas = session.run(name, model.clone(), &StrategyKind::Cascade);
            t.row(&[
                name.to_string(),
                model.name.to_string(),
                format!(
                    "{:.2}x",
                    tgl.modelled.as_secs_f64() / tb.modelled.as_secs_f64()
                ),
                format!(
                    "{:.2}x",
                    tgl.modelled.as_secs_f64() / cas.modelled.as_secs_f64()
                ),
            ]);
        }
    }
    format!(
        "Figure 12(c): ablation — TG-Diffuser alone (Cascade-TB) vs full Cascade\n\
         (speedups of the modelled A100 latency)\n\
         Paper: TB averages 1.8x; SG-Filter lifts it to 2.2x, most on APAN.\n{}",
        t
    )
}

/// Figure 12(d): Cascade-TB vs Cascade validation losses.
pub fn fig12d(session: &Session) -> String {
    let mut t = TextTable::new(&["Dataset", "Model", "TB/TGL loss", "Cascade/TGL loss"]);
    for name in ["WIKI", "REDDIT"] {
        for model in [
            ModelConfig::apan(),
            ModelConfig::jodie(),
            ModelConfig::tgn(),
        ] {
            let tgl = session.run(name, model.clone(), &StrategyKind::Tgl);
            let tb = session.run(name, model.clone(), &StrategyKind::CascadeTb);
            let cas = session.run(name, model.clone(), &StrategyKind::Cascade);
            t.row(&[
                name.to_string(),
                model.name.to_string(),
                f2(tb.report.val_loss as f64 / tgl.report.val_loss as f64),
                f2(cas.report.val_loss as f64 / tgl.report.val_loss as f64),
            ]);
        }
    }
    format!(
        "Figure 12(d): ablation losses (paper: both stay at or below baseline;\n\
         TB can be marginally better since SG-Filter may mispredict stability)\n{}",
        t
    )
}

fn geometric_mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
}
