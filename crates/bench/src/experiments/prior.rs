//! Comparison with prior dynamic-batching frameworks: Figures 15 and 16.

use cascade_models::ModelConfig;

use crate::harness::StrategyKind;
use crate::table::{f2, TextTable};

use super::session::{Session, MODERATE};

fn prior_models() -> Vec<ModelConfig> {
    ModelConfig::all()
}

/// Figure 15: speedups of NeutronStream, ETC, and Cascade over TGL.
pub fn fig15(session: &Session) -> String {
    let mut t = TextTable::new(&[
        "Dataset",
        "Model",
        "NeutronStream",
        "ETC",
        "Cascade",
        "Cascade avg batch",
        "ETC avg batch",
    ]);
    for name in MODERATE {
        for model in prior_models() {
            let tgl = session.run(name, model.clone(), &StrategyKind::Tgl);
            let neutron = session.run(name, model.clone(), &StrategyKind::Neutron);
            let etc = session.run(name, model.clone(), &StrategyKind::Etc);
            let cas = session.run(name, model.clone(), &StrategyKind::Cascade);
            let base = tgl.modelled.as_secs_f64();
            t.row(&[
                name.to_string(),
                model.name.to_string(),
                format!("{:.2}x", base / neutron.modelled.as_secs_f64()),
                format!("{:.2}x", base / etc.modelled.as_secs_f64()),
                format!("{:.2}x", base / cas.modelled.as_secs_f64()),
                f2(cas.report.avg_batch_size),
                f2(etc.report.avg_batch_size),
            ]);
        }
    }
    format!(
        "Figure 15: speedup vs prior dynamic batching (modelled A100 latency, normalized to TGL)\n\
         Paper: Cascade beats NeutronStream by 3.8x (NeutronStream often\n\
         slower than TGL) and ETC by 1.9x (ETC only grows 900 -> ~1123;\n\
         Cascade reaches ~4255).\n{}",
        t
    )
}

/// Figure 16: validation losses of the same comparison, normalized to
/// TGL.
pub fn fig16(session: &Session) -> String {
    let mut t = TextTable::new(&["Dataset", "Model", "NeutronStream", "ETC", "Cascade"]);
    for name in MODERATE {
        for model in prior_models() {
            let tgl = session.run(name, model.clone(), &StrategyKind::Tgl);
            let neutron = session.run(name, model.clone(), &StrategyKind::Neutron);
            let etc = session.run(name, model.clone(), &StrategyKind::Etc);
            let cas = session.run(name, model.clone(), &StrategyKind::Cascade);
            let base = tgl.report.val_loss as f64;
            t.row(&[
                name.to_string(),
                model.name.to_string(),
                f2(neutron.report.val_loss as f64 / base),
                f2(etc.report.val_loss as f64 / base),
                f2(cas.report.val_loss as f64 / base),
            ]);
        }
    }
    format!(
        "Figure 16: validation losses vs prior dynamic batching (normalized to TGL)\n\
         Paper: all methods stay near the baseline; Cascade averages slightly better.\n{}",
        t
    )
}
