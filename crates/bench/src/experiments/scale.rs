//! Large-scale scalability: Figure 14 on the GDELT and MAG profiles,
//! including the chunk-based Cascade_EX optimization.

use cascade_models::ModelConfig;

use crate::harness::StrategyKind;
use crate::table::{f2, pct, TextTable};

use super::session::{Session, LARGE};

fn chunk_size(session: &Session) -> usize {
    // The paper chunks 191M-1.3B event streams at one million events
    // (~1/200 of the stream); the scaled analogue keeps the ratio coarse
    // enough that several chunks exist.
    (session.harness().large_events / 4).max(64)
}

fn scale_models() -> Vec<ModelConfig> {
    vec![
        ModelConfig::jodie(),
        ModelConfig::tgn(),
        ModelConfig::dysat(),
    ]
}

/// Figure 14(a): speedups of Cascade and Cascade_EX over TGL on the
/// billion-event profiles.
pub fn fig14a(session: &Session) -> String {
    let chunk = chunk_size(session);
    let mut t = TextTable::new(&["Dataset", "Model", "Cascade speedup", "Cascade_EX speedup"]);
    for name in LARGE {
        for model in scale_models() {
            let tgl = session.run(name, model.clone(), &StrategyKind::Tgl);
            let cas = session.run(name, model.clone(), &StrategyKind::Cascade);
            let ex = session.run(name, model.clone(), &StrategyKind::CascadeEx(chunk));
            let base = tgl.modelled.as_secs_f64();
            t.row(&[
                name.to_string(),
                model.name.to_string(),
                format!("{:.2}x", base / cas.modelled.as_secs_f64()),
                format!("{:.2}x", base / ex.modelled.as_secs_f64()),
            ]);
        }
    }
    format!(
        "Figure 14(a): large-scale speedups (modelled A100 latency, chunk = {} events)\n\
         Paper: Cascade 1.7x/1.3x on GDELT/MAG; chunked Cascade_EX lifts\n\
         these to 2.0x/1.7x by cutting preprocessing.\n{}",
        chunk, t
    )
}

/// Figure 14(b): validation losses on the large profiles, normalized to
/// TGL.
pub fn fig14b(session: &Session) -> String {
    let chunk = chunk_size(session);
    let mut t = TextTable::new(&["Dataset", "Model", "Cascade/TGL", "Cascade_EX/TGL"]);
    for name in LARGE {
        for model in scale_models() {
            let tgl = session.run(name, model.clone(), &StrategyKind::Tgl);
            let cas = session.run(name, model.clone(), &StrategyKind::Cascade);
            let ex = session.run(name, model.clone(), &StrategyKind::CascadeEx(chunk));
            t.row(&[
                name.to_string(),
                model.name.to_string(),
                f2(cas.report.val_loss as f64 / tgl.report.val_loss as f64),
                f2(ex.report.val_loss as f64 / tgl.report.val_loss as f64),
            ]);
        }
    }
    format!(
        "Figure 14(b): large-scale validation losses (paper: 97.9%-99.0% of TGL)\n{}",
        t
    )
}

/// Figure 14(c): latency breakdown on the large profiles, with and
/// without chunked preprocessing.
pub fn fig14c(session: &Session) -> String {
    let chunk = chunk_size(session);
    let mut t = TextTable::new(&[
        "Dataset",
        "Model",
        "Variant",
        "BuildTable",
        "Lookup&Update",
        "ModelTraining",
    ]);
    for name in LARGE {
        for model in scale_models() {
            for strat in [StrategyKind::Cascade, StrategyKind::CascadeEx(chunk)] {
                let out = session.run(name, model.clone(), &strat);
                let r = &out.report;
                let total = out.modelled.as_secs_f64().max(1e-12);
                // Table time on the critical path: the scheduler's own
                // builds plus the driver's waits for the loader's — chunk
                // 0's table is never overlapped.
                let build = (r.build_time + r.stages.scan.stall).as_secs_f64();
                let lookup = r.stages.scan.busy.as_secs_f64();
                t.row(&[
                    name.to_string(),
                    model.name.to_string(),
                    out.label.clone(),
                    pct(build / total),
                    pct(lookup / total),
                    pct((total - build - lookup).max(0.0) / total),
                ]);
            }
        }
    }
    format!(
        "Figure 14(c): large-scale latency breakdown (shares of the modelled A100 latency)\n\
         Paper: preprocessing grows to ~36.6% unchunked; chunking cuts it ~35%.\n{}",
        t
    )
}
