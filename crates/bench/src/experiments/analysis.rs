//! Optimization and overhead analysis: Figure 13.

use cascade_models::ModelConfig;

use crate::harness::StrategyKind;
use crate::table::{f2, pct, TextTable};

use super::session::Session;

/// Figure 13(a): latency and validation loss under different SG-Filter
/// similarity thresholds.
pub fn fig13a(session: &Session) -> String {
    let thetas = [0.80f32, 0.85, 0.90, 0.95];
    let mut t = TextTable::new(&["Dataset", "Model", "theta", "NormLatency", "NormValLoss"]);
    for name in ["WIKI", "REDDIT"] {
        for model in [ModelConfig::jodie(), ModelConfig::tgn()] {
            let tgl = session.run(name, model.clone(), &StrategyKind::Tgl);
            for &theta in &thetas {
                let out = if (theta - 0.9).abs() < 1e-6 {
                    session.run(name, model.clone(), &StrategyKind::Cascade)
                } else {
                    session.run(name, model.clone(), &StrategyKind::CascadeTheta(theta))
                };
                t.row(&[
                    name.to_string(),
                    model.name.to_string(),
                    format!("{:.2}", theta),
                    f2(out.modelled.as_secs_f64() / tgl.modelled.as_secs_f64()),
                    f2(out.report.val_loss as f64 / tgl.report.val_loss as f64),
                ]);
            }
        }
    }
    format!(
        "Figure 13(a): θ_sim sweep (modelled A100 latency, normalized to TGL)\n\
         Paper: lower θ -> faster but lossier (θ=0.85: 2.7x, +8% loss);\n\
         higher θ -> safer but slower (θ=0.95: 2.0x, no loss increase).\n{}",
        t
    )
}

/// Figure 13(b): latency breakdown of Cascade — table building, batch
/// lookup & pointer updates, and model training, with the training slice
/// sub-divided into the shard-parallel forward/backward work
/// (`StageTimings::shard_compute`) and the serial remainder (reduction,
/// optimizer, memory write-back, modelled overhead). The four shares
/// sum to 100% of the modelled total by construction.
pub fn fig13b(session: &Session) -> String {
    let mut t = TextTable::new(&[
        "Dataset",
        "Model",
        "BuildTable",
        "Lookup&Update",
        "ShardCompute",
        "SerialRest",
        "Shards",
    ]);
    for name in ["WIKI", "REDDIT", "WIKI-TALK"] {
        for model in [
            ModelConfig::apan(),
            ModelConfig::jodie(),
            ModelConfig::tgn(),
        ] {
            let cas = session.run(name, model.clone(), &StrategyKind::Cascade);
            let r = &cas.report;
            let total = cas.modelled.as_secs_f64().max(1e-12);
            // Table time on the critical path: the loader builds the one
            // chunk's table, so it is the driver's wait for it.
            let build = (r.build_time + r.stages.scan.stall).as_secs_f64();
            let lookup = r.stages.scan.busy.as_secs_f64();
            // Per-shard forward/backward busy time is a sub-division of
            // the training slice; whatever the shards did not cover is
            // the serial remainder, so the row always sums to the total.
            let shard = r
                .stages
                .shard_busy_total()
                .as_secs_f64()
                .min((total - build - lookup).max(0.0));
            let rest = (total - build - lookup - shard).max(0.0);
            t.row(&[
                name.to_string(),
                model.name.to_string(),
                pct(build / total),
                pct(lookup / total),
                pct(shard / total),
                pct(rest / total),
                r.stages.shard_compute.len().to_string(),
            ]);
        }
    }
    format!(
        "Figure 13(b): Cascade latency breakdown (shares of the modelled A100 latency)\n\
         Paper: ~17% total overhead on moderate graphs; table building ~0.1%,\n\
         event lookup ~16%, the rest is model training.\n\
         ShardCompute + SerialRest = the paper's \"model training\" share,\n\
         split into per-shard forward/backward work and the serial\n\
         reduction/optimizer/write-back remainder.\n{}",
        t
    )
}

/// Figure 13(c): space breakdown — dependency table (DT), stable flags
/// (SF), graph, edge features, model, mailbox.
pub fn fig13c(session: &Session) -> String {
    let mut t = TextTable::new(&[
        "Dataset", "Model", "DT", "SF", "Graph", "EdgeFeat", "Model", "Mailbox", "Memory",
    ]);
    for name in ["WIKI", "REDDIT", "WIKI-TALK"] {
        for model in [
            ModelConfig::apan(),
            ModelConfig::jodie(),
            ModelConfig::tgn(),
        ] {
            let cas = session.run(name, model.clone(), &StrategyKind::Cascade);
            let s = cas.report.space;
            let fr = s.fractions();
            t.row(&[
                name.to_string(),
                model.name.to_string(),
                pct(fr[0].1),
                pct(fr[1].1),
                pct(fr[2].1),
                pct(fr[3].1),
                pct(fr[4].1),
                pct(fr[5].1),
                pct(fr[6].1),
            ]);
        }
    }
    // The scaled harness trains with narrow edge features; the paper's
    // datasets carry up to 172-wide features that dominate memory.
    // Restate the same measurements with features at each profile's true
    // width so the relative shape is comparable.
    let mut tp = TextTable::new(&[
        "Dataset",
        "Model",
        "DT",
        "SF",
        "Graph",
        "EdgeFeat(paper width)",
        "Model",
        "Mailbox",
        "Memory",
    ]);
    for name in ["WIKI", "REDDIT", "WIKI-TALK"] {
        let paper_dim = super::session::profile_by_name(name)
            .expect("known profile")
            .feature_dim;
        let events = session.dataset(name).num_events();
        for model in [
            ModelConfig::apan(),
            ModelConfig::jodie(),
            ModelConfig::tgn(),
        ] {
            let cas = session.run(name, model.clone(), &StrategyKind::Cascade);
            let mut sp = cas.report.space;
            sp.edge_features = events * paper_dim * 4;
            let fr = sp.fractions();
            tp.row(&[
                name.to_string(),
                model.name.to_string(),
                pct(fr[0].1),
                pct(fr[1].1),
                pct(fr[2].1),
                pct(fr[3].1),
                pct(fr[4].1),
                pct(fr[5].1),
                pct(fr[6].1),
            ]);
        }
    }
    format!(
        "Figure 13(c): space breakdown\n\
         Paper: DT + SF below 3% combined; edge features dominate.\n\n\
         (as measured, runtime feature width {})\n{}\n\
         (same run, edge features restated at the paper's per-dataset width)\n{}",
        session.harness().feature_dim,
        t,
        tp
    )
}
