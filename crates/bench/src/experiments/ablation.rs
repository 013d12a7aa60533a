//! Design-choice ablations beyond the paper's own (§5.3): what each
//! piece of the Cascade design buys.
//!
//! * **Neighbor-future events** (Algorithm 2, step 2): dropping them
//!   leaves incident-only dependency tables — batches grow much larger
//!   (fewer constraints) but neighbor-propagated staleness goes
//!   unprotected, the failure mode the paper's design exists to prevent.
//! * **Max_r decay** (Equation 5): freezing `Max_r` at its initial value
//!   removes the convergence-feedback loop.
//! * **Max_r initialization**: `mr_mean` vs the paper's `2·mr_mean` vs
//!   `mr_max`.

use cascade_core::{train, BatchingStrategy, CascadeConfig, CascadeScheduler};
use cascade_models::ModelConfig;

use crate::harness::StrategyKind;
use crate::table::{f2, f3, TextTable};

use super::session::Session;

/// `repro ablation` — the full ablation grid on WIKI and REDDIT with TGN.
pub fn ablation(session: &Session) -> String {
    let h = session.harness();
    let mut t = TextTable::new(&[
        "Dataset",
        "Variant",
        "AvgBatch",
        "Modelled speedup vs TGL",
        "ValLoss",
        "Loss vs TGL",
    ]);

    for name in ["WIKI", "REDDIT"] {
        let data = session.dataset(name);
        let tgl = session.run(name, ModelConfig::tgn(), &StrategyKind::Tgl);
        let base_time = tgl.modelled.as_secs_f64();
        let base_loss = tgl.report.val_loss as f64;

        let variants: Vec<(&str, CascadeConfig)> = vec![
            (
                "Cascade (full)",
                CascadeConfig {
                    preset_batch_size: h.preset_batch,
                    seed: h.seed,
                    ..CascadeConfig::default()
                },
            ),
            (
                "no SG-Filter (TB)",
                CascadeConfig {
                    preset_batch_size: h.preset_batch,
                    seed: h.seed,
                    ..CascadeConfig::default()
                }
                .without_sg_filter(),
            ),
            (
                "incident-only table",
                CascadeConfig {
                    preset_batch_size: h.preset_batch,
                    seed: h.seed,
                    ..CascadeConfig::default()
                }
                .with_incident_only_table(),
            ),
            (
                "frozen Max_r",
                CascadeConfig {
                    preset_batch_size: h.preset_batch,
                    seed: h.seed,
                    ..CascadeConfig::default()
                }
                .with_frozen_max_r(),
            ),
        ];

        for (label, cfg) in variants {
            let mut model = h.build_model(&data, ModelConfig::tgn(), false);
            let mut strat = CascadeScheduler::new(cfg);
            let report = train(&mut model, &data, &mut strat, &h.train_cfg());
            let modelled = h.a100().modelled_time(&report, &strat.timers());
            t.row(&[
                name.to_string(),
                label.to_string(),
                f2(report.avg_batch_size),
                format!("{:.2}x", base_time / modelled.as_secs_f64()),
                f3(report.val_loss as f64),
                f2(report.val_loss as f64 / base_loss),
            ]);
        }
    }
    format!(
        "Design-choice ablation (TGN; extensions beyond the paper's §5.3)\n\
         Expected: the incident-only table inflates batches (weaker\n\
         constraints) at a loss cost; freezing Max_r removes the decay\n\
         safety valve; removing the SG-Filter shrinks batches.\n{}",
        t
    )
}
