//! One module per reproduced artifact; see DESIGN.md §4 for the index.

mod ablation;
mod analysis;
mod motivation;
mod overall;
mod prior;
mod scale;
mod session;
mod summary;
mod tables;

pub use session::Session;

/// All experiment ids in paper order.
pub const ALL: &[&str] = &[
    "table1", "table2", "util", "fig2", "fig3", "fig5", "fig10", "fig11", "fig12a", "fig12b",
    "fig12c", "fig12d", "fig13a", "fig13b", "fig13c", "fig14a", "fig14b", "fig14c", "fig15",
    "fig16", "ablation", "summary",
];

/// Runs one experiment by id, returning its formatted report.
///
/// # Errors
///
/// Returns an error message for unknown ids.
pub fn run(session: &Session, id: &str) -> Result<String, String> {
    match id {
        "table1" => Ok(tables::table1()),
        "table2" => Ok(tables::table2(session)),
        "util" => Ok(motivation::utilization(session)),
        "fig2" => Ok(motivation::fig2(session)),
        "fig3" => Ok(motivation::fig3(session)),
        "fig5" => Ok(motivation::fig5(session)),
        "fig10" => Ok(overall::fig10(session)),
        "fig11" => Ok(overall::fig11(session)),
        "fig12a" => Ok(overall::fig12a(session)),
        "fig12b" => Ok(overall::fig12b(session)),
        "fig12c" => Ok(overall::fig12c(session)),
        "fig12d" => Ok(overall::fig12d(session)),
        "fig13a" => Ok(analysis::fig13a(session)),
        "fig13b" => Ok(analysis::fig13b(session)),
        "fig13c" => Ok(analysis::fig13c(session)),
        "fig14a" => Ok(scale::fig14a(session)),
        "fig14b" => Ok(scale::fig14b(session)),
        "fig14c" => Ok(scale::fig14c(session)),
        "fig15" => Ok(prior::fig15(session)),
        "fig16" => Ok(prior::fig16(session)),
        "ablation" => Ok(ablation::ablation(session)),
        "summary" => Ok(summary::summary(session)),
        other => Err(format!(
            "unknown experiment '{}'; known: {}",
            other,
            ALL.join(", ")
        )),
    }
}
