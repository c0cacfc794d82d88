//! Figure 12: effect of the oscillation-avoidance factor δ on CPVF's
//! moving distance and coverage.
//!
//! The oscillation settings are the parameter variants of the bundled
//! `scenarios/fig12.toml` — every variant faces the same initial
//! scatter — and this module only formats the table, naming each row
//! after its variant's `oscillation` override.
//!
//! Both one-step and two-step avoidance trade coverage for moving
//! distance: a small δ (aggressive cancellation) cuts distance sharply
//! but freezes sensors before the layout spreads; large δ approaches
//! plain CPVF.

use crate::pct;
use msn_deploy::cpvf::OscillationAvoidance;
use msn_metrics::Table;
use msn_scenario::{BatchResult, ScenarioSpec};

/// The bundled Figure 12 sweep (`scenarios/fig12.toml`).
pub fn spec() -> ScenarioSpec {
    crate::bundled(include_str!("../../../scenarios/fig12.toml"))
}

/// The variant and δ columns for an oscillation setting.
fn columns(osc: Option<OscillationAvoidance>) -> (&'static str, String) {
    match osc {
        None | Some(OscillationAvoidance::Off) => ("off", "-".to_string()),
        Some(OscillationAvoidance::OneStep { delta }) => ("one-step", format!("{delta}")),
        Some(OscillationAvoidance::TwoStep { delta }) => ("two-step", format!("{delta}")),
    }
}

/// Renders Figure 12 from the `fig12` result, one row per variant.
pub fn report(result: &BatchResult) -> String {
    let mut out =
        String::from("Figure 12 — oscillation avoidance for CPVF (rc = 60 m, rs = 40 m)\n\n");
    let stats = result.cell_stats();
    let mut table = Table::new(vec!["variant", "delta", "avg move (m)", "coverage"]);
    for variant in &result.spec.variants {
        let cell = stats
            .iter()
            .find(|s| s.variant_label == variant.label)
            .expect("matrix covers every variant");
        let (name, delta) = columns(variant.overrides.cpvf.oscillation);
        table.row(vec![
            name.to_string(),
            delta,
            format!("{:.0}", cell.avg_move.mean()),
            pct(cell.coverage.mean()),
        ]);
    }
    out.push_str(&table.to_string());
    out.push('\n');
    out
}
