//! Ablation study (extension beyond the paper): how much coverage do
//! FLOOR's boundary-guided (BLG) and inter-floor-line-guided (IFLG)
//! expansion patterns contribute?
//!
//! §5.5.1 motivates the three patterns and ranks their priorities but
//! never isolates their effect. The sweeps are the bundled
//! `scenarios/ablation-open.toml` and `ablation-obstacle.toml`: the
//! switch combinations are parameter variants over the Figure 8
//! panels, so every variant starts from the identical scatter; this
//! module only formats a table per panel.

use crate::{fig3, pct};
use msn_metrics::Table;
use msn_scenario::{BatchResult, ScenarioSpec};

/// The bundled ablation specs: the open field, then the two-obstacle
/// field.
pub fn specs() -> Vec<ScenarioSpec> {
    vec![
        crate::bundled(include_str!("../../../scenarios/ablation-open.toml")),
        crate::bundled(include_str!("../../../scenarios/ablation-obstacle.toml")),
    ]
}

/// Renders the ablation from the `ablation-open` and
/// `ablation-obstacle` results.
pub fn report(open: &BatchResult, obstacle: &BatchResult) -> String {
    let mut out =
        String::from("Ablation — contribution of FLOOR's expansion patterns (extension)\n\n");
    for (name, result, radio) in fig3::panels(open, obstacle) {
        let stats = result.cell_stats();
        let mut table = Table::new(vec!["variant", "coverage", "avg move (m)", "connected"]);
        for variant in &result.spec.variants {
            let cell = stats
                .iter()
                .find(|s| s.radio == radio && s.variant_label == variant.label)
                .expect("matrix covers every (radio, variant)");
            table.row(vec![
                variant.label.clone(),
                pct(cell.coverage.mean()),
                format!("{:.0}", cell.avg_move.mean()),
                (cell.connected_runs as u64 == cell.coverage.count()).to_string(),
            ]);
        }
        out.push_str(&format!("{name}\n{table}\n\n"));
    }
    out.push_str(
        "BLG seeds new floors along walls and climbs past obstacles;\n\
         IFLG patches the seams between same-floor neighbors. Without\n\
         BLG the vine cannot reach floors beyond the initial cluster in\n\
         obstructed fields.\n",
    );
    out
}
