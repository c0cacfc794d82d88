//! Figure 11: average moving distance of six schemes.
//!
//! The six series: CPVF, FLOOR, VOR, Minimax, and the two
//! Hungarian-matching lower bounds — the minimum movement to reach the
//! OPT strip pattern ("OPT(pattern)") and to reach FLOOR's *own* final
//! layout ("OPT(FLOOR)").
//!
//! The five schemes ride the run matrix of the bundled
//! `scenarios/fig11.toml`; OPT(FLOOR) is computed after the fact from
//! FLOOR's final positions (kept on each
//! [`msn_scenario::RunRecord`]) and the cell's reconstructed initial
//! scatter.
//!
//! Findings to reproduce in shape: VOR/Minimax pay a large explosion
//! cost; CPVF more than doubles FLOOR's distance through oscillation;
//! FLOOR lands between the two optima — below the cost of the strict
//! OPT pattern but 15–40 % above the optimum for its own layout.

use msn_assign::{hungarian, CostMatrix};
use msn_deploy::SchemeKind;
use msn_metrics::Table;
use msn_scenario::{BatchResult, ScenarioSpec};

/// The bundled Figure 11 sweep (`scenarios/fig11.toml`).
pub fn spec() -> ScenarioSpec {
    crate::bundled(include_str!("../../../scenarios/fig11.toml"))
}

/// Renders Figure 11 from the `fig11` result, one row per sensor
/// count.
pub fn report(result: &BatchResult) -> String {
    let mut out = String::from("Figure 11 — average moving distance (m), rc = 60 m, rs = 40 m\n\n");
    let mut table = Table::new(vec![
        "n",
        "CPVF",
        "FLOOR",
        "VOR",
        "Minimax",
        "OPT(pattern)",
        "OPT(FLOOR)",
    ]);
    for &n in &result.spec.sensor_counts {
        let find = |scheme| {
            result
                .records
                .iter()
                .find(|r| r.cell.n == n && r.cell.scheme == scheme)
                .expect("matrix covers every (n, scheme)")
        };
        let r_floor = find(SchemeKind::Floor);
        // Hungarian optimum for reaching FLOOR's own layout, from the
        // same initial scatter the schemes started at. Restored
        // (resumed) records carry no layout — computing the bound from
        // an empty vector would silently degenerate it to zero.
        let floor_positions = r_floor
            .require_positions()
            .unwrap_or_else(|e| panic!("cannot compute OPT(FLOOR) lower bound: {e}"));
        let floor_lb = {
            let (_, initial) = r_floor.cell.build_environment(&result.spec);
            let costs = CostMatrix::euclidean(&initial, floor_positions);
            hungarian(&costs).total_cost / n as f64
        };
        table.row(vec![
            n.to_string(),
            format!("{:.0}", find(SchemeKind::Cpvf).avg_move),
            format!("{:.0}", r_floor.avg_move),
            format!("{:.0}", find(SchemeKind::Vor).avg_move),
            format!("{:.0}", find(SchemeKind::Minimax).avg_move),
            format!("{:.0}", find(SchemeKind::Opt).avg_move),
            format!("{floor_lb:.0}"),
        ]);
    }
    out.push_str(&table.to_string());
    out.push('\n');
    out
}
