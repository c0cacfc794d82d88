//! Figure 10: coverage of FLOOR, VOR and Minimax for rs = 60 m and
//! rc/rs from 0.8 to 4, with the paper's `Disconn.` and
//! `Incorrect VD` annotations.
//!
//! The ratio sweep is the radio axis of the bundled
//! `scenarios/fig10.toml` and the annotations surface through the
//! per-cell flag union; this module only formats the paper's table.
//!
//! Findings to reproduce in shape: VOR/Minimax lose connectivity for
//! `rc/rs ≤ 2` and compute incorrect Voronoi cells until `rc/rs`
//! reaches ≈3–4; Minimax collapses entirely (a few percent coverage)
//! below `rc/rs = 1`; with large `rc/rs` both can edge past FLOOR
//! because they ignore connectivity.

use crate::pct;
use msn_deploy::SchemeKind;
use msn_metrics::Table;
use msn_scenario::{BatchResult, ScenarioSpec};

/// The bundled Figure 10 sweep (`scenarios/fig10.toml`).
pub fn spec() -> ScenarioSpec {
    crate::bundled(include_str!("../../../scenarios/fig10.toml"))
}

/// Renders Figure 10 from the `fig10` result, one row per radio.
pub fn report(result: &BatchResult) -> String {
    let mut out =
        String::from("Figure 10 — coverage of FLOOR, VOR and Minimax vs rc/rs (rs = 60 m)\n\n");
    let stats = result.cell_stats();
    let mut table = Table::new(vec!["rc/rs", "FLOOR", "VOR", "flags", "Minimax", "flags"]);
    for &radio in &result.spec.radios {
        let find = |scheme| {
            stats
                .iter()
                .find(|s| s.radio == radio && s.scheme == scheme)
                .expect("matrix covers every (radio, scheme)")
        };
        let fl = find(SchemeKind::Floor);
        let vor = find(SchemeKind::Vor);
        let mm = find(SchemeKind::Minimax);
        table.row(vec![
            format!("{:.1}", radio.rc / radio.rs),
            pct(fl.coverage.mean()),
            pct(vor.coverage.mean()),
            vor.flags.join("+"),
            pct(mm.coverage.mean()),
            mm.flags.join("+"),
        ]);
    }
    out.push_str(&table.to_string());
    out.push('\n');
    out
}
