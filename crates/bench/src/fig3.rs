//! Figure 3: CPVF layouts and coverage in three typical settings.
//!
//! (a) rc = 60 m, rs = 40 m, obstacle-free — paper: 74.5 % coverage;
//! (b) rc = 30 m, rs = 40 m, obstacle-free — paper: 26.4 %;
//! (c) rc = 60 m, rs = 40 m, two obstacles — paper: 37.1 %.
//!
//! The panels are the radios of the two bundled `fig38-*` specs (the
//! open field's, then the two-obstacle field's), shared with Figure 8,
//! which renders FLOOR from the same runs; this module only formats
//! the paper's table and layout snapshots from the per-run records.

use crate::pct;
use msn_deploy::SchemeKind;
use msn_field::{ascii_layout, AsciiOptions};
use msn_metrics::Table;
use msn_scenario::{BatchResult, RadioSpec, ScenarioSpec};

/// Paper-reported coverages for Figure 3's three panels.
pub const PAPER: [f64; 3] = [0.745, 0.264, 0.371];

/// The bundled specs of the Figure 3/8 panels: the open field
/// (`scenarios/fig38-open.toml`, panels a and b) and the two-obstacle
/// field (`scenarios/fig38-obstacle.toml`, panel c).
pub fn specs() -> Vec<ScenarioSpec> {
    vec![
        crate::bundled(include_str!("../../../scenarios/fig38-open.toml")),
        crate::bundled(include_str!("../../../scenarios/fig38-obstacle.toml")),
    ]
}

/// The panels of an open/obstacle result pair, in paper order: each
/// entry is the panel name, its result and its radio. Shared with the
/// ablation, which runs the same panels.
pub fn panels<'a>(
    open: &'a BatchResult,
    obstacle: &'a BatchResult,
) -> Vec<(String, &'a BatchResult, RadioSpec)> {
    [(open, "open"), (obstacle, "two-obstacle")]
        .into_iter()
        .flat_map(|(result, env)| result.spec.radios.iter().map(move |&r| (result, env, r)))
        .zip('a'..)
        .map(|((result, env, radio), letter)| (format!("({letter}) {radio} {env}"), result, radio))
        .collect()
}

/// Formats the shared Figure 3/8 report for one scheme: a layout
/// snapshot per panel, then the coverage table against `paper`.
pub fn layout_report(
    title: &str,
    open: &BatchResult,
    obstacle: &BatchResult,
    scheme: SchemeKind,
    paper: &[f64],
) -> String {
    let mut out = format!("{title}\n");
    let mut table = Table::new(vec![
        "scenario",
        "coverage",
        "paper",
        "avg move (m)",
        "connected",
    ]);
    for (i, (name, result, radio)) in panels(open, obstacle).into_iter().enumerate() {
        let record = result
            .records
            .iter()
            .find(|r| r.cell.radio == radio && r.cell.scheme == scheme)
            .expect("matrix covers every (panel radio, scheme)");
        table.row(vec![
            name.clone(),
            pct(record.coverage),
            paper.get(i).map_or_else(|| "-".to_string(), |&p| pct(p)),
            format!("{:.0}", record.avg_move),
            record.connected.to_string(),
        ]);
        // restored (resumed) records carry no layouts; rendering
        // them would silently print a blank field
        let positions = record
            .require_positions()
            .unwrap_or_else(|e| panic!("cannot render layout snapshot: {e}"));
        let (field, _) = record.cell.build_environment(&result.spec);
        out.push_str(&format!("\n{name}: coverage {}\n", pct(record.coverage)));
        out.push_str(&ascii_layout(
            &field,
            positions,
            record.cell.radio.rs,
            &AsciiOptions::default(),
        ));
        out.push('\n');
    }
    out.push_str(&table.to_string());
    out.push('\n');
    out
}

/// Renders Figure 3 from the `fig38-open` and `fig38-obstacle` results.
pub fn report(open: &BatchResult, obstacle: &BatchResult) -> String {
    layout_report(
        "Figure 3 — CPVF sensor layouts and coverage",
        open,
        obstacle,
        SchemeKind::Cpvf,
        &PAPER,
    )
}
