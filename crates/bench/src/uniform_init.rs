//! Uniform initial distribution (extension of Figures 9/11).
//!
//! §6 of the paper: "We have also tested an initial distribution in
//! which sensors are placed in the field uniformly at random; the
//! results are consistent with the clustered case". This experiment
//! verifies that claim for our implementation: coverage ordering
//! (FLOOR ≥ CPVF) and the moving-distance gap must persist, with both
//! schemes moving *less* than from the clustered start (sensors begin
//! closer to their final spots).
//!
//! The uniform half is the bundled `scenarios/uniform-init.toml`; the
//! clustered comparison run is the same spec with the paper's
//! clustered-quarter scatter swapped in.

use crate::pct;
use msn_metrics::Table;
use msn_scenario::{BatchResult, ScatterSpec, ScenarioSpec};

/// The bundled uniform-scatter spec, then its clustered twin.
pub fn specs() -> Vec<ScenarioSpec> {
    let uniform = crate::bundled(include_str!("../../../scenarios/uniform-init.toml"));
    let clustered = uniform
        .clone()
        .with_name("uniform-init-clustered")
        .with_scatter(ScatterSpec::ClusteredQuarter);
    vec![uniform, clustered]
}

/// Renders the comparison from the `uniform-init` result and its
/// clustered twin's.
pub fn report(uniform: &BatchResult, clustered: &BatchResult) -> String {
    let mut out = String::from(
        "Uniform vs clustered initial distribution (extension; rc = 60 m, rs = 40 m)\n\n",
    );
    let mut table = Table::new(vec![
        "initial",
        "scheme",
        "coverage",
        "avg move (m)",
        "connected",
    ]);
    for (dist_name, result) in [("clustered", clustered), ("uniform", uniform)] {
        for record in &result.records {
            table.row(vec![
                dist_name.to_string(),
                record.cell.scheme.name().to_string(),
                pct(record.coverage),
                format!("{:.0}", record.avg_move),
                record.connected.to_string(),
            ]);
        }
    }
    out.push_str(&table.to_string());
    out.push_str(
        "\n\nThe paper reports the uniform case to be consistent with the\n\
         clustered one: the same ordering should hold in both halves of\n\
         the table.\n",
    );
    out
}
