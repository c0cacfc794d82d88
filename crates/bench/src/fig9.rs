//! Figure 9: coverage of CPVF, FLOOR and OPT for varying numbers of
//! sensors and three (rc, rs) combinations.
//!
//! The sweep is the bundled `scenarios/paper-field.toml`; this module
//! only formats one table per radio, a row per sensor count and a
//! column per scheme.
//!
//! The paper's findings this experiment should reproduce in shape:
//! FLOOR beats CPVF everywhere, with the largest margin at small
//! `rc/rs` (e.g. rc = 20, rs = 60: CPVF ≈ 20 % vs FLOOR ≈ 46 % at 240
//! sensors); FLOOR approaches OPT as `rc` and `n` grow (within ~4 % at
//! rc = rs = 60 and n ≥ 200).

use crate::pct;
use msn_metrics::Table;
use msn_scenario::{BatchResult, ScenarioSpec};

/// The bundled Figure 9 sweep (`scenarios/paper-field.toml`).
pub fn spec() -> ScenarioSpec {
    crate::bundled(include_str!("../../../scenarios/paper-field.toml"))
}

/// Renders Figure 9 from the `paper-field` result.
pub fn report(result: &BatchResult) -> String {
    let spec = &result.spec;
    let stats = result.cell_stats();
    let mut out = String::from("Figure 9 — coverage of CPVF, FLOOR and OPT vs sensor count\n");
    for &radio in &spec.radios {
        let mut header = vec!["n"];
        header.extend(spec.schemes.iter().map(|s| s.name()));
        let mut table = Table::new(header);
        for &n in &spec.sensor_counts {
            let mut cells = vec![n.to_string()];
            for &scheme in &spec.schemes {
                let cell = stats
                    .iter()
                    .find(|s| s.radio == radio && s.n == n && s.scheme == scheme)
                    .expect("matrix covers every (radio, n, scheme)");
                cells.push(pct(cell.coverage.mean()));
            }
            table.row(cells);
        }
        out.push_str(&format!(
            "\nrc = {} m, rs = {} m\n{table}\n",
            radio.rc, radio.rs
        ));
    }
    out
}
