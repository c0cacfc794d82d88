//! Figure 13: CDFs of coverage and average moving distance for CPVF
//! vs FLOOR over repeated runs with 1–4 random rectangular obstacles.
//!
//! The repeated random-obstacle workload is the bundled
//! `scenarios/random-obstacle-sweep.toml` (a `random-obstacles` field
//! and N repetitions); both schemes face identical environments in
//! every repetition (shared per-rep environment seed). This module
//! only builds the CDF tables from the per-run records.
//!
//! Findings to reproduce in shape: FLOOR's mean coverage exceeds
//! CPVF's by 20+ percentage points, at less than half the mean moving
//! distance.

use crate::pct;
use msn_deploy::SchemeKind;
use msn_metrics::{Cdf, Table};
use msn_scenario::{BatchResult, ScenarioSpec};

/// One scheme's samples across the random-obstacle runs.
#[derive(Debug, Clone)]
pub struct SchemeSamples {
    /// Scheme name.
    pub name: &'static str,
    /// Final coverage per run.
    pub coverage: Vec<f64>,
    /// Average moving distance per run.
    pub avg_move: Vec<f64>,
}

/// The bundled Figure 13 workload
/// (`scenarios/random-obstacle-sweep.toml`).
pub fn spec() -> ScenarioSpec {
    crate::bundled(include_str!(
        "../../../scenarios/random-obstacle-sweep.toml"
    ))
}

/// The raw CPVF and FLOOR samples of a `random-obstacle-sweep` result.
pub fn samples(result: &BatchResult) -> (SchemeSamples, SchemeSamples) {
    let collect = |kind: SchemeKind| {
        let records = result.scheme_records(kind);
        SchemeSamples {
            name: kind.name(),
            coverage: records.iter().map(|r| r.coverage).collect(),
            avg_move: records.iter().map(|r| r.avg_move).collect(),
        }
    };
    (collect(SchemeKind::Cpvf), collect(SchemeKind::Floor))
}

/// Renders Figure 13's CDF report from the `random-obstacle-sweep`
/// result.
pub fn report(result: &BatchResult) -> String {
    let (c, f) = samples(result);
    let mut out = format!(
        "Figure 13 — CDFs over {} random-obstacle runs (1-4 rectangles)\n\n",
        result.spec.repetitions
    );

    let mut summary = Table::new(vec![
        "scheme",
        "mean cov",
        "median cov",
        "mean move (m)",
        "median move (m)",
    ]);
    for s in [&c, &f] {
        let cov = Cdf::from_samples(s.coverage.clone()).expect("runs > 0");
        let mv = Cdf::from_samples(s.avg_move.clone()).expect("runs > 0");
        summary.row(vec![
            s.name.to_string(),
            pct(cov.mean()),
            pct(cov.median()),
            format!("{:.0}", mv.mean()),
            format!("{:.0}", mv.median()),
        ]);
    }
    out.push_str(&summary.to_string());
    out.push_str("\n\n(a) CDF of coverage\n");
    out.push_str(&cdf_table(
        &Cdf::from_samples(c.coverage.clone()).expect("non-empty"),
        &Cdf::from_samples(f.coverage.clone()).expect("non-empty"),
        true,
    ));
    out.push_str("\n(b) CDF of average moving distance\n");
    out.push_str(&cdf_table(
        &Cdf::from_samples(c.avg_move).expect("non-empty"),
        &Cdf::from_samples(f.avg_move).expect("non-empty"),
        false,
    ));
    out
}

fn cdf_table(cpvf: &Cdf, floor: &Cdf, as_pct: bool) -> String {
    let lo = cpvf.min().min(floor.min());
    let hi = cpvf.max().max(floor.max());
    let mut table = Table::new(vec!["x", "F_CPVF(x)", "F_FLOOR(x)"]);
    for i in 0..=10 {
        let x = lo + (hi - lo) * i as f64 / 10.0;
        let label = if as_pct { pct(x) } else { format!("{x:.0}") };
        table.row(vec![
            label,
            format!("{:.2}", cpvf.fraction_below(x)),
            format!("{:.2}", floor.fraction_below(x)),
        ]);
    }
    format!("{table}\n")
}
