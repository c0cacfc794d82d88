//! Smoke tests for the experiment harness: every figure/table must run
//! end to end from a shrunken copy of its bundled spec(s) and render a
//! plausible report.

use msn_bench::FIGURES;
use msn_scenario::{BatchResult, BatchRunner, ScenarioSpec};

/// A tiny version of a bundled spec: 30/40 sensors (40 for a single
/// count), 80 s, a 10 m raster and at most two repetitions.
fn shrink(spec: ScenarioSpec) -> ScenarioSpec {
    let counts = if spec.sensor_counts.len() > 1 {
        vec![30, 40]
    } else {
        vec![40]
    };
    let reps = spec.repetitions.min(2);
    spec.with_sensor_counts(counts)
        .with_duration(80.0)
        .with_coverage_cell(10.0)
        .with_repetitions(reps)
}

/// Runs the shrunken specs of figure `name` and renders its report.
fn report(name: &str) -> String {
    let figure = FIGURES
        .iter()
        .find(|f| f.name == name)
        .unwrap_or_else(|| panic!("{name} is in FIGURES"));
    let results: Vec<BatchResult> = (figure.specs)()
        .into_iter()
        .map(|spec| BatchRunner::new().run(&shrink(spec)).expect("valid spec"))
        .collect();
    (figure.render)(&results.iter().collect::<Vec<_>>())
}

#[test]
fn fig3_report_contains_all_scenarios() {
    let report = report("fig3");
    assert!(report.contains("Figure 3"));
    assert!(report.contains("(a) rc=60 rs=40 open"));
    assert!(report.contains("(b) rc=30 rs=40 open"));
    assert!(report.contains("(c) rc=60 rs=40 two-obstacle"));
    assert!(report.contains('%'));
}

#[test]
fn fig8_report_contains_all_scenarios() {
    let report = report("fig8");
    assert!(report.contains("Figure 8"));
    assert!(report.contains("FLOOR"));
    assert!(
        report.matches('%').count() >= 6,
        "coverage and paper columns"
    );
}

#[test]
fn fig9_sweeps_all_combos() {
    let report = report("fig9");
    for radio in msn_bench::fig9::spec().radios {
        assert!(report.contains(&format!("rc = {} m, rs = {} m", radio.rc, radio.rs)));
    }
    assert!(report.contains("OPT"));
}

#[test]
fn fig10_lists_every_ratio_with_flags() {
    let report = report("fig10");
    for radio in msn_bench::fig10::spec().radios {
        assert!(report.contains(&format!("{:.1}", radio.rc / radio.rs)));
    }
    assert!(report.contains("Disconn."), "small rc/rs must disconnect");
}

#[test]
fn fig11_reports_six_schemes() {
    let report = report("fig11");
    for name in [
        "CPVF",
        "FLOOR",
        "VOR",
        "Minimax",
        "OPT(pattern)",
        "OPT(FLOOR)",
    ] {
        assert!(report.contains(name), "missing column {name}");
    }
}

#[test]
fn fig12_sweeps_deltas() {
    let report = report("fig12");
    assert!(report.contains("one-step"));
    assert!(report.contains("two-step"));
    assert!(report.contains("off"));
}

#[test]
fn fig13_produces_cdfs() {
    let report = report("fig13");
    assert!(report.contains("CDF of coverage"));
    assert!(report.contains("CDF of average moving distance"));
    assert!(report.contains("F_CPVF(x)"));
}

#[test]
fn ablation_reports_all_variants() {
    let report = report("ablation");
    for name in ["full FLOOR", "no BLG", "no IFLG", "FLG only"] {
        assert!(report.contains(name), "missing variant {name}");
    }
}

#[test]
fn uniform_init_compares_both_distributions() {
    let report = report("uniform_init");
    assert!(report.contains("clustered"));
    assert!(report.contains("uniform"));
    assert!(report.contains("FLOOR"));
}

#[test]
fn table1_covers_both_environments() {
    let report = report("table1");
    assert!(report.contains("non-obstacle environment"));
    assert!(report.contains("two-obstacle environment"));
    assert!(report.contains("TTL=0.1N"));
}
