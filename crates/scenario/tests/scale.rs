//! Scale-tier integration: a trimmed 10k-sensor cell must stay
//! thread-count invariant and checkpoint/resume byte-identical, and
//! the movement-cost aggregates must surface in every output format.

use msn_deploy::SchemeKind;
use msn_field::RandomObstacleParams;
use msn_scenario::{BatchFile, BatchResult, FieldSpec, RunConfig, ScenarioSpec};

/// A trimmed 10k smoke cell: CPVF only (its incremental tick is cheap
/// enough for debug-mode CI), short horizon, coarse raster. Exercises
/// the incremental index/tracker paths at real fleet size without the
/// FLOOR tick cost.
fn scale_spec() -> ScenarioSpec {
    ScenarioSpec::new("scale-smoke")
        .with_field(FieldSpec::RandomObstacles(RandomObstacleParams {
            width: 7000.0,
            height: 7000.0,
            ..RandomObstacleParams::default()
        }))
        .with_schemes(vec![SchemeKind::Cpvf])
        .with_sensor_counts(vec![10_000])
        .with_duration(5.0)
        .with_coverage_cell(50.0)
        .with_repetitions(2)
        .with_seed(42)
}

fn small_spec() -> ScenarioSpec {
    ScenarioSpec::new("movement-small")
        .with_schemes(vec![SchemeKind::Cpvf, SchemeKind::Floor])
        .with_sensor_counts(vec![12])
        .with_duration(20.0)
        .with_coverage_cell(25.0)
        .with_repetitions(2)
        .with_seed(7)
}

#[test]
fn scale_cell_is_thread_count_invariant() {
    let spec = scale_spec();
    let reference = RunConfig::new().threads(1).runner().run(&spec).unwrap();
    let parallel = RunConfig::new().threads(4).runner().run(&spec).unwrap();
    assert_eq!(
        reference.to_json(),
        parallel.to_json(),
        "10k cell diverged between 1 and 4 threads"
    );
    // the fleet actually moves, so the invariance covers real churn
    assert!(reference.records.iter().all(|r| r.moves > 0));
}

#[test]
fn scale_cell_resumes_byte_identically() {
    let spec = scale_spec();
    let full = RunConfig::new().threads(1).runner().run(&spec).unwrap();
    // simulate a kill after the first of two repetitions
    let partial = BatchResult {
        spec: spec.clone(),
        records: full.records[..1].to_vec(),
        profiles: Vec::new(),
    };
    let prior = BatchFile::parse(&partial.to_json()).unwrap();
    assert_eq!(prior.run_count(), 1);
    let resumed = RunConfig::new()
        .threads(1)
        .runner()
        .run_resuming(&spec, Some(&prior))
        .unwrap();
    assert_eq!(
        resumed.to_json(),
        full.to_json(),
        "resume must restore movement aggregates byte-identically"
    );
}

#[test]
fn movement_cost_surfaces_in_every_format() {
    let result = RunConfig::new()
        .threads(1)
        .runner()
        .run(&small_spec())
        .unwrap();
    let json = result.to_json();
    assert!(json.contains("\"moves\""), "per-run moves missing in JSON");
    assert!(json.contains("\"move_dist\""), "move_dist missing in JSON");
    let csv = result.to_csv();
    assert!(csv.lines().next().unwrap().contains("moves_mean"));
    assert!(csv.lines().next().unwrap().contains("move_dist_mean"));
    let report = result.report();
    assert!(
        report.contains("cmd (m)"),
        "command-distance column missing in report:\n{report}"
    );
    // schemes that relocate sensors must record movement actions
    assert!(result.records.iter().any(|r| r.moves > 0));
    assert!(result.records.iter().any(|r| r.move_dist > 0.0));
}
