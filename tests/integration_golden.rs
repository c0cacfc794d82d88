//! Golden-output gate: the bundled `smoke` spec must reproduce the
//! committed `tests/fixtures/smoke-batch.json` byte-for-byte at any
//! thread count, and a resumed (interrupted) run must merge to the
//! same bytes. CI runs the same comparison through the `scenario`
//! CLI (`run` + `diff`), so a format or determinism regression fails
//! both here and there.

use msn_deploy::SchemeKind;
use msn_field::CorridorParams;
use msn_scenario::{
    diff_batches, BatchFile, BatchRunner, FieldSpec, RunConfig, ScatterSpec, ScenarioSpec,
};
use msn_sim::{DynEvent, EventSchedule};
use std::path::PathBuf;

fn repo_path(rel: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(rel)
}

fn smoke_spec() -> ScenarioSpec {
    let text = std::fs::read_to_string(repo_path("scenarios/smoke.toml")).unwrap();
    ScenarioSpec::from_toml_str(&text).unwrap()
}

fn golden() -> String {
    std::fs::read_to_string(repo_path("tests/fixtures/smoke-batch.json")).unwrap()
}

#[test]
fn smoke_spec_reproduces_the_committed_fixture() {
    let result = BatchRunner::new().run(&smoke_spec()).unwrap();
    assert_eq!(
        result.to_json(),
        golden(),
        "batch.json drifted from tests/fixtures/smoke-batch.json; if the change is \
         intentional, regenerate the fixture (see the comment in scenarios/smoke.toml)"
    );
}

#[test]
fn smoke_output_is_thread_count_invariant() {
    let result = RunConfig::new()
        .threads(3)
        .runner()
        .run(&smoke_spec())
        .unwrap();
    assert_eq!(result.to_json(), golden());
}

#[test]
fn diff_accepts_the_fixture_against_a_fresh_run() {
    let fresh = BatchRunner::new().run(&smoke_spec()).unwrap().to_json();
    let a = BatchFile::parse(&golden()).unwrap();
    let b = BatchFile::parse(&fresh).unwrap();
    let report = diff_batches(&a, &b, 0.0);
    assert!(report.is_match(), "{}", report.render());
    assert_eq!(report.compared, 8);
}

/// The dynamics golden: the bundled `failure-recovery` spec (the
/// examples/failure_recovery.rs workflow made first-class) must
/// reproduce its committed fixture byte-for-byte — the event engine,
/// the per-event seed streams and the recovery metrics are all under
/// this pin.
#[test]
fn failure_recovery_spec_reproduces_the_committed_fixture() {
    let text = std::fs::read_to_string(repo_path("scenarios/failure-recovery.toml")).unwrap();
    let spec = ScenarioSpec::from_toml_str(&text).unwrap();
    let golden =
        std::fs::read_to_string(repo_path("tests/fixtures/failure-recovery-batch.json")).unwrap();
    let result = BatchRunner::new().run(&spec).unwrap();
    assert_eq!(
        result.to_json(),
        golden,
        "batch.json drifted from tests/fixtures/failure-recovery-batch.json; if the \
         change is intentional, regenerate the fixture (see the comment in \
         scenarios/failure-recovery.toml)"
    );
    // the pinned run recovered: every event carries a recovery time
    for record in &result.records {
        assert_eq!(record.recovery.len(), 1);
        assert!(
            record.recovery[0].recovery_time.is_some(),
            "the bundled schedule leaves FLOOR enough time to heal"
        );
        assert!(record.recovery[0].min_coverage <= record.recovery[0].pre_coverage);
    }
}

#[test]
fn interrupted_then_resumed_run_matches_the_fixture() {
    let spec = smoke_spec();
    // simulate an interrupted sweep: only the first repetition made it
    // to disk before the batch stopped
    let partial = BatchRunner::new()
        .run(&spec.clone().with_repetitions(1))
        .unwrap();
    let prior = BatchFile::parse(&partial.to_json()).unwrap();
    let resumed = BatchRunner::new()
        .run_resuming(&spec, Some(&prior))
        .unwrap();
    assert_eq!(
        resumed.to_json(),
        golden(),
        "resume must merge cached and fresh cells into byte-identical output"
    );
}

/// The baselines golden: VOR, Minimax and OPT on the open paper field
/// and on a baffle corridor, at two sensor counts and two radios (rc =
/// 48 m gives `Incorrect VD`/`Disconn.` flags, rc = 500 m gives none).
/// The fixture holds the two batches' `batch.json` texts, paper field
/// first. The bundled specs pinned here run only CPVF/FLOOR.
fn baselines_batches() -> String {
    let base = ScenarioSpec::new("baselines")
        .with_schemes(vec![SchemeKind::Vor, SchemeKind::Minimax, SchemeKind::Opt])
        .with_sensor_counts(vec![60, 120])
        .with_radios(vec![(48.0, 60.0), (500.0, 60.0)])
        .with_coverage_cell(10.0)
        .with_seed(11);
    let corridor = base
        .clone()
        .with_name("baselines-corridor")
        .with_field(FieldSpec::Corridor(CorridorParams::default()))
        .with_scatter(ScatterSpec::Clustered {
            x0: 0.0,
            y0: 0.0,
            x1: 200.0,
            y1: 600.0,
        });
    [base, corridor]
        .iter()
        .map(|spec| BatchRunner::new().run(spec).unwrap().to_json())
        .collect()
}

#[test]
fn baselines_reproduce_the_committed_fixture() {
    let golden = std::fs::read_to_string(repo_path("tests/fixtures/baselines-batch.json")).unwrap();
    let fresh = baselines_batches();
    for flag in ["\"Incorrect VD\"", "\"Disconn.\""] {
        assert!(fresh.contains(flag), "the small radio must raise {flag}");
    }
    assert_eq!(
        fresh, golden,
        "the baselines drifted from tests/fixtures/baselines-batch.json"
    );
}

/// The dynamics golden beyond `failure-recovery`: all five schemes
/// under a failure schedule with two events at one instant, a total
/// die-off and an event on the empty fleet (two-obstacle field), and
/// the same schedule's first three events on a corridor, where the
/// fleet survives to the horizon. The fixture holds the two batches'
/// `batch.json` texts, two-obstacle field first.
fn dynamics_batches() -> String {
    let fail = |time, frac| DynEvent { time, frac };
    let schedule = |events| EventSchedule {
        events,
        recovery_frac: 0.9,
    };
    let all = vec![
        fail(15.0, 0.25),
        fail(15.0, 0.2),
        fail(30.0, 0.5),
        fail(40.0, 1.0),
        fail(50.0, 0.5),
    ];
    let base = ScenarioSpec::new("dynamics")
        .with_field(FieldSpec::TwoObstacle)
        .with_sensor_counts(vec![24])
        .with_radios(vec![(50.0, 35.0)])
        .with_duration(60.0)
        .with_coverage_cell(20.0)
        .with_repetitions(2)
        .with_seed(5);
    let corridor = base
        .clone()
        .with_name("dynamics-corridor")
        .with_field(FieldSpec::Corridor(CorridorParams::default()))
        .with_dynamics(schedule(all[..3].to_vec()));
    [base.with_dynamics(schedule(all)), corridor]
        .iter()
        .map(|spec| BatchRunner::new().run(spec).unwrap().to_json())
        .collect()
}

#[test]
fn dynamics_reproduce_the_committed_fixture() {
    let golden = std::fs::read_to_string(repo_path("tests/fixtures/dynamics-batch.json")).unwrap();
    assert_eq!(
        dynamics_batches(),
        golden,
        "the dynamics engine drifted from tests/fixtures/dynamics-batch.json"
    );
}
