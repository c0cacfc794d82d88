//! Observability integration: profiling must not perturb results
//! (batch.json byte-identical with a collector installed), profiles
//! must account for the run's wall time, tracker and coverage probes
//! must fire on a randomized workload, and progress events must mirror
//! the matrix.

use msn_deploy::SchemeKind;
use msn_field::RandomObstacleParams;
use msn_scenario::{
    FieldSpec, ProfileRecord, ProgressEvent, ProgressSink, RunConfig, ScenarioSpec,
};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Serializes the batch-running tests of this binary. The harness runs
/// tests on parallel threads, and a sibling batch (up to two workers
/// of its own) preempts the thread `profile_accounts_for_the_run`
/// measures: spans time wall clock, so a scheduler slice of several
/// milliseconds that lands in the ~5% of a run between phase spans
/// (probe bookkeeping and loop control) costs more than the whole
/// 10% slack of a ~35 ms profiled batch.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

fn spec() -> ScenarioSpec {
    ScenarioSpec::new("obs-test")
        .with_schemes(vec![SchemeKind::Cpvf, SchemeKind::Floor])
        .with_sensor_counts(vec![12])
        .with_duration(30.0)
        .with_coverage_cell(25.0)
        .with_repetitions(2)
}

#[test]
fn profiling_is_zero_perturbation() {
    let _serial = serial();
    let spec = spec();
    let plain = RunConfig::new().threads(2).runner().run(&spec).unwrap();
    let profiled = RunConfig::new()
        .threads(2)
        .profiling(true)
        .runner()
        .run(&spec)
        .unwrap();
    assert_eq!(
        plain.to_json(),
        profiled.to_json(),
        "profiling must not change a single output byte"
    );
    assert!(plain.profiles.is_empty());
    assert_eq!(profiled.profiles.len(), profiled.records.len());
    assert!(profiled.profiles.iter().all(Option::is_some));
}

#[test]
fn profile_accounts_for_the_run() {
    let _serial = serial();
    let spec = spec();
    let result = RunConfig::new()
        .threads(1)
        .profiling(true)
        .runner()
        .run(&spec)
        .unwrap();
    let record = ProfileRecord::from_batch(&result).unwrap();
    assert_eq!(record.scenario, "obs-test");
    assert_eq!(record.cells.len(), 2, "one cell per (radio, n, scheme)");
    let merged = record.merged();
    assert!(merged.span("cpvf.run").is_some(), "CPVF run span missing");
    assert!(merged.span("floor.run").is_some(), "FLOOR run span missing");
    assert!(
        record.phase_coverage() >= 0.9,
        "per-tick phase spans cover {:.1}% of wall, want >= 90%",
        record.phase_coverage() * 100.0
    );
    // probes fire on every run
    assert!(merged.counter_total("cov.samples") > 0);
    assert!(merged.counter_total("pidx.syncs") > 0);
    assert!(merged.counter_total("world.moves") > 0);
    // round-trip: serialized record parses back to the same report
    let parsed = ProfileRecord::parse(&record.to_json_string()).unwrap();
    assert_eq!(parsed.scenario, record.scenario);
    assert_eq!(parsed.cells.len(), record.cells.len());
    assert_eq!(
        parsed.merged().counter_total("cov.samples"),
        merged.counter_total("cov.samples")
    );
}

#[test]
fn baseline_profiles_carry_phase_spans() {
    let _serial = serial();
    // Span paths only: a phase-coverage ratio is wall-clock and
    // flakes under a loaded test harness.
    let spec = ScenarioSpec::new("obs-baselines")
        .with_schemes(vec![SchemeKind::Vor, SchemeKind::Minimax, SchemeKind::Opt])
        .with_sensor_counts(vec![12])
        .with_coverage_cell(25.0)
        .with_repetitions(1);
    let result = RunConfig::new()
        .threads(1)
        .profiling(true)
        .runner()
        .run(&spec)
        .unwrap();
    let merged = ProfileRecord::from_batch(&result).unwrap().merged();
    for (root, phases) in [
        (
            "vd.run",
            &["vd.explode", "vd.voronoi", "vd.move", "vd.coverage"][..],
        ),
        (
            "opt.run",
            &["opt.pattern", "opt.hungarian", "opt.coverage"][..],
        ),
    ] {
        let run = merged
            .span(root)
            .unwrap_or_else(|| panic!("{root} span missing"));
        for phase in phases {
            assert!(
                run.children.iter().any(|c| c.name == *phase),
                "{root}/{phase} span missing"
            );
        }
    }
    // VOR and Minimax both enter vd.run
    assert_eq!(merged.span("vd.run").unwrap().count, 2);
    assert_eq!(merged.span("opt.run").unwrap().count, 1);
}

#[test]
fn tracker_counters_fire_on_random_obstacle_workload() {
    let _serial = serial();
    // Early all-moving FLOOR ticks take the adjacency buckets'
    // rebuild-if-cheaper fallback.
    let spec = ScenarioSpec::new("obs-random")
        .with_field(FieldSpec::RandomObstacles(RandomObstacleParams::default()))
        .with_schemes(vec![SchemeKind::Floor])
        .with_sensor_counts(vec![30])
        .with_duration(300.0)
        .with_coverage_cell(25.0)
        .with_repetitions(1)
        .with_seed(11);
    let result = RunConfig::new()
        .threads(1)
        .profiling(true)
        .runner()
        .run(&spec)
        .unwrap();
    let merged = ProfileRecord::from_batch(&result).unwrap().merged();
    // One count per coverage sample: t = 0, every 25 s of the 300 s
    // run, and the final measurement.
    assert_eq!(merged.counter_total("cov.samples"), 1 + 12 + 1);
    assert!(merged.counter_total("pidx.rebuilds") > 0);
    assert!(
        merged.counter_total("conn.floods") > 0,
        "base-connectivity flood never ran"
    );
}

#[test]
fn progress_events_mirror_the_matrix() {
    let _serial = serial();
    let spec = spec();
    let events: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    let log = Arc::clone(&events);
    let sink = ProgressSink::new(move |event: &ProgressEvent| {
        log.lock().unwrap().push(event.ndjson_line());
    });
    RunConfig::new()
        .threads(2)
        .progress(sink)
        .runner()
        .run(&spec)
        .unwrap();
    let events = events.lock().unwrap();
    let count = |tag: &str| {
        events
            .iter()
            .filter(|line| line.starts_with(&format!("{{\"event\":\"{tag}\"")))
            .count()
    };
    assert_eq!(count("batch-started"), 1);
    assert_eq!(count("run-started"), 4, "one per matrix cell");
    assert_eq!(count("run-finished"), 4);
    assert_eq!(count("batch-finished"), 1);
    // every line is one JSON object, newline-free (line-atomic NDJSON)
    assert!(events.iter().all(|line| !line.contains('\n')));
    // the final run-finished reports completion and a zero ETA
    let last = events
        .iter()
        .rev()
        .find(|line| line.contains("\"event\":\"run-finished\""))
        .unwrap();
    assert!(last.contains("\"completed\":4,\"total\":4"));
    assert!(last.contains("\"eta_s\":0"));
}

#[test]
fn checkpoint_event_fires_when_checkpointing() {
    let _serial = serial();
    let dir = std::env::temp_dir().join(format!("msn-obs-ckpt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("batch.json");
    let events: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    let log = Arc::clone(&events);
    let sink = ProgressSink::new(move |event: &ProgressEvent| {
        if let ProgressEvent::CheckpointWritten { .. } = event {
            log.lock().unwrap().push(event.ndjson_line());
        }
    });
    RunConfig::new()
        .threads(1)
        .checkpoint(&path, 2)
        .progress(sink)
        .runner()
        .run(&spec())
        .unwrap();
    let events = events.lock().unwrap();
    assert_eq!(events.len(), 2, "4 runs / every-2 checkpoints");
    assert!(events[0].contains("\"event\":\"checkpoint\""));
    assert!(events[0].contains("\"runs\":2"));
    let _ = std::fs::remove_dir_all(&dir);
}
