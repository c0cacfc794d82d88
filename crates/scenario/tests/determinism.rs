//! Batch-runner determinism: the same spec and seed must produce
//! byte-identical JSON at any thread count, because per-run seeds
//! derive from matrix coordinates (never from scheduling) and the
//! parallel collect preserves matrix order.

use msn_deploy::SchemeKind;
use msn_field::RandomObstacleParams;
use msn_scenario::{
    derive_seed, BatchFile, BatchRunner, FieldSpec, ProgressEvent, ProgressSink, RunConfig,
    ScenarioSpec,
};
use std::sync::{Arc, Mutex};

fn spec() -> ScenarioSpec {
    ScenarioSpec::new("determinism")
        .with_schemes(vec![SchemeKind::Cpvf, SchemeKind::Floor])
        .with_sensor_counts(vec![10, 16])
        .with_radios(vec![(60.0, 40.0), (30.0, 40.0)])
        .with_duration(20.0)
        .with_coverage_cell(25.0)
        .with_repetitions(2)
        .with_seed(7)
}

#[test]
fn json_is_byte_identical_at_any_thread_count() {
    let reference = RunConfig::new()
        .threads(1)
        .runner()
        .run(&spec())
        .unwrap()
        .to_json();
    for threads in [2, 4, 8] {
        let parallel = RunConfig::new()
            .threads(threads)
            .runner()
            .run(&spec())
            .unwrap()
            .to_json();
        assert_eq!(
            reference, parallel,
            "JSON diverged between 1 and {threads} threads"
        );
    }
    // and the default (one thread per core) runner agrees too
    let pooled = BatchRunner::new().run(&spec()).unwrap().to_json();
    assert_eq!(reference, pooled);
}

#[test]
fn randomized_fields_are_also_thread_count_invariant() {
    let spec = ScenarioSpec::new("determinism-rnd")
        .with_field(FieldSpec::RandomObstacles(RandomObstacleParams::default()))
        .with_schemes(vec![SchemeKind::Floor])
        .with_sensor_counts(vec![12])
        .with_duration(10.0)
        .with_coverage_cell(25.0)
        .with_repetitions(4)
        .with_seed(99);
    let a = RunConfig::new().threads(1).runner().run(&spec).unwrap();
    let b = RunConfig::new().threads(4).runner().run(&spec).unwrap();
    assert_eq!(a.to_json(), b.to_json());
    assert_eq!(a.to_csv(), b.to_csv());
    assert_eq!(a.report(), b.report());
}

#[test]
fn csv_and_report_are_deterministic_across_invocations() {
    let a = BatchRunner::new().run(&spec()).unwrap();
    let b = BatchRunner::new().run(&spec()).unwrap();
    assert_eq!(a.to_json(), b.to_json());
    assert_eq!(a.to_csv(), b.to_csv());
    assert_eq!(a.report(), b.report());
}

#[test]
fn different_base_seeds_change_results() {
    let a = BatchRunner::new().run(&spec()).unwrap().to_json();
    let b = BatchRunner::new()
        .run(&spec().with_seed(8))
        .unwrap()
        .to_json();
    assert_ne!(a, b, "base seed must perturb the batch");
}

#[test]
fn matrix_seed_derivation_is_pure() {
    for (radio, n, rep) in [(0usize, 0usize, 0usize), (1, 2, 3), (2, 0, 7)] {
        assert_eq!(derive_seed(7, radio, n, rep), derive_seed(7, radio, n, rep));
    }
}

#[test]
fn longest_first_dispatch_never_reaches_the_output() {
    // fig11 sweeps five sensor counts, so the runner's longest-first
    // dispatch order (n descending, OPT last) differs from matrix
    // order; records must still land by matrix index.
    let spec = ScenarioSpec::from_toml_str(include_str!("../../../scenarios/fig11.toml"))
        .unwrap()
        .quick();
    let dir = std::env::temp_dir().join(format!("msn-dispatch-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("batch.json");
    // On one thread cells run in dispatch order; keep the checkpoint
    // written after the seventh finished run.
    let snapshot: Arc<Mutex<Option<String>>> = Arc::default();
    let snapshot_sink = Arc::clone(&snapshot);
    let sink = ProgressSink::new(move |event| {
        if let ProgressEvent::CheckpointWritten { path, runs: 7 } = event {
            *snapshot_sink.lock().unwrap() = Some(std::fs::read_to_string(path).unwrap());
        }
    });
    let reference = RunConfig::new()
        .threads(1)
        .checkpoint(&path, 7)
        .progress(sink)
        .runner()
        .run(&spec)
        .unwrap()
        .to_json();
    for threads in [2, 3] {
        let parallel = RunConfig::new()
            .threads(threads)
            .runner()
            .run(&spec)
            .unwrap()
            .to_json();
        assert_eq!(reference, parallel, "JSON diverged at {threads} threads");
    }

    // The checkpoint holds the n=280 row and part of n=240: records
    // that finished out of matrix order. Resuming from it must
    // rebuild the identical batch.
    let snapshot = snapshot
        .lock()
        .unwrap()
        .take()
        .expect("checkpoint at 7 runs");
    let prior = BatchFile::parse(&snapshot).unwrap();
    assert_eq!(prior.run_count(), 7);
    let recorded = |n: usize, scheme: SchemeKind| {
        prior
            .lookup(60.0, 40.0, n, scheme.name(), spec.variant_label(0), 0)
            .is_some()
    };
    assert!(recorded(280, SchemeKind::Floor) && recorded(240, SchemeKind::Cpvf));
    assert!(
        !recorded(120, SchemeKind::Cpvf),
        "matrix prefix not yet run"
    );
    let resumed = RunConfig::new()
        .threads(2)
        .runner()
        .run_resuming(&spec, Some(&prior))
        .unwrap()
        .to_json();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(reference, resumed, "resume from an out-of-order checkpoint");
}
