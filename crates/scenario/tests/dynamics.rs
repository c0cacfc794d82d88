//! Dynamics tier: seeded mid-run failures must keep every determinism
//! guarantee the static engine gives — byte-identical `batch.json` at
//! any thread count and across a kill/resume — and static and
//! dynamic specs must share one output schema.

use msn_deploy::SchemeKind;
use msn_scenario::{BatchFile, BatchResult, Json, RunConfig, ScenarioSpec};
use msn_sim::{DynEvent, EventSchedule};
use std::collections::BTreeSet;

/// A failure-heavy schedule: three die-offs inside a 30 s horizon.
fn schedule() -> EventSchedule {
    EventSchedule::new(vec![
        DynEvent {
            time: 10.0,
            frac: 0.25,
        },
        DynEvent {
            time: 18.0,
            frac: 0.2,
        },
        DynEvent {
            time: 24.0,
            frac: 0.5,
        },
    ])
}

fn dynamic_spec() -> ScenarioSpec {
    ScenarioSpec::new("dynamics-test")
        .with_schemes(vec![SchemeKind::Cpvf, SchemeKind::Floor])
        .with_sensor_counts(vec![14])
        .with_duration(30.0)
        .with_coverage_cell(25.0)
        .with_repetitions(2)
        .with_dynamics(schedule())
}

#[test]
fn dynamic_batches_surface_recovery_metrics_in_every_format() {
    let result = RunConfig::new()
        .threads(1)
        .runner()
        .run(&dynamic_spec())
        .unwrap();
    // every run fired all three events
    for record in &result.records {
        assert_eq!(record.recovery.len(), 3, "one stat per fired event");
        for stat in &record.recovery {
            assert_eq!(stat.kind, "fail");
            assert!(stat.pre_coverage >= stat.min_coverage);
        }
    }
    let json = result.to_json();
    assert!(json.contains("\"recovery\""), "{json}");
    assert!(json.contains("\"min_coverage\""), "{json}");
    assert!(json.contains("\"recovery_time\""), "{json}");
    assert!(json.contains("\"coverage_dip\""), "{json}");
    let csv = result.to_csv();
    let header = csv.lines().next().unwrap();
    assert!(header.contains("recovery_time_mean"), "{header}");
    assert!(header.contains("coverage_dip_mean"), "{header}");
    let report = result.report();
    assert!(report.contains("rec (s)"), "{report}");
}

/// Every distinct key list of `batch.json` (header, each cell, each
/// run) and the CSV header, as `level: key,key,...` entries.
fn schema(result: &BatchResult) -> BTreeSet<String> {
    let keys = |level: &str, obj: &Json| {
        let Json::Obj(members) = obj else {
            panic!("expected an object, got {obj:?}")
        };
        let names: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        format!("{level}: {}", names.join(","))
    };
    let root = Json::parse(&result.to_json()).unwrap();
    let csv = result.to_csv();
    let mut lists = BTreeSet::from([
        keys("header", &root),
        format!("csv: {}", csv.lines().next().unwrap()),
    ]);
    for cell in root.get("cells").unwrap().as_array().unwrap() {
        lists.insert(keys("cell", cell));
        for run in cell.get("runs").unwrap().as_array().unwrap() {
            lists.insert(keys("run", run));
        }
    }
    lists
}

#[test]
fn static_and_dynamic_batches_share_one_schema() {
    let bundled = |name: &str| {
        let path = format!("{}/../../scenarios/{name}.toml", env!("CARGO_MANIFEST_DIR"));
        ScenarioSpec::from_toml_str(&std::fs::read_to_string(path).unwrap())
            .unwrap()
            .quick()
    };
    // static with variants; dynamic without; neither
    let smoke = bundled("smoke");
    let recovery = bundled("failure-recovery");
    let mut plain = dynamic_spec();
    plain.dynamics = None;
    assert!(!smoke.variants.is_empty() && smoke.dynamics.is_none());
    assert!(recovery.variants.is_empty() && recovery.dynamics.is_some());
    let schemas: Vec<_> = [smoke, recovery, plain]
        .iter()
        .map(|spec| {
            let result = RunConfig::new().threads(1).runner().run(spec).unwrap();
            let dynamic = spec.dynamics.is_some();
            assert!(result
                .records
                .iter()
                .all(|r| r.recovery.is_empty() != dynamic));
            schema(&result)
        })
        .collect();
    assert_eq!(
        schemas[0].len(),
        4,
        "one key list per level: {:?}",
        schemas[0]
    );
    for other in &schemas[1..] {
        assert_eq!(*other, schemas[0]);
    }
}

#[test]
fn dynamic_batches_are_thread_invariant() {
    let spec = dynamic_spec();
    let sequential = RunConfig::new().threads(1).runner().run(&spec).unwrap();
    let pooled = RunConfig::new().threads(4).runner().run(&spec).unwrap();
    assert_eq!(sequential.to_json(), pooled.to_json());
    assert_eq!(sequential.to_csv(), pooled.to_csv());
}

#[test]
fn killed_dynamic_batch_resumes_byte_identically() {
    let spec = dynamic_spec();
    let full = RunConfig::new().threads(1).runner().run(&spec).unwrap();
    // simulate a SIGKILL after 3 of 4 runs: the checkpoint a mid-batch
    // write would have produced (holes across schemes within a rep)
    let partial = BatchResult {
        spec: spec.clone(),
        records: full.records[..3].to_vec(),
        profiles: Vec::new(),
    };
    let prior = BatchFile::parse(&partial.to_json()).unwrap();
    assert_eq!(prior.run_count(), 3);
    // restored records carry their recovery stats back
    assert_eq!(prior.cells[0].1[&0].recovery.len(), 3);
    let resumed = RunConfig::new()
        .threads(2)
        .runner()
        .run_resuming(&spec, Some(&prior))
        .unwrap();
    assert_eq!(resumed.to_json(), full.to_json());
    assert_eq!(resumed.to_csv(), full.to_csv());
}

#[test]
fn dynamic_spec_roundtrips_toml_and_runs_identically_from_both_forms() {
    let spec = dynamic_spec();
    let parsed = ScenarioSpec::from_toml_str(&spec.to_toml_string()).unwrap();
    assert_eq!(parsed, spec);
    let from_built = RunConfig::new().threads(1).runner().run(&spec).unwrap();
    let from_parsed = RunConfig::new().threads(1).runner().run(&parsed).unwrap();
    assert_eq!(from_built.to_json(), from_parsed.to_json());
}

#[test]
fn editing_the_schedule_invalidates_resume() {
    let spec = dynamic_spec();
    let full = RunConfig::new().threads(1).runner().run(&spec).unwrap();
    let prior = BatchFile::parse(&full.to_json()).unwrap();
    // an edited event time would not take effect on restored records —
    // the digest must refuse the merge
    let mut edited = spec.clone();
    let schedule = edited.dynamics.as_mut().unwrap();
    schedule.events[0].time = 12.0;
    let err = RunConfig::new()
        .threads(1)
        .runner()
        .run_resuming(&edited, Some(&prior))
        .unwrap_err();
    assert!(err.0.contains("different spec"), "{}", err.0);
    // dropping the section entirely is also a different spec
    let mut stripped = spec.clone();
    stripped.dynamics = None;
    assert!(RunConfig::new()
        .threads(1)
        .runner()
        .run_resuming(&stripped, Some(&prior))
        .is_err());
}

#[test]
fn failures_depress_coverage_against_the_static_twin() {
    // the same cells without events must do at least as well at the
    // horizon as the version that loses a quarter of its fleet
    let mut failure_only = dynamic_spec();
    failure_only.dynamics = Some(EventSchedule::new(vec![DynEvent {
        time: 25.0,
        frac: 0.5,
    }]));
    let dynamic = RunConfig::new()
        .threads(1)
        .runner()
        .run(&failure_only)
        .unwrap();
    let mut static_spec = failure_only.clone();
    static_spec.dynamics = None;
    let baseline = RunConfig::new()
        .threads(1)
        .runner()
        .run(&static_spec)
        .unwrap();
    for (d, s) in dynamic.records.iter().zip(&baseline.records) {
        assert_eq!(d.cell.env_seed, s.cell.env_seed);
        assert!(
            d.recovery[0].post_coverage < s.coverage + 1e-9,
            "losing half the fleet at t=25 of 30 cannot beat the intact run \
             ({} vs {})",
            d.recovery[0].post_coverage,
            s.coverage,
        );
    }
}
