//! Hard-kill checkpoint/resume integration: a batch checkpointed to
//! disk mid-run must resume byte-identically, and a torn (truncated)
//! or incomplete file must be refused loudly instead of merged.

use msn_deploy::SchemeKind;
use msn_scenario::{BatchFile, BatchResult, ProgressEvent, ProgressSink, RunConfig, ScenarioSpec};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

fn spec() -> ScenarioSpec {
    ScenarioSpec::new("checkpoint-test")
        .with_schemes(vec![SchemeKind::Cpvf, SchemeKind::Floor])
        .with_sensor_counts(vec![10])
        .with_duration(20.0)
        .with_coverage_cell(25.0)
        .with_repetitions(2)
}

/// A scratch path under the system temp dir, cleaned up on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(name: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("msn-checkpoint-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        Scratch(dir)
    }

    fn file(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn checkpoints_land_atomically_and_cover_the_whole_batch() {
    let scratch = Scratch::new("atomic");
    let path = scratch.file("batch.json");
    let spec = spec();
    let result = RunConfig::new()
        .threads(1)
        .checkpoint(&path, 1)
        .runner()
        .run(&spec)
        .unwrap();
    // with a checkpoint after every run, the last checkpoint is the
    // complete batch — byte-identical to the final serialization
    let on_disk = std::fs::read_to_string(&path).expect("checkpoint written");
    assert_eq!(on_disk, result.to_json());
    // no temp file left behind by the rename dance
    assert!(!path.with_extension("json.tmp").exists());
}

#[test]
fn failed_checkpoint_writes_are_events_not_fatal() {
    let scratch = Scratch::new("unwritable");
    // the parent directory never exists, so every write fails
    let path = scratch.file("missing").join("batch.json");
    let spec = spec();
    let events: Arc<Mutex<Vec<ProgressEvent>>> = Arc::default();
    let seen = Arc::clone(&events);
    let result = RunConfig::new()
        .threads(1)
        .checkpoint(&path, 1)
        .progress(ProgressSink::new(move |event| {
            seen.lock().unwrap().push(event.clone());
        }))
        .runner()
        .run(&spec)
        .expect("a failed checkpoint must not fail the batch");
    assert_eq!(result.records.len(), spec.matrix().len());
    let events = events.lock().unwrap();
    let failed: Vec<&ProgressEvent> = events
        .iter()
        .filter(|e| matches!(e, ProgressEvent::CheckpointFailed { .. }))
        .collect();
    // sequential, checkpoint after every run: one failed write per run
    assert_eq!(failed.len(), spec.matrix().len());
    for event in failed {
        let ProgressEvent::CheckpointFailed { path: at, error } = event else {
            unreachable!()
        };
        assert_eq!(*at, path.display().to_string());
        assert!(!error.is_empty(), "the event names the IO error");
        let line = event.ndjson_line();
        assert!(line.starts_with("{\"event\":\"checkpoint-failed\",\"path\":"));
        assert!(msn_scenario::Json::parse(&line).is_ok());
    }
    assert!(
        !events
            .iter()
            .any(|e| matches!(e, ProgressEvent::CheckpointWritten { .. })),
        "no checkpoint landed, so none may be announced"
    );
    assert!(!path.exists());
}

#[test]
fn killed_batch_resumes_byte_identically_from_checkpoint() {
    let scratch = Scratch::new("kill");
    let path = scratch.file("batch.json");
    let spec = spec();
    let full = RunConfig::new().threads(1).runner().run(&spec).unwrap();
    // simulate a SIGKILL after 3 of 4 runs: persist the checkpoint a
    // mid-batch write would have produced (records in matrix order,
    // holes across schemes within the final repetition)
    let partial = BatchResult {
        spec: spec.clone(),
        records: full.records[..3].to_vec(),
        profiles: Vec::new(),
    };
    std::fs::write(&path, partial.to_json()).unwrap();
    let prior = BatchFile::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
    assert_eq!(prior.run_count(), 3);
    let resumed = RunConfig::new()
        .threads(1)
        .runner()
        .run_resuming(&spec, Some(&prior))
        .unwrap();
    assert_eq!(
        resumed.to_json(),
        full.to_json(),
        "merge must be byte-identical"
    );
}

#[test]
fn truncated_checkpoint_is_refused_not_merged() {
    let scratch = Scratch::new("truncated");
    let path = scratch.file("batch.json");
    let spec = spec();
    let full = RunConfig::new().threads(1).runner().run(&spec).unwrap();
    let json = full.to_json();
    // a torn write (kill mid-write without the atomic rename) leaves a
    // prefix; parsing must fail loudly so resume cannot merge garbage
    std::fs::write(&path, &json[..json.len() - 40]).unwrap();
    let err = BatchFile::parse(&std::fs::read_to_string(&path).unwrap());
    assert!(err.is_err(), "truncated batch.json must not parse");
}

#[test]
fn checkpoint_missing_a_run_field_is_refused_not_zeroed() {
    let full = RunConfig::new().threads(1).runner().run(&spec()).unwrap();
    let json = full.to_json();
    // a file of an older schema: the first run carries no `moves`
    // (the cell summaries' `"moves": {` lines come first and stay)
    let line = json
        .lines()
        .find(|l| l.trim_start().starts_with("\"moves\": ") && !l.ends_with('{'))
        .unwrap();
    let stale = json.replacen(&format!("{line}\n"), "", 1);
    let err = BatchFile::parse(&stale).expect_err("resume must not restore a 0");
    assert!(err.0.contains("missing 'moves' in run"), "{err}");
}
