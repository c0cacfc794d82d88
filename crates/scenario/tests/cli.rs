//! CLI integration: the `scenario` binary's `--threads` flag must be
//! accepted, validated, and must not change a single output byte —
//! the determinism contract holds at the process boundary, not just
//! in-library.

use std::path::PathBuf;
use std::process::Command;

/// A scratch directory under the system temp dir, cleaned up on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(name: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("msn-cli-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        Scratch(dir)
    }

    fn dir(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn repo_file(rel: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(rel)
}

fn scenario_bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_scenario"))
}

#[test]
fn threads_flag_is_byte_invariant_at_the_process_boundary() {
    let scratch = Scratch::new("threads");
    let spec = repo_file("scenarios/smoke.toml");
    let mut outputs = Vec::new();
    for threads in ["1", "4"] {
        let out = scratch.dir(&format!("t{threads}"));
        let status = scenario_bin()
            .args(["run"])
            .arg(&spec)
            .args(["--threads", threads, "--out"])
            .arg(&out)
            .status()
            .expect("spawn scenario binary");
        assert!(status.success(), "--threads {threads} run failed");
        outputs.push(std::fs::read(out.join("batch.json")).expect("batch.json written"));
    }
    assert_eq!(
        outputs[0], outputs[1],
        "batch.json must be byte-identical across --threads values"
    );
}

#[test]
fn invalid_thread_count_is_rejected() {
    let out = scenario_bin()
        .args(["run"])
        .arg(repo_file("scenarios/smoke.toml"))
        .args(["--threads", "lots"])
        .output()
        .expect("spawn scenario binary");
    assert!(!out.status.success(), "non-numeric --threads must fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("invalid thread count"),
        "stderr should name the bad flag value, got: {stderr}"
    );
}

#[test]
fn concurrent_runs_against_the_same_batch_are_refused() {
    let scratch = Scratch::new("lock");
    let out = scratch.dir("locked");
    // stand in for a live `scenario run`: this test process holds the
    // batch lock, so the spawned run must refuse to start
    let lock = msn_scenario::BatchLock::acquire(&out).expect("take batch lock");
    let output = scenario_bin()
        .args(["run"])
        .arg(repo_file("scenarios/smoke.toml"))
        .arg("--out")
        .arg(&out)
        .output()
        .expect("spawn scenario binary");
    assert!(!output.status.success(), "second run must be refused");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("locked by pid"),
        "stderr should name the lock owner, got: {stderr}"
    );
    drop(lock);
    // with the lock released the same invocation goes through
    let status = scenario_bin()
        .args(["run"])
        .arg(repo_file("scenarios/smoke.toml"))
        .arg("--out")
        .arg(&out)
        .status()
        .expect("spawn scenario binary");
    assert!(status.success(), "run must proceed once the lock is free");
}

#[test]
fn exit_codes_separate_usage_errors_from_failures() {
    // a command the CLI does not know is a usage error
    for args in [&["frobnicate"][..], &["--json", "list"][..]] {
        let output = scenario_bin()
            .args(args)
            .output()
            .expect("spawn scenario binary");
        assert_eq!(output.status.code(), Some(2), "{args:?} must exit 2");
    }
    // a well-formed command whose input is missing fails with exit 1
    let output = scenario_bin()
        .args(["describe", "does-not-exist.toml"])
        .output()
        .expect("spawn scenario binary");
    assert_eq!(output.status.code(), Some(1), "missing spec must exit 1");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.starts_with("error: "),
        "stderr should carry the error, got: {stderr}"
    );
}

#[test]
fn ndjson_progress_keeps_stderr_pure_json() {
    use msn_scenario::Json;
    let scratch = Scratch::new("ndjson");
    let out = scratch.dir("run");
    let run = |extra: &[&str], ndjson: bool| {
        let mut cmd = scenario_bin();
        cmd.arg("run")
            .arg(repo_file("scenarios/smoke.toml"))
            .args(["--checkpoint-every", "1", "--out"])
            .arg(&out)
            .arg("--profile")
            .arg(scratch.dir("profile.json"))
            .args(extra);
        if ndjson {
            cmd.args(["--progress", "ndjson"]);
        }
        let output = cmd.output().expect("spawn scenario binary");
        assert!(output.status.success(), "run {extra:?} failed");
        String::from_utf8(output.stderr).expect("UTF-8 stderr")
    };
    // a fresh run and a resume exercise every status note the plain
    // mode prints (running, checkpoint, finished, wrote, resuming)
    for extra in [&[][..], &["--resume"][..]] {
        let stderr = run(extra, true);
        let mut events = Vec::new();
        for line in stderr.lines() {
            let event = Json::parse(line)
                .unwrap_or_else(|e| panic!("stderr line is not JSON ({e}): {line}"));
            let kind = event.get("event").and_then(Json::as_str).map(str::to_owned);
            if kind.as_deref() == Some("run-finished") {
                assert!(event.get("wall_s").is_some(), "run-finished carries wall_s");
            }
            events.push(kind.expect("every line is an event"));
        }
        assert_eq!(events.first().map(String::as_str), Some("batch-started"));
        assert_eq!(events.last().map(String::as_str), Some("batch-finished"));
    }
    // concurrent finishers may fold into one snapshot, so at least one
    let fresh = events_of_kind(&run(&[], true), "checkpoint");
    assert!(fresh >= 1, "checkpoint writes arrive as events");
    // plain mode keeps its human notes
    let plain = run(&[], false);
    for note in ["running 'smoke'", "checkpoint: ", "finished in", "wrote "] {
        assert!(plain.contains(note), "plain stderr lacks {note:?}");
    }
}

#[test]
fn profile_diff_refuses_a_truncated_baseline() {
    let scratch = Scratch::new("profile-diff");
    let profile = scratch.dir("profile.json");
    let status = scenario_bin()
        .arg("run")
        .arg(repo_file("scenarios/smoke.toml"))
        .arg("--out")
        .arg(scratch.dir("run"))
        .arg("--profile")
        .arg(&profile)
        .output()
        .expect("spawn scenario binary")
        .status;
    assert!(status.success(), "profiled run failed");
    let diff = |baseline: &PathBuf| {
        scenario_bin()
            .arg("profile-diff")
            .arg(baseline)
            .arg(&profile)
            .output()
            .expect("spawn scenario binary")
    };
    assert!(diff(&profile).status.success(), "self-diff must pass");
    // valid JSON whose cells lost everything after the scheme: read
    // leniently it held no spans, every current span would be "new"
    // and the gate would pass
    let truncated = scratch.dir("truncated.json");
    std::fs::write(
        &truncated,
        r#"{"record": "profile", "schema": 1, "scenario": "smoke",
           "cells": [{"rc": 60.0, "rs": 40.0, "n": 12, "scheme": "CPVF"}]}"#,
    )
    .unwrap();
    let output = diff(&truncated);
    assert_eq!(
        output.status.code(),
        Some(1),
        "a truncated baseline must fail"
    );
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("'wall_ns'"),
        "names the missing key: {stderr}"
    );
}

#[test]
fn profile_diff_refuses_an_empty_baseline() {
    let scratch = Scratch::new("profile-diff-empty");
    let profile = scratch.dir("profile.json");
    let status = scenario_bin()
        .arg("run")
        .arg(repo_file("scenarios/smoke.toml"))
        .arg("--quick")
        .arg("--out")
        .arg(scratch.dir("run"))
        .arg("--profile")
        .arg(&profile)
        .output()
        .expect("spawn scenario binary")
        .status;
    assert!(status.success(), "profiled run failed");
    // a well-formed profile with no cells has no spans: every current
    // span would be "new" and the gate would pass
    let empty = scratch.dir("empty.json");
    std::fs::write(
        &empty,
        r#"{"record": "profile", "schema": 1, "scenario": "smoke", "cells": []}"#,
    )
    .unwrap();
    let output = scenario_bin()
        .arg("profile-diff")
        .arg(&empty)
        .arg(&profile)
        .output()
        .expect("spawn scenario binary");
    assert_eq!(output.status.code(), Some(1), "an empty baseline must fail");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        stdout.contains("baseline has no kernels") && stdout.contains("FAIL"),
        "says why: {stdout}"
    );
}

fn events_of_kind(stderr: &str, kind: &str) -> usize {
    let tag = format!("\"event\":\"{kind}\"");
    stderr.lines().filter(|line| line.contains(&tag)).count()
}

#[test]
fn zero_threads_clamps_to_sequential() {
    // `--threads 0` is documented to clamp to 1 rather than error.
    let scratch = Scratch::new("zero");
    let out = scratch.dir("t0");
    let status = scenario_bin()
        .args(["run"])
        .arg(repo_file("scenarios/smoke.toml"))
        .args(["--threads", "0", "--out"])
        .arg(&out)
        .status()
        .expect("spawn scenario binary");
    assert!(status.success(), "--threads 0 must clamp, not fail");
    assert!(out.join("batch.json").exists());
}
