//! The benchmark's own tests: metric and manifest hygiene, the result
//! line's shape, and a shrunken instance of every workload run end to
//! end, untraced and traced.

use msn_perfbench::check::Reference;
use msn_perfbench::manifest::{benchmark_json, predictions_json};
use msn_perfbench::measure::{run_untraced, Options};
use msn_perfbench::metrics::{median, percentile, Outcome, END_TO_END, PER_LAYER};
use msn_perfbench::trace::{phase_metric, run_traced};
use msn_perfbench::workload::{instance_seed, repo_root, WORKLOADS};
use msn_scenario::Json;
use std::collections::HashSet;

fn is_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn is_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[test]
fn metric_and_workload_names_are_well_formed_and_unique() {
    let mut seen = HashSet::new();
    for def in END_TO_END.iter().chain(&PER_LAYER) {
        assert!(is_name(def.name), "bad metric name {:?}", def.name);
        assert!(is_unit(def.unit), "bad unit {:?} of {}", def.unit, def.name);
        assert!(matches!(def.better, "lower" | "higher"), "{}", def.name);
        assert!(seen.insert(def.name), "metric {} listed twice", def.name);
    }
    for w in &WORKLOADS {
        assert!(is_name(w.name), "bad workload name {:?}", w.name);
        assert!(seen.insert(w.name), "name {} used twice", w.name);
        assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
    }
    let bounds: Vec<f64> = END_TO_END.iter().map(|d| d.bound.unwrap()).collect();
    assert!(bounds.iter().all(|b| *b > 0.0 && *b <= 0.25));
    let setup = END_TO_END.iter().find(|d| d.name == "setup_s").unwrap();
    assert!(bounds.iter().all(|b| *b <= setup.bound.unwrap()));
    assert!(PER_LAYER.iter().all(|d| d.bound.is_none()));
    assert_eq!(phase_metric("floor.run/floor.plan"), "floor.plan.self_s");
}

#[test]
fn committed_manifests_match_the_definitions() {
    let root = repo_root();
    let read = |p: &str| std::fs::read_to_string(root.join(p)).unwrap();
    assert_eq!(
        read("BENCHMARK.json"),
        benchmark_json(),
        "BENCHMARK.json is stale: run perfbench --write-manifest"
    );
    assert_eq!(
        read("perfbench/predictions.json"),
        predictions_json(),
        "predictions.json is stale: run perfbench --write-manifest"
    );
    let manifest = Json::parse(&benchmark_json()).unwrap();
    let Json::Obj(members) = &manifest else {
        panic!("manifest is an object")
    };
    let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
}

#[test]
fn stored_reference_round_trips() {
    let reference = Reference::load().unwrap();
    let again = Reference::parse(&reference.to_json()).unwrap();
    assert_eq!(reference, again);
    for w in &WORKLOADS {
        let runs = reference.get(w.name, 42).expect("default seed is stored");
        let spec = w.base_spec(false).unwrap();
        assert_eq!(runs.len(), spec.matrix().len(), "{}", w.name);
    }
}

#[test]
fn statistics_helpers() {
    assert_eq!(median(&[]), 0.0);
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    // nearest rank: always a sample
    let pool = [0.9, 1.0, 1.1, 5.0, 6.0, 7.0];
    assert_eq!(percentile(&pool, 0.5), 1.1);
    assert_eq!(percentile(&pool, 0.9), 7.0);
    assert_eq!(percentile(&[2.0], 0.9), 2.0);
    let seeds: HashSet<u64> = (0..16).map(|k| instance_seed(7, k)).collect();
    assert_eq!(seeds.len(), 16);
    assert_eq!(instance_seed(7, 0), 7);
}

/// The result line parses back through the repository's JSON parser
/// with exactly the four keys and every metric with its unit.
fn check_result_line(outcome: &Outcome, expected: &[&str]) {
    let line = outcome.result_line();
    assert!(!line.contains('\n'));
    let root = Json::parse(&line).unwrap();
    let Json::Obj(members) = &root else {
        panic!("result is an object")
    };
    let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(root.get("correct").and_then(Json::as_bool), Some(true));
    assert!(root.get("attempted").and_then(Json::as_u64).unwrap() >= 1);
    assert_eq!(root.get("failed").and_then(Json::as_u64), Some(0));
    let Some(Json::Obj(metrics)) = root.get("metrics") else {
        panic!("metrics is an object")
    };
    let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(names, expected);
    for (name, value) in metrics {
        let def = msn_perfbench::metrics::def(name).unwrap();
        assert_eq!(value.get("unit").and_then(Json::as_str), Some(def.unit));
        assert!(value
            .get("value")
            .and_then(Json::as_f64)
            .unwrap()
            .is_finite());
    }
    assert_eq!(Json::parse(&root.compact()).unwrap(), root);
}

#[test]
fn every_workload_runs_shrunken_end_to_end() {
    let reference = Reference::default();
    let e2e: Vec<&str> = END_TO_END.iter().map(|d| d.name).collect();
    let layers: Vec<&str> = PER_LAYER.iter().map(|d| d.name).collect();
    for workload in &WORKLOADS {
        let opts = Options {
            workload,
            seed: 3,
            seconds: 0.0,
            shrink: true,
        };
        let untraced = run_untraced(&opts, &reference).unwrap();
        check_result_line(&untraced, &e2e);
        assert!(
            untraced.values.iter().all(|v| v.value > 0.0),
            "{untraced:?}"
        );
        let traced = run_traced(&opts, &reference).unwrap();
        check_result_line(&traced, &layers);
        let schemes = workload.base_spec(true).unwrap().schemes.len();
        let scheme_time = |name: &str| traced.values.iter().find(|v| v.name == name).unwrap();
        let ran: usize = ["deploy.cpvf_s", "deploy.floor_s", "deploy.vor_s"]
            .into_iter()
            .chain(["deploy.minimax_s", "deploy.opt_s"])
            .filter(|n| scheme_time(n).value > 0.0)
            .count();
        assert_eq!(
            ran, schemes,
            "{}: one timed deploy layer per scheme",
            workload.name
        );
    }
}

#[test]
fn a_changed_output_counts_as_a_failed_run() {
    let workload = &WORKLOADS[0];
    let spec_seed = 3;
    let spec = workload.base_spec(true).unwrap().with_seed(spec_seed);
    let result = msn_scenario::RunConfig::new()
        .threads(2)
        .runner()
        .run(&spec)
        .unwrap();
    let mut digests: Vec<String> = result
        .records
        .iter()
        .map(msn_perfbench::check::run_digest)
        .collect();
    digests[0] = "0000000000000000".into();
    let mut reference = Reference::default();
    reference.insert(workload.name, spec_seed, digests);
    let mut checker = msn_perfbench::check::Checker::new(workload.name, &reference);
    let failed = checker.check(spec_seed, result.records.len(), &result.records);
    assert_eq!(failed, 1);
    // a missing record fails too
    let failed = checker.check(spec_seed, result.records.len(), &result.records[1..]);
    assert_eq!(failed, result.records.len() as u64);
}
