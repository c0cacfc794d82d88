//! The benchmark's manifests, generated from the definitions in
//! `workload` and `metrics`:
//!
//! * `BENCHMARK.json` at the repository root — how to run the benchmark,
//!   its workloads with their why-sentences, and its metrics with the
//!   regression bounds of the end-to-end ones;
//! * `perfbench/predictions.json` — what the manifest's fixed schema
//!   has no room for: each workload's source spec and seed panel, the
//!   default and held-out seeds, and for every per-layer metric the
//!   end-to-end metric and workload it should move.
//!
//! `--write-manifest` rewrites both; a test keeps the committed files
//! equal to the generated ones.

use crate::check::reference_seeds;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::workload::{repo_root, DEFAULT_SEED, HELD_OUT_SEED, THREADS, WORKLOADS};
use msn_scenario::Json;

/// Seconds one run measures.
pub const RUN_SECONDS: u64 = 30;

/// The command the benchmark runs as, from the repository root.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "perfbench/Cargo.toml",
    "--",
];

fn strings(items: &[&str]) -> Json {
    Json::Arr(items.iter().map(|s| Json::from(*s)).collect())
}

/// The `BENCHMARK.json` document.
pub fn benchmark_json() -> String {
    let workloads = WORKLOADS
        .iter()
        .map(|w| Json::obj().field("name", w.name).field("why", w.why))
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            Json::obj()
                .field("name", m.name)
                .field("unit", m.unit)
                .field("better", m.better)
                .field("bound", m.bound.expect("end-to-end metrics carry a bound"))
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|m| {
            Json::obj()
                .field("name", m.name)
                .field("unit", m.unit)
                .field("better", m.better)
        })
        .collect();
    Json::obj()
        .field("command", strings(&COMMAND))
        .field("paths", strings(&["perfbench"]))
        .field("run_seconds", RUN_SECONDS)
        .field("workloads", Json::Arr(workloads))
        .field("end_to_end", Json::Arr(end_to_end))
        .field("per_layer", Json::Arr(per_layer))
        .pretty()
}

/// The `perfbench/predictions.json` document.
pub fn predictions_json() -> String {
    let workloads = WORKLOADS
        .iter()
        .map(|w| {
            Json::obj()
                .field("name", w.name)
                .field("why", w.why)
                .field("spec", w.spec_file)
                .field("panel", w.panel)
        })
        .collect();
    let metrics = |defs: &[crate::metrics::MetricDef]| {
        Json::Arr(
            defs.iter()
                .map(|m| {
                    Json::obj()
                        .field("name", m.name)
                        .field("unit", m.unit)
                        .field("note", m.note)
                })
                .collect(),
        )
    };
    Json::obj()
        .field("threads", THREADS)
        .field("default_seed", DEFAULT_SEED)
        .field("held_out_seed", HELD_OUT_SEED)
        .field(
            "reference_seeds",
            Json::Arr(reference_seeds().into_iter().map(Json::from).collect()),
        )
        .field("workloads", Json::Arr(workloads))
        .field("end_to_end", metrics(&END_TO_END))
        .field("per_layer", metrics(&PER_LAYER))
        .pretty()
}

/// Writes both manifests.
pub fn write_manifests() -> Result<(), String> {
    let root = repo_root();
    for (path, text) in [
        (root.join("BENCHMARK.json"), benchmark_json()),
        (root.join("perfbench/predictions.json"), predictions_json()),
    ] {
        std::fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    Ok(())
}
