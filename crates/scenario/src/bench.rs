//! Parsed perf records (`BENCH.json`) and the bench-trend gate.
//!
//! `cargo bench -p msn-bench --bench kernels` exports every kernel
//! measurement as a machine-readable record. [`diff_bench`] compares
//! two such records within a relative tolerance so CI can hold each
//! commit against the committed baseline: `scenario bench-diff
//! BENCH.json target/tmp/BENCH.json --tol 0.75` prints per-kernel deltas
//! and exits nonzero when a kernel slowed down beyond tolerance or
//! vanished from the record (a silently missing artifact is a failure
//! too). Kernels new in the current record are reported but pass —
//! they become gated once the baseline is refreshed.

use crate::json::Json;
use crate::runner::ScenarioError;
use std::fmt::Write as _;

/// One kernel's measurement in a perf record.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchKernel {
    /// Benchmark name.
    pub name: String,
    /// Mean wall-clock nanoseconds per iteration.
    pub ns_per_iter: f64,
    /// Iterations of the measured pass.
    pub iters: u64,
}

/// A parsed perf record.
#[derive(Debug, Clone)]
pub struct BenchRecord {
    /// Record label (e.g. `BENCH`).
    pub record: String,
    /// Suite name (e.g. `kernels`).
    pub suite: String,
    /// Kernel measurements in file order.
    pub kernels: Vec<BenchKernel>,
}

impl BenchRecord {
    /// Parses the JSON document the kernels bench harness wrote.
    pub fn parse(text: &str) -> Result<BenchRecord, ScenarioError> {
        let root = Json::parse(text).map_err(|e| ScenarioError(e.to_string()))?;
        let field_str = |key: &str| -> Result<String, ScenarioError> {
            root.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| ScenarioError(format!("bench record: missing string '{key}'")))
        };
        let record = field_str("record")?;
        let suite = field_str("suite")?;
        let mut kernels = Vec::new();
        let items = root
            .get("kernels")
            .and_then(Json::as_array)
            .ok_or_else(|| ScenarioError("bench record: missing 'kernels' array".into()))?;
        for item in items {
            let name = item
                .get("name")
                .and_then(Json::as_str)
                .ok_or_else(|| ScenarioError("bench record: kernel without 'name'".into()))?
                .to_string();
            let ns_per_iter = item
                .get("ns_per_iter")
                .and_then(Json::as_f64)
                .filter(|ns| ns.is_finite() && *ns >= 0.0)
                .ok_or_else(|| {
                    ScenarioError(format!(
                        "bench record: kernel '{name}' without 'ns_per_iter'"
                    ))
                })?;
            let iters = item.get("iters").and_then(Json::as_u64).ok_or_else(|| {
                ScenarioError(format!("bench record: kernel '{name}' without 'iters'"))
            })?;
            kernels.push(BenchKernel {
                name,
                ns_per_iter,
                iters,
            });
        }
        Ok(BenchRecord {
            record,
            suite,
            kernels,
        })
    }

    /// Looks up one kernel by name.
    pub fn kernel(&self, name: &str) -> Option<&BenchKernel> {
        self.kernels.iter().find(|k| k.name == name)
    }
}

/// A kernel's classification in a bench diff.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaStatus {
    /// Within tolerance of the baseline.
    Ok,
    /// Faster than the baseline beyond tolerance.
    Improved,
    /// Slower than the baseline beyond tolerance — fails the gate.
    Regression,
    /// Present only in the current record (not yet gated).
    New,
    /// Present only in the baseline — fails the gate (the artifact
    /// silently lost a kernel).
    Missing,
}

/// The gate-failure message for a baseline without kernels.
const EMPTY_BASELINE: &str = "baseline has no kernels: nothing to gate against";

/// One kernel row of a [`BenchDiffReport`].
#[derive(Debug, Clone)]
pub struct KernelDelta {
    /// Kernel name.
    pub name: String,
    /// Baseline ns/iter, if the baseline has the kernel.
    pub baseline_ns: Option<f64>,
    /// Current ns/iter, if the current record has the kernel.
    pub current_ns: Option<f64>,
    /// `current / baseline` when both sides measured the kernel.
    pub ratio: Option<f64>,
    /// Gate classification.
    pub status: DeltaStatus,
}

/// The outcome of comparing two perf records.
#[derive(Debug, Clone)]
pub struct BenchDiffReport {
    /// Per-kernel rows, baseline order first, then new kernels.
    pub rows: Vec<KernelDelta>,
    /// The relative tolerance the gate ran with.
    pub tol: f64,
    /// Kernels that regressed beyond tolerance or went missing, plus
    /// one when the baseline has no kernels at all.
    pub failures: usize,
}

impl BenchDiffReport {
    /// Whether the current record passes the gate.
    pub fn is_match(&self) -> bool {
        self.failures == 0
    }

    /// Whether the baseline held no kernels, so nothing was gated.
    fn baseline_empty(&self) -> bool {
        self.rows.iter().all(|row| row.baseline_ns.is_none())
    }

    /// Formats the per-kernel delta table plus a summary line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<42} {:>14} {:>14} {:>8}  status",
            "kernel", "baseline", "current", "delta"
        );
        for row in &self.rows {
            let fmt_ns = |ns: Option<f64>| match ns {
                Some(ns) => format!("{ns:.1} ns"),
                None => "-".to_string(),
            };
            let delta = match row.ratio {
                Some(r) => format!("{:+.1}%", (r - 1.0) * 100.0),
                None => "-".to_string(),
            };
            let status = match row.status {
                DeltaStatus::Ok => "ok",
                DeltaStatus::Improved => "improved",
                DeltaStatus::Regression => "REGRESSION",
                DeltaStatus::New => "new",
                DeltaStatus::Missing => "MISSING",
            };
            let _ = writeln!(
                out,
                "{:<42} {:>14} {:>14} {:>8}  {status}",
                row.name,
                fmt_ns(row.baseline_ns),
                fmt_ns(row.current_ns),
                delta,
            );
        }
        if self.baseline_empty() {
            let _ = writeln!(out, "{EMPTY_BASELINE}");
        }
        let _ = writeln!(
            out,
            "{} kernel(s) compared, {} failure(s) beyond +{:.0}% tolerance",
            self.rows.len(),
            self.failures,
            self.tol * 100.0
        );
        out
    }

    /// GitHub workflow-command annotation lines (`::error::…`) for
    /// every gate failure, for inline rendering in the Actions UI.
    pub fn annotations(&self) -> Vec<String> {
        let mut notes: Vec<String> = self
            .rows
            .iter()
            .filter_map(|row| match row.status {
                DeltaStatus::Regression => Some(format!(
                    "::error::kernel '{}' regressed: {:.1} ns -> {:.1} ns ({:+.1}% > +{:.0}% tolerance)",
                    row.name,
                    row.baseline_ns.unwrap_or(0.0),
                    row.current_ns.unwrap_or(0.0),
                    (row.ratio.unwrap_or(1.0) - 1.0) * 100.0,
                    self.tol * 100.0
                )),
                DeltaStatus::Missing => Some(format!(
                    "::error::kernel '{}' is in the baseline but missing from the current record",
                    row.name
                )),
                _ => None,
            })
            .collect();
        if self.baseline_empty() {
            notes.push(format!("::error::{EMPTY_BASELINE}"));
        }
        notes
    }
}

/// Compares `current` against `baseline` within relative tolerance
/// `tol`: a kernel regresses when `current > baseline * (1 + tol)`,
/// improves when `current < baseline / (1 + tol)`. Missing kernels
/// fail the gate; new kernels pass. A baseline without kernels fails
/// too: against it every current kernel would be new and pass.
pub fn diff_bench(baseline: &BenchRecord, current: &BenchRecord, tol: f64) -> BenchDiffReport {
    let mut rows = Vec::new();
    let mut failures = usize::from(baseline.kernels.is_empty());
    for base in &baseline.kernels {
        match current.kernel(&base.name) {
            Some(cur) => {
                let ratio = if base.ns_per_iter > 0.0 {
                    cur.ns_per_iter / base.ns_per_iter
                } else {
                    1.0
                };
                let status = if ratio > 1.0 + tol {
                    failures += 1;
                    DeltaStatus::Regression
                } else if ratio < 1.0 / (1.0 + tol) {
                    DeltaStatus::Improved
                } else {
                    DeltaStatus::Ok
                };
                rows.push(KernelDelta {
                    name: base.name.clone(),
                    baseline_ns: Some(base.ns_per_iter),
                    current_ns: Some(cur.ns_per_iter),
                    ratio: Some(ratio),
                    status,
                });
            }
            None => {
                failures += 1;
                rows.push(KernelDelta {
                    name: base.name.clone(),
                    baseline_ns: Some(base.ns_per_iter),
                    current_ns: None,
                    ratio: None,
                    status: DeltaStatus::Missing,
                });
            }
        }
    }
    for cur in &current.kernels {
        if baseline.kernel(&cur.name).is_none() {
            rows.push(KernelDelta {
                name: cur.name.clone(),
                baseline_ns: None,
                current_ns: Some(cur.ns_per_iter),
                ratio: None,
                status: DeltaStatus::New,
            });
        }
    }
    BenchDiffReport {
        rows,
        tol,
        failures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(kernels: &[(&str, f64)]) -> BenchRecord {
        BenchRecord {
            record: "BENCH_test".into(),
            suite: "kernels".into(),
            kernels: kernels
                .iter()
                .map(|&(name, ns)| BenchKernel {
                    name: name.into(),
                    ns_per_iter: ns,
                    iters: 100,
                })
                .collect(),
        }
    }

    #[test]
    fn parse_round_trips_the_bench_harness_format() {
        let text = r#"{
            "record": "BENCH_pr4",
            "suite": "kernels",
            "kernels": [
                {"name": "disk_graph_build_240_rc60", "ns_per_iter": 29000.5, "iters": 6000}
            ]
        }"#;
        let rec = BenchRecord::parse(text).unwrap();
        assert_eq!(rec.record, "BENCH_pr4");
        assert_eq!(rec.suite, "kernels");
        assert_eq!(rec.kernels.len(), 1);
        let k = rec.kernel("disk_graph_build_240_rc60").unwrap();
        assert_eq!(k.ns_per_iter, 29000.5);
        assert_eq!(k.iters, 6000);
        assert!(rec.kernel("nope").is_none());
    }

    #[test]
    fn parse_rejects_malformed_records() {
        assert!(BenchRecord::parse("not json").is_err());
        assert!(BenchRecord::parse("{}").is_err());
        assert!(BenchRecord::parse(
            r#"{"record": "x", "suite": "kernels", "kernels": [{"name": "k"}]}"#
        )
        .is_err());
        // NaN / negative timings are refused, not gated against
        assert!(BenchRecord::parse(
            r#"{"record": "x", "suite": "kernels", "kernels": [{"name": "k", "ns_per_iter": -1.0, "iters": 1}]}"#
        )
        .is_err());
    }

    #[test]
    fn within_tolerance_passes_beyond_fails() {
        let base = record(&[("a", 100.0), ("b", 100.0), ("c", 100.0)]);
        let cur = record(&[("a", 120.0), ("b", 200.0), ("c", 40.0)]);
        let report = diff_bench(&base, &cur, 0.5);
        assert_eq!(report.failures, 1, "{}", report.render());
        assert!(!report.is_match());
        assert_eq!(report.rows[0].status, DeltaStatus::Ok);
        assert_eq!(report.rows[1].status, DeltaStatus::Regression);
        assert_eq!(report.rows[2].status, DeltaStatus::Improved);
        assert!(report.render().contains("REGRESSION"));
        let notes = report.annotations();
        assert_eq!(notes.len(), 1);
        assert!(notes[0].starts_with("::error::kernel 'b' regressed"));
        // looser gate lets the same drift through
        assert!(diff_bench(&base, &cur, 1.5).is_match());
    }

    #[test]
    fn missing_kernels_fail_new_kernels_pass() {
        let base = record(&[("a", 100.0), ("gone", 50.0)]);
        let cur = record(&[("a", 100.0), ("fresh", 10.0)]);
        let report = diff_bench(&base, &cur, 0.5);
        assert_eq!(report.failures, 1);
        let gone = report.rows.iter().find(|r| r.name == "gone").unwrap();
        assert_eq!(gone.status, DeltaStatus::Missing);
        let fresh = report.rows.iter().find(|r| r.name == "fresh").unwrap();
        assert_eq!(fresh.status, DeltaStatus::New);
        assert!(report
            .annotations()
            .iter()
            .any(|n| n.contains("missing from the current record")));
    }

    #[test]
    fn empty_baseline_fails_the_gate() {
        let report = diff_bench(&record(&[]), &record(&[("a", 100.0)]), 0.5);
        assert_eq!(report.failures, 1);
        assert!(!report.is_match());
        assert!(report.render().contains("baseline has no kernels"));
        assert_eq!(report.annotations().len(), 1);
        assert!(!diff_bench(&record(&[]), &record(&[]), 0.5).is_match());
    }

    #[test]
    fn identical_records_diff_clean() {
        let base = record(&[("a", 100.0), ("b", 2.5)]);
        let report = diff_bench(&base, &base.clone(), 0.0);
        assert!(report.is_match(), "{}", report.render());
        assert!(report.annotations().is_empty());
        assert!(report.render().contains("0 failure(s)"));
    }
}
