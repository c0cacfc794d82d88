//! Parsed `batch.json` files: batch resume and regression diffing.
//!
//! [`BatchFile`] reads the JSON a [`crate::BatchRunner`] writes back
//! into per-cell, per-repetition records. Two consumers:
//!
//! * **resume** — `BatchRunner::run_resuming` skips matrix cells
//!   whose records are already present in a prior file (floats parse
//!   exactly from their shortest round-trippable form, so resumed
//!   output stays byte-identical);
//! * **diff** — [`diff_batches`] compares two files cell-by-cell
//!   within a relative tolerance, for regression tracking across
//!   refactors and machines.

use crate::json::Json;
use crate::runner::ScenarioError;
use msn_metrics::RecoveryStat;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One repetition's record as stored in `batch.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct FileRun {
    /// Repetition number.
    pub rep: usize,
    /// Environment seed the run recorded (checked against the spec's
    /// matrix on resume).
    pub env_seed: u64,
    /// Final coverage fraction.
    pub coverage: f64,
    /// Average moving distance (m).
    pub avg_move: f64,
    /// Maximum moving distance (m).
    pub max_move: f64,
    /// Total moving distance (m).
    pub total_move: f64,
    /// Total message transmissions.
    pub messages: u64,
    /// Whether the run ended fully connected.
    pub connected: bool,
    /// Time to reach 95 % of final coverage, if it converged.
    pub convergence_time: Option<f64>,
    /// Annotation flags.
    pub flags: Vec<String>,
    /// Movement actions (`world.moves`).
    pub moves: u64,
    /// Commanded travel distance (`world.move_dist`, m).
    pub move_dist: f64,
    /// Per-event recovery statistics; empty for a run without
    /// `[dynamics]` events.
    pub recovery: Vec<RecoveryStat>,
}

/// Identity of one aggregate cell: radio ranges (as exact bit
/// patterns), sensor count, scheme and variant label.
pub type CellKey = (u64, u64, usize, String, String);

/// A parsed `batch.json`: header fields plus every cell's runs.
#[derive(Debug, Clone)]
pub struct BatchFile {
    /// Scenario name from the header.
    pub scenario: String,
    /// Base seed from the header.
    pub seed: u64,
    /// Fingerprint of the spec that produced the file; see
    /// `ScenarioSpec::resume_digest`.
    pub spec_digest: String,
    /// Total runs claimed by the header.
    pub total_runs: usize,
    /// Cells in file order, with their runs keyed by repetition.
    pub cells: Vec<(CellKey, BTreeMap<usize, FileRun>)>,
}

fn need<'a>(obj: &'a Json, key: &str, ctx: &str) -> Result<&'a Json, ScenarioError> {
    obj.get(key)
        .ok_or_else(|| ScenarioError(format!("batch.json: missing '{key}' in {ctx}")))
}

fn need_f64(obj: &Json, key: &str, ctx: &str) -> Result<f64, ScenarioError> {
    need(obj, key, ctx)?
        .as_f64()
        .ok_or_else(|| ScenarioError(format!("batch.json: '{key}' in {ctx} must be numeric")))
}

fn need_u64(obj: &Json, key: &str, ctx: &str) -> Result<u64, ScenarioError> {
    need(obj, key, ctx)?
        .as_u64()
        .ok_or_else(|| ScenarioError(format!("batch.json: '{key}' in {ctx} must be an integer")))
}

/// A numeric field that may be `null` (an unconverged or unrecovered
/// time).
fn need_opt_f64(obj: &Json, key: &str, ctx: &str) -> Result<Option<f64>, ScenarioError> {
    match need(obj, key, ctx)? {
        Json::Null => Ok(None),
        _ => need_f64(obj, key, ctx).map(Some),
    }
}

fn need_str(obj: &Json, key: &str, ctx: &str) -> Result<String, ScenarioError> {
    need(obj, key, ctx)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| ScenarioError(format!("batch.json: '{key}' in {ctx} must be a string")))
}

fn need_array<'a>(obj: &'a Json, key: &str, ctx: &str) -> Result<&'a [Json], ScenarioError> {
    need(obj, key, ctx)?
        .as_array()
        .ok_or_else(|| ScenarioError(format!("batch.json: '{key}' in {ctx} must be an array")))
}

impl BatchFile {
    /// Parses the JSON document a `BatchRunner` wrote.
    pub fn parse(text: &str) -> Result<BatchFile, ScenarioError> {
        let root = Json::parse(text).map_err(|e| ScenarioError(e.to_string()))?;
        let mut cells = Vec::new();
        for cell in need_array(&root, "cells", "header")? {
            let ctx = "cell";
            let key: CellKey = (
                need_f64(cell, "rc", ctx)?.to_bits(),
                need_f64(cell, "rs", ctx)?.to_bits(),
                need_u64(cell, "n", ctx)? as usize,
                need_str(cell, "scheme", ctx)?,
                need_str(cell, "variant", ctx)?,
            );
            let mut runs = BTreeMap::new();
            for run in need_array(cell, "runs", ctx)? {
                let ctx = "run";
                let rep = need_u64(run, "rep", ctx)? as usize;
                let record = FileRun {
                    rep,
                    env_seed: need_u64(run, "env_seed", ctx)?,
                    coverage: need_f64(run, "coverage", ctx)?,
                    avg_move: need_f64(run, "avg_move", ctx)?,
                    max_move: need_f64(run, "max_move", ctx)?,
                    total_move: need_f64(run, "total_move", ctx)?,
                    messages: need_u64(run, "messages", ctx)?,
                    connected: need(run, "connected", ctx)?.as_bool().ok_or_else(|| {
                        ScenarioError("batch.json: 'connected' must be a boolean".into())
                    })?,
                    convergence_time: need_opt_f64(run, "convergence_time", ctx)?,
                    flags: need_array(run, "flags", ctx)?
                        .iter()
                        .map(|f| {
                            f.as_str().map(str::to_string).ok_or_else(|| {
                                ScenarioError("batch.json: flags must be strings".into())
                            })
                        })
                        .collect::<Result<_, _>>()?,
                    moves: need_u64(run, "moves", ctx)?,
                    move_dist: need_f64(run, "move_dist", ctx)?,
                    recovery: need_array(run, "recovery", ctx)?
                        .iter()
                        .map(|s| {
                            let ctx = "recovery";
                            Ok(RecoveryStat {
                                event_time: need_f64(s, "time", ctx)?,
                                kind: need_str(s, "kind", ctx)?,
                                pre_coverage: need_f64(s, "pre_coverage", ctx)?,
                                post_coverage: need_f64(s, "post_coverage", ctx)?,
                                min_coverage: need_f64(s, "min_coverage", ctx)?,
                                recovery_time: need_opt_f64(s, "recovery_time", ctx)?,
                                post_move_dist: need_f64(s, "post_move_dist", ctx)?,
                            })
                        })
                        .collect::<Result<_, _>>()?,
                };
                if runs.insert(rep, record).is_some() {
                    return Err(ScenarioError(format!(
                        "batch.json: duplicate rep {rep} in a cell"
                    )));
                }
            }
            cells.push((key, runs));
        }
        Ok(BatchFile {
            scenario: need_str(&root, "scenario", "header")?,
            seed: need_u64(&root, "seed", "header")?,
            spec_digest: need_str(&root, "spec_digest", "header")?,
            total_runs: need_u64(&root, "total_runs", "header")? as usize,
            cells,
        })
    }

    /// Looks up one repetition's record by cell coordinates.
    pub fn lookup(
        &self,
        rc: f64,
        rs: f64,
        n: usize,
        scheme: &str,
        variant: &str,
        rep: usize,
    ) -> Option<&FileRun> {
        let key = (rc.to_bits(), rs.to_bits(), n, scheme, variant);
        self.cells
            .iter()
            .find(|(k, _)| (k.0, k.1, k.2, k.3.as_str(), k.4.as_str()) == key)
            .and_then(|(_, runs)| runs.get(&rep))
    }

    /// Total number of run records in the file.
    pub fn run_count(&self) -> usize {
        self.cells.iter().map(|(_, runs)| runs.len()).sum()
    }
}

/// One matrix cell's comparison outcome — the unit the `--junit`
/// output renders as a testcase.
#[derive(Debug, Clone)]
pub struct CellDiff {
    /// Human-readable cell identity (`rc=.. rs=.. n=.. SCHEME`).
    pub label: String,
    /// Repetitions compared in this cell.
    pub compared: usize,
    /// Failure messages; empty means the cell matches.
    pub failures: Vec<String>,
}

/// Aggregate relative deltas of one metric over every compared
/// repetition.
#[derive(Debug, Clone)]
pub struct MetricSummary {
    /// Metric name (`rec.*` for the per-event recovery fields).
    pub metric: &'static str,
    /// Values compared: one per repetition, or one per event for the
    /// `rec.*` metrics.
    pub compared: usize,
    /// Largest relative delta seen.
    pub max_rel: f64,
    /// Mean relative delta.
    pub mean_rel: f64,
    /// Where the largest delta occurred (cell label + rep).
    pub worst: Option<String>,
}

/// The outcome of comparing two batch files.
#[derive(Debug, Clone)]
pub struct DiffReport {
    /// Human-readable difference lines, in file order.
    pub lines: Vec<String>,
    /// Number of compared (cell, rep) records present in both files.
    pub compared: usize,
    /// Number of out-of-tolerance or structural differences.
    pub mismatches: usize,
    /// Per-cell outcomes over the union of both files' cells.
    pub cells: Vec<CellDiff>,
    /// Per-metric delta summaries over every compared repetition.
    pub metrics: Vec<MetricSummary>,
}

impl DiffReport {
    /// Whether the files agree within tolerance.
    pub fn is_match(&self) -> bool {
        self.mismatches == 0
    }

    /// Formats the report: difference lines, the per-metric summary
    /// table, and a closing summary line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for line in &self.lines {
            let _ = writeln!(out, "{line}");
        }
        if self.compared > 0 {
            let _ = writeln!(
                out,
                "per-metric deltas over {} compared record(s):",
                self.compared
            );
            let _ = writeln!(
                out,
                "  {:<18} {:>8} {:>12} {:>12}  worst at",
                "metric", "records", "mean rel", "max rel"
            );
            for m in &self.metrics {
                let _ = writeln!(
                    out,
                    "  {:<18} {:>8} {:>12.3e} {:>12.3e}  {}",
                    m.metric,
                    m.compared,
                    m.mean_rel,
                    m.max_rel,
                    m.worst.as_deref().unwrap_or("-"),
                );
            }
        }
        let _ = writeln!(
            out,
            "{} record(s) compared, {} difference(s)",
            self.compared, self.mismatches
        );
        out
    }
}

/// Running aggregation behind one [`MetricSummary`] row.
struct MetricAcc {
    metric: &'static str,
    compared: usize,
    sum_rel: f64,
    max_rel: f64,
    worst: Option<String>,
}

impl MetricAcc {
    fn new(metric: &'static str) -> Self {
        MetricAcc {
            metric,
            compared: 0,
            sum_rel: 0.0,
            max_rel: 0.0,
            worst: None,
        }
    }

    /// Records one value pair at `at`, noting it in `diffs` (after
    /// `prefix`) when it is outside the relative tolerance `tol`. A
    /// value may be absent (an unconverged or unrecovered time);
    /// presence must then match exactly.
    fn check(
        &mut self,
        a: Option<f64>,
        b: Option<f64>,
        tol: f64,
        at: &str,
        prefix: &str,
        diffs: &mut Vec<String>,
    ) {
        let (a, b) = match (a, b) {
            (Some(a), Some(b)) => (a, b),
            (None, None) => return,
            (a, b) => return diffs.push(format!("{prefix}{} {a:?} vs {b:?}", self.metric)),
        };
        let rel = if a == b {
            0.0
        } else {
            (a - b).abs() / a.abs().max(b.abs())
        };
        self.compared += 1;
        self.sum_rel += rel;
        if rel > self.max_rel {
            self.max_rel = rel;
            self.worst = Some(at.to_string());
        }
        if !within(a, b, tol) {
            diffs.push(format!("{prefix}{} {a} vs {b}", self.metric));
        }
    }

    fn summary(self) -> MetricSummary {
        MetricSummary {
            metric: self.metric,
            compared: self.compared,
            max_rel: self.max_rel,
            mean_rel: if self.compared == 0 {
                0.0
            } else {
                self.sum_rel / self.compared as f64
            },
            worst: self.worst.filter(|_| self.max_rel > 0.0),
        }
    }
}

/// Relative closeness: `|a - b| <= tol · max(|a|, |b|)`. `tol = 0`
/// demands exact equality.
fn within(a: f64, b: f64, tol: f64) -> bool {
    a == b || (a - b).abs() <= tol * a.abs().max(b.abs())
}

fn key_label(key: &CellKey) -> String {
    let (rc_bits, rs_bits, n, scheme, variant) = key;
    let variant = if variant.is_empty() {
        String::new()
    } else {
        format!(" variant '{variant}'")
    };
    format!(
        "rc={} rs={} n={n} {scheme}{variant}",
        f64::from_bits(*rc_bits),
        f64::from_bits(*rs_bits),
    )
}

/// Compares two parsed batch files cell-by-cell and rep-by-rep within
/// a relative tolerance `tol` on every numeric field a run carries
/// (messages, move counts and each recovery event's numbers
/// included); `connected`, flags, the environment seeds, the number
/// of recovery events, their kinds and whether each recovered compare
/// exactly. Cells or repetitions present on one side only are
/// differences.
pub fn diff_batches(a: &BatchFile, b: &BatchFile, tol: f64) -> DiffReport {
    let mut lines = Vec::new();
    let mut cells: Vec<CellDiff> = Vec::new();
    let mut compared = 0;
    let mut mismatches = 0;
    let mut accs = [
        MetricAcc::new("coverage"),
        MetricAcc::new("avg_move"),
        MetricAcc::new("max_move"),
        MetricAcc::new("total_move"),
        MetricAcc::new("messages"),
        MetricAcc::new("moves"),
        MetricAcc::new("move_dist"),
        MetricAcc::new("convergence_time"),
    ];
    let mut event_accs = [
        MetricAcc::new("rec.time"),
        MetricAcc::new("rec.pre_coverage"),
        MetricAcc::new("rec.post_coverage"),
        MetricAcc::new("rec.min_coverage"),
        MetricAcc::new("rec.post_move_dist"),
        MetricAcc::new("rec.recovery_time"),
    ];
    let run_values = |r: &FileRun| {
        [
            Some(r.coverage),
            Some(r.avg_move),
            Some(r.max_move),
            Some(r.total_move),
            Some(r.messages as f64),
            Some(r.moves as f64),
            Some(r.move_dist),
            r.convergence_time,
        ]
    };
    let event_values = |e: &RecoveryStat| {
        [
            Some(e.event_time),
            Some(e.pre_coverage),
            Some(e.post_coverage),
            Some(e.min_coverage),
            Some(e.post_move_dist),
            e.recovery_time,
        ]
    };
    if a.scenario != b.scenario {
        lines.push(format!(
            "note: comparing different scenarios '{}' vs '{}'",
            a.scenario, b.scenario
        ));
    }
    for (key, runs_a) in &a.cells {
        let label = key_label(key);
        let Some((_, runs_b)) = a_find(b, key) else {
            mismatches += 1;
            let msg = format!("cell missing from right file: {label}");
            lines.push(msg.clone());
            cells.push(CellDiff {
                label,
                compared: 0,
                failures: vec![msg],
            });
            continue;
        };
        let mut cell = CellDiff {
            label: label.clone(),
            compared: 0,
            failures: Vec::new(),
        };
        for (rep, ra) in runs_a {
            let Some(rb) = runs_b.get(rep) else {
                mismatches += 1;
                let msg = format!("rep {rep} missing from right file: {label}");
                lines.push(msg.clone());
                cell.failures.push(msg);
                continue;
            };
            compared += 1;
            cell.compared += 1;
            let mut diffs: Vec<String> = Vec::new();
            if ra.env_seed != rb.env_seed {
                diffs.push(format!("env_seed {} vs {}", ra.env_seed, rb.env_seed));
            }
            let at = format!("{label} rep {rep}");
            for (acc, (va, vb)) in accs
                .iter_mut()
                .zip(run_values(ra).into_iter().zip(run_values(rb)))
            {
                acc.check(va, vb, tol, &at, "", &mut diffs);
            }
            if ra.recovery.len() != rb.recovery.len() {
                diffs.push(format!(
                    "recovery events {} vs {}",
                    ra.recovery.len(),
                    rb.recovery.len()
                ));
            } else {
                for (i, (ea, eb)) in ra.recovery.iter().zip(&rb.recovery).enumerate() {
                    let prefix = format!("event {i} ");
                    if ea.kind != eb.kind {
                        diffs.push(format!("{prefix}kind {} vs {}", ea.kind, eb.kind));
                    }
                    let values = event_values(ea).into_iter().zip(event_values(eb));
                    for (acc, (va, vb)) in event_accs.iter_mut().zip(values) {
                        acc.check(va, vb, tol, &at, &prefix, &mut diffs);
                    }
                }
            }
            if ra.connected != rb.connected {
                diffs.push(format!("connected {} vs {}", ra.connected, rb.connected));
            }
            if ra.flags != rb.flags {
                diffs.push(format!("flags {:?} vs {:?}", ra.flags, rb.flags));
            }
            if !diffs.is_empty() {
                mismatches += 1;
                let msg = format!("{label} rep {rep}: {}", diffs.join(", "));
                lines.push(msg.clone());
                cell.failures.push(msg);
            }
        }
        // reps only on the right side
        for rep in runs_b.keys() {
            if !runs_a.contains_key(rep) {
                mismatches += 1;
                let msg = format!("rep {rep} missing from left file: {label}");
                lines.push(msg.clone());
                cell.failures.push(msg);
            }
        }
        cells.push(cell);
    }
    for (key, _) in &b.cells {
        if a_find(a, key).is_none() {
            mismatches += 1;
            let msg = format!("cell missing from left file: {}", key_label(key));
            lines.push(msg.clone());
            cells.push(CellDiff {
                label: key_label(key),
                compared: 0,
                failures: vec![msg],
            });
        }
    }
    DiffReport {
        lines,
        compared,
        mismatches,
        cells,
        metrics: accs
            .into_iter()
            .chain(event_accs)
            .map(MetricAcc::summary)
            .collect(),
    }
}

fn a_find<'a>(
    file: &'a BatchFile,
    key: &CellKey,
) -> Option<&'a (CellKey, BTreeMap<usize, FileRun>)> {
    file.cells.iter().find(|(k, _)| k == key)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::RunConfig;
    use crate::spec::ScenarioSpec;
    use msn_deploy::SchemeKind;

    fn tiny_result_json() -> String {
        let spec = ScenarioSpec::new("difftest")
            .with_schemes(vec![SchemeKind::Opt])
            .with_sensor_counts(vec![10])
            .with_duration(10.0)
            .with_coverage_cell(30.0)
            .with_repetitions(2);
        RunConfig::new()
            .threads(1)
            .runner()
            .run(&spec)
            .unwrap()
            .to_json()
    }

    #[test]
    fn parse_reads_back_what_the_runner_wrote() {
        let json = tiny_result_json();
        let file = BatchFile::parse(&json).unwrap();
        assert_eq!(file.scenario, "difftest");
        assert_eq!(file.seed, 42);
        assert_eq!(file.total_runs, 2);
        assert_eq!(file.cells.len(), 1);
        assert_eq!(file.run_count(), 2);
        let run = file.lookup(60.0, 40.0, 10, "OPT", "", 0).expect("rep 0");
        assert!(run.coverage > 0.0);
        assert!(file.lookup(60.0, 40.0, 10, "OPT", "", 7).is_none());
        assert!(file.lookup(60.0, 40.0, 10, "FLOOR", "", 0).is_none());
    }

    #[test]
    fn identical_files_diff_clean() {
        let json = tiny_result_json();
        let a = BatchFile::parse(&json).unwrap();
        let b = BatchFile::parse(&json).unwrap();
        let report = diff_batches(&a, &b, 0.0);
        assert!(report.is_match(), "{}", report.render());
        assert_eq!(report.compared, 2);
    }

    #[test]
    fn tolerance_separates_noise_from_regression() {
        let json = tiny_result_json();
        let a = BatchFile::parse(&json).unwrap();
        let mut b = BatchFile::parse(&json).unwrap();
        let run = b.cells[0].1.get_mut(&0).unwrap();
        run.coverage *= 1.005; // 0.5 % drift
        let strict = diff_batches(&a, &b, 0.0);
        assert!(!strict.is_match());
        assert_eq!(strict.mismatches, 1);
        assert!(strict.render().contains("coverage"), "{}", strict.render());
        let lenient = diff_batches(&a, &b, 0.01);
        assert!(lenient.is_match(), "{}", lenient.render());
    }

    #[test]
    fn per_metric_summary_reports_max_and_mean() {
        let json = tiny_result_json();
        let a = BatchFile::parse(&json).unwrap();
        let mut b = BatchFile::parse(&json).unwrap();
        b.cells[0].1.get_mut(&0).unwrap().coverage *= 1.10; // +10 %
        b.cells[0].1.get_mut(&1).unwrap().coverage *= 1.02; // +2 %
        let report = diff_batches(&a, &b, 0.5);
        assert!(report.is_match(), "both drifts inside tolerance");
        let cov = report
            .metrics
            .iter()
            .find(|m| m.metric == "coverage")
            .expect("coverage summary");
        assert_eq!(cov.compared, 2);
        assert!((cov.max_rel - 0.10 / 1.10).abs() < 1e-9, "{}", cov.max_rel);
        assert!(cov.mean_rel > 0.0 && cov.mean_rel < cov.max_rel);
        assert!(cov.worst.as_deref().unwrap().contains("rep 0"));
        let mv = report
            .metrics
            .iter()
            .find(|m| m.metric == "avg_move")
            .expect("avg_move summary");
        assert_eq!(mv.max_rel, 0.0);
        assert!(mv.worst.is_none(), "no worst cell when nothing drifted");
        assert!(report.render().contains("per-metric deltas"));
    }

    #[test]
    fn cell_outcomes_cover_the_union_of_cells() {
        let json = tiny_result_json();
        let a = BatchFile::parse(&json).unwrap();
        let mut b = BatchFile::parse(&json).unwrap();
        // rename the cell on the right: one missing each way
        b.cells[0].0 .3 = "FLOOR".to_string();
        let report = diff_batches(&a, &b, 0.0);
        assert_eq!(report.cells.len(), 2);
        assert!(report.cells.iter().all(|c| !c.failures.is_empty()));
        let matched = diff_batches(&a, &a, 0.0);
        assert_eq!(matched.cells.len(), 1);
        assert!(matched.cells[0].failures.is_empty());
        assert_eq!(matched.cells[0].compared, 2);
    }

    #[test]
    fn structural_differences_are_reported() {
        let json = tiny_result_json();
        let a = BatchFile::parse(&json).unwrap();
        let mut b = BatchFile::parse(&json).unwrap();
        b.cells[0].1.remove(&1);
        let report = diff_batches(&a, &b, 0.5);
        assert!(!report.is_match());
        assert!(
            report.render().contains("rep 1 missing from right file"),
            "{}",
            report.render()
        );
        // and the reverse direction
        let report = diff_batches(&b, &a, 0.5);
        assert!(report.render().contains("rep 1 missing from left file"));
    }

    #[test]
    fn movement_and_recovery_fields_are_compared() {
        let mut a = BatchFile::parse(&tiny_result_json()).unwrap();
        a.cells[0].1.get_mut(&0).unwrap().recovery = vec![RecoveryStat {
            event_time: 5.0,
            kind: "fail".into(),
            pre_coverage: 0.5,
            post_coverage: 0.4,
            min_coverage: 0.3,
            recovery_time: Some(2.0),
            post_move_dist: 10.0,
        }];
        let edits: [fn(&mut FileRun); 11] = [
            |r| r.moves = r.moves * 2 + 1,
            |r| r.move_dist = r.move_dist * 2.0 + 1.0,
            |r| r.recovery.clear(),
            |r| r.recovery[0].kind = "other".into(),
            |r| r.recovery[0].event_time = 6.0,
            |r| r.recovery[0].pre_coverage = 0.6,
            |r| r.recovery[0].post_coverage = 0.2,
            |r| r.recovery[0].min_coverage = 0.1,
            |r| r.recovery[0].post_move_dist = 20.0,
            |r| r.recovery[0].recovery_time = Some(3.0),
            |r| r.recovery[0].recovery_time = None,
        ];
        let expected = [
            "moves",
            "move_dist",
            "recovery events 1 vs 0",
            "event 0 kind fail vs other",
            "event 0 rec.time",
            "event 0 rec.pre_coverage",
            "event 0 rec.post_coverage",
            "event 0 rec.min_coverage",
            "event 0 rec.post_move_dist",
            "event 0 rec.recovery_time",
            "event 0 rec.recovery_time Some(2.0) vs None",
        ];
        let mut drifted_rows = 0;
        for (edit, expected) in edits.into_iter().zip(expected) {
            let mut b = a.clone();
            edit(b.cells[0].1.get_mut(&0).unwrap());
            let report = diff_batches(&a, &b, 0.01);
            let text = report.render();
            assert_eq!(report.mismatches, 1, "{expected}: {text}");
            assert!(text.contains(&format!("rep 0: {expected}")), "{text}");
            // a numeric drift also shows in its per-metric summary row
            if let Some(row) = report
                .metrics
                .iter()
                .find(|m| expected.rsplit(' ').next() == Some(m.metric))
            {
                assert!(row.max_rel > 0.01, "{expected}: {text}");
                drifted_rows += 1;
            }
        }
        assert_eq!(drifted_rows, 8);
        assert!(diff_batches(&a, &a.clone(), 0.0).is_match());
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        assert!(BatchFile::parse("not json").is_err());
        assert!(BatchFile::parse("{}").is_err());
        assert!(BatchFile::parse("{\"scenario\": \"x\", \"seed\": 1}").is_err());
    }
}
