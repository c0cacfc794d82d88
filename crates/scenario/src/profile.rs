//! Per-cell aggregated profile records (`scenario run --profile`).
//!
//! When profiling is enabled the runner installs an [`msn_obs`]
//! collector around every run it executes (each run lives wholly on
//! one worker thread, so thread-local collection is exact) and the
//! per-run [`msn_obs::Report`]s aggregate here into one
//! [`ProfileCell`] per (radio, n, scheme, variant) matrix cell —
//! span trees with totals/counts/max, counter sums and value stats.
//!
//! The record serializes as deterministic-schema JSON (timings vary
//! run to run, the member layout never does), parses back for
//! `scenario profile-report` (a sorted self-time table) and
//! `scenario profile-diff` (per-span deltas through the same
//! Ok/Improved/Regression machinery as `bench-diff`).
//!
//! Profiling is strictly zero-perturbation: `batch.json` from a
//! profiled run is byte-identical to an unprofiled one — the profile
//! is a side artifact, never an input.

use crate::bench::{BenchKernel, BenchRecord};
use crate::json::Json;
use crate::runner::{BatchResult, ScenarioError};
use msn_obs::{Counter, Report, SpanNode, ValueStat};
use std::fmt::Write as _;

/// Aggregated profile of one (radio, n, scheme, variant) matrix cell.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileCell {
    /// Communication radius.
    pub rc: f64,
    /// Sensing radius.
    pub rs: f64,
    /// Sensor count.
    pub n: usize,
    /// Scheme name.
    pub scheme: String,
    /// Variant label (empty without variants).
    pub variant: String,
    /// Profiled runs merged into this cell (cells restored by resume
    /// carry no profile and are not counted).
    pub runs: usize,
    /// Merged observation report of those runs.
    pub report: Report,
}

/// A parsed (or freshly aggregated) profile record — the
/// `--profile out.json` document.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileRecord {
    /// Scenario name the profile was taken from.
    pub scenario: String,
    /// Per-cell profiles, in matrix order.
    pub cells: Vec<ProfileCell>,
}

impl ProfileRecord {
    /// Aggregates a profiled batch into per-cell profiles, grouping
    /// in matrix order (deterministic at any thread count). Returns
    /// an error when the batch was executed without profiling.
    pub fn from_batch(result: &BatchResult) -> Result<ProfileRecord, ScenarioError> {
        if result.profiles.len() != result.records.len() {
            return Err(ScenarioError(
                "batch carries no profiles: run it with profiling enabled \
                 (RunConfig::profiling)"
                    .into(),
            ));
        }
        let mut cells: Vec<ProfileCell> = Vec::new();
        for (record, profile) in result.records.iter().zip(&result.profiles) {
            let Some(profile) = profile else { continue };
            let cell = &record.cell;
            let key = (
                cell.radio.rc,
                cell.radio.rs,
                cell.n,
                cell.scheme.name(),
                result.spec.variant_label(cell.variant),
            );
            let slot = match cells
                .iter_mut()
                .find(|c| (c.rc, c.rs, c.n, c.scheme.as_str(), c.variant.as_str()) == key)
            {
                Some(slot) => slot,
                None => {
                    cells.push(ProfileCell {
                        rc: key.0,
                        rs: key.1,
                        n: key.2,
                        scheme: key.3.to_string(),
                        variant: key.4.to_string(),
                        runs: 0,
                        report: Report::default(),
                    });
                    cells.last_mut().expect("just pushed")
                }
            };
            slot.runs += 1;
            slot.report.merge(profile);
        }
        Ok(ProfileRecord {
            scenario: result.spec.name.clone(),
            cells,
        })
    }

    /// Serializes the record as the `--profile` JSON document.
    pub fn to_json_string(&self) -> String {
        let cells: Vec<Json> = self
            .cells
            .iter()
            .map(|c| {
                Json::obj()
                    .field("rc", c.rc)
                    .field("rs", c.rs)
                    .field("n", c.n)
                    .field("scheme", c.scheme.as_str())
                    .field("variant", c.variant.as_str())
                    .field("runs", c.runs)
                    .field("wall_ns", c.report.wall_ns)
                    .field(
                        "spans",
                        Json::Arr(c.report.spans.iter().map(span_json).collect()),
                    )
                    .field(
                        "counters",
                        Json::Arr(
                            c.report
                                .counters
                                .iter()
                                .map(|ctr| {
                                    Json::obj()
                                        .field("name", ctr.name.as_str())
                                        .field("total", ctr.total)
                                })
                                .collect(),
                        ),
                    )
                    .field(
                        "values",
                        Json::Arr(
                            c.report
                                .values
                                .iter()
                                .map(|v| {
                                    Json::obj()
                                        .field("name", v.name.as_str())
                                        .field("count", v.count)
                                        .field("sum", finite(v.sum))
                                        .field("min", finite(v.min))
                                        .field("max", finite(v.max))
                                })
                                .collect(),
                        ),
                    )
            })
            .collect();
        Json::obj()
            .field("record", "profile")
            .field("schema", 1u64)
            .field("scenario", self.scenario.as_str())
            .field("cells", Json::Arr(cells))
            .pretty()
    }

    /// Parses a `--profile` JSON document back. Every member the
    /// writer emits is required (only a span's empty `children` may
    /// be left out), so a truncated or hand-edited record fails with
    /// the missing key instead of reading as an empty profile.
    pub fn parse(text: &str) -> Result<ProfileRecord, ScenarioError> {
        let root = Json::parse(text).map_err(|e| ScenarioError(e.to_string()))?;
        if root.get("record").and_then(Json::as_str) != Some("profile") {
            return Err(ScenarioError(
                "not a profile record (missing record: \"profile\")".into(),
            ));
        }
        let scenario = need(&root, "record", "scenario", Json::as_str)?.to_string();
        let mut cells = Vec::new();
        for item in need(&root, "record", "cells", Json::as_array)? {
            let report = Report {
                wall_ns: need(item, "cell", "wall_ns", Json::as_u64)?,
                spans: parse_spans(need(item, "cell", "spans", Json::as_array)?)?,
                counters: need(item, "cell", "counters", Json::as_array)?
                    .iter()
                    .map(|c| {
                        Ok(Counter {
                            name: need(c, "counter", "name", Json::as_str)?.to_string(),
                            total: need(c, "counter", "total", Json::as_u64)?,
                        })
                    })
                    .collect::<Result<_, ScenarioError>>()?,
                values: need(item, "cell", "values", Json::as_array)?
                    .iter()
                    .map(|v| {
                        Ok(ValueStat {
                            name: need(v, "value", "name", Json::as_str)?.to_string(),
                            count: need(v, "value", "count", Json::as_u64)?,
                            sum: need(v, "value", "sum", stat)?,
                            min: need(v, "value", "min", stat)?,
                            max: need(v, "value", "max", stat)?,
                        })
                    })
                    .collect::<Result<_, ScenarioError>>()?,
            };
            cells.push(ProfileCell {
                rc: need(item, "cell", "rc", Json::as_f64)?,
                rs: need(item, "cell", "rs", Json::as_f64)?,
                n: need(item, "cell", "n", Json::as_usize)?,
                scheme: need(item, "cell", "scheme", Json::as_str)?.to_string(),
                variant: need(item, "cell", "variant", Json::as_str)?.to_string(),
                runs: need(item, "cell", "runs", Json::as_usize)?,
                report,
            });
        }
        Ok(ProfileRecord { scenario, cells })
    }

    /// All cells merged into one report (the whole-batch view the
    /// self-time table renders).
    pub fn merged(&self) -> Report {
        let mut merged = Report::default();
        for cell in &self.cells {
            merged.merge(&cell.report);
        }
        merged
    }

    /// Fraction of profiled wall time accounted for by phase spans
    /// (children of the top-level scheme spans): the observability
    /// coverage of the instrumentation itself.
    pub fn phase_coverage(&self) -> f64 {
        let merged = self.merged();
        if merged.wall_ns == 0 {
            return 0.0;
        }
        let phases: u64 = merged
            .spans
            .iter()
            .flat_map(|root| root.children.iter().map(|c| c.total_ns))
            .sum();
        phases as f64 / merged.wall_ns as f64
    }

    /// The merged span tree flattened into a perf record (one kernel
    /// per span path, mean self-nanoseconds per entry), so
    /// `profile-diff` can reuse the bench delta machinery.
    pub fn to_bench_record(&self, label: &str) -> BenchRecord {
        let merged = self.merged();
        let mut kernels = Vec::new();
        flatten(&merged.spans, "", &mut |path, node| {
            if node.count > 0 {
                kernels.push(BenchKernel {
                    name: path.to_string(),
                    ns_per_iter: node.self_ns() as f64 / node.count as f64,
                    iters: node.count,
                });
            }
        });
        BenchRecord {
            record: label.to_string(),
            suite: "profile".to_string(),
            kernels,
        }
    }

    /// Renders the sorted self-time table (`scenario profile-report`).
    pub fn render_report(&self) -> String {
        let merged = self.merged();
        let total_runs: usize = self.cells.iter().map(|c| c.runs).sum();
        let mut out = format!(
            "profile: {} — {} profiled run(s), {} cell(s), wall {:.3} s\n",
            self.scenario,
            total_runs,
            self.cells.len(),
            merged.wall_ns as f64 / 1e9,
        );
        let _ = writeln!(
            out,
            "phase self-time coverage: {:.1}% of wall",
            self.phase_coverage() * 100.0
        );
        let mut rows: Vec<(String, &SpanNode)> = Vec::new();
        flatten(&merged.spans, "", &mut |path, node| {
            rows.push((path.to_string(), node));
        });
        rows.sort_by_key(|(_, node)| std::cmp::Reverse(node.self_ns()));
        let wall = merged.wall_ns.max(1) as f64;
        let _ = writeln!(
            out,
            "{:>12} {:>7} {:>12} {:>10} {:>10}  span",
            "self ms", "% wall", "total ms", "count", "max µs"
        );
        for (path, node) in rows {
            let _ = writeln!(
                out,
                "{:>12.3} {:>7.1} {:>12.3} {:>10} {:>10.1}  {}",
                node.self_ns() as f64 / 1e6,
                node.self_ns() as f64 / wall * 100.0,
                node.total_ns as f64 / 1e6,
                node.count,
                node.max_ns as f64 / 1e3,
                path,
            );
        }
        if !merged.counters.is_empty() {
            out.push_str("\ncounters:\n");
            for ctr in &merged.counters {
                let _ = writeln!(out, "{:>16}  {}", ctr.total, ctr.name);
            }
        }
        if !merged.values.is_empty() {
            out.push_str("\nvalues (count / mean / min / max):\n");
            for v in &merged.values {
                let _ = writeln!(
                    out,
                    "{:>12} {:>12.2} {:>12.2} {:>12.2}  {}",
                    v.count,
                    v.mean(),
                    v.min,
                    v.max,
                    v.name,
                );
            }
        }
        out
    }
}

/// Serialization maps non-finite stats (e.g. min/max of an empty
/// stream) to null; parsing maps them back to 0 (see [`stat`]).
fn finite(v: f64) -> Json {
    if v.is_finite() {
        Json::Num(v)
    } else {
        Json::Null
    }
}

/// A value-stat number as [`finite`] wrote it: null reads as 0.
fn stat(v: &Json) -> Option<f64> {
    match v {
        Json::Null => Some(0.0),
        v => v.as_f64(),
    }
}

/// `obj[key]` read through `get`; an absent or mistyped member is an
/// error naming the key and the `ctx` object it belongs to.
fn need<'a, T>(
    obj: &'a Json,
    ctx: &str,
    key: &str,
    get: impl FnOnce(&'a Json) -> Option<T>,
) -> Result<T, ScenarioError> {
    obj.get(key)
        .and_then(get)
        .ok_or_else(|| ScenarioError(format!("profile {ctx}: missing or mistyped '{key}'")))
}

fn span_json(node: &SpanNode) -> Json {
    let mut obj = Json::obj()
        .field("name", node.name.as_str())
        .field("total_ns", node.total_ns)
        .field("count", node.count)
        .field("max_ns", node.max_ns);
    if !node.children.is_empty() {
        obj = obj.field(
            "children",
            Json::Arr(node.children.iter().map(span_json).collect()),
        );
    }
    obj
}

fn parse_spans(items: &[Json]) -> Result<Vec<SpanNode>, ScenarioError> {
    items
        .iter()
        .map(|item| {
            Ok(SpanNode {
                name: need(item, "span", "name", Json::as_str)?.to_string(),
                total_ns: need(item, "span", "total_ns", Json::as_u64)?,
                count: need(item, "span", "count", Json::as_u64)?,
                max_ns: need(item, "span", "max_ns", Json::as_u64)?,
                // the writer leaves out an empty child list
                children: match item.get("children") {
                    None => Vec::new(),
                    Some(_) => parse_spans(need(item, "span", "children", Json::as_array)?)?,
                },
            })
        })
        .collect()
}

/// Depth-first walk with `/`-joined span paths.
fn flatten<'a>(spans: &'a [SpanNode], prefix: &str, f: &mut impl FnMut(&str, &'a SpanNode)) {
    for node in spans {
        let path = if prefix.is_empty() {
            node.name.clone()
        } else {
            format!("{prefix}/{}", node.name)
        };
        f(&path, node);
        flatten(&node.children, &path, f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ProfileRecord {
        ProfileRecord {
            scenario: "sample".into(),
            cells: vec![ProfileCell {
                rc: 60.0,
                rs: 40.0,
                n: 20,
                scheme: "FLOOR".into(),
                variant: "defaults".into(),
                runs: 2,
                report: Report {
                    wall_ns: 1_000_000,
                    spans: vec![SpanNode {
                        name: "floor.run".into(),
                        total_ns: 990_000,
                        count: 2,
                        max_ns: 500_000,
                        children: vec![
                            SpanNode {
                                name: "floor.plan".into(),
                                total_ns: 600_000,
                                count: 200,
                                max_ns: 9_000,
                                children: Vec::new(),
                            },
                            SpanNode {
                                name: "floor.motion".into(),
                                total_ns: 350_000,
                                count: 200,
                                max_ns: 4_000,
                                children: Vec::new(),
                            },
                        ],
                    }],
                    counters: vec![Counter {
                        name: "cov.restamps".into(),
                        total: 420,
                    }],
                    values: vec![ValueStat {
                        name: "cov.dirty".into(),
                        count: 10,
                        sum: 55.0,
                        min: 1.0,
                        max: 10.0,
                    }],
                },
            }],
        }
    }

    #[test]
    fn json_round_trips() {
        let record = sample();
        let text = record.to_json_string();
        let parsed = ProfileRecord::parse(&text).unwrap();
        assert_eq!(parsed, record);
        assert_eq!(parsed.to_json_string(), text);
    }

    #[test]
    fn parse_rejects_non_profiles() {
        assert!(ProfileRecord::parse("{\"record\": \"bench\"}").is_err());
        assert!(ProfileRecord::parse("not json").is_err());
    }

    #[test]
    fn parse_requires_every_written_member() {
        // dropping any one member the writer emits is an error naming
        // that member, never a silently zeroed or empty profile
        let text = sample().to_json_string();
        for key in [
            "scenario", "cells", "rc", "rs", "n", "scheme", "variant", "runs", "wall_ns", "spans",
            "total_ns", "count", "max_ns", "counters", "total", "values", "sum", "min", "max",
        ] {
            let quoted = format!("\"{key}\":");
            let start = text.find(&quoted).expect("member present");
            let renamed = format!(
                "{}\"gone\":{}",
                &text[..start],
                &text[start + quoted.len()..]
            );
            let err = ProfileRecord::parse(&renamed).expect_err(key).0;
            assert!(err.contains(&format!("'{key}'")), "{key}: {err}");
        }
    }

    #[test]
    fn report_sorts_by_self_time() {
        let text = sample().render_report();
        let plan = text.find("floor.run/floor.plan").unwrap();
        let motion = text.find("floor.run/floor.motion").unwrap();
        let root = text.find(" floor.run\n").unwrap();
        assert!(plan < motion && motion < root, "{text}");
        assert!(text.contains("phase self-time coverage: 95.0% of wall"));
        assert!(text.contains("cov.restamps"));
        assert!(text.contains("cov.dirty"));
    }

    #[test]
    fn phase_coverage_is_children_over_wall() {
        assert!((sample().phase_coverage() - 0.95).abs() < 1e-9);
    }

    #[test]
    fn bench_record_uses_self_ns_per_entry() {
        let bench = sample().to_bench_record("a");
        let plan = bench.kernel("floor.run/floor.plan").unwrap();
        assert_eq!(plan.iters, 200);
        assert!((plan.ns_per_iter - 3_000.0).abs() < 1e-9);
        let root = bench.kernel("floor.run").unwrap();
        // self = 990k - 950k = 40k over 2 entries
        assert!((root.ns_per_iter - 20_000.0).abs() < 1e-9);
    }
}
