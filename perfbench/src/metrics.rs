//! Metric definitions and the result line.
//!
//! [`END_TO_END`] and [`PER_LAYER`] are the single source of the
//! metric names, units and directions; `BENCHMARK.json` and
//! `perfbench/predictions.json` are generated from them (see
//! `manifest`). Each per-layer metric names the end-to-end metric it
//! should move and on which workload, so a later change can cite
//! "predict no change on X" by name.

use msn_scenario::Json;

/// One metric definition.
pub struct MetricDef {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// End-to-end metrics: the share of the parent's median by which
    /// the metric may worsen before a change counts as a regression.
    /// Per-layer metrics carry none.
    pub bound: Option<f64>,
    /// What the metric means; for per-layer metrics also the
    /// end-to-end metric it should move, on which workload.
    pub note: &'static str,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64, note: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: "lower",
        bound: Some(bound),
        note,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    note: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        note,
    }
}

/// End-to-end metrics, measured with tracing off.
pub const END_TO_END: [MetricDef; 6] = [
    e2e("wall_s", "s", 0.25, "wall seconds from spec load to rendered batch.json/CSV/report; per instance the median over passes, averaged over the seed panel"),
    e2e("cpu_s", "s", 0.25, "process user+sys CPU seconds over the same interval, aggregated like wall_s"),
    e2e("setup_s", "s", 0.25, "spec parse/validate until the first RunStarted event (shared field build and raster on fixed layouts); median of repeated set-up probes"),
    e2e("run_p50_ms", "ms", 0.25, "per-run RunStarted->RunFinished latency, median pooled over every run of the measured batches"),
    e2e("run_p90_ms", "ms", 0.25, "per-run latency, 90th percentile over the same pool"),
    e2e("peak_rss_mb", "MB", 0.1, "peak resident memory of the benchmark process"),
];

/// Per-layer metrics, from the traced run.
pub const PER_LAYER: [MetricDef; 38] = [
    layer("scenario.spec_load_ms", "ms", "lower", "spec parse+validate -> setup_s on all workloads"),
    layer("scenario.render_ms", "ms", "lower", "to_json+to_csv+report -> wall_s on paper-fig9"),
    layer("scenario.parallel_efficiency", "ratio", "higher", "serial replay busy time / (untraced wall x threads) -> wall_s on every workload; below 1 is batch tail and pool idle"),
    layer("field.draw_ms", "ms", "lower", "RunCell::build_field per environment -> setup_s; predict ~0 on every workload (fixed layouts are built once)"),
    layer("field.raster_ms", "ms", "lower", "CoverageGrid::new per environment -> setup_s on every workload (fixed layouts rasterize once, before the first run)"),
    layer("field.scatter_ms", "ms", "lower", "RunCell::build_scatter per run -> wall_s on all workloads (small)"),
    layer("cov.restamps", "count", "lower", "coverage tracker restamps -> cpvf/floor snapshot self time"),
    layer("cov.rebuilds", "count", "lower", "coverage tracker full rebuilds -> cpvf/floor snapshot self time"),
    layer("deploy.cpvf_s", "s", "lower", "run_scheme_with(CPVF) summed over cells -> wall_s/cpu_s on paper-fig9, obstacle-field"),
    layer("deploy.floor_s", "s", "lower", "run_scheme_with(FLOOR) summed over cells -> wall_s/cpu_s on paper-fig9, obstacle-field"),
    layer("deploy.vor_s", "s", "lower", "run_scheme_with(VOR) summed over cells -> wall_s on fig11-baselines only"),
    layer("deploy.minimax_s", "s", "lower", "run_scheme_with(Minimax) summed over cells -> wall_s on fig11-baselines only"),
    layer("deploy.opt_s", "s", "lower", "run_scheme_with(OPT) summed over cells -> wall_s on fig11-baselines/paper-fig9"),
    layer("cpvf.plan.self_s", "s", "lower", "span cpvf.run/cpvf.plan self time -> wall_s/cpu_s on obstacle-field, paper-fig9"),
    layer("cpvf.motion.self_s", "s", "lower", "span cpvf.run/cpvf.motion self time -> wall_s/cpu_s on obstacle-field, paper-fig9"),
    layer("cpvf.absorb.self_s", "s", "lower", "span cpvf.run/cpvf.absorb self time -> cpu_s on paper-fig9"),
    layer("cpvf.snapshot.self_s", "s", "lower", "span cpvf.run/cpvf.snapshot self time -> cpu_s on paper-fig9"),
    layer("floor.plan.self_s", "s", "lower", "span floor.run/floor.plan self time -> wall_s/cpu_s on paper-fig9, obstacle-field"),
    layer("floor.absorb.self_s", "s", "lower", "span floor.run/floor.absorb self time -> wall_s on paper-fig9"),
    layer("floor.motion.self_s", "s", "lower", "span floor.run/floor.motion self time -> cpu_s on paper-fig9"),
    layer("floor.classify.self_s", "s", "lower", "span floor.run/floor.classify self time -> cpu_s on obstacle-field (small)"),
    layer("floor.snapshot.self_s", "s", "lower", "span floor.run/floor.snapshot self time -> cpu_s on paper-fig9"),
    layer("phase_coverage", "ratio", "higher", "share of profiled wall inside phase spans (observability, moves no timing)"),
    layer("nav.context_ms", "ms", "lower", "NavContext::new per environment (each CPVF/FLOOR run builds one) -> run_p50_ms on obstacle-field"),
    layer("nav.plans", "count", "lower", "BUG2 plans made -> cpvf.motion/floor.plan self time on obstacle-field"),
    layer("nav.ring_hits", "count", "lower", "indexed ring-hit queries (the program emits no edge-test counter) -> floor.plan self time on obstacle-field; 0 on the open field"),
    layer("pidx.syncs", "count", "lower", "PointIndex syncs -> cpvf.plan self time, cpu_s on paper-fig9"),
    layer("pidx.rebuilds", "count", "lower", "PointIndex full rebuilds -> cpvf.plan self time, cpu_s on paper-fig9"),
    layer("pidx.shard_rebuilds", "count", "lower", "PointIndex shard rebuilds -> cpvf.plan self time, cpu_s on paper-fig9"),
    layer("pidx.rebuild_share", "ratio", "lower", "pidx.rebuilds / pidx.syncs -> cpu_s on paper-fig9 against obstacle-field (tracker-tier audit)"),
    layer("conn.repairs", "count", "lower", "connectivity tracker repairs -> cpvf.plan self time"),
    layer("conn.rebuilds", "count", "lower", "connectivity tracker rebuilds -> cpvf.plan self time"),
    layer("adj.repairs", "count", "lower", "adjacency tracker repairs -> cpvf.plan self time"),
    layer("adj.rebuilds", "count", "lower", "adjacency tracker rebuilds -> cpvf.plan self time"),
    layer("world.moves", "count", "lower", "movement actions -> cpvf.motion.self_s"),
    layer("assign.hungarian_ms", "ms", "lower", "hungarian(CostMatrix::euclidean(initial, strip_pattern)) per OPT cell -> wall_s on fig11-baselines/paper-fig9 (predict small)"),
    layer("voronoi.compute_ms", "ms", "lower", "VoronoiDiagram::compute on each VD cell's initial sites -> wall_s on fig11-baselines only"),
    layer("obs.trace_overhead", "ratio", "lower", "traced / untraced batch wall - 1 (about +7..23% on paper-fig9)"),
];

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Value {
    /// Metric name (one of the definitions above).
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
}

/// The outcome of one benchmark invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Whether every checked output was right.
    pub correct: bool,
    /// Runs attempted.
    pub attempted: u64,
    /// Runs that failed their check.
    pub failed: u64,
    /// Measured metrics, in definition order.
    pub values: Vec<Value>,
    /// Human-readable lines printed above the result line (sample
    /// counts, check summaries).
    pub notes: Vec<String>,
}

/// The definition of a metric by name.
pub fn def(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(&PER_LAYER).find(|d| d.name == name)
}

impl Outcome {
    /// The final result line:
    /// `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`.
    pub fn result_line(&self) -> String {
        let metrics = self
            .values
            .iter()
            .map(|v| {
                let unit = def(v.name).map_or("", |d| d.unit);
                let value = Json::obj()
                    .field("value", finite(v.value))
                    .field("unit", unit);
                (v.name.to_string(), value)
            })
            .collect();
        Json::obj()
            .field("correct", self.correct)
            .field("attempted", self.attempted)
            .field("failed", self.failed)
            .field("metrics", Json::Obj(metrics))
            .compact()
    }

    /// The metric table plus notes, one line each.
    pub fn table(&self) -> Vec<String> {
        let mut lines = self.notes.clone();
        for v in &self.values {
            let unit = def(v.name).map_or("", |d| d.unit);
            lines.push(format!("  {:<30} {:>16.6} {unit}", v.name, v.value));
        }
        let rate = if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        };
        lines.push(format!(
            "  {:<30} {:>16.6} ({} failed of {} runs attempted)",
            "run_error_rate", rate, self.failed, self.attempted
        ));
        lines
    }
}

/// JSON cannot hold NaN or infinity; such a value is a bug upstream.
fn finite(v: f64) -> f64 {
    assert!(v.is_finite(), "metric value must be finite, got {v}");
    v
}

/// Median of `values` (mean of the middle pair for even lengths); 0
/// when empty.
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `q` in `(0, 1]` of `values`: the smallest
/// sample with at least a `q` share of the samples at or below it. It is
/// always a measured run, also when the pool mixes cheap and expensive
/// cells. 0 when empty.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let sorted = sorted(values);
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}
