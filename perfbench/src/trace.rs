//! The traced run: per-layer metrics.
//!
//! Instance 0 of the workload runs through the batch runner in pairs —
//! untraced, then with the `msn-obs` profile on — and the profile's
//! spans and counters give the phase self times and work counts. The
//! layer timings come from outside the program: every cell is replayed
//! serially through the crates' public calls (field draw, raster,
//! scatter, `NavContext::new`, `run_scheme_with`, Hungarian, Voronoi),
//! each call timed. Every replayed `RunResult` must equal the batch's
//! `RunRecord` bit-for-bit, which shows the outside timings measure the
//! same program the batch ran. No span is added inside the program.

use crate::check::{Checker, Reference};
use crate::measure::{fits_another, run_batch, Options};
use crate::metrics::{median, Outcome, Value};
use crate::workload::THREADS;
use msn_assign::{hungarian, CostMatrix};
use msn_deploy::{opt::strip_pattern, run_scheme_with, SchemeKind};
use msn_field::CoverageGrid;
use msn_nav::NavContext;
use msn_obs::{Report, SpanNode};
use msn_scenario::{ProfileRecord, RunConfig, RunRecord, ScenarioSpec};
use msn_sim::{RunResult, SimConfig};
use msn_voronoi::VoronoiDiagram;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Span paths reported as `<last segment>.self_s`.
const PHASES: [&str; 9] = [
    "cpvf.run/cpvf.plan",
    "cpvf.run/cpvf.motion",
    "cpvf.run/cpvf.absorb",
    "cpvf.run/cpvf.snapshot",
    "floor.run/floor.plan",
    "floor.run/floor.absorb",
    "floor.run/floor.motion",
    "floor.run/floor.classify",
    "floor.run/floor.snapshot",
];

/// Program counters reported under their own names.
const COUNTERS: [&str; 12] = [
    "cov.restamps",
    "cov.rebuilds",
    "nav.plans",
    "nav.ring_hits",
    "pidx.syncs",
    "pidx.rebuilds",
    "pidx.shard_rebuilds",
    "conn.repairs",
    "conn.rebuilds",
    "adj.repairs",
    "adj.rebuilds",
    "world.moves",
];

/// Layer times accumulated by the serial replay.
#[derive(Debug, Default)]
pub struct Replay {
    /// `RunCell::build_field`, once per environment.
    pub draw: Duration,
    /// `CoverageGrid::new`, once per environment.
    pub raster: Duration,
    /// `NavContext::new`, once per environment.
    pub nav: Duration,
    /// `RunCell::build_scatter`, once per cell.
    pub scatter: Duration,
    /// `run_scheme_with`, per scheme in [`SchemeKind::ALL`] order.
    pub scheme: [Duration; 5],
    /// Strip pattern + cost matrix + Hungarian, per OPT cell.
    pub hungarian: Duration,
    /// `VoronoiDiagram::compute` on the initial sites, per VD cell.
    pub voronoi: Duration,
    /// Cells whose replayed result differs from the batch record.
    pub mismatches: u64,
}

impl Replay {
    /// Time the batch runner itself spends on this work: environments,
    /// scatters and scheme runs (the Hungarian/Voronoi/NavContext
    /// probes are the benchmark's extra calls).
    pub fn busy(&self) -> Duration {
        self.draw + self.raster + self.scatter + self.scheme.iter().sum::<Duration>()
    }
}

fn timed<T>(acc: &mut Duration, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = black_box(f());
    *acc += t0.elapsed();
    out
}

/// Whether a replayed result equals the batch's record bit-for-bit.
fn same(record: &RunRecord, r: &RunResult) -> bool {
    let bits = |v: f64| v.to_bits();
    bits(record.coverage) == bits(r.coverage)
        && bits(record.avg_move) == bits(r.avg_move)
        && bits(record.max_move) == bits(r.max_move)
        && bits(record.total_move) == bits(r.total_move)
        && record.messages == r.messages.total()
        && record.connected == r.connected
        && record.convergence_time.map(bits) == r.convergence_time.map(bits)
        && record.flags == r.flags
        && record.moves == r.moves
        && bits(record.move_dist) == bits(r.move_dist)
        && record.positions.len() == r.positions.len()
        && record
            .positions
            .iter()
            .zip(&r.positions)
            .all(|(a, b)| bits(a.x) == bits(b.x) && bits(a.y) == bits(b.y))
}

/// Replays every cell of `spec` serially through the public calls the
/// batch runner makes, timing each layer, and compares each result with
/// the batch's record.
pub fn replay(spec: &ScenarioSpec, records: &[RunRecord]) -> Result<Replay, String> {
    if spec.dynamics.is_some() {
        return Err("the replay covers static specs only".into());
    }
    let cells = spec.matrix();
    if cells.len() != records.len() {
        return Err(format!(
            "batch holds {} records for {} cells",
            records.len(),
            cells.len()
        ));
    }
    let mut out = Replay::default();
    // Fixed layouts share one environment for the whole batch, random
    // ones one per (radio, n, rep) slice — as the runner shares them.
    let mut env: Option<(Option<u64>, msn_field::Field, CoverageGrid)> = None;
    for (cell, record) in cells.iter().zip(records) {
        let key = spec.field.is_randomized().then_some(cell.env_seed);
        if env.as_ref().is_none_or(|(k, _, _)| *k != key) {
            let field = timed(&mut out.draw, || cell.build_field(spec));
            let grid = timed(&mut out.raster, || {
                CoverageGrid::new(&field, spec.coverage_cell)
            });
            timed(&mut out.nav, || NavContext::new(&field));
            env = Some((key, field, grid));
        }
        let (_, field, grid) = env.as_ref().expect("environment built above");
        let initial = timed(&mut out.scatter, || cell.build_scatter(spec, field));
        let cfg = SimConfig::paper(cell.radio.rc, cell.radio.rs)
            .with_duration(spec.duration)
            .with_coverage_cell(spec.coverage_cell)
            .with_seed(cell.sim_seed());
        let overrides = spec.effective_overrides(cell.variant);
        let slot = SchemeKind::ALL
            .iter()
            .position(|k| *k == cell.scheme)
            .expect("every scheme is in SchemeKind::ALL");
        let result = timed(&mut out.scheme[slot], || {
            run_scheme_with(cell.scheme, field, &initial, &cfg, &overrides, Some(grid))
        });
        match cell.scheme {
            SchemeKind::Opt => {
                timed(&mut out.hungarian, || {
                    let params = overrides.opt_params();
                    let pattern = strip_pattern(field, cfg.rc, cfg.rs, initial.len(), &params);
                    hungarian(&CostMatrix::euclidean(&initial, &pattern))
                });
            }
            SchemeKind::Vor | SchemeKind::Minimax => {
                timed(&mut out.voronoi, || {
                    VoronoiDiagram::compute(&initial, field.bounds())
                });
            }
            SchemeKind::Cpvf | SchemeKind::Floor => {}
        }
        out.mismatches += u64::from(!same(record, &result));
    }
    Ok(out)
}

/// Self seconds of the span at `path` (`parent/child/...`), 0 if absent.
fn self_s(report: &Report, path: &str) -> f64 {
    let mut level: &[SpanNode] = &report.spans;
    let mut node = None;
    for name in path.split('/') {
        node = level.iter().find(|s| s.name == name);
        match node {
            Some(n) => level = &n.children,
            None => return 0.0,
        }
    }
    node.map_or(0.0, |n| n.self_ns() as f64 * 1e-9)
}

/// Metric name of a span path: `floor.run/floor.plan` →
/// `floor.plan.self_s`.
pub fn phase_metric(path: &str) -> String {
    let leaf = path.rsplit('/').next().unwrap_or(path);
    format!("{leaf}.self_s")
}

/// The traced run: every per-layer metric.
pub fn run_traced(opts: &Options, reference: &Reference) -> Result<Outcome, String> {
    let w = opts.workload;
    let texts = w.instance_texts(opts.seed, opts.shrink)?;
    let (seed, text) = &texts[0];
    let start = Instant::now();

    let mut load = Vec::new();
    for _ in 0..9 {
        let t0 = Instant::now();
        black_box(ScenarioSpec::from_toml_str(text).map_err(|e| e.to_string())?);
        load.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    let spec = ScenarioSpec::from_toml_str(text).map_err(|e| e.to_string())?;

    // A first, untimed batch warms the worker pool and the allocator; the
    // serial replay must reproduce its records.
    let mut checker = Checker::new(w.name, reference);
    let first = run_batch(text, RunConfig::new().threads(THREADS), None)?;
    checker.check(*seed, first.expected, &first.result.records);
    let replay = replay(&spec, &first.result.records)?;

    // Untraced/traced pairs while another pair fits in the time.
    let mut untraced = Vec::new();
    let mut traced_walls = Vec::new();
    let mut traced = None;
    let mut pair_start = start;
    while traced.is_none() || fits_another(start, pair_start, opts.seconds) {
        pair_start = Instant::now();
        let plain = run_batch(text, RunConfig::new().threads(THREADS), None)?;
        checker.check(*seed, plain.expected, &plain.result.records);
        untraced.push(plain.wall_s);
        let batch = run_batch(
            text,
            RunConfig::new().threads(THREADS).profiling(true),
            None,
        )?;
        checker.check(*seed, batch.expected, &batch.result.records);
        traced_walls.push(batch.wall_s);
        traced = Some(batch.result);
    }
    let traced = traced.expect("at least one traced batch");

    let mut render = Vec::new();
    for _ in 0..3 {
        let t0 = Instant::now();
        black_box((traced.to_json(), traced.to_csv(), traced.report()));
        render.push(t0.elapsed().as_secs_f64() * 1e3);
    }

    let profile = ProfileRecord::from_batch(&traced).map_err(|e| e.to_string())?;
    let merged = profile.merged();
    let wall = median(&untraced);
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let syncs = merged.counter_total("pidx.syncs");
    let mut measured: Vec<(String, f64)> = [
        ("scenario.spec_load_ms", median(&load)),
        ("scenario.render_ms", median(&render)),
        (
            "scenario.parallel_efficiency",
            replay.busy().as_secs_f64() / (wall * THREADS as f64),
        ),
        ("field.draw_ms", ms(replay.draw)),
        ("field.raster_ms", ms(replay.raster)),
        ("field.scatter_ms", ms(replay.scatter)),
        ("nav.context_ms", ms(replay.nav)),
        ("assign.hungarian_ms", ms(replay.hungarian)),
        ("voronoi.compute_ms", ms(replay.voronoi)),
        ("obs.trace_overhead", median(&traced_walls) / wall - 1.0),
        ("phase_coverage", profile.phase_coverage()),
        (
            "pidx.rebuild_share",
            merged.counter_total("pidx.rebuilds") as f64 / syncs.max(1) as f64,
        ),
    ]
    .into_iter()
    .map(|(name, v)| (name.to_string(), v))
    .collect();
    for (kind, time) in SchemeKind::ALL.iter().zip(replay.scheme) {
        let name = format!("deploy.{}_s", kind.name().to_ascii_lowercase());
        measured.push((name, time.as_secs_f64()));
    }
    for path in PHASES {
        measured.push((phase_metric(path), self_s(&merged, path)));
    }
    for name in COUNTERS {
        measured.push((name.to_string(), merged.counter_total(name) as f64));
    }
    // Emit in definition order under the declared names.
    let ordered = crate::metrics::PER_LAYER
        .iter()
        .map(|def| {
            measured
                .iter()
                .find(|(n, _)| n == def.name)
                .map(|(_, value)| Value {
                    name: def.name,
                    value: *value,
                })
                .ok_or_else(|| format!("per-layer metric {} was not measured", def.name))
        })
        .collect::<Result<Vec<_>, String>>()?;

    let cells = first.expected as u64;
    checker.attempted += cells;
    checker.failed += replay.mismatches;
    let notes = vec![
        format!(
            "{} seed {} (traced): {} untraced/traced pair(s), {cells} cells replayed serially",
            w.name,
            opts.seed,
            untraced.len(),
        ),
        format!(
            "  replay equality: {} of {cells} records differ; {} batch runs checked against the reference",
            replay.mismatches, checker.against_reference
        ),
    ];
    Ok(Outcome {
        correct: checker.failed == 0,
        attempted: checker.attempted,
        failed: checker.failed,
        values: ordered,
        notes,
    })
}
