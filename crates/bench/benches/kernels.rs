//! Criterion micro-benchmarks of the computational kernels every
//! experiment leans on: Voronoi cell construction, Hungarian matching,
//! minimum enclosing circles, coverage rasters (the row-span count and
//! the per-cell-test oracle mask), BUG2 navigation, field motion
//! sweeps and disk-graph construction.
//!
//! Besides printing per-iteration times, the harness exports the
//! measurements as a machine-readable perf record: `BENCH.json` in
//! cargo's target temp directory (`target/tmp/`, untracked), or
//! wherever `MSN_BENCH_OUT` points. CI gates it against the committed
//! `BENCH.json` baseline via `scenario bench-diff` (see the README's
//! Performance section).

use criterion::{BatchSize, Criterion};
use msn_assign::{hungarian, CostMatrix};
use msn_field::{two_obstacle_field, CoverageGrid, Field, Hit};
use msn_geom::{min_enclosing_circle, Point, Rect, Segment, EPS};
use msn_nav::{Hand, NavContext, Navigator};
use msn_net::{AdjacencyTracker, DiskGraph, Neighbors, SpatialGrid};
use msn_scenario::Json;
use msn_voronoi::VoronoiDiagram;
use std::hint::black_box;
use std::sync::Arc;

fn sites(n: usize) -> Vec<Point> {
    (0..n)
        .map(|i| {
            let a = i as f64;
            Point::new(
                500.0 + 480.0 * (a * 0.7321).sin(),
                500.0 + 480.0 * (a * 1.1173).cos(),
            )
        })
        .collect()
}

fn bench_voronoi(c: &mut Criterion) {
    let pts = sites(240);
    let bounds = Rect::new(0.0, 0.0, 1000.0, 1000.0);
    c.bench_function("voronoi_diagram_240_sites", |b| {
        b.iter(|| VoronoiDiagram::compute(black_box(&pts), bounds))
    });
}

fn bench_hungarian(c: &mut Criterion) {
    let src = sites(240);
    let dst: Vec<Point> = sites(240)
        .into_iter()
        .map(|p| Point::new(p.y, p.x))
        .collect();
    c.bench_function("hungarian_240x240_euclidean", |b| {
        b.iter_batched(
            || CostMatrix::euclidean(&src, &dst),
            |m| hungarian(black_box(&m)),
            BatchSize::SmallInput,
        )
    });
}

fn bench_mec(c: &mut Criterion) {
    let pts = sites(200);
    c.bench_function("min_enclosing_circle_200_points", |b| {
        b.iter(|| min_enclosing_circle(black_box(&pts)))
    });
}

fn bench_coverage(c: &mut Criterion) {
    let field = Field::open(1000.0, 1000.0);
    let grid = CoverageGrid::new(&field, 2.5);
    let pts = sites(240);
    c.bench_function("coverage_grid_240_sensors_rs40", |b| {
        b.iter(|| grid.coverage(black_box(&pts), 40.0))
    });
    c.bench_function("covered_mask_240_sensors_rs40", |b| {
        b.iter(|| grid.covered_mask(black_box(&pts), 40.0))
    });
}

fn bench_bug2(c: &mut Criterion) {
    let field = Field::with_obstacles(
        1000.0,
        1000.0,
        vec![
            Rect::new(300.0, 200.0, 400.0, 800.0).to_polygon(),
            Rect::new(600.0, 100.0, 700.0, 600.0).to_polygon(),
        ],
    );
    c.bench_function("bug2_full_path_two_obstacles", |b| {
        b.iter(|| {
            let mut nav = Navigator::new(
                &field,
                Point::new(50.0, 500.0),
                Point::new(950.0, 500.0),
                Hand::Right,
            );
            while !nav.is_done() && !nav.is_stuck() {
                nav.advance(10.0);
            }
            black_box(nav.traveled())
        })
    });
}

fn bench_nav_context(c: &mut Criterion) {
    // A dense obstacle field — a 6×6 grid of rectangles, ~300
    // offset-ring edges — the regime the random-obstacle sweeps push
    // navigation into.
    let mut obstacles = Vec::new();
    for gy in 0..6 {
        for gx in 0..6 {
            let x = 80.0 + 150.0 * gx as f64;
            let y = 80.0 + 150.0 * gy as f64;
            obstacles.push(Rect::new(x, y, x + 70.0, y + 70.0).to_polygon());
        }
    }
    let field = Field::with_obstacles(1000.0, 1000.0, obstacles);
    let ctx = NavContext::new(&field);
    // Probe mix matching BUG2's queries: mostly step-length segments,
    // a few long can-progress sight lines.
    let probes: Vec<Segment> = (0..64)
        .map(|i| {
            let a = i as f64;
            let from = Point::new(
                500.0 + 480.0 * (a * 0.7321).sin(),
                500.0 + 480.0 * (a * 1.1173).cos(),
            );
            let to = if i % 4 == 0 {
                Point::new(
                    500.0 + 480.0 * (a * 1.9731).sin(),
                    500.0 + 480.0 * (a * 0.4177).cos(),
                )
            } else {
                from + Point::from_angle(a * 2.39996) * 25.0
            };
            Segment::new(from, to)
        })
        .collect();
    c.bench_function("first_ring_hit_linear_dense_field", |b| {
        b.iter(|| {
            let mut hits = 0usize;
            for seg in &probes {
                if ctx
                    .first_ring_hit_linear(black_box(seg), None, true)
                    .is_some()
                {
                    hits += 1;
                }
            }
            black_box(hits)
        })
    });
    let mut scratch = ctx.scratch();
    c.bench_function("first_ring_hit_indexed_dense_field", |b| {
        b.iter(|| {
            let mut hits = 0usize;
            for seg in &probes {
                if ctx
                    .first_ring_hit(&mut scratch, black_box(seg), None, true)
                    .is_some()
                {
                    hits += 1;
                }
            }
            black_box(hits)
        })
    });
    // End-to-end: a full BUG2 plan through the shared context (the
    // pattern FLOOR's relocations and CPVF's walkers now use).
    let ctx = Arc::new(ctx);
    c.bench_function("bug2_plan_obstacle_field", |b| {
        b.iter(|| {
            let mut nav = Navigator::with_context(
                ctx.clone(),
                Point::new(20.0, 15.0),
                Point::new(980.0, 985.0),
                Hand::Right,
            );
            while !nav.is_done() && !nav.is_stuck() {
                nav.advance(10.0);
            }
            black_box(nav.traveled())
        })
    });
}

/// The linear `Field::first_hit` the box-filtered sweep replaced:
/// every boundary wall, then every obstacle edge (bench-local copy of
/// the oracle in `msn-field`'s `tests/box_filter.rs`).
fn first_hit_linear(field: &Field, seg: &Segment) -> Option<(f64, Hit)> {
    let mut best: Option<(f64, Hit)> = None;
    let start_tol = 1e-7 / seg.length().max(EPS);
    let mut consider = |t: f64, hit: Hit| {
        if t > start_tol && best.is_none_or(|(bt, _)| t < bt) {
            best = Some((t, hit));
        }
    };
    let bounds = field.bounds();
    for (i, edge) in bounds.to_polygon().edges().enumerate() {
        if let Some(t) = seg.first_hit(&edge) {
            let just_after = seg.at((t + 10.0 * start_tol).min(1.0));
            let leaving = !bounds.contains_strict(just_after) && t < 1.0 - start_tol;
            if leaving || !bounds.contains(seg.b) {
                consider(t, Hit::Boundary(i));
            }
        }
    }
    for (oi, obstacle) in field.obstacles().iter().enumerate() {
        if let Some((t, ei)) = obstacle.first_boundary_hit(seg) {
            consider(t, Hit::Obstacle(oi, ei));
        }
    }
    best
}

/// The linear `Field::segment_free`.
fn segment_free_linear(field: &Field, seg: &Segment) -> bool {
    field.bounds().contains(seg.a)
        && field.bounds().contains(seg.b)
        && !field.obstacles().iter().any(|o| o.intersects_segment(seg))
}

fn bench_field_geometry(c: &mut Criterion) {
    // CPVF's per-tick field questions on the paper's two-obstacle
    // field: sensor-step sweeps (most far from any wall, a few across
    // one), box-filtered against the linear scans they replaced.
    let field = two_obstacle_field();
    let probes: Vec<Segment> = sites(64)
        .into_iter()
        .enumerate()
        .map(|(i, from)| Segment::new(from, from + Point::from_angle(i as f64 * 2.39996) * 4.0))
        .collect();
    let sweep = |f: &dyn Fn(&Segment) -> bool| {
        let mut hits = 0usize;
        for seg in &probes {
            if f(black_box(seg)) {
                hits += 1;
            }
        }
        black_box(hits)
    };
    c.bench_function("field_first_hit_two_obstacle", |b| {
        b.iter(|| sweep(&|s| field.first_hit(s).is_some()))
    });
    c.bench_function("field_first_hit_two_obstacle_linear", |b| {
        b.iter(|| sweep(&|s| first_hit_linear(&field, s).is_some()))
    });
    c.bench_function("field_segment_free_two_obstacle", |b| {
        b.iter(|| sweep(&|s| field.segment_free(s)))
    });
    c.bench_function("field_segment_free_two_obstacle_linear", |b| {
        b.iter(|| sweep(&|s| segment_free_linear(&field, s)))
    });
}

fn bench_disk_stamp(c: &mut Criterion) {
    let field = Field::open(1000.0, 1000.0);
    let grid = CoverageGrid::new(&field, 2.5);
    let centers = sites(64);
    // The row-span kernel (chord-guessed spans confirmed with the
    // exact per-cell predicate) vs the chord oracle (per-cell distance
    // test across the padded chord window). Identical visited sets;
    // bench-diff keeps the row spans ahead.
    c.bench_function("stamp_scanline_vs_chord", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for &s in &centers {
                total += grid.disk_cells(black_box(s), 40.0).len();
            }
            black_box(total)
        })
    });
    c.bench_function("stamp_chord_reference", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for &s in &centers {
                total += grid.disk_cells_chord(black_box(s), 40.0).len();
            }
            black_box(total)
        })
    });
}

fn bench_diskgraph(c: &mut Criterion) {
    let pts = sites(240);
    c.bench_function("disk_graph_build_240_rc60", |b| {
        b.iter(|| DiskGraph::build(black_box(&pts), 60.0))
    });
}

fn bench_connectivity(c: &mut Criterion) {
    let orig = sites(240);
    let base = Point::new(500.0, 500.0);
    let rc = 60.0;
    // One sensor jitters around its home position each iteration —
    // bounded, so the workload stays stationary however many
    // iterations the harness settles on, yet the jitter is large
    // enough (±24 m at rc 60) to churn real link events.
    let wobble = |pts: &mut [Point], step: u64| {
        let i = (step % 240) as usize;
        // 240 is a multiple of 16, so fold the revisit count in: each
        // time a sensor's turn comes around it lands somewhere new.
        let w = ((step + step / 240) % 16) as f64;
        let p = orig[i] + Point::new(3.0 * w - 24.0, 16.0 - 2.0 * w);
        pts[i] = p;
        (i, p)
    };
    // The oracle pattern: rebuild the whole disk graph and re-flood
    // from the base after one sensor moved.
    let mut pts = orig.clone();
    let mut step = 0u64;
    c.bench_function("conn_rebuild_move_one_and_requery", |b| {
        b.iter(|| {
            step = step.wrapping_add(1);
            let (i, _) = wobble(&mut pts, step);
            let g = DiskGraph::build(black_box(&pts), rc);
            black_box(g.flood_from_base(&pts, base, rc)[i])
        })
    });
    // The path `World` takes: same move, same question, answered by
    // one base flood over the maintained adjacency.
    let mut pts = orig.clone();
    let mut adj = AdjacencyTracker::new(&pts, rc);
    let mut step = 0u64;
    c.bench_function("conn_flood_move_one_and_requery", |b| {
        b.iter(|| {
            step = step.wrapping_add(1);
            let (i, p) = wobble(&mut pts, step);
            adj.set_sensor(i, p);
            adj.sync();
            black_box(adj.flood_from_base(adj.points(), base, rc)[i])
        })
    });
}

fn bench_adjacency(c: &mut Criterion) {
    let orig = sites(240);
    let rc = 60.0;
    // The same bounded wobble the other incremental-kernel pairs use.
    let wobble = |pts: &mut [Point], step: u64| {
        let i = (step % 240) as usize;
        let w = ((step + step / 240) % 16) as f64;
        let p = orig[i] + Point::new(3.0 * w - 24.0, 16.0 - 2.0 * w);
        pts[i] = p;
        (i, p)
    };
    // The per-tick pattern FLOOR used: rebuild the whole disk graph
    // after one sensor moved, then read a neighbor list.
    let mut pts = orig.clone();
    let mut step = 0u64;
    c.bench_function("tick_graph_rebuild_move_one", |b| {
        b.iter(|| {
            step = step.wrapping_add(1);
            let (i, _) = wobble(&mut pts, step);
            let g = DiskGraph::build(black_box(&pts), rc);
            black_box(g.neighbors(i).len())
        })
    });
    // The incremental path: same move, same read, served from
    // maintained grid-order lists.
    let mut pts = orig.clone();
    let mut tracker = AdjacencyTracker::new(&pts, rc);
    let mut step = 0u64;
    c.bench_function("tick_adjacency_move_one", |b| {
        b.iter(|| {
            step = step.wrapping_add(1);
            let (i, p) = wobble(&mut pts, step);
            tracker.set_sensor(i, p);
            black_box(tracker.neighbors(i).len())
        })
    });
    // The list-repair path under FLOOR's typical dirty count (~56 per
    // sync): a quarter of a 240-sensor cluster (mean degree ~15, below
    // the rebuild rule's summed-degree bar) steps a few metres away
    // from or back home, then the lists sync.
    let home = fleet(240, 400.0);
    let mut tracker = AdjacencyTracker::new(&home, rc);
    let mut step = 0usize;
    c.bench_function("adjacency_repair_quarter_240_rc60", |b| {
        b.iter(|| {
            step += 1;
            let away = (step / 4) % 2 == 1;
            for i in (step % 4..240).step_by(4) {
                let shift = if away {
                    Point::new(3.0, -2.0)
                } else {
                    Point::ORIGIN
                };
                tracker.set_sensor(i, home[i] + shift);
            }
            tracker.sync();
            black_box(tracker.neighbors(step % 240).len())
        })
    });
}

fn bench_point_index(c: &mut Criterion) {
    let orig = sites(240);
    let r = 60.0;
    // One sensor jitters around its home position each iteration (the
    // same bounded wobble the connectivity kernels use).
    let wobble = |pts: &mut [Point], step: u64| {
        let i = (step % 240) as usize;
        let w = ((step + step / 240) % 16) as f64;
        let p = orig[i] + Point::new(3.0 * w - 24.0, 16.0 - 2.0 * w);
        pts[i] = p;
        (i, p)
    };
    // The per-tick pattern the buckets replace: rebuild a SpatialGrid
    // from scratch after one sensor moved, then range-query it.
    let mut pts = orig.clone();
    let mut step = 0u64;
    c.bench_function("spatial_rebuild_move_one_and_requery", |b| {
        b.iter(|| {
            step = step.wrapping_add(1);
            let (i, _) = wobble(&mut pts, step);
            let grid = SpatialGrid::build(black_box(&pts), r);
            black_box(grid.neighbors(&pts, i, r).len())
        })
    });
    // The incremental path: same move, same query, answered from the
    // adjacency's maintained buckets at cell rc = r (byte-identical
    // results, order included; the lists are never read, so only the
    // buckets sync).
    let mut pts = orig.clone();
    let mut index = AdjacencyTracker::new(&pts, r);
    let mut step = 0u64;
    c.bench_function("point_index_move_one_and_requery", |b| {
        b.iter(|| {
            step = step.wrapping_add(1);
            let (i, p) = wobble(&mut pts, step);
            index.set_sensor(i, p);
            black_box(index.neighbors_within(i, r).len())
        })
    });
    // Overhead guard for the observability probes: the identical
    // workload with an msn-obs collector installed. bench-diff keeps
    // this within tolerance of the unprobed kernel above, so a probe
    // that grows a syscall or an allocation shows up as a regression.
    let mut pts = orig.clone();
    let mut index = AdjacencyTracker::new(&pts, r);
    let mut step = 0u64;
    msn_obs::start();
    c.bench_function("point_index_move_one_probed", |b| {
        b.iter(|| {
            step = step.wrapping_add(1);
            let (i, p) = wobble(&mut pts, step);
            index.set_sensor(i, p);
            black_box(index.neighbors_within(i, r).len())
        })
    });
    black_box(msn_obs::finish());
}

/// A quasi-uniform fleet over an `extent`-sized square (the R2
/// low-discrepancy sequence), deterministic and dense enough that
/// every sensor has a handful of rc-neighbors — the scale-tier
/// analogue of [`sites`].
fn fleet(n: usize, extent: f64) -> Vec<Point> {
    (0..n)
        .map(|i| {
            let a = i as f64 + 1.0;
            Point::new(
                extent * (a * 0.754_877_666_2).fract(),
                extent * (a * 0.569_840_290_998).fract(),
            )
        })
        .collect()
}

fn bench_scale_10k(c: &mut Criterion) {
    // The 10k tier of the incremental move-one kernels: same bounded
    // wobble, same single-sensor query, a fleet 40x larger spread over
    // a 7 km field at comparable density. bench-diff keeps these
    // within tolerance so the buckets' per-move cost stays
    // O(neighborhood) — a fleet-size-proportional sync would blow the
    // gate immediately.
    let n = 10_000;
    let extent = 7_000.0;
    let rc = 60.0;
    let orig = fleet(n, extent);
    let wobble = |pts: &mut [Point], step: u64| {
        let i = (step % n as u64) as usize;
        let w = ((step + step / n as u64) % 16) as f64;
        let p = orig[i] + Point::new(3.0 * w - 24.0, 16.0 - 2.0 * w);
        pts[i] = p;
        (i, p)
    };
    let mut pts = orig.clone();
    let mut index = AdjacencyTracker::new(&pts, rc);
    let mut step = 0u64;
    c.bench_function("point_index_move_one_10k", |b| {
        b.iter(|| {
            step = step.wrapping_add(1);
            let (i, p) = wobble(&mut pts, step);
            index.set_sensor(i, p);
            black_box(index.neighbors_within(i, rc).len())
        })
    });
    let mut pts = orig.clone();
    let mut tracker = AdjacencyTracker::new(&pts, rc);
    let mut step = 0u64;
    c.bench_function("tick_adjacency_move_one_10k", |b| {
        b.iter(|| {
            step = step.wrapping_add(1);
            let (i, p) = wobble(&mut pts, step);
            tracker.set_sensor(i, p);
            black_box(tracker.neighbors(i).len())
        })
    });
    // Unlike the kernels above, this one is O(N + E), not
    // O(neighborhood): every query floods the whole 10k fleet.
    let mut pts = orig.clone();
    let base = Point::new(extent / 2.0, extent / 2.0);
    let mut adj = AdjacencyTracker::new(&pts, rc);
    let mut step = 0u64;
    c.bench_function("conn_flood_move_one_10k", |b| {
        b.iter(|| {
            step = step.wrapping_add(1);
            let (i, p) = wobble(&mut pts, step);
            adj.set_sensor(i, p);
            adj.sync();
            black_box(adj.flood_from_base(adj.points(), base, rc)[i])
        })
    });
}

/// Runs every kernel group and writes the perf record. A hand-rolled
/// `main` (instead of `criterion_main!`) so the collected
/// measurements can be serialized after the run.
fn main() {
    let mut c = Criterion::default();
    bench_voronoi(&mut c);
    bench_hungarian(&mut c);
    bench_mec(&mut c);
    bench_coverage(&mut c);
    bench_bug2(&mut c);
    bench_nav_context(&mut c);
    bench_field_geometry(&mut c);
    bench_disk_stamp(&mut c);
    bench_diskgraph(&mut c);
    bench_connectivity(&mut c);
    bench_adjacency(&mut c);
    bench_point_index(&mut c);
    bench_scale_10k(&mut c);

    let kernels: Vec<Json> = c
        .results()
        .iter()
        .map(|r| {
            Json::obj()
                .field("name", r.name.as_str())
                .field("ns_per_iter", r.ns_per_iter)
                .field("iters", r.iters)
        })
        .collect();
    let record = Json::obj()
        .field("record", "BENCH")
        .field("suite", "kernels")
        .field("kernels", Json::Arr(kernels))
        .pretty();
    let out = std::env::var("MSN_BENCH_OUT")
        .unwrap_or_else(|_| concat!(env!("CARGO_TARGET_TMPDIR"), "/BENCH.json").into());
    // Fail loudly: CI gates on this file, so an unwritable path must
    // break the job, not quietly skip the artifact.
    if let Err(e) = std::fs::write(&out, record) {
        eprintln!("error: cannot write {out}: {e}");
        std::process::exit(1);
    }
    println!("wrote {out}");
}
