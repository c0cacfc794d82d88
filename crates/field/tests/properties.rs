//! Property-based tests for fields, coverage and workloads.

use msn_field::{
    free_space_connected, random_obstacle_field, scatter_clustered, scatter_uniform, CoverageGrid,
    CoverageTracker, Field, RandomObstacleParams,
};
use msn_geom::{Point, Rect, Segment};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn obstacle_field(rects: &[(f64, f64, f64, f64)]) -> Field {
    Field::with_obstacles(
        1000.0,
        1000.0,
        rects
            .iter()
            .map(|&(x, y, w, h)| Rect::new(x, y, x + w, y + h).to_polygon())
            .collect(),
    )
}

proptest! {
    #[test]
    fn scanline_disk_stamp_matches_chord_oracle(
        rects in prop::collection::vec(
            (50.0..900.0f64, 50.0..900.0f64, 20.0..250.0f64, 20.0..250.0f64),
            0..4,
        ),
        centers in prop::collection::vec((-100.0..1100.0f64, -100.0..1100.0f64), 1..12),
        rs in 0.0..200.0f64,
        cell in 2.0..40.0f64,
    ) {
        // The scanline stamp must visit exactly the free in-disk cells
        // the per-cell chord test visits, in the same order — centers
        // off the field, radii below a cell, and centers parked on
        // cell boundaries included.
        let field = obstacle_field(&rects);
        let grid = CoverageGrid::new(&field, cell);
        for &(x, y) in &centers {
            let s = Point::new(x, y);
            prop_assert_eq!(
                grid.disk_cells(s, rs),
                grid.disk_cells_chord(s, rs),
                "center {} rs {} cell {}", s, rs, cell
            );
            // snap the center onto an exact cell-boundary coordinate
            let snapped = Point::new((x / cell).floor() * cell, (y / cell).floor() * cell);
            prop_assert_eq!(
                grid.disk_cells(snapped, rs),
                grid.disk_cells_chord(snapped, rs),
                "snapped center {} rs {} cell {}", snapped, rs, cell
            );
        }
    }

    #[test]
    fn coverage_into_scratch_reuse_is_bitwise_stable(
        pts in prop::collection::vec((0.0..1000.0f64, 0.0..1000.0f64), 0..25),
        rs in 5.0..150.0f64,
    ) {
        let field = Field::open(1000.0, 1000.0);
        let grid = CoverageGrid::new(&field, 10.0);
        let sensors: Vec<Point> = pts.iter().map(|&(x, y)| Point::new(x, y)).collect();
        let mut scratch = Vec::new();
        // growing prefixes reuse the same scratch mask; each result
        // must equal the allocating path bit for bit
        for k in 0..=sensors.len() {
            let with_scratch = grid.coverage_into(&sensors[..k], rs, &mut scratch);
            let fresh = grid.coverage(&sensors[..k], rs);
            prop_assert_eq!(with_scratch.to_bits(), fresh.to_bits());
        }
    }

    #[test]
    fn coverage_is_monotone_in_sensor_count(
        pts in prop::collection::vec((0.0..1000.0f64, 0.0..1000.0f64), 1..30),
        rs in 20.0..120.0f64,
    ) {
        let field = Field::open(1000.0, 1000.0);
        let grid = CoverageGrid::new(&field, 10.0);
        let sensors: Vec<Point> = pts.iter().map(|&(x, y)| Point::new(x, y)).collect();
        let mut prev = 0.0;
        for k in 1..=sensors.len() {
            let cov = grid.coverage(&sensors[..k], rs);
            prop_assert!(cov + 1e-12 >= prev, "coverage dropped when adding a sensor");
            prev = cov;
        }
    }

    #[test]
    fn coverage_is_monotone_in_radius(
        pts in prop::collection::vec((0.0..1000.0f64, 0.0..1000.0f64), 1..15),
    ) {
        let field = Field::open(1000.0, 1000.0);
        let grid = CoverageGrid::new(&field, 10.0);
        let sensors: Vec<Point> = pts.iter().map(|&(x, y)| Point::new(x, y)).collect();
        let mut prev = 0.0;
        for rs in [10.0, 30.0, 60.0, 120.0] {
            let cov = grid.coverage(&sensors, rs);
            prop_assert!(cov + 1e-12 >= prev);
            prev = cov;
        }
    }

    #[test]
    fn free_points_are_never_inside_obstacles(
        ox in 100.0..700.0f64, oy in 100.0..700.0f64,
        w in 50.0..250.0f64, h in 50.0..250.0f64,
        px in 0.0..1000.0f64, py in 0.0..1000.0f64,
    ) {
        let field = obstacle_field(&[(ox, oy, w, h)]);
        let p = Point::new(px, py);
        let inside = px > ox && px < ox + w && py > oy && py < oy + h;
        if inside {
            prop_assert!(!field.is_free(p));
        }
        if field.is_free(p) {
            prop_assert!(!inside);
        }
    }

    #[test]
    fn segment_free_agrees_with_first_hit(
        ox in 200.0..600.0f64, oy in 200.0..600.0f64,
        ax in 0.0..1000.0f64, ay in 0.0..1000.0f64,
        bx in 0.0..1000.0f64, by in 0.0..1000.0f64,
    ) {
        let field = obstacle_field(&[(ox, oy, 150.0, 150.0)]);
        let a = Point::new(ax, ay);
        let b = Point::new(bx, by);
        prop_assume!(field.is_free(a) && field.is_free(b));
        let seg = Segment::new(a, b);
        if field.segment_free(&seg) {
            // an unobstructed segment may still graze a wall; only a
            // strict interior hit contradicts segment_free
            if let Some((t, _)) = field.first_hit(&seg) {
                let p = seg.at(t);
                prop_assert!(field.nearest_obstacle_dist(p) < 1e-3,
                    "hit point must lie on an obstacle boundary");
            }
        }
    }

    #[test]
    fn scattered_points_are_free_and_in_bounds(n in 1usize..60, seed in 0u64..500) {
        let field = obstacle_field(&[(300.0, 300.0, 200.0, 200.0)]);
        let mut rng = SmallRng::seed_from_u64(seed);
        let pts = scatter_uniform(&field, n, &mut rng);
        prop_assert_eq!(pts.len(), n);
        for p in &pts {
            prop_assert!(field.is_free(*p));
            prop_assert!(field.in_bounds(*p));
        }
    }

    #[test]
    fn clustered_points_respect_sub_area(seed in 0u64..500) {
        let field = Field::open(1000.0, 1000.0);
        let sub = Rect::new(100.0, 200.0, 400.0, 500.0);
        let mut rng = SmallRng::seed_from_u64(seed);
        let pts = scatter_clustered(&field, sub, 20, &mut rng);
        for p in &pts {
            prop_assert!(sub.contains(*p));
        }
    }

    #[test]
    fn incremental_tracker_equals_full_rasterization_oracle(
        starts in prop::collection::vec((0.0..600.0f64, 0.0..600.0f64), 1..20),
        // moves may land outside the field (sensors leaving and
        // re-entering): the tracker must clip exactly like the oracle
        moves in prop::collection::vec(
            (0usize..20, -150.0..750.0f64, -150.0..750.0f64, prop::bool::ANY),
            1..60,
        ),
        rs in 15.0..90.0f64,
    ) {
        let field = obstacle_field(&[(150.0, 150.0, 180.0, 120.0), (400.0, 50.0, 90.0, 300.0)]);
        let grid = CoverageGrid::new(&field, 10.0);
        let mut sensors: Vec<Point> =
            starts.iter().map(|&(x, y)| Point::new(x, y)).collect();
        let mut tracker = CoverageTracker::new(grid.clone(), &sensors, rs);
        prop_assert_eq!(tracker.coverage(), grid.coverage(&sensors, rs));
        for &(i, x, y, query) in &moves {
            let i = i % sensors.len();
            sensors[i] = Point::new(x, y);
            tracker.set_sensor(i, sensors[i]);
            // querying only sometimes exercises both sync paths:
            // incremental re-stamps and whole-fleet rebuilds
            if query {
                let oracle_mask = grid.covered_mask(&sensors, rs);
                let oracle_count = oracle_mask.iter().filter(|&&c| c).count();
                prop_assert_eq!(tracker.covered_cells(), oracle_count);
                prop_assert_eq!(tracker.coverage(), grid.coverage(&sensors, rs));
            }
        }
        let oracle = grid.coverage(&sensors, rs);
        prop_assert_eq!(tracker.coverage(), oracle, "final positions diverged from oracle");
    }

    #[test]
    fn coverage_tracker_stays_oracle_exact_under_churn_and_obstacle_mutation(
        starts in prop::collection::vec((0.0..600.0f64, 0.0..600.0f64), 1..16),
        rounds in prop::collection::vec(
            (
                prop::collection::vec(
                    (0u8..3, 0usize..16, -150.0..750.0f64, -150.0..750.0f64),
                    1..6,
                ),
                0u8..4,
            ),
            1..10,
        ),
        rs in 15.0..90.0f64,
    ) {
        // The dynamic-world tier: sensor failure is a teleport to the
        // far off-field parking lot (World::remove_sensor), revival a
        // teleport back, and a field rebuilt with an edited obstacle
        // list re-rasterizes the grid and re-tracks the fleet.
        // Coverage must stay bit-identical to the full rasterization
        // oracle after every round. Per round, op kind 0 moves a
        // sensor, 1 parks it, 2 revives it; the round tag 2 adds an
        // obstacle, 3 removes the newest one.
        let mut rects = vec![(150.0, 150.0, 180.0, 120.0)];
        let mut field = obstacle_field(&rects);
        let mut sensors: Vec<Point> =
            starts.iter().map(|&(x, y)| Point::new(x, y)).collect();
        let mut grid = CoverageGrid::new(&field, 10.0);
        let mut tracker = CoverageTracker::new(grid.clone(), &sensors, rs);
        let mut added = 0usize;
        for (ops, mutate) in rounds {
            for (op, i, x, y) in ops {
                let i = i % sensors.len();
                sensors[i] = match op {
                    1 => Point::new(-1.0e7 - i as f64 * 360.0, -1.0e7),
                    _ => Point::new(x, y),
                };
                tracker.set_sensor(i, sensors[i]);
            }
            let edited = match mutate {
                2 => {
                    let x = 400.0 + added as f64 * 5.0;
                    rects.push((x, 50.0, 490.0 - x, 300.0));
                    added += 1;
                    true
                }
                3 => rects.pop().is_some(),
                _ => false,
            };
            if edited {
                field = obstacle_field(&rects);
                grid = CoverageGrid::new(&field, 10.0);
                tracker = CoverageTracker::new(grid.clone(), &sensors, rs);
            }
            let oracle_mask = grid.covered_mask(&sensors, rs);
            let oracle_count = oracle_mask.iter().filter(|&&c| c).count();
            prop_assert_eq!(tracker.covered_cells(), oracle_count);
            prop_assert_eq!(tracker.coverage(), grid.coverage(&sensors, rs));
        }
    }

    #[test]
    fn random_obstacle_fields_never_partition(seed in 0u64..200) {
        let params = RandomObstacleParams::default();
        let mut rng = SmallRng::seed_from_u64(seed);
        let field = random_obstacle_field(&params, &mut rng);
        prop_assert!(free_space_connected(&field, params.connectivity_cell));
        prop_assert!(field.is_free(Point::new(1.0, 1.0)), "base corner stays free");
    }
}
