//! Property-based tests for the simulation world.

use msn_field::{CoverageGrid, Field};
use msn_geom::{Point, Rect};
use msn_net::SpatialGrid;
use msn_sim::{SimConfig, World};
use proptest::prelude::*;

/// Rounds of world mutations: each op is `(kind, sensor, x, y)` where
/// kinds 0–2 move a sensor to `(x, y)` in the drawn 300 m square and
/// kind 3 teleports it to its parking slot, out of everyone's radio
/// range.
fn rounds_strategy() -> impl Strategy<Value = Vec<Vec<(u8, usize, f64, f64)>>> {
    prop::collection::vec(
        prop::collection::vec((0u8..4, 0usize..40, 0.0..300.0f64, 0.0..300.0f64), 1..6),
        1..12,
    )
}

proptest! {
    #[test]
    fn tracked_connectivity_follows_moves_and_failures(
        pts in prop::collection::vec((0.0..300.0f64, 0.0..300.0f64), 1..40),
        rounds in rounds_strategy(),
        rc in 15.0..80.0f64,
        r in 5.0..120.0f64,
        (bx, by) in (0.0..300.0f64, 0.0..300.0f64),
    ) {
        // The tracked mask is a flood cached between changes; every
        // kind of change (move, teleport to a parking slot) must drop
        // the cache, so after each round it equals a fresh build +
        // flood from the drawn base. The range queries answer from the
        // one index the adjacency owns. The field extends east of the
        // drawn square by one slot per sensor, 2·rc apart, so a parked
        // sensor is out of range of the square and of the other slots.
        let positions: Vec<Point> = pts.into_iter().map(|(x, y)| Point::new(x, y)).collect();
        let park = |i: usize| Point::new(300.0 + 2.0 * rc * (i + 1) as f64, 0.0);
        let field = Field::open(300.0 + 2.0 * rc * (positions.len() + 1) as f64, 300.0);
        let cfg = SimConfig::paper(rc, 10.0)
            .with_duration(10.0)
            .with_base(Point::new(bx, by))
            .with_coverage_cell(50.0);
        let mut w = World::new(field, cfg, positions, None);
        let mut parked = vec![false; w.n()];
        for round in rounds {
            for (op, i, x, y) in round {
                let i = i % w.n();
                parked[i] = op == 3;
                match op {
                    3 => w.teleport(i, park(i)),
                    _ => w.set_pos(i, Point::new(x, y)),
                }
            }
            let oracle = w.connected_mask();
            for (i, &c) in oracle.iter().enumerate() {
                prop_assert_eq!(w.connected_tracked(i), c, "sensor {}", i);
            }
            prop_assert_eq!(w.all_connected_tracked(), oracle.iter().all(|&c| c));
            let pts = w.positions().to_vec();
            let grid = SpatialGrid::build(&pts, rc.max(1.0));
            let mut nbrs = Vec::new();
            for i in 0..w.n() {
                w.neighbors_tracked_into(i, r, &mut nbrs);
                prop_assert_eq!(&nbrs, &grid.neighbors(&pts, i, r));
                if parked[i] {
                    prop_assert!(!w.connected_tracked(i), "parked sensor {} reached the base", i);
                    w.neighbors_tracked_into(i, rc, &mut nbrs);
                    prop_assert!(nbrs.is_empty(), "parked sensor {} kept a link", i);
                }
            }
        }
    }

    #[test]
    fn world_coverage_stays_oracle_exact_under_churn_and_obstacle_mutation(
        starts in prop::collection::vec((0.0..600.0f64, 0.0..600.0f64), 1..16),
        rounds in prop::collection::vec(
            (
                prop::collection::vec(
                    (0u8..3, 0usize..16, 0.0..750.0f64, 0.0..750.0f64),
                    1..6,
                ),
                0u8..4,
            ),
            1..10,
        ),
        rs in 15.0..90.0f64,
    ) {
        // Teleports to a parking slot and back, and a field rebuilt
        // with an edited obstacle list re-rasterizes into a fresh
        // world. `World::coverage` must stay bit-identical to the
        // oracle mask's count after every round. Per round, op kind 0
        // moves a sensor, 1 parks it in its slot east of the drawn
        // square (one per sensor, rc = 90 m from the square and from
        // each other), 2 teleports it to (x, y); the round tag 2 adds
        // an obstacle, 3 removes the newest one.
        let field_of = |rects: &[(f64, f64, f64, f64)]| {
            Field::with_obstacles(
                1000.0,
                1000.0,
                rects
                    .iter()
                    .map(|&(x, y, w, h)| Rect::new(x, y, x + w, y + h).to_polygon())
                    .collect(),
            )
        };
        let park = |i: usize| Point::new(850.0 + 100.0 * (i % 2) as f64, 100.0 * (i / 2) as f64);
        let cfg = SimConfig::paper(90.0, rs).with_duration(10.0).with_coverage_cell(10.0);
        let mut rects = vec![(150.0, 150.0, 180.0, 120.0)];
        let mut field = field_of(&rects);
        let positions: Vec<Point> = starts.iter().map(|&(x, y)| Point::new(x, y)).collect();
        let mut w = World::new(field.clone(), cfg.clone(), positions, None);
        let mut added = 0usize;
        for (ops, mutate) in rounds {
            for (op, i, x, y) in ops {
                let i = i % w.n();
                match op {
                    0 => w.set_pos(i, Point::new(x, y)),
                    1 => w.teleport(i, park(i)),
                    _ => w.teleport(i, Point::new(x, y)),
                }
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
                field = field_of(&rects);
                w = World::new(field.clone(), cfg.clone(), w.positions().to_vec(), None);
            }
            let grid = CoverageGrid::new(&field, 10.0);
            let mask = grid.covered_mask(w.positions(), rs);
            let oracle = mask.iter().filter(|&&c| c).count() as f64 / grid.free_cells() as f64;
            prop_assert_eq!(w.coverage().to_bits(), oracle.to_bits());
        }
    }
}
