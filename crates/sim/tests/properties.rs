//! Property-based tests for the simulation world.

use msn_field::{CoverageGrid, Field};
use msn_geom::{Point, Rect};
use msn_net::SpatialGrid;
use msn_sim::{SimConfig, World};
use proptest::prelude::*;

/// Rounds of world mutations: each op is `(kind, sensor, x, y)` where
/// kinds 0–2 move a sensor to `(x, y)` and kind 3 teleports it to a
/// point far off the field, out of everyone's radio range.
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
        // kind of change (move, far-off teleport) must drop the cache,
        // so after each round it equals a fresh build + flood from the
        // drawn base. The range queries answer from the one index the
        // adjacency owns.
        let positions: Vec<Point> = pts.into_iter().map(|(x, y)| Point::new(x, y)).collect();
        let cfg = SimConfig::paper(rc, 10.0)
            .with_duration(10.0)
            .with_base(Point::new(bx, by));
        let mut w = World::new(Field::open(300.0, 300.0), cfg, positions, None);
        for round in rounds {
            for (op, i, x, y) in round {
                let i = i % w.n();
                match op {
                    3 => w.teleport(i, Point::new(-1.0e7 - i as f64 * 4.0 * rc, -1.0e7)),
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
            }
        }
    }

    #[test]
    fn world_coverage_stays_oracle_exact_under_churn_and_obstacle_mutation(
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
        // Far-off-field teleports and back, and a field rebuilt with
        // an edited obstacle list re-rasterizes into a fresh world. `World::coverage` must stay
        // bit-identical to the oracle mask's count after every round.
        // Per round, op kind 0 moves a sensor, 1 sends it far off the
        // field, 2 teleports it to (x, y); the round tag 2 adds an obstacle, 3 removes the newest
        // one.
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
                    1 => w.teleport(i, Point::new(-1.0e7 - i as f64 * 360.0, -1.0e7)),
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
