//! Property-based tests for the simulation world.

use msn_field::Field;
use msn_geom::Point;
use msn_net::SpatialGrid;
use msn_sim::{SimConfig, World};
use proptest::prelude::*;

/// Rounds of world mutations: each op is `(kind, sensor, x, y)` where
/// kinds 0–2 move a live sensor to `(x, y)` and kind 3 kills it
/// (`remove_sensor`).
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
        order_cell in 1.0..60.0f64,
        (bx, by) in (0.0..300.0f64, 0.0..300.0f64),
    ) {
        // The tracked mask is a flood cached between changes; every
        // kind of change (move, death) must drop the cache, so after
        // each round it equals a fresh build + flood from the drawn
        // base. The range queries answer from the one index the
        // adjacency owns.
        let positions: Vec<Point> = pts.into_iter().map(|(x, y)| Point::new(x, y)).collect();
        let cfg = SimConfig::paper(rc, 10.0)
            .with_duration(10.0)
            .with_base(Point::new(bx, by));
        let mut w = World::new(Field::open(300.0, 300.0), cfg, positions, None);
        prop_assert_eq!(w.connected_mask_tracked(), w.connected_mask());
        for round in rounds {
            for (op, i, x, y) in round {
                let i = i % w.n();
                let p = Point::new(x, y);
                if !w.alive(i) {
                    continue;
                }
                match op {
                    3 => w.remove_sensor(i),
                    _ => w.set_pos(i, p),
                }
            }
            let oracle = w.connected_mask();
            prop_assert_eq!(w.connected_mask_tracked(), oracle.clone());
            for (i, &c) in oracle.iter().enumerate() {
                prop_assert_eq!(w.connected_tracked(i), c, "sensor {}", i);
            }
            prop_assert_eq!(w.all_connected_tracked(), oracle.iter().all(|&c| c));
            let pts = w.positions().to_vec();
            let grid = SpatialGrid::build(&pts, rc.max(1.0));
            let order_grid = SpatialGrid::build(&pts, order_cell);
            for i in 0..w.n() {
                prop_assert_eq!(w.neighbors_tracked(i, r), grid.neighbors(&pts, i, r));
                prop_assert_eq!(
                    w.neighbors_tracked_grid_order(i, r, order_cell),
                    order_grid.neighbors(&pts, i, r)
                );
            }
        }
    }
}
