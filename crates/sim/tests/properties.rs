//! Property-based tests for the simulation world.

use msn_field::Field;
use msn_geom::Point;
use msn_net::SpatialGrid;
use msn_sim::{SimConfig, World};
use proptest::prelude::*;

/// Rounds of world mutations: each op is `(kind, sensor, x, y)` where
/// kind 0 moves a live sensor to `(x, y)`, kind 1 flips its liveness
/// (`remove_sensor` if alive, `insert_sensor` at `(x, y)` if dead) and
/// kind 2 moves the base station to `(x, y)`.
fn rounds_strategy() -> impl Strategy<Value = Vec<Vec<(u8, usize, f64, f64)>>> {
    prop::collection::vec(
        prop::collection::vec((0u8..3, 0usize..40, 0.0..300.0f64, 0.0..300.0f64), 1..6),
        1..12,
    )
}

proptest! {
    #[test]
    fn tracked_connectivity_follows_moves_churn_and_base_moves(
        pts in prop::collection::vec((0.0..300.0f64, 0.0..300.0f64), 1..40),
        rounds in rounds_strategy(),
        rc in 15.0..80.0f64,
        points_first in prop::bool::ANY,
        r in 5.0..120.0f64,
        order_cell in 1.0..60.0f64,
    ) {
        // The tracked mask is a flood cached between changes; every
        // kind of change (move, death, revival, base relocation) must
        // drop the cache, so after each round it equals a fresh
        // build + flood. The range queries answer from the one index
        // the adjacency owns, whether `track_points` installed it
        // first or `track_adjacency` built it.
        let positions: Vec<Point> = pts.into_iter().map(|(x, y)| Point::new(x, y)).collect();
        let cfg = SimConfig::paper(rc, 10.0).with_duration(10.0);
        let mut w = World::new(Field::open(300.0, 300.0), cfg, positions);
        if points_first {
            w.track_points();
        }
        w.track_adjacency();
        prop_assert_eq!(w.connected_mask_tracked(), w.connected_mask());
        for round in rounds {
            for (op, i, x, y) in round {
                let i = i % w.n();
                let p = Point::new(x, y);
                match op {
                    0 if w.alive(i) => w.set_pos(i, p),
                    0 => {}
                    1 if w.alive(i) => w.remove_sensor(i),
                    1 => w.insert_sensor(i, p),
                    _ => w.set_base(p),
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
