//! Property-based tests for the network substrate.

use msn_geom::{Point, Rect};
use msn_net::{
    random_walk, AdjacencyTracker, DiskGraph, Neighbors, Parent, SpatialGrid, Tree, RANGE_EPS,
};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Side of the square `[0, SIDE]²` every point strategy draws from.
const SIDE: f64 = 500.0;

/// The drawn square: the tracked extent of every tracker that never
/// parks a sensor.
fn domain() -> Rect {
    Rect::new(0.0, 0.0, SIDE, SIDE)
}

/// Sensor `i`'s reserved parking slot: east of the drawn square on its
/// bottom edge, 2·rc apart, so a parked sensor is out of range of every
/// drawn point and of every other parked sensor.
fn park(i: usize, rc: f64) -> Point {
    Point::new(SIDE + 2.0 * rc * (i + 1) as f64, 0.0)
}

/// A tracked extent holding the drawn square and the parking slots of
/// `n` sensors at range `rc`.
fn with_parking(rc: f64, n: usize) -> Rect {
    Rect::new(0.0, 0.0, SIDE + 2.0 * rc * (n + 1) as f64, SIDE)
}

fn pts_sized(count: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Point>> {
    prop::collection::vec((0.0..SIDE, 0.0..SIDE), count)
        .prop_map(|v| v.into_iter().map(|(x, y)| Point::new(x, y)).collect())
}

/// `AdjacencyTracker::neighbors_within_into` into a fresh vector.
fn neighbors_within(tracker: &mut AdjacencyTracker, i: usize, r: f64) -> Vec<usize> {
    let mut out = Vec::new();
    tracker.neighbors_within_into(i, r, &mut out);
    out
}

fn pts_strategy() -> impl Strategy<Value = Vec<Point>> {
    pts_sized(1..60)
}

/// Fleet-size-parameterized point sets: the incremental kernels must
/// hold their oracle bit-identity at paper scale *and* at larger
/// fleets. Large fleets are sampled more sparingly to keep the suite
/// fast; the `scale_tier_*` tests below cover 10k deterministically.
fn pts_fleet_strategy() -> impl Strategy<Value = Vec<Point>> {
    prop_oneof![
        4 => pts_sized(1..60),
        1 => pts_sized(120..200),
    ]
}

/// A move sequence: which sensor goes where, batched into query
/// rounds (several moves may land between two tracker queries).
fn moves_strategy() -> impl Strategy<Value = Vec<Vec<(usize, f64, f64)>>> {
    prop::collection::vec(
        prop::collection::vec((0usize..60, 0.0..500.0f64, 0.0..500.0f64), 1..8),
        1..12,
    )
}

/// Churn rounds: each op is `(kind, sensor, x, y)` where kind 0
/// moves the sensor within the drawn square, kind 1 parks it in its
/// reserved slot and kind 2 teleports it from wherever it is (parked
/// included) to `(x, y)`.
fn churn_strategy() -> impl Strategy<Value = Vec<Vec<(u8, usize, f64, f64)>>> {
    prop::collection::vec(
        prop::collection::vec((0u8..3, 0usize..60, 0.0..500.0f64, 0.0..500.0f64), 1..8),
        1..10,
    )
}

/// One batch of interleaving ops `(kind, sensor, x, y)`: kind 0 moves
/// the sensor to `(x, y)`, kind 1 parks it in its reserved slot, kind
/// 2 moves it to `(x, y)` and straight back.
type Ops = Vec<(u8, usize, f64, f64)>;

/// Interleaving rounds: two batches of ops around a query.
fn interleave_strategy() -> impl Strategy<Value = Vec<(Ops, Ops)>> {
    let ops = || prop::collection::vec((0u8..3, 0usize..200, 0.0..500.0f64, 0.0..500.0f64), 1..8);
    prop::collection::vec((ops(), ops()), 1..10)
}

/// Applies one batch of interleaving ops to `pts` and the tracker.
fn apply_ops(
    ops: &[(u8, usize, f64, f64)],
    rc: f64,
    pts: &mut [Point],
    tracker: &mut AdjacencyTracker,
) {
    for &(op, i, x, y) in ops {
        let i = i % pts.len();
        let p = match op {
            0 => Point::new(x, y),
            1 => park(i, rc),
            _ => {
                tracker.set_sensor(i, Point::new(x, y));
                pts[i]
            }
        };
        pts[i] = p;
        tracker.set_sensor(i, p);
    }
}

/// Range queries (which sync only the buckets) at `rc` and at `r`
/// against a fresh `SpatialGrid::build`, order included.
fn assert_ranges_match_oracle(pts: &[Point], rc: f64, r: f64, tracker: &mut AdjacencyTracker) {
    let grid = SpatialGrid::build(pts, rc.max(1.0));
    for q in 0..pts.len() {
        for radius in [rc, r] {
            assert_eq!(
                neighbors_within(tracker, q, radius),
                grid.neighbors(pts, q, radius),
                "range {q} r {radius}"
            );
        }
    }
}

/// List, hop and base-flood queries (which sync the lists) against a
/// fresh `DiskGraph::build`, order included.
fn assert_lists_match_oracle(pts: &[Point], base: Point, rc: f64, tracker: &mut AdjacencyTracker) {
    let g = DiskGraph::build(pts, rc);
    for q in 0..pts.len() {
        assert_eq!(tracker.neighbors(q), g.neighbors(q), "list {q}");
    }
    for (b, &h) in g.hop_distances(0).iter().enumerate() {
        assert_eq!(
            tracker.hop_distance(0, b),
            (h != usize::MAX).then_some(h),
            "hops 0 -> {b}"
        );
    }
    assert_flood_matches_oracle(pts, base, rc, tracker);
}

/// The base flood over the maintained adjacency must agree with the
/// build + flood oracle bit for bit after every query round.
fn assert_flood_matches_oracle(pts: &[Point], base: Point, rc: f64, adj: &mut AdjacencyTracker) {
    adj.sync();
    assert_eq!(adj.points(), pts);
    let g = DiskGraph::build(pts, rc);
    assert_eq!(
        adj.flood_from_base(adj.points(), base, rc),
        g.flood_from_base(pts, base, rc)
    );
}

proptest! {
    #[test]
    fn disk_graph_edges_are_symmetric_and_within_rc(pts in pts_strategy(), rc in 10.0..200.0f64) {
        let g = DiskGraph::build(&pts, rc);
        for i in 0..pts.len() {
            for &j in g.neighbors(i) {
                prop_assert!(pts[i].dist(pts[j]) <= rc + 1e-6);
                prop_assert!(g.neighbors(j).contains(&i), "edge {i}-{j} must be symmetric");
            }
        }
    }

    #[test]
    fn spatial_grid_matches_brute_force(pts in pts_strategy(), r in 5.0..150.0f64) {
        let grid = SpatialGrid::build(&pts, r.max(1.0));
        let center = Point::new(250.0, 250.0);
        let mut fast = grid.within(&pts, center, r);
        fast.sort_unstable();
        let mut slow: Vec<usize> = (0..pts.len())
            .filter(|&i| pts[i].dist(center) <= r + 1e-9)
            .collect();
        slow.sort_unstable();
        prop_assert_eq!(fast, slow);
    }

    #[test]
    fn flood_reaches_exactly_base_component(pts in pts_strategy(), rc in 20.0..200.0f64) {
        let g = DiskGraph::build(&pts, rc);
        let base = Point::new(0.0, 0.0);
        let mask = g.flood_from_base(&pts, base, rc);
        // flooded nodes form a closed set: no edge from flooded to
        // unflooded, and unflooded nodes are not adjacent to the base
        for i in 0..pts.len() {
            if mask[i] {
                continue;
            }
            prop_assert!(pts[i].dist(base) > rc, "unflooded node adjacent to base");
            for &j in g.neighbors(i) {
                prop_assert!(!mask[j], "edge crosses the flood boundary");
            }
        }
    }

    #[test]
    fn random_walks_stay_on_edges(pts in pts_strategy(), rc in 30.0..200.0f64, seed in 0u64..100) {
        let g = DiskGraph::build(&pts, rc);
        let mut rng = SmallRng::seed_from_u64(seed);
        let walk = random_walk(&g, 0, 30, &mut rng);
        let mut prev = 0;
        for &v in &walk {
            prop_assert!(g.neighbors(prev).contains(&v));
            prev = v;
        }
    }

    #[test]
    fn point_index_matches_grid_oracle_in_order(
        pts in pts_fleet_strategy(),
        moves in moves_strategy(),
        rc in 5.0..150.0f64,
        r in 5.0..150.0f64,
    ) {
        // Bit-identity with SpatialGrid::build at the buckets' cell
        // rc.max(1.0) — the same indices in the same order, after
        // every batch of moves (negative coordinates included: the
        // moves below shift the square down-left, so the window's
        // first cell is negative), at radii below and beyond rc.
        let mut pts = pts;
        let extent = Rect::new(-100.0, -100.0, SIDE, SIDE);
        let mut tracker = AdjacencyTracker::new(&pts, rc, extent);
        for round in moves {
            for (i, x, y) in round {
                let i = i % pts.len();
                pts[i] = Point::new(x - 100.0, y - 100.0);
                tracker.set_sensor(i, pts[i]);
            }
            let grid = SpatialGrid::build(&pts, rc.max(1.0));
            for q in 0..pts.len() {
                prop_assert_eq!(
                    neighbors_within(&mut tracker, q, r),
                    grid.neighbors(&pts, q, r),
                    "point {} radius {} rc {}", q, r, rc
                );
            }
        }
    }

    #[test]
    fn dense_window_and_overflow_stay_oracle_exact(
        pts in pts_fleet_strategy(),
        (ex, ey, ew, eh) in (-100.0..=0.0f64, -100.0..=0.0f64, 0.0..300.0f64, 0.0..300.0f64),
        batches in prop::collection::vec(
            (
                1usize..100,
                prop::collection::vec((0u8..3, 0usize..200, 0.0..SIDE, 0.0..SIDE), 100),
                0u8..2,
            ),
            1..6,
        ),
        rc in 20.0..200.0f64,
        r in 5.0..150.0f64,
    ) {
        // Dense cells over a drawn extent that holds the square with
        // margins ("overflow" in the name is the margin: the window's
        // first cell lies anywhere from the origin's to a few cells
        // below it). Batches of up to n/2 - 1
        // movers keep the lists on the repair path over dense graphs:
        // jitters of a few metres (kept in the square), jumps anywhere
        // in it and jumps straight back. Every range answer and every
        // list equals its fresh oracle, order included, whichever
        // level syncs first.
        let extent = Rect::new(ex, ey, SIDE + ew, SIDE + eh);
        let mut pts = pts;
        let n = pts.len();
        let mut tracker = AdjacencyTracker::new(&pts, rc, extent);
        let mut buf = vec![usize::MAX; 7];
        for (count, ops, lists_first) in batches {
            for &(op, i, x, y) in &ops[..count.min((n / 2).saturating_sub(1).max(1))] {
                let i = i % n;
                let p = match op {
                    0 => Point::new(
                        (pts[i].x + (x - 250.0) / 100.0).clamp(0.0, SIDE),
                        (pts[i].y + (y - 250.0) / 100.0).clamp(0.0, SIDE),
                    ),
                    1 => Point::new(x, y),
                    _ => {
                        tracker.set_sensor(i, Point::new(x, y));
                        pts[i]
                    }
                };
                pts[i] = p;
                tracker.set_sensor(i, p);
            }
            let g = DiskGraph::build(&pts, rc);
            if lists_first == 1 {
                for q in 0..n {
                    prop_assert_eq!(tracker.neighbors(q), g.neighbors(q), "list {}", q);
                }
            }
            let grid = SpatialGrid::build(&pts, rc.max(1.0));
            for q in 0..n {
                tracker.neighbors_within_into(q, r, &mut buf);
                prop_assert_eq!(&buf, &grid.neighbors(&pts, q, r), "range {} r {}", q, r);
            }
            for q in 0..n {
                prop_assert_eq!(tracker.neighbors(q), g.neighbors(q), "list {}", q);
            }
        }
    }

    #[test]
    fn point_index_cell_boundaries_and_epsilon_pairs(
        cell in 2.0..40.0f64,
        eps_idx in 0usize..7,
    ) {
        // Points parked exactly on cell boundaries, and pairs sitting
        // inside/outside the RANGE_EPS slack window: tracker and fresh
        // grid must agree on both membership and order.
        let eps_mult = [-3.0f64, -1.0, -0.5, 0.0, 0.5, 1.0, 3.0][eps_idx];
        let r = 2.0 * cell; // radius past the cell size stays exact
        let mut pts = vec![
            Point::new(0.0, 0.0),
            Point::new(cell, 0.0),           // exactly on a boundary
            Point::new(2.0 * cell, cell),    // corner of a cell
            Point::new(r + eps_mult * RANGE_EPS, 0.0), // slack window
        ];
        let extent = Rect::new(-4.0 * cell, -2.0 * cell, 4.0 * cell, 2.0 * cell);
        let mut tracker = AdjacencyTracker::new(&pts, cell, extent);
        let check = |tracker: &mut AdjacencyTracker, pts: &[Point]| {
            let grid = SpatialGrid::build(pts, cell);
            for q in 0..pts.len() {
                assert_eq!(neighbors_within(tracker, q, r), grid.neighbors(pts, q, r));
            }
        };
        check(&mut tracker, &pts);
        // walk the slack-window point across the boundary by a hair
        pts[3] = Point::new(r + (eps_mult + 0.5) * RANGE_EPS, 0.0);
        tracker.set_sensor(3, pts[3]);
        check(&mut tracker, &pts);
        // and park a mover exactly on a far cell boundary
        pts[0] = Point::new(-3.0 * cell, -cell);
        tracker.set_sensor(0, pts[0]);
        check(&mut tracker, &pts);
    }

    #[test]
    fn connectivity_tracker_matches_flood_oracle(
        pts in pts_fleet_strategy(),
        moves in moves_strategy(),
        rc in 10.0..200.0f64,
        base in (0.0..500.0f64, 0.0..500.0f64),
    ) {
        // Base connectivity answered by flooding the maintained
        // adjacency, against a fresh build + flood, after every round.
        let base = Point::new(base.0, base.1);
        let mut pts = pts;
        let mut adj = AdjacencyTracker::new(&pts, rc, domain());
        assert_flood_matches_oracle(&pts, base, rc, &mut adj);
        for round in moves {
            for (i, x, y) in round {
                let i = i % pts.len();
                pts[i] = Point::new(x, y);
                adj.set_sensor(i, pts[i]);
            }
            assert_flood_matches_oracle(&pts, base, rc, &mut adj);
        }
    }

    #[test]
    fn connectivity_tracker_base_range_walks(
        seed in 0u64..200,
        rc in 10.0..60.0f64,
    ) {
        // Sensors shuttling across the base's range boundary: the hop-1
        // seed set churns on every round.
        use rand::Rng;
        let base = Point::new(250.0, 250.0);
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut pts: Vec<Point> = (0..20)
            .map(|_| Point::new(rng.gen_range(200.0..300.0), rng.gen_range(200.0..300.0)))
            .collect();
        let mut adj = AdjacencyTracker::new(&pts, rc, domain());
        for _ in 0..8 {
            for _ in 0..3 {
                let i = rng.gen_range(0..pts.len());
                // jitter around the base-range circle
                let ang = rng.gen_range(0.0..std::f64::consts::TAU);
                let r = rc + rng.gen_range(-5.0..5.0);
                pts[i] = base + Point::from_angle(ang) * r;
                adj.set_sensor(i, pts[i]);
            }
            assert_flood_matches_oracle(&pts, base, rc, &mut adj);
        }
    }

    #[test]
    fn connectivity_tracker_epsilon_boundaries(eps_idx in 0usize..7) {
        let eps_mult = [-3.0f64, -1.0, -0.5, 0.0, 0.5, 1.0, 3.0][eps_idx];
        // Links sitting inside/outside the RANGE_EPS slack window (the
        // PR 3 base-link-vs-edge boundary): tracker and oracle must
        // flip together, for base links and sensor-sensor edges alike.
        let rc = 10.0;
        let base = Point::ORIGIN;
        let spacing = rc + eps_mult * RANGE_EPS;
        let mut pts = vec![Point::new(spacing, 0.0), Point::new(2.0 * spacing, 0.0)];
        let mut adj = AdjacencyTracker::new(&pts, rc, domain());
        assert_flood_matches_oracle(&pts, base, rc, &mut adj);
        // sensor 1 re-crosses the edge boundary by a hair
        pts[1] = Point::new(spacing + rc + 0.5 * RANGE_EPS, 0.0);
        adj.set_sensor(1, pts[1]);
        assert_flood_matches_oracle(&pts, base, rc, &mut adj);
        pts[1] = Point::new(spacing + rc + 3.0 * RANGE_EPS, 0.0);
        adj.set_sensor(1, pts[1]);
        assert_flood_matches_oracle(&pts, base, rc, &mut adj);
        // and sensor 0 leaves the base's slack window
        pts[0] = Point::new(rc + 3.0 * RANGE_EPS, 0.0);
        adj.set_sensor(0, pts[0]);
        assert_flood_matches_oracle(&pts, base, rc, &mut adj);
    }

    #[test]
    fn adjacency_tracker_matches_graph_builds_in_order(
        pts in pts_fleet_strategy(),
        moves in moves_strategy(),
        rc in 10.0..200.0f64,
    ) {
        // Every neighbor list must equal a fresh DiskGraph::build —
        // the same indices in the same (grid scan) order, because
        // random walks draw picks from the lists — after every batch
        // of moves (hop counts: early_exit_hop_count_matches_full_bfs).
        let mut pts = pts;
        let mut tracker = AdjacencyTracker::new(&pts, rc, domain());
        for round in moves {
            for (i, x, y) in round {
                let i = i % pts.len();
                pts[i] = Point::new(x, y);
                tracker.set_sensor(i, pts[i]);
            }
            let g = DiskGraph::build(&pts, rc);
            for q in 0..pts.len() {
                prop_assert_eq!(tracker.neighbors(q), g.neighbors(q), "list {} rc {}", q, rc);
            }
        }
    }

    #[test]
    fn early_exit_hop_count_matches_full_bfs(
        pts in pts_fleet_strategy(),
        moves in moves_strategy(),
        rc in 10.0..200.0f64,
        sources in prop::collection::vec(0usize..200, 1..8),
    ) {
        // FLOOR charges accept/reject messages the hop count between
        // two sensors; the early-exit search must give exactly the
        // full BFS entry (None where the oracle says unreachable) to
        // every target after every batch of moves, with its stamped
        // scratch reused across queries.
        let mut pts = pts;
        let mut tracker = AdjacencyTracker::new(&pts, rc, domain());
        for round in moves {
            for (i, x, y) in round {
                let i = i % pts.len();
                pts[i] = Point::new(x, y);
                tracker.set_sensor(i, pts[i]);
            }
            let g = DiskGraph::build(&pts, rc);
            for &a in &sources {
                let a = a % pts.len();
                for (b, &h) in g.hop_distances(a).iter().enumerate() {
                    let want = (h != usize::MAX).then_some(h);
                    prop_assert_eq!(tracker.hop_distance(a, b), want, "hops {} -> {} rc {}", a, b, rc);
                }
            }
        }
    }

    #[test]
    fn trackers_stay_oracle_exact_under_removal_and_insertion_churn(
        pts in pts_fleet_strategy(),
        churn in churn_strategy(),
        rc in 10.0..200.0f64,
    ) {
        // A sensor parked in its reserved slot, out of everyone's
        // radio range, must leave the buckets, the adjacency and the
        // base flood over it bit-identical to their batch oracles
        // across interleaved moves, parkings and teleports back — and
        // be invisible: disconnected from the base with an empty
        // adjacency list.
        let base = Point::new(250.0, 250.0);
        let mut pts = pts;
        let mut parked = vec![false; pts.len()];
        let mut adj = AdjacencyTracker::new(&pts, rc, with_parking(rc, pts.len()));
        for round in churn {
            for (op, i, x, y) in round {
                let i = i % pts.len();
                let p = if op == 1 {
                    parked[i] = true;
                    park(i, rc)
                } else {
                    parked[i] = false;
                    Point::new(x, y)
                };
                pts[i] = p;
                adj.set_sensor(i, p);
            }
            assert_flood_matches_oracle(&pts, base, rc, &mut adj);
            let grid = SpatialGrid::build(&pts, rc);
            let g = DiskGraph::build(&pts, rc);
            for q in 0..pts.len() {
                prop_assert_eq!(
                    neighbors_within(&mut adj, q, rc),
                    grid.neighbors(&pts, q, rc),
                    "buckets {} rc {}", q, rc
                );
                prop_assert_eq!(adj.neighbors(q), g.neighbors(q), "adjacency {}", q);
            }
            let connected = adj.flood_from_base(adj.points(), base, rc);
            for (i, &dead) in parked.iter().enumerate() {
                if dead {
                    prop_assert!(!connected[i], "parked sensor {} reached the base", i);
                    prop_assert!(adj.neighbors(i).is_empty(), "parked sensor {} kept a link", i);
                }
            }
        }
    }

    #[test]
    fn adjacency_tracker_walks_consume_identical_rng_stream(
        pts in pts_strategy(),
        moves in moves_strategy(),
        rc in 10.0..200.0f64,
        seed in 0u64..100,
    ) {
        // The exact consumer contract: a TTL random walk on the
        // tracker visits the same nodes AND leaves the RNG in the
        // same state as one on a fresh graph build.
        use rand::Rng;
        let mut pts = pts;
        let mut tracker = AdjacencyTracker::new(&pts, rc, domain());
        for round in moves {
            for (i, x, y) in round {
                let i = i % pts.len();
                pts[i] = Point::new(x, y);
                tracker.set_sensor(i, pts[i]);
            }
            tracker.sync();
            let g = DiskGraph::build(&pts, rc);
            let mut rng_a = SmallRng::seed_from_u64(seed);
            let mut rng_b = SmallRng::seed_from_u64(seed);
            prop_assert_eq!(
                random_walk(&tracker, 0, 25, &mut rng_a),
                random_walk(&g, 0, 25, &mut rng_b)
            );
            prop_assert_eq!(rng_a.gen::<u64>(), rng_b.gen::<u64>(), "RNG streams diverged");
        }
    }

    #[test]
    fn range_and_list_queries_interleave_oracle_exact(
        pts in pts_fleet_strategy(),
        rounds in interleave_strategy(),
        rc in 10.0..120.0f64,
        r_mult in 0.25..3.0f64,
        base in (0.0..500.0f64, 0.0..500.0f64),
    ) {
        // The buckets and the lists sync separately: CPVF range-queries
        // every tick and reads the lists rarely, FLOOR interleaves
        // both. Each round moves a batch, answers one kind of query
        // (only that level syncs), moves the batch's sensors again
        // plus a second batch — so some sensors move twice between a
        // range query and the next list query — then answers the
        // other kind; rounds alternate which kind goes first. Radii
        // reach past rc (FLOOR's 2·rs absorption query).
        let base = Point::new(base.0, base.1);
        let r = r_mult * rc;
        let mut pts = pts;
        let mut tracker = AdjacencyTracker::new(&pts, rc, with_parking(rc, pts.len()));
        for (k, (first, second)) in rounds.into_iter().enumerate() {
            apply_ops(&first, rc, &mut pts, &mut tracker);
            if k % 2 == 0 {
                assert_ranges_match_oracle(&pts, rc, r, &mut tracker);
            } else {
                assert_lists_match_oracle(&pts, base, rc, &mut tracker);
            }
            let again: Vec<_> = first.iter().map(|&(_, i, x, y)| (0, i, y, x)).collect();
            apply_ops(&again, rc, &mut pts, &mut tracker);
            apply_ops(&second, rc, &mut pts, &mut tracker);
            if k % 2 == 0 {
                assert_lists_match_oracle(&pts, base, rc, &mut tracker);
            } else {
                assert_ranges_match_oracle(&pts, rc, r, &mut tracker);
            }
        }
    }

    #[test]
    fn chain_tree_invariants(n in 2usize..40) {
        let mut tree = Tree::new(n);
        tree.attach(0, Parent::Base);
        for i in 1..n {
            tree.attach(i, Parent::Node(i - 1));
        }
        prop_assert_eq!(tree.attached_count(), n);
        prop_assert_eq!(tree.ancestors(n - 1).len(), n - 1);
        prop_assert_eq!(tree.depth(n - 1), Some(n));
        prop_assert_eq!(tree.subtree(0).len(), n);
        prop_assert_eq!(tree.tree_hops(0, n - 1), n - 1);
        // any descendant as parent would loop
        for i in 0..n - 1 {
            prop_assert!(tree.would_create_loop(i, n - 1));
        }
    }

    #[test]
    fn star_tree_hops(n in 2usize..40) {
        let mut tree = Tree::new(n);
        tree.attach(0, Parent::Base);
        for i in 1..n {
            tree.attach(i, Parent::Node(0));
        }
        for i in 1..n {
            prop_assert_eq!(tree.tree_hops(0, i), 1);
            for j in 1..n {
                if i != j {
                    prop_assert_eq!(tree.tree_hops(i, j), 2);
                }
            }
        }
    }
}

/// The 1000×1000 field of the scale-tier fleets.
fn scale_field() -> Rect {
    Rect::new(0.0, 0.0, 1000.0, 1000.0)
}

/// Deterministic 10k scatter over a 1000×1000 field (the scale-tier
/// workload shape): golden-ratio low-discrepancy placement, no RNG.
fn scale_fleet(n: usize) -> Vec<Point> {
    (0..n)
        .map(|i| {
            let t = i as f64 * 0.618_033_988_749_894_9;
            let x = (t - t.floor()) * 1000.0;
            let y = (i as f64 + 0.5) / n as f64 * 1000.0;
            Point::new(x, y)
        })
        .collect()
}

/// Scale tier: a 10k fleet with a small dirty set reconciles by
/// per-point bucket transfers and stays bit-identical to a fresh grid
/// build. Oracle comparison is spot-checked (movers + a stride
/// sample) — the full-fleet comparison lives in the sized property
/// tests above.
#[test]
fn scale_tier_10k_scattered_moves_match_oracle() {
    let cell = 60.0;
    let n = 10_000;
    let mut pts = scale_fleet(n);
    let mut tracker = AdjacencyTracker::new(&pts, cell, scale_field());
    // Three rounds of 50 scattered movers (≪ n/2: the per-point path).
    for round in 0..3 {
        for k in 0..50 {
            let i = (k * 199 + round * 7) % n;
            let p = Point::new((pts[i].x + 250.0) % 1000.0, (pts[i].y + 125.0) % 1000.0);
            pts[i] = p;
            tracker.set_sensor(i, p);
        }
        let grid = SpatialGrid::build(&pts, cell);
        for k in 0..50 {
            let mover = (k * 199 + round * 7) % n;
            assert_eq!(
                neighbors_within(&mut tracker, mover, cell),
                grid.neighbors(&pts, mover, cell),
                "mover {mover} round {round}"
            );
        }
        for q in (0..n).step_by(617) {
            assert_eq!(
                neighbors_within(&mut tracker, q, cell),
                grid.neighbors(&pts, q, cell),
                "sample {q} round {round}"
            );
        }
    }
}

/// Scale tier: a dense local cluster churning in place — most of its
/// members change cell, far below the fleet-wide rebuild threshold —
/// stays oracle-exact, for the churned cluster and the untouched
/// remainder of the fleet alike.
#[test]
fn scale_tier_clustered_churn_matches_oracle() {
    let cell = 10.0; // small cells: the cluster spans an 8x8 cell block
    let n = 2_000;
    let mut pts = scale_fleet(n);
    // park a dense cluster inside cells 0..8 (x, y < 80)
    for i in 0..60 {
        pts[i] = Point::new(5.0 + (i % 8) as f64 * 9.0, 5.0 + (i / 8) as f64 * 9.0);
    }
    let mut tracker = AdjacencyTracker::new(&pts, cell, scale_field());
    // churn the whole cluster (far below the fleet threshold)
    for i in 0..60 {
        pts[i] = Point::new(
            5.0 + ((i + 3) % 8) as f64 * 9.0,
            5.0 + (((i / 8) + 1) % 8) as f64 * 9.0,
        );
        tracker.set_sensor(i, pts[i]);
    }
    let grid = SpatialGrid::build(&pts, cell);
    for q in (0..n).step_by(97).chain(0..60) {
        assert_eq!(
            neighbors_within(&mut tracker, q, cell),
            grid.neighbors(&pts, q, cell),
            "sensor {q}"
        );
    }
}
