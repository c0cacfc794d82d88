//! Property-based tests for BUG2 navigation.

use msn_field::Field;
use msn_geom::{Point, Rect, Segment};
use msn_nav::{NavContext, Navigator};
use proptest::prelude::*;

fn single_obstacle_field(ox: f64, oy: f64, w: f64, h: f64) -> Field {
    Field::with_obstacles(
        1000.0,
        1000.0,
        vec![Rect::new(ox, oy, ox + w, oy + h).to_polygon()],
    )
}

fn drive(nav: &mut Navigator, step: f64, max_steps: usize) -> bool {
    for _ in 0..max_steps {
        if nav.is_done() || nav.is_stuck() {
            break;
        }
        nav.advance(step);
    }
    nav.is_done()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// BUG2 always reaches a reachable target around a single convex
    /// obstacle.
    #[test]
    fn reaches_target_around_convex_obstacle(
        ox in 200.0..600.0f64, oy in 200.0..600.0f64,
        w in 50.0..300.0f64, h in 50.0..300.0f64,
        sx in 0.0..150.0f64, sy in 0.0..1000.0f64,
        tx in 850.0..1000.0f64, ty in 0.0..1000.0f64,
    ) {
        let field = single_obstacle_field(ox, oy, w, h);
        let start = Point::new(sx, sy);
        let target = Point::new(tx, ty);
        prop_assume!(field.is_free(start) && field.is_free(target));
        prop_assume!(field.nearest_obstacle_dist(start) > 1.0);
        prop_assume!(field.nearest_obstacle_dist(target) > 1.0);
        let mut nav = Navigator::new(&field, start, target);
        prop_assert!(drive(&mut nav, 5.0, 4000), "must reach target, state {nav}");
        prop_assert!(nav.pos().dist(target) < 1e-6);
    }

    /// The BUG2 bound for a single convex obstacle: path length at most
    /// the straight distance plus 1.5x the (inflated) perimeter, with
    /// slack for discretization.
    #[test]
    fn path_length_respects_bug2_bound(
        ox in 300.0..500.0f64, oy in 300.0..500.0f64,
        w in 80.0..250.0f64, h in 80.0..250.0f64,
        sy in 100.0..900.0f64, ty in 100.0..900.0f64,
    ) {
        let field = single_obstacle_field(ox, oy, w, h);
        let start = Point::new(20.0, sy);
        let target = Point::new(980.0, ty);
        let mut nav = Navigator::new(&field, start, target);
        prop_assert!(drive(&mut nav, 5.0, 4000));
        let d = start.dist(target);
        let perimeter = 2.0 * (w + h) + 8.0; // inflated ring
        prop_assert!(
            nav.traveled() <= d + 1.5 * perimeter + 20.0,
            "traveled {} exceeds BUG2 bound (D={d}, l={perimeter})",
            nav.traveled()
        );
    }

    /// Positions along the way stay in free space (clearance from
    /// obstacle interiors) and inside the field.
    #[test]
    fn path_stays_in_free_space(
        ox in 250.0..550.0f64, oy in 250.0..550.0f64,
        sy in 50.0..950.0f64, ty in 50.0..950.0f64,
    ) {
        let field = single_obstacle_field(ox, oy, 200.0, 200.0);
        let start = Point::new(10.0, sy);
        let target = Point::new(990.0, ty);
        let mut nav = Navigator::new(&field, start, target);
        for _ in 0..4000 {
            if nav.is_done() || nav.is_stuck() {
                break;
            }
            let p = nav.advance(3.0);
            prop_assert!(field.in_bounds(p));
            prop_assert!(
                field.nearest_obstacle_dist(p) > 0.2,
                "position {p} intrudes into the obstacle"
            );
        }
        prop_assert!(nav.is_done());
    }

    /// Open-field navigation is exactly the straight line.
    #[test]
    fn open_field_is_straight(
        sx in 0.0..1000.0f64, sy in 0.0..1000.0f64,
        tx in 0.0..1000.0f64, ty in 0.0..1000.0f64,
    ) {
        let field = Field::open(1000.0, 1000.0);
        let start = Point::new(sx, sy);
        let target = Point::new(tx, ty);
        let mut nav = Navigator::new(&field, start, target);
        prop_assert!(drive(&mut nav, 7.0, 1000));
        prop_assert!((nav.traveled() - start.dist(target)).abs() < 1e-6);
    }

    /// The edge-bucket-indexed `first_ring_hit` must agree with the
    /// linear scan over every ring edge — hit or miss, the same `t`
    /// bit for bit, and the same `(ring, edge)` winner — over random
    /// obstacle sets, clearances, and probes (including short and
    /// degenerate ones).
    #[test]
    fn indexed_ring_hit_matches_linear_scan(
        rects in prop::collection::vec(
            (50.0..900.0f64, 50.0..900.0f64, 20.0..250.0f64, 20.0..250.0f64),
            1..6,
        ),
        clearance in 0.1..2.0f64,
        probes in prop::collection::vec(
            (-50.0..1050.0f64, -50.0..1050.0f64, -50.0..1050.0f64, -50.0..1050.0f64),
            1..20,
        ),
        skip_inside in prop::bool::ANY,
        exclude_first in prop::bool::ANY,
    ) {
        let obstacles = rects
            .iter()
            .map(|&(x, y, w, h)| Rect::new(x, y, x + w, y + h).to_polygon())
            .collect();
        let field = Field::with_obstacles(1000.0, 1000.0, obstacles);
        let ctx = NavContext::with_clearance(&field, clearance);
        let mut scratch = ctx.scratch();
        let exclude = exclude_first.then_some(0);
        for &(ax, ay, bx, by) in &probes {
            let a = Point::new(ax, ay);
            let b = Point::new(bx, by);
            // the full probe, a short sub-probe, and a degenerate one
            let near = a + (b - a) * 1e-4;
            for seg in [Segment::new(a, b), Segment::new(a, near), Segment::new(a, a)] {
                prop_assert_eq!(
                    ctx.first_ring_hit(&mut scratch, &seg, exclude, skip_inside),
                    ctx.first_ring_hit_linear(&seg, exclude, skip_inside),
                    "probe {:?} exclude {:?} skip {}", seg, exclude, skip_inside
                );
            }
        }
    }

    /// Budgets are respected: each advance() call walks at most the
    /// requested distance.
    #[test]
    fn advance_budget_never_exceeded(
        sy in 100.0..900.0f64, ty in 100.0..900.0f64, step in 0.1..20.0f64,
    ) {
        let field = single_obstacle_field(400.0, 400.0, 200.0, 200.0);
        let mut nav = Navigator::new(
            &field,
            Point::new(10.0, sy),
            Point::new(990.0, ty),
        );
        for _ in 0..200 {
            let before = nav.traveled();
            nav.advance(step);
            prop_assert!(nav.traveled() - before <= step + 1e-9);
        }
    }
}
