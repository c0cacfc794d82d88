//! The incremental BUG2 navigator.

use crate::{NavContext, NavScratch};
use msn_field::Field;
use msn_geom::{Point, Segment};
use std::fmt;
use std::sync::Arc;

#[derive(Debug, Clone)]
enum State {
    OnLine,
    Following {
        poly: usize,
        edge: usize,
        ring_pos: Point,
        hit_dist: f64,
        followed: f64,
    },
    Reached,
    Stuck,
}

/// An incremental BUG2 planner: repeatedly call
/// [`Navigator::advance`] with a per-period movement budget.
///
/// Navigators probe obstacle rings through a shared [`NavContext`]
/// (offset rings + edge bucket grid, built once per run); the
/// convenience constructors build a private context for one-off plans.
/// See the [crate docs](crate) for the algorithm summary and an
/// example.
#[derive(Debug, Clone)]
pub struct Navigator {
    ctx: Arc<NavContext>,
    scratch: NavScratch,
    start: Point,
    target: Point,
    pos: Point,
    state: State,
    traveled: f64,
    hit_obstacle: bool,
    travel_cap: f64,
}

impl Navigator {
    /// Plans a path from `start` to `target` through `field` with the
    /// default wall clearance ([`crate::DEFAULT_CLEARANCE`]), building a
    /// private [`NavContext`] for this plan alone.
    pub fn new(field: &Field, start: Point, target: Point) -> Self {
        Navigator::with_context(Arc::new(NavContext::new(field)), start, target)
    }

    /// Plans a path probing obstacles through a shared, pre-built
    /// context — the cheap constructor every per-run plan should use.
    pub fn with_context(ctx: Arc<NavContext>, start: Point, target: Point) -> Self {
        let _span = msn_obs::span("nav.plan");
        msn_obs::counter("nav.plans", 1);
        let d = start.dist(target);
        let state = if d <= 1e-9 {
            State::Reached
        } else {
            State::OnLine
        };
        let scratch = ctx.scratch();
        let travel_cap = 50.0 * (d + ctx.total_perimeter()) + 100.0;
        Navigator {
            ctx,
            scratch,
            start,
            target,
            pos: start,
            state,
            traveled: 0.0,
            hit_obstacle: false,
            travel_cap,
        }
    }

    /// Current position (clamped into the field bounds).
    #[inline]
    pub fn pos(&self) -> Point {
        self.ctx.bounds().clamp_point(self.pos)
    }

    /// The navigation target.
    #[inline]
    pub fn target(&self) -> Point {
        self.target
    }

    /// Total distance walked so far.
    #[inline]
    pub fn traveled(&self) -> f64 {
        self.traveled
    }

    /// Returns `true` once the target has been reached.
    #[inline]
    pub fn is_done(&self) -> bool {
        matches!(self.state, State::Reached)
    }

    /// Returns `true` if the planner concluded the target is
    /// unreachable (circumnavigated the blocking obstacle without
    /// finding a closer exit) or exceeded its travel cap.
    #[inline]
    pub fn is_stuck(&self) -> bool {
        matches!(self.state, State::Stuck)
    }

    /// Returns `true` if the sensor has touched any obstacle since the
    /// plan started — FLOOR's Algorithm 1 abandons intermediate legs on
    /// first contact.
    #[inline]
    pub fn hit_obstacle(&self) -> bool {
        self.hit_obstacle
    }

    /// Returns `true` while the sensor is following an obstacle
    /// boundary.
    #[inline]
    pub fn is_following(&self) -> bool {
        matches!(self.state, State::Following { .. })
    }

    /// Moves up to `max_dist` meters along the BUG2 path and returns
    /// the new (clamped) position.
    ///
    /// Does nothing once [`Navigator::is_done`] or
    /// [`Navigator::is_stuck`].
    pub fn advance(&mut self, max_dist: f64) -> Point {
        let mut remaining = max_dist.max(0.0);
        let mut guard = 0usize;
        while remaining > 1e-9 {
            guard += 1;
            if guard > 100_000 || self.traveled > self.travel_cap {
                self.state = State::Stuck;
                break;
            }
            match self.state.clone() {
                State::Reached | State::Stuck => break,
                State::OnLine => {
                    let d_t = self.pos.dist(self.target);
                    if d_t <= 1e-9 {
                        self.state = State::Reached;
                        break;
                    }
                    let step = remaining.min(d_t);
                    let seg = Segment::new(self.pos, self.pos.step_toward(self.target, step));
                    match self.ctx.first_ring_hit(&mut self.scratch, &seg, None, true) {
                        None => {
                            self.pos = seg.b;
                            self.traveled += step;
                            remaining -= step;
                            if self.pos.dist(self.target) <= 1e-9 {
                                self.state = State::Reached;
                            }
                        }
                        Some((t, pi, ei)) => {
                            let hitp = seg.at(t);
                            let moved = self.pos.dist(hitp);
                            self.pos = hitp;
                            self.traveled += moved;
                            remaining -= moved;
                            self.hit_obstacle = true;
                            self.state = State::Following {
                                poly: pi,
                                edge: ei,
                                ring_pos: hitp,
                                hit_dist: hitp.dist(self.target),
                                followed: 0.0,
                            };
                        }
                    }
                }
                State::Following {
                    mut poly,
                    mut edge,
                    mut ring_pos,
                    hit_dist,
                    mut followed,
                } => {
                    // Right hand on the wall: walk each CCW ring
                    // clockwise, toward the start of the current edge.
                    let (corner, n) = {
                        let ring = &self.ctx.rings()[poly];
                        (ring.edge(edge).a, ring.len())
                    };
                    let to_corner = ring_pos.dist(corner);
                    if to_corner <= 1e-9 {
                        // Sitting on the corner: advance to the next edge.
                        edge = (edge + n - 1) % n;
                        self.state = State::Following {
                            poly,
                            edge,
                            ring_pos,
                            hit_dist,
                            followed,
                        };
                        continue;
                    }
                    let chunk_len = remaining.min(to_corner);
                    let mut chunk = Segment::new(ring_pos, ring_pos.step_toward(corner, chunk_len));
                    // Crossing into another obstacle's ring: switch rings
                    // there (walking the boundary of the obstacle union).
                    let mut switch: Option<(usize, usize)> = None;
                    if self.ctx.rings().len() > 1 {
                        if let Some((t, pj, ej)) =
                            self.ctx
                                .first_ring_hit(&mut self.scratch, &chunk, Some(poly), false)
                        {
                            chunk = Segment::new(chunk.a, chunk.at(t));
                            switch = Some((pj, ej));
                        }
                    }
                    // BUG2 leave test: does this chunk cross the reference
                    // line at a point closer to the target, with clear
                    // progress?
                    let ref_seg = Segment::new(self.start, self.target);
                    if let Some(cross) = chunk.intersect(&ref_seg) {
                        if cross.dist(self.target) < hit_dist - 1e-6
                            && Self::can_progress(&self.ctx, &mut self.scratch, self.target, cross)
                        {
                            let moved = ring_pos.dist(cross);
                            self.pos = cross;
                            self.traveled += moved;
                            remaining -= moved;
                            self.state = State::OnLine;
                            continue;
                        }
                    }
                    // Commit the chunk.
                    let moved = chunk.length();
                    ring_pos = chunk.b;
                    self.pos = ring_pos;
                    self.traveled += moved;
                    remaining -= moved;
                    followed += moved;
                    if followed > 2.0 * self.ctx.total_perimeter().max(1.0) + 50.0 {
                        self.state = State::Stuck;
                        break;
                    }
                    if let Some((pj, ej)) = switch {
                        poly = pj;
                        edge = ej;
                    } else if ring_pos.dist(corner) <= 1e-9 {
                        edge = (edge + n - 1) % n;
                    }
                    self.state = State::Following {
                        poly,
                        edge,
                        ring_pos,
                        hit_dist,
                        followed,
                    };
                }
            }
        }
        self.pos()
    }

    /// Returns `true` if a short probe from `p` toward the target is
    /// unobstructed — the "can make progress on the reference line"
    /// part of the BUG2 leave condition.
    fn can_progress(ctx: &NavContext, scratch: &mut NavScratch, target: Point, p: Point) -> bool {
        let d = p.dist(target);
        if d <= 1e-9 {
            return true;
        }
        let probe_len = d.min(1.0);
        let probe = Segment::new(p, p.step_toward(target, probe_len));
        ctx.first_ring_hit(scratch, &probe, None, true).is_none()
    }
}

impl fmt::Display for Navigator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self.state {
            State::OnLine => "on-line",
            State::Following { .. } => "following",
            State::Reached => "reached",
            State::Stuck => "stuck",
        };
        write!(f, "bug2({} -> {}, {s})", self.pos, self.target)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msn_geom::Rect;

    fn run(nav: &mut Navigator, step: f64, max_steps: usize) -> bool {
        for _ in 0..max_steps {
            if nav.is_done() || nav.is_stuck() {
                break;
            }
            nav.advance(step);
        }
        nav.is_done()
    }

    #[test]
    fn straight_line_in_open_field() {
        let f = Field::open(100.0, 100.0);
        let mut nav = Navigator::new(&f, Point::new(10.0, 10.0), Point::new(90.0, 90.0));
        assert!(run(&mut nav, 7.0, 100));
        let d = Point::new(10.0, 10.0).dist(Point::new(90.0, 90.0));
        assert!((nav.traveled() - d).abs() < 1e-6);
        assert!(!nav.hit_obstacle());
    }

    #[test]
    fn zero_length_plan_is_immediately_done() {
        let f = Field::open(10.0, 10.0);
        let nav = Navigator::new(&f, Point::new(5.0, 5.0), Point::new(5.0, 5.0));
        assert!(nav.is_done());
    }

    #[test]
    fn detours_around_a_wall() {
        let f = Field::with_obstacles(
            100.0,
            100.0,
            vec![Rect::new(40.0, 20.0, 60.0, 80.0).to_polygon()],
        );
        let start = Point::new(10.0, 50.0);
        let target = Point::new(90.0, 50.0);
        let mut nav = Navigator::new(&f, start, target);
        assert!(
            run(&mut nav, 3.0, 500),
            "must reach the target, state: {nav}"
        );
        assert!(nav.hit_obstacle());
        // Detour: strictly longer than straight line, but bounded by
        // D + perimeter of the (inflated) obstacle.
        let d = start.dist(target);
        assert!(nav.traveled() > d + 10.0);
        assert!(nav.traveled() < d + 2.0 * (40.0 + 120.0) + 20.0);
    }

    #[test]
    fn right_hand_goes_clockwise_around_the_wall() {
        // Wall spans y in [20, 80]; arriving at its left face and putting
        // the right hand on the wall turns the sensor to face north, so
        // it first walks up toward y=80 (clockwise around the polygon).
        let f = Field::with_obstacles(
            100.0,
            100.0,
            vec![Rect::new(40.0, 20.0, 60.0, 80.0).to_polygon()],
        );
        let mut nav = Navigator::new(&f, Point::new(10.0, 50.0), Point::new(90.0, 50.0));
        // advance until following, then a bit more
        for _ in 0..40 {
            nav.advance(1.0);
            if nav.is_following() {
                break;
            }
        }
        assert!(nav.is_following());
        nav.advance(10.0);
        assert!(
            nav.pos().y > 50.0,
            "right hand should walk up first, at {}",
            nav.pos()
        );
        assert!(run(&mut nav, 3.0, 500));
    }

    #[test]
    fn figure2_two_obstacles() {
        // Replica of the paper's Figure 2: two obstacles on the way.
        let f = Field::with_obstacles(
            200.0,
            100.0,
            vec![
                Rect::new(40.0, 30.0, 70.0, 70.0).to_polygon(),
                Rect::new(110.0, 20.0, 140.0, 60.0).to_polygon(),
            ],
        );
        let start = Point::new(10.0, 50.0);
        let target = Point::new(190.0, 40.0);
        let mut nav = Navigator::new(&f, start, target);
        assert!(run(&mut nav, 2.0, 1000), "state: {nav}");
        let d = start.dist(target);
        let perims = 2.0 * (30.0 + 40.0) + 2.0 * (30.0 + 40.0);
        assert!(
            nav.traveled() <= d + perims + 30.0,
            "BUG2 bound violated: {}",
            nav.traveled()
        );
    }

    #[test]
    fn unreachable_target_gets_stuck_not_infinite() {
        // Target inside a box.
        let f = Field::with_obstacles(
            100.0,
            100.0,
            vec![Rect::new(40.0, 40.0, 60.0, 60.0).to_polygon()],
        );
        let mut nav = Navigator::new(&f, Point::new(10.0, 50.0), Point::new(50.0, 50.0));
        let done = run(&mut nav, 5.0, 2000);
        assert!(!done);
        assert!(nav.is_stuck());
    }

    #[test]
    fn overlapping_obstacles_traversed_as_union() {
        // Two overlapping rectangles forming a plus-shaped union.
        let f = Field::with_obstacles(
            200.0,
            200.0,
            vec![
                Rect::new(80.0, 40.0, 120.0, 160.0).to_polygon(),
                Rect::new(60.0, 80.0, 140.0, 120.0).to_polygon(),
            ],
        );
        let start = Point::new(10.0, 100.0);
        let target = Point::new(190.0, 100.0);
        let mut nav = Navigator::new(&f, start, target);
        assert!(run(&mut nav, 2.0, 2000), "state: {nav}");
        assert!(nav.traveled() > 180.0);
    }

    #[test]
    fn positions_stay_clear_of_obstacles() {
        let f = Field::with_obstacles(
            100.0,
            100.0,
            vec![Rect::new(40.0, 20.0, 60.0, 80.0).to_polygon()],
        );
        let mut nav = Navigator::new(&f, Point::new(10.0, 50.0), Point::new(90.0, 50.0));
        while !nav.is_done() && !nav.is_stuck() {
            let p = nav.advance(1.5);
            assert!(
                f.nearest_obstacle_dist(p) > 0.25,
                "sensor at {p} too close to the wall"
            );
            assert!(f.in_bounds(p));
        }
        assert!(nav.is_done());
    }

    #[test]
    fn advance_budget_is_respected() {
        let f = Field::open(100.0, 100.0);
        let mut nav = Navigator::new(&f, Point::new(0.0, 0.0), Point::new(90.0, 0.0));
        let before = nav.traveled();
        nav.advance(2.0);
        assert!((nav.traveled() - before - 2.0).abs() < 1e-9);
    }

    #[test]
    fn shared_context_matches_private_context_path() {
        let f = Field::with_obstacles(
            200.0,
            100.0,
            vec![
                Rect::new(40.0, 30.0, 70.0, 70.0).to_polygon(),
                Rect::new(110.0, 20.0, 140.0, 60.0).to_polygon(),
            ],
        );
        let ctx = Arc::new(NavContext::new(&f));
        let start = Point::new(10.0, 50.0);
        let target = Point::new(190.0, 40.0);
        let mut a = Navigator::new(&f, start, target);
        let mut b = Navigator::with_context(ctx, start, target);
        while !a.is_done() && !a.is_stuck() {
            let pa = a.advance(2.0);
            let pb = b.advance(2.0);
            assert_eq!(pa, pb);
            assert_eq!(a.traveled().to_bits(), b.traveled().to_bits());
        }
        assert!(b.is_done());
    }
}
