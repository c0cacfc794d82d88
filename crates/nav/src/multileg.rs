//! Multi-leg navigation plans (FLOOR's Algorithm 1).

use crate::{NavContext, Navigator};
use msn_field::Field;
use msn_geom::Point;
use std::fmt;
use std::sync::Arc;

/// A chain of BUG2 legs through intermediate destinations.
///
/// FLOOR's Algorithm 1 routes a connecting sensor through two
/// waypoints — the projection onto its nearest floor line, then the
/// floor line's end on the y-axis — before heading to the base station
/// at the origin. Intermediate legs are *abandoned on first obstacle
/// contact* (the algorithm moves on to the next leg from wherever the
/// sensor is); only the final leg runs BUG2 to completion.
///
/// # Examples
///
/// ```
/// use msn_field::Field;
/// use msn_geom::Point;
/// use msn_nav::MultiLegPlan;
///
/// let field = Field::open(100.0, 100.0);
/// let mut plan = MultiLegPlan::new(
///     &field,
///     Point::new(80.0, 73.0),
///     vec![Point::new(80.0, 50.0), Point::new(0.0, 50.0), Point::new(0.0, 0.0)],
/// );
/// while !plan.is_done() && !plan.is_stuck() {
///     plan.advance(10.0);
/// }
/// assert!(plan.is_done());
/// assert!(plan.pos().dist(Point::new(0.0, 0.0)) < 1e-6);
/// ```
#[derive(Debug, Clone)]
pub struct MultiLegPlan {
    ctx: Arc<NavContext>,
    legs: Vec<Point>,
    leg_idx: usize,
    nav: Navigator,
    traveled_before: f64,
}

impl MultiLegPlan {
    /// Creates a plan visiting `legs` in order from `start`, building
    /// a private [`NavContext`] at the default clearance.
    ///
    /// # Panics
    ///
    /// Panics if `legs` is empty.
    pub fn new(field: &Field, start: Point, legs: Vec<Point>) -> Self {
        Self::with_context(Arc::new(NavContext::new(field)), start, legs)
    }

    /// Creates a plan whose legs all probe obstacles through a shared,
    /// pre-built context.
    ///
    /// # Panics
    ///
    /// Panics if `legs` is empty.
    pub fn with_context(ctx: Arc<NavContext>, start: Point, legs: Vec<Point>) -> Self {
        assert!(!legs.is_empty(), "at least one leg required");
        let nav = Navigator::with_context(ctx.clone(), start, legs[0]);
        MultiLegPlan {
            ctx,
            legs,
            leg_idx: 0,
            nav,
            traveled_before: 0.0,
        }
    }

    /// Current position.
    #[inline]
    pub fn pos(&self) -> Point {
        self.nav.pos()
    }

    /// Index of the leg currently being executed.
    #[inline]
    pub fn leg(&self) -> usize {
        self.leg_idx
    }

    /// Destination of the leg currently being executed.
    #[inline]
    pub fn current_target(&self) -> Point {
        self.legs[self.leg_idx]
    }

    /// Total distance walked over all legs.
    #[inline]
    pub fn traveled(&self) -> f64 {
        self.traveled_before + self.nav.traveled()
    }

    /// Returns `true` once the final destination has been reached.
    pub fn is_done(&self) -> bool {
        self.leg_idx + 1 == self.legs.len() && self.nav.is_done()
    }

    /// Returns `true` if the final leg got stuck (unreachable target).
    pub fn is_stuck(&self) -> bool {
        self.leg_idx + 1 == self.legs.len() && self.nav.is_stuck()
    }

    /// Moves up to `max_dist` meters, switching legs when the current
    /// leg completes, gets stuck, or (for intermediate legs) touches an
    /// obstacle. Returns the new position.
    pub fn advance(&mut self, max_dist: f64) -> Point {
        let mut remaining = max_dist.max(0.0);
        let mut guard = 0;
        while remaining > 1e-9 && !self.is_done() && !self.is_stuck() {
            guard += 1;
            if guard > 10_000 {
                break;
            }
            let before = self.nav.traveled();
            self.nav.advance(remaining);
            remaining -= self.nav.traveled() - before;
            let last_leg = self.leg_idx + 1 == self.legs.len();
            let abandon = !last_leg && (self.nav.hit_obstacle() || self.nav.is_stuck());
            if self.nav.is_done() || abandon {
                if last_leg {
                    break;
                }
                self.leg_idx += 1;
                self.traveled_before += self.nav.traveled();
                self.nav = Navigator::with_context(
                    self.ctx.clone(),
                    self.nav.pos(),
                    self.legs[self.leg_idx],
                );
            } else if self.nav.is_stuck() {
                break;
            } else if remaining > 1e-9 {
                // Navigator stopped without consuming the budget and
                // without finishing: should not happen, bail out to stay
                // safe.
                break;
            }
        }
        self.pos()
    }
}

impl fmt::Display for MultiLegPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "multi-leg plan at {} (leg {}/{})",
            self.pos(),
            self.leg_idx + 1,
            self.legs.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msn_geom::Rect;

    fn run(plan: &mut MultiLegPlan, step: f64, max_steps: usize) -> bool {
        for _ in 0..max_steps {
            if plan.is_done() || plan.is_stuck() {
                break;
            }
            plan.advance(step);
        }
        plan.is_done()
    }

    #[test]
    fn visits_waypoints_in_open_field() {
        let f = Field::open(100.0, 100.0);
        let start = Point::new(80.0, 73.0);
        let legs = vec![
            Point::new(80.0, 50.0),
            Point::new(0.0, 50.0),
            Point::new(0.0, 0.0),
        ];
        let mut plan = MultiLegPlan::new(&f, start, legs);
        assert!(run(&mut plan, 5.0, 200));
        // Manhattan-ish path: 23 + 80 + 50
        assert!(
            (plan.traveled() - 153.0).abs() < 1e-6,
            "got {}",
            plan.traveled()
        );
    }

    #[test]
    fn abandons_intermediate_leg_on_obstacle_contact() {
        // A wall between the start and the first waypoint.
        let f = Field::with_obstacles(
            100.0,
            100.0,
            vec![Rect::new(70.0, 30.0, 90.0, 60.0).to_polygon()],
        );
        let start = Point::new(80.0, 73.0);
        let legs = vec![
            Point::new(80.0, 40.0), // blocked by the wall
            Point::new(0.0, 40.0),
            Point::new(0.0, 0.0),
        ];
        let mut plan = MultiLegPlan::new(&f, start, legs);
        assert!(run(&mut plan, 5.0, 400), "state: {plan}");
        assert!(plan.pos().dist(Point::ORIGIN) < 1e-6);
    }

    #[test]
    fn last_leg_runs_full_bug2() {
        // Wall in front of the origin: the final leg must detour, not
        // abandon.
        let f = Field::with_obstacles(
            100.0,
            100.0,
            vec![Rect::new(10.0, 10.0, 40.0, 40.0).to_polygon()],
        );
        let start = Point::new(80.0, 80.0);
        let legs = vec![Point::new(80.0, 25.0), Point::new(0.0, 25.0), Point::ORIGIN];
        let mut plan = MultiLegPlan::new(&f, start, legs);
        assert!(run(&mut plan, 4.0, 500), "state: {plan}");
        assert!(plan.pos().dist(Point::ORIGIN) < 1e-6);
        assert!(
            plan.traveled() > 135.0,
            "detour is longer than manhattan path"
        );
    }

    #[test]
    fn leg_index_progresses() {
        let f = Field::open(50.0, 50.0);
        let mut plan = MultiLegPlan::new(
            &f,
            Point::new(40.0, 40.0),
            vec![Point::new(40.0, 20.0), Point::new(10.0, 20.0)],
        );
        assert_eq!(plan.leg(), 0);
        plan.advance(25.0);
        assert_eq!(plan.leg(), 1);
        plan.advance(35.0);
        assert!(plan.is_done());
    }
}
