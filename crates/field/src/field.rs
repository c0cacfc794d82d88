//! The sensing field.

use msn_geom::{Point, Polygon, Rect, Segment, EPS};
use std::fmt;

/// A rectangular sensing field with polygonal obstacles.
///
/// The field spans `[0, width] × [0, height]` with the base station's
/// reference point at the origin, matching the paper's convention. Any
/// number of obstacles (simple polygons) may be present; deployment
/// schemes require the *free space* (field minus obstacles) to be
/// connected, which [`crate::free_space_connected`] verifies.
///
/// # Examples
///
/// ```
/// use msn_field::Field;
/// use msn_geom::{Point, Rect};
///
/// let field = Field::with_obstacles(
///     100.0,
///     100.0,
///     vec![Rect::new(40.0, 40.0, 60.0, 60.0).to_polygon()],
/// );
/// assert!(field.is_free(Point::new(10.0, 10.0)));
/// assert!(!field.is_free(Point::new(50.0, 50.0)));
/// ```
#[derive(Debug, Clone)]
pub struct Field {
    bounds: Rect,
    obstacles: Vec<Polygon>,
    /// `boxes[i]` is `obstacles[i]`'s bounding box grown by [`PAD`]:
    /// the cheap reject the motion, force and raster queries test
    /// first. No point outside it lies in the obstacle.
    pub(crate) boxes: Vec<Rect>,
}

/// Padding of the per-obstacle boxes (m).
///
/// The box filters skip an obstacle (or the four boundary walls) only
/// when a query lies more than `PAD` away from its box, so every
/// skipped kernel call would have answered `None`, `false` or a
/// distance `≥ range` anyway — provided `PAD` clears every slack
/// those kernels grant:
///
/// * `EPS = 1e-9` in `Rect::contains`, `Polygon::on_boundary` and
///   `Segment::contains_point`;
/// * the `1e-12` parameter tolerance of `Segment::intersect` and
///   `Segment::first_hit`, and the `EPS` parameter slack of their
///   collinear-overlap branch — at most `1e-9` times the longer
///   segment's length, a micrometer at kilometer scale;
/// * their collinear test `|qp × r| ≤ EPS`, which accepts two
///   segments whose lines lie up to `EPS / |r|` apart (`r` the
///   receiver's direction). Once that exceeds `√EPS ≈ 3.2e-5` m,
///   `|r|² ≤ EPS` and the kernel takes its point branch instead, an
///   `EPS` distance test.
///
/// A millimeter clears all three by more than an order of magnitude.
/// f64 rounding in those kernels is relative to their operands
/// (~1e-13 m at field scale) with one exception: a segment so nearly
/// parallel to a slanted edge that their cross product only just
/// clears `EPS` gets ill-conditioned parameters from the general
/// branch, and there the filter is exact only up to that noise.
/// Axis-aligned edges (the field walls and every rectangular
/// obstacle) form those cross products against an exact zero and
/// stay well-conditioned.
const PAD: f64 = 1e-3;

/// The bounding box of `seg` (built directly: a NaN coordinate would
/// trip `Rect::new`'s ordering assertion in debug builds).
#[inline]
fn segment_box(seg: &Segment) -> Rect {
    Rect {
        min: Point::new(seg.a.x.min(seg.b.x), seg.a.y.min(seg.b.y)),
        max: Point::new(seg.a.x.max(seg.b.x), seg.a.y.max(seg.b.y)),
    }
}

/// Whether `a` and `b` are provably apart (strictly, on some axis).
#[inline]
fn disjoint(a: &Rect, b: &Rect) -> bool {
    a.max.x < b.min.x || b.max.x < a.min.x || a.max.y < b.min.y || b.max.y < a.min.y
}

fn padded_box(obstacle: &Polygon) -> Rect {
    obstacle.bounding_box().inflated(PAD)
}

/// Identifies which wall a motion sweep hit first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Hit {
    /// The field's outer boundary; payload is the boundary edge index
    /// in the CCW rectangle polygon (0 = bottom, 1 = right, 2 = top,
    /// 3 = left).
    Boundary(usize),
    /// An obstacle; payload is `(obstacle index, edge index)`.
    Obstacle(usize, usize),
}

impl Field {
    /// An obstacle-free `width × height` field anchored at the origin.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is not strictly positive.
    pub fn open(width: f64, height: f64) -> Self {
        assert!(
            width > 0.0 && height > 0.0,
            "field dimensions must be positive"
        );
        Field {
            bounds: Rect::new(0.0, 0.0, width, height),
            obstacles: Vec::new(),
            boxes: Vec::new(),
        }
    }

    /// A field with the given obstacles.
    ///
    /// Obstacles may touch or overlap each other; callers that need a
    /// connected free space should verify with
    /// [`crate::free_space_connected`].
    ///
    /// # Panics
    ///
    /// Panics if either dimension is not strictly positive.
    pub fn with_obstacles(width: f64, height: f64, obstacles: Vec<Polygon>) -> Self {
        let mut f = Field::open(width, height);
        f.boxes = obstacles.iter().map(padded_box).collect();
        f.obstacles = obstacles;
        f
    }

    /// The outer boundary rectangle.
    #[inline]
    pub fn bounds(&self) -> Rect {
        self.bounds
    }

    /// The obstacle polygons.
    #[inline]
    pub fn obstacles(&self) -> &[Polygon] {
        &self.obstacles
    }

    /// The obstacles whose bounding box lies within `r` of `p`, in
    /// index order — a superset of those with a boundary point closer
    /// than `r + 1e-3` m to `p`.
    pub fn obstacles_near(&self, p: Point, r: f64) -> impl Iterator<Item = &Polygon> + '_ {
        self.obstacles
            .iter()
            .zip(&self.boxes)
            .filter(move |(_, b)| {
                let dx = (b.min.x - p.x).max(p.x - b.max.x).max(0.0);
                let dy = (b.min.y - p.y).max(p.y - b.max.y).max(0.0);
                dx * dx + dy * dy <= r * r
            })
            .map(|(o, _)| o)
    }

    /// Returns `true` if `p` is inside the field and outside every
    /// obstacle (obstacle boundaries count as blocked).
    pub fn is_free(&self, p: Point) -> bool {
        self.bounds.contains(p) && !self.obstacles.iter().any(|o| o.contains(p))
    }

    /// Returns `true` if `p` is inside the field bounds (free or not).
    #[inline]
    pub fn in_bounds(&self, p: Point) -> bool {
        self.bounds.contains(p)
    }

    /// Returns `true` if the straight move along `seg` stays in free
    /// space (endpoints included).
    pub fn segment_free(&self, seg: &Segment) -> bool {
        if !self.bounds.contains(seg.a) || !self.bounds.contains(seg.b) {
            return false;
        }
        let reach = segment_box(seg);
        !self
            .obstacles
            .iter()
            .zip(&self.boxes)
            .any(|(o, b)| !disjoint(b, &reach) && o.intersects_segment(seg))
    }

    /// Sweeps along `seg` and reports the first obstruction, if any.
    ///
    /// Returns the parameter `t ∈ [0, 1]` of the first contact and what
    /// was hit. A sweep starting exactly on a boundary (t ≈ 0 hits) is
    /// ignored so that a sensor standing against a wall can slide away
    /// from it; callers moving *along* walls use the boundary-following
    /// machinery in `msn-nav` instead.
    ///
    /// A segment more than `PAD` inside every wall and apart from
    /// every padded obstacle box touches nothing; that test runs first,
    /// so a sweep far from walls costs a few comparisons.
    pub fn first_hit(&self, seg: &Segment) -> Option<(f64, Hit)> {
        let reach = segment_box(seg);
        let deep_inside = self.deep_inside(&reach);
        if deep_inside && self.boxes.iter().all(|bx| disjoint(bx, &reach)) {
            return None;
        }
        self.sweep(seg, &reach, deep_inside)
    }

    /// Whether `reach` lies more than [`PAD`] inside every wall, so no
    /// segment inside it can touch the outer boundary.
    #[inline]
    fn deep_inside(&self, reach: &Rect) -> bool {
        let b = self.bounds;
        reach.min.x - PAD > b.min.x
            && reach.max.x + PAD < b.max.x
            && reach.min.y - PAD > b.min.y
            && reach.max.y + PAD < b.max.y
    }

    /// The sweep behind [`Field::first_hit`]: the walls unless
    /// `deep_inside`, then every obstacle whose padded box meets
    /// `reach` (the segment's bounding box).
    fn sweep(&self, seg: &Segment, reach: &Rect, deep_inside: bool) -> Option<(f64, Hit)> {
        let mut best: Option<(f64, Hit)> = None;
        let start_tol = 1e-7 / seg.length().max(EPS);
        let mut consider = |t: f64, hit: Hit| {
            if t <= start_tol {
                return;
            }
            if best.is_none_or(|(bt, _)| t < bt) {
                best = Some((t, hit));
            }
        };
        // Outer boundary: hitting it from inside.
        let b = self.bounds;
        if !deep_inside {
            for (i, edge) in b.edges().iter().enumerate() {
                if let Some(t) = seg.first_hit(edge) {
                    // Only count as a hit if we are actually leaving:
                    // the segment continues beyond the wall.
                    let just_after = seg.at((t + 10.0 * start_tol).min(1.0));
                    let leaving = !b.contains_strict(just_after) && t < 1.0 - start_tol;
                    if leaving || !b.contains(seg.b) {
                        consider(t, Hit::Boundary(i));
                    }
                }
            }
        }
        for (oi, (obstacle, bx)) in self.obstacles.iter().zip(&self.boxes).enumerate() {
            if disjoint(bx, reach) {
                continue;
            }
            if let Some((t, ei)) = obstacle.first_boundary_hit(seg) {
                consider(t, Hit::Obstacle(oi, ei));
            }
        }
        best
    }

    /// Distance from `p` to the nearest obstacle boundary
    /// (`f64::INFINITY` when the field has no obstacles).
    pub fn nearest_obstacle_dist(&self, p: Point) -> f64 {
        self.obstacles
            .iter()
            .map(|o| o.dist_to_point(p))
            .fold(f64::INFINITY, f64::min)
    }

    /// The closest point of obstacle boundaries to `p`, if any obstacle
    /// exists.
    pub fn nearest_obstacle_point(&self, p: Point) -> Option<Point> {
        self.obstacles
            .iter()
            .map(|o| o.closest_boundary_point(p))
            .min_by(|a, b| p.dist_sq(*a).partial_cmp(&p.dist_sq(*b)).expect("finite"))
    }

    /// Clamps `p` into the field bounds.
    pub fn clamp(&self, p: Point) -> Point {
        self.bounds.clamp_point(p)
    }
}

impl fmt::Display for Field {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "field {}x{} with {} obstacle(s)",
            self.bounds.width(),
            self.bounds.height(),
            self.obstacles.len()
        )
    }
}

#[cfg(test)]
impl Field {
    /// [`Field::first_hit`] without its early-out: the full sweep on
    /// every segment, the oracle of the early-out's property test.
    fn first_hit_swept(&self, seg: &Segment) -> Option<(f64, Hit)> {
        let reach = segment_box(seg);
        self.sweep(seg, &reach, self.deep_inside(&reach))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::f64::consts::TAU;

    fn blocked_field() -> Field {
        Field::with_obstacles(
            100.0,
            100.0,
            vec![Rect::new(40.0, 0.0, 60.0, 80.0).to_polygon()],
        )
    }

    #[test]
    fn free_space_queries() {
        let f = blocked_field();
        assert!(f.is_free(Point::new(10.0, 10.0)));
        assert!(!f.is_free(Point::new(50.0, 40.0)));
        assert!(
            !f.is_free(Point::new(-1.0, 10.0)),
            "outside bounds is not free"
        );
        assert!(
            f.in_bounds(Point::new(50.0, 40.0)),
            "obstacle interior is still in bounds"
        );
    }

    #[test]
    fn segment_freedom() {
        let f = blocked_field();
        let clear = Segment::new(Point::new(10.0, 90.0), Point::new(90.0, 90.0));
        assert!(f.segment_free(&clear));
        let blocked = Segment::new(Point::new(10.0, 40.0), Point::new(90.0, 40.0));
        assert!(!f.segment_free(&blocked));
        let exits = Segment::new(Point::new(90.0, 90.0), Point::new(110.0, 90.0));
        assert!(!f.segment_free(&exits));
    }

    #[test]
    fn first_hit_finds_obstacle_edge() {
        let f = blocked_field();
        let seg = Segment::new(Point::new(10.0, 40.0), Point::new(90.0, 40.0));
        let (t, hit) = f.first_hit(&seg).unwrap();
        assert!((t - 30.0 / 80.0).abs() < 1e-9, "hits the wall at x=40");
        match hit {
            Hit::Obstacle(0, _) => {}
            other => panic!("expected obstacle hit, got {other:?}"),
        }
    }

    #[test]
    fn first_hit_finds_outer_boundary() {
        let f = Field::open(100.0, 100.0);
        let seg = Segment::new(Point::new(50.0, 50.0), Point::new(50.0, 150.0));
        let (t, hit) = f.first_hit(&seg).unwrap();
        assert!((t - 0.5).abs() < 1e-9);
        assert_eq!(hit, Hit::Boundary(2), "top edge of the CCW boundary");
    }

    #[test]
    fn first_hit_ignores_start_on_wall() {
        let f = blocked_field();
        // start exactly on the obstacle's left wall, moving away
        let seg = Segment::new(Point::new(40.0, 40.0), Point::new(10.0, 40.0));
        assert!(f.first_hit(&seg).is_none());
    }

    #[test]
    fn obstacle_distance() {
        let f = blocked_field();
        assert!((f.nearest_obstacle_dist(Point::new(30.0, 40.0)) - 10.0).abs() < 1e-9);
        assert_eq!(f.nearest_obstacle_dist(Point::new(50.0, 40.0)), 0.0);
        let np = f.nearest_obstacle_point(Point::new(30.0, 40.0)).unwrap();
        assert!(np.approx_eq(Point::new(40.0, 40.0)));
        assert_eq!(
            Field::open(10.0, 10.0).nearest_obstacle_dist(Point::ORIGIN),
            f64::INFINITY
        );
        assert!(Field::open(10.0, 10.0)
            .nearest_obstacle_point(Point::ORIGIN)
            .is_none());
    }

    proptest! {
        #[test]
        fn early_out_matches_the_full_sweep(
            rects in prop::collection::vec(
                (10.0..170.0f64, 10.0..170.0f64, 2.0..40.0f64, 2.0..40.0f64),
                0..4,
            ),
            probes in prop::collection::vec(
                (0u8..3, 0.0..1.0f64, 0.0..1.0f64, -3.0..3.0f64, 0.0..TAU, 0.0..1.0f64),
                1..24,
            ),
        ) {
            // Segments anchored within a few PAD of a padded obstacle
            // box, of the border, or anywhere in the field, at lengths
            // from zero to tens of meters: the early-out must answer
            // exactly what the full sweep answers.
            let obstacles = rects
                .iter()
                .map(|&(x, y, w, h)| Rect::new(x, y, x + w, y + h).to_polygon())
                .collect();
            let field = Field::with_obstacles(200.0, 200.0, obstacles);
            let b = field.bounds();
            for &(kind, u, v, off, ang, len) in &probes {
                let rect = match kind {
                    0 if !field.boxes.is_empty() => {
                        field.boxes[(u * field.boxes.len() as f64) as usize % field.boxes.len()]
                    }
                    1 => b.inflated(-PAD),
                    _ => b,
                };
                // a point on `rect`'s rim (kinds 0 and 1, nudged by
                // `off` PAD) or inside the field (kind 2)
                let a = if kind == 2 {
                    Point::new(b.min.x + u * b.width(), b.min.y + v * b.height())
                } else {
                    let t = v * 4.0;
                    let side = t as usize % 4;
                    let f = t.fract();
                    let (x, y) = match side {
                        0 => (rect.min.x + f * rect.width(), rect.min.y - off * PAD),
                        1 => (rect.max.x + off * PAD, rect.min.y + f * rect.height()),
                        2 => (rect.min.x + f * rect.width(), rect.max.y + off * PAD),
                        _ => (rect.min.x - off * PAD, rect.min.y + f * rect.height()),
                    };
                    Point::new(x, y)
                };
                // lengths from a micrometer-scale step to 40 m
                let len = if len < 0.2 { len * 1e-4 } else { len * 40.0 };
                let end = a + Point::from_angle(ang) * len;
                for seg in [Segment::new(a, end), Segment::new(end, a)] {
                    prop_assert_eq!(field.first_hit(&seg), field.first_hit_swept(&seg));
                }
            }
        }
    }
}
