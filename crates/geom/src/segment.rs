//! Line segments.

use crate::{approx_zero, clamp, Point, Vec2, EPS};
use std::fmt;

/// A directed line segment from [`Segment::a`] to [`Segment::b`].
///
/// # Examples
///
/// ```
/// use msn_geom::{Point, Segment};
/// let s = Segment::new(Point::new(0.0, 0.0), Point::new(10.0, 0.0));
/// assert_eq!(s.length(), 10.0);
/// assert_eq!(s.dist_to_point(Point::new(5.0, 3.0)), 3.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// Start point.
    pub a: Point,
    /// End point.
    pub b: Point,
}

impl Segment {
    /// Creates a segment from `a` to `b`.
    #[inline]
    pub const fn new(a: Point, b: Point) -> Self {
        Segment { a, b }
    }

    /// Length of the segment.
    #[inline]
    pub fn length(&self) -> f64 {
        self.a.dist(self.b)
    }

    /// Displacement vector `b − a`.
    #[inline]
    pub fn delta(&self) -> Vec2 {
        self.b - self.a
    }

    /// Unit direction vector, or `None` for a degenerate (point) segment.
    #[inline]
    pub fn direction(&self) -> Option<Vec2> {
        self.delta().normalized()
    }

    /// Midpoint of the segment.
    #[inline]
    pub fn midpoint(&self) -> Point {
        self.a.midpoint(self.b)
    }

    /// The segment with endpoints swapped.
    #[inline]
    pub fn reversed(&self) -> Segment {
        Segment::new(self.b, self.a)
    }

    /// Point at parameter `t ∈ [0, 1]` along the segment.
    #[inline]
    pub fn at(&self, t: f64) -> Point {
        self.a.lerp(self.b, t)
    }

    /// Parameter of the orthogonal projection of `p` onto the supporting
    /// line, clamped to `[0, 1]`.
    pub fn project_clamped(&self, p: Point) -> f64 {
        let d = self.delta();
        let len_sq = d.norm_sq();
        if approx_zero(len_sq) {
            return 0.0;
        }
        clamp((p - self.a).dot(d) / len_sq, 0.0, 1.0)
    }

    /// The point on the segment closest to `p`.
    pub fn closest_point(&self, p: Point) -> Point {
        self.at(self.project_clamped(p))
    }

    /// Euclidean distance from `p` to the segment.
    pub fn dist_to_point(&self, p: Point) -> f64 {
        self.closest_point(p).dist(p)
    }

    /// Returns `true` if `p` lies on the segment (within [`EPS`]).
    pub fn contains_point(&self, p: Point) -> bool {
        self.dist_to_point(p) <= EPS
    }

    /// Intersection of two segments.
    ///
    /// Returns the intersection point if the segments cross (including
    /// touching at endpoints). Collinear overlapping segments return an
    /// arbitrary shared point (an endpoint of the overlap). Returns `None`
    /// for disjoint segments.
    pub fn intersect(&self, other: &Segment) -> Option<Point> {
        let r = self.delta();
        let s = other.delta();
        let denom = r.cross(s);
        let qp = other.a - self.a;
        if approx_zero(denom) {
            // Parallel. Collinear iff qp × r == 0.
            if !approx_zero(qp.cross(r)) {
                return None;
            }
            // Collinear: project other's endpoints on self.
            let len_sq = r.norm_sq();
            if approx_zero(len_sq) {
                // self is a point
                return other.contains_point(self.a).then_some(self.a);
            }
            let t0 = (other.a - self.a).dot(r) / len_sq;
            let t1 = (other.b - self.a).dot(r) / len_sq;
            let (lo, hi) = if t0 <= t1 { (t0, t1) } else { (t1, t0) };
            let lo_c = lo.max(0.0);
            let hi_c = hi.min(1.0);
            if lo_c <= hi_c + EPS {
                return Some(self.at(clamp(lo_c, 0.0, 1.0)));
            }
            return None;
        }
        let t = qp.cross(s) / denom;
        let u = qp.cross(r) / denom;
        let tol = 1e-12;
        if (-tol..=1.0 + tol).contains(&t) && (-tol..=1.0 + tol).contains(&u) {
            Some(self.at(clamp(t, 0.0, 1.0)))
        } else {
            None
        }
    }

    /// Parameter `t ∈ [0, 1]` of the *first* intersection with `other`
    /// along `self`'s direction, if any.
    ///
    /// For collinear overlaps this is the smallest parameter at which the
    /// segments share a point. Useful for motion sweeps ("when do I hit
    /// this wall?").
    pub fn first_hit(&self, other: &Segment) -> Option<f64> {
        let r = self.delta();
        let s = other.delta();
        let denom = r.cross(s);
        let qp = other.a - self.a;
        if approx_zero(denom) {
            if !approx_zero(qp.cross(r)) {
                return None;
            }
            let len_sq = r.norm_sq();
            if approx_zero(len_sq) {
                return other.contains_point(self.a).then_some(0.0);
            }
            let t0 = (other.a - self.a).dot(r) / len_sq;
            let t1 = (other.b - self.a).dot(r) / len_sq;
            let (lo, hi) = if t0 <= t1 { (t0, t1) } else { (t1, t0) };
            if hi < -EPS || lo > 1.0 + EPS {
                return None;
            }
            return Some(clamp(lo.max(0.0), 0.0, 1.0));
        }
        let t = qp.cross(s) / denom;
        let u = qp.cross(r) / denom;
        let tol = 1e-12;
        if (-tol..=1.0 + tol).contains(&t) && (-tol..=1.0 + tol).contains(&u) {
            Some(clamp(t, 0.0, 1.0))
        } else {
            None
        }
    }
}

impl fmt::Display for Segment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{} -> {}]", self.a, self.b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg(ax: f64, ay: f64, bx: f64, by: f64) -> Segment {
        Segment::new(Point::new(ax, ay), Point::new(bx, by))
    }

    #[test]
    fn basics() {
        let s = seg(0.0, 0.0, 6.0, 8.0);
        assert_eq!(s.length(), 10.0);
        assert_eq!(s.midpoint(), Point::new(3.0, 4.0));
        assert_eq!(s.reversed().a, s.b);
        assert!(s.direction().unwrap().approx_eq(Point::new(0.6, 0.8)));
        assert!(seg(1.0, 1.0, 1.0, 1.0).direction().is_none());
    }

    #[test]
    fn closest_point_clamps_to_endpoints() {
        let s = seg(0.0, 0.0, 10.0, 0.0);
        assert_eq!(s.closest_point(Point::new(-5.0, 3.0)), s.a);
        assert_eq!(s.closest_point(Point::new(15.0, 3.0)), s.b);
        assert_eq!(s.closest_point(Point::new(4.0, 3.0)), Point::new(4.0, 0.0));
        assert_eq!(s.dist_to_point(Point::new(4.0, 3.0)), 3.0);
    }

    #[test]
    fn crossing_segments_intersect() {
        let s1 = seg(0.0, 0.0, 10.0, 10.0);
        let s2 = seg(0.0, 10.0, 10.0, 0.0);
        let p = s1.intersect(&s2).unwrap();
        assert!(p.approx_eq(Point::new(5.0, 5.0)));
        assert_eq!(s1.first_hit(&s2), Some(0.5));
    }

    #[test]
    fn touching_at_endpoint_counts() {
        let s1 = seg(0.0, 0.0, 5.0, 5.0);
        let s2 = seg(5.0, 5.0, 10.0, 0.0);
        assert!(s1.intersect(&s2).unwrap().approx_eq(Point::new(5.0, 5.0)));
    }

    #[test]
    fn parallel_disjoint_do_not_intersect() {
        let s1 = seg(0.0, 0.0, 10.0, 0.0);
        let s2 = seg(0.0, 1.0, 10.0, 1.0);
        assert_eq!(s1.intersect(&s2), None);
        assert_eq!(s1.first_hit(&s2), None);
    }

    #[test]
    fn collinear_overlap_reports_first_hit() {
        let s1 = seg(0.0, 0.0, 10.0, 0.0);
        let s2 = seg(4.0, 0.0, 20.0, 0.0);
        assert!(s1.intersect(&s2).is_some());
        assert_eq!(s1.first_hit(&s2), Some(0.4));
        let s3 = seg(11.0, 0.0, 20.0, 0.0);
        assert_eq!(s1.first_hit(&s3), None);
    }

    #[test]
    fn contains_point_on_boundary() {
        let s = seg(0.0, 0.0, 10.0, 0.0);
        assert!(s.contains_point(Point::new(0.0, 0.0)));
        assert!(s.contains_point(Point::new(10.0, 0.0)));
        assert!(s.contains_point(Point::new(3.0, 0.0)));
        assert!(!s.contains_point(Point::new(3.0, 0.1)));
    }
}
