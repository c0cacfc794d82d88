//! Circles and disks.

use crate::{approx_zero, clamp, Point, Segment, EPS};
use std::fmt;

/// A circle (and the closed disk it bounds).
///
/// Models both sensing disks (radius `rs`) and communication disks
/// (radius `rc`) of a sensor.
///
/// # Examples
///
/// ```
/// use msn_geom::{Circle, Point};
/// let c = Circle::new(Point::new(0.0, 0.0), 2.0);
/// assert!(c.contains(Point::new(1.0, 1.0)));
/// assert!(!c.contains(Point::new(2.0, 2.0)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Circle {
    /// Center of the circle.
    pub center: Point,
    /// Radius (m), non-negative.
    pub radius: f64,
}

impl Circle {
    /// Creates a circle.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `radius` is negative or non-finite.
    #[inline]
    pub fn new(center: Point, radius: f64) -> Self {
        debug_assert!(radius >= 0.0 && radius.is_finite(), "invalid radius");
        Circle { center, radius }
    }

    /// Returns `true` if `p` lies in the closed disk (with [`EPS`] slack).
    #[inline]
    pub fn contains(&self, p: Point) -> bool {
        self.center.dist_sq(p) <= (self.radius + EPS) * (self.radius + EPS)
    }

    /// The chord of `seg` inside the closed disk, if any.
    ///
    /// Returns the sub-segment of `seg` whose points all lie in the disk.
    /// Returns `None` when `seg` misses the disk entirely. A tangent
    /// touch returns a degenerate (zero-length) segment.
    pub fn clip_segment(&self, seg: Segment) -> Option<Segment> {
        let d = seg.delta();
        let len_sq = d.norm_sq();
        if approx_zero(len_sq) {
            return self.contains(seg.a).then_some(seg);
        }
        // |a + t d − c|² = r² as a quadratic in t.
        let f = seg.a - self.center;
        let a = len_sq;
        let b = 2.0 * f.dot(d);
        let c = f.norm_sq() - self.radius * self.radius;
        let disc = b * b - 4.0 * a * c;
        if disc < 0.0 {
            return None;
        }
        let sqrt_disc = disc.sqrt();
        let t0 = (-b - sqrt_disc) / (2.0 * a);
        let t1 = (-b + sqrt_disc) / (2.0 * a);
        let lo = t0.max(0.0);
        let hi = t1.min(1.0);
        if lo > hi + EPS {
            return None;
        }
        let lo = clamp(lo, 0.0, 1.0);
        let hi = clamp(hi, 0.0, 1.0);
        Some(Segment::new(seg.at(lo), seg.at(hi)))
    }

    /// Intersection points of two circle boundaries (0, 1 or 2 points).
    ///
    /// Concentric or identical circles return no points.
    pub fn intersect_circle(&self, other: &Circle) -> Vec<Point> {
        let d = self.center.dist(other.center);
        if approx_zero(d) {
            return Vec::new();
        }
        if d > self.radius + other.radius + EPS || d < (self.radius - other.radius).abs() - EPS {
            return Vec::new();
        }
        // Distance from self.center to the radical line.
        let a = (self.radius * self.radius - other.radius * other.radius + d * d) / (2.0 * d);
        let h_sq = self.radius * self.radius - a * a;
        let dir = (other.center - self.center) / d;
        let mid = self.center + dir * a;
        if h_sq <= EPS {
            return vec![mid];
        }
        let h = h_sq.sqrt();
        let off = dir.perp() * h;
        vec![mid + off, mid - off]
    }
}

impl fmt::Display for Circle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "circle({} r={:.3})", self.center, self.radius)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit() -> Circle {
        Circle::new(Point::ORIGIN, 1.0)
    }

    #[test]
    fn containment() {
        let c = unit();
        assert!(c.contains(Point::ORIGIN));
        assert!(c.contains(Point::new(1.0, 0.0))); // boundary included
        assert!(!c.contains(Point::new(1.001, 0.0)));
    }

    #[test]
    fn clip_segment_chord() {
        let c = Circle::new(Point::ORIGIN, 5.0);
        let s = Segment::new(Point::new(-10.0, 3.0), Point::new(10.0, 3.0));
        let chord = c.clip_segment(s).unwrap();
        assert!((chord.length() - 8.0).abs() < 1e-9);
        assert!(chord.a.x < chord.b.x, "chord preserves segment direction");
        // miss entirely
        let miss = Segment::new(Point::new(-10.0, 6.0), Point::new(10.0, 6.0));
        assert_eq!(c.clip_segment(miss), None);
        // fully inside
        let inside = Segment::new(Point::new(-1.0, 0.0), Point::new(1.0, 0.0));
        assert_eq!(c.clip_segment(inside), Some(inside));
    }

    #[test]
    fn circle_circle_intersections() {
        let a = Circle::new(Point::new(0.0, 0.0), 5.0);
        let b = Circle::new(Point::new(8.0, 0.0), 5.0);
        let pts = a.intersect_circle(&b);
        assert_eq!(pts.len(), 2);
        for p in &pts {
            assert!((p.dist(a.center) - 5.0).abs() < 1e-9);
            assert!((p.dist(b.center) - 5.0).abs() < 1e-9);
        }
        // tangent
        let t = Circle::new(Point::new(10.0, 0.0), 5.0);
        assert_eq!(a.intersect_circle(&t).len(), 1);
        // disjoint and concentric
        assert!(a
            .intersect_circle(&Circle::new(Point::new(20.0, 0.0), 5.0))
            .is_empty());
        assert!(a
            .intersect_circle(&Circle::new(Point::ORIGIN, 3.0))
            .is_empty());
    }
}
