//! Infinite lines.

use crate::{approx_zero, Point, Vec2};
use std::fmt;

/// An infinite line through [`Line::origin`] with direction
/// [`Line::dir`] (not necessarily unit length).
///
/// # Examples
///
/// ```
/// use msn_geom::{Line, Point};
/// let diag = Line::new(Point::new(0.0, 0.0), Point::new(1.0, 1.0));
/// let anti = Line::new(Point::new(2.0, 0.0), Point::new(-1.0, 1.0));
/// assert!(diag.intersect(&anti).unwrap().approx_eq(Point::new(1.0, 1.0)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Line {
    /// A point on the line.
    pub origin: Point,
    /// Direction of the line (any non-zero vector).
    pub dir: Vec2,
}

impl Line {
    /// Line through `origin` with direction `dir`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `dir` is (near-)zero.
    #[inline]
    pub fn new(origin: Point, dir: Vec2) -> Self {
        debug_assert!(!approx_zero(dir.norm()), "line direction must be non-zero");
        Line { origin, dir }
    }

    /// Intersection with another line, unless (near-)parallel.
    pub fn intersect(&self, other: &Line) -> Option<Point> {
        let denom = self.dir.cross(other.dir);
        if approx_zero(denom) {
            return None;
        }
        let t = (other.origin - self.origin).cross(other.dir) / denom;
        Some(self.origin + self.dir * t)
    }
}

impl fmt::Display for Line {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line({} dir {})", self.origin, self.dir)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_line_intersection() {
        let h = Line::new(Point::new(0.0, 2.0), Point::new(1.0, 0.0));
        let v = Line::new(Point::new(3.0, 0.0), Point::new(0.0, 1.0));
        assert!(h.intersect(&v).unwrap().approx_eq(Point::new(3.0, 2.0)));
        let h2 = Line::new(Point::new(0.0, 5.0), Point::new(1.0, 0.0));
        assert_eq!(h.intersect(&h2), None);
    }
}
