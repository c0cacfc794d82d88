//! Axis-aligned rectangles.

use crate::{clamp, Point, Polygon, Segment, EPS};
use std::fmt;

/// An axis-aligned rectangle `[min.x, max.x] × [min.y, max.y]`.
///
/// Used for the sensing-field bounding box and for rectangular obstacles.
///
/// # Examples
///
/// ```
/// use msn_geom::{Point, Rect};
/// let field = Rect::new(0.0, 0.0, 1000.0, 1000.0);
/// assert!(field.contains(Point::new(500.0, 500.0)));
/// assert_eq!(field.area(), 1_000_000.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rect {
    /// Lower-left corner.
    pub min: Point,
    /// Upper-right corner.
    pub max: Point,
}

impl Rect {
    /// Creates a rectangle from corner coordinates.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `x1 > x2` or `y1 > y2`.
    #[inline]
    pub fn new(x1: f64, y1: f64, x2: f64, y2: f64) -> Self {
        debug_assert!(x1 <= x2 && y1 <= y2, "rect corners out of order");
        Rect {
            min: Point::new(x1, y1),
            max: Point::new(x2, y2),
        }
    }

    /// Rectangle from two arbitrary corner points.
    pub fn from_corners(a: Point, b: Point) -> Self {
        Rect::new(a.x.min(b.x), a.y.min(b.y), a.x.max(b.x), a.y.max(b.y))
    }

    /// Width along x.
    #[inline]
    pub fn width(&self) -> f64 {
        self.max.x - self.min.x
    }

    /// Height along y.
    #[inline]
    pub fn height(&self) -> f64 {
        self.max.y - self.min.y
    }

    /// Area of the rectangle.
    #[inline]
    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }

    /// Center point.
    #[inline]
    pub fn center(&self) -> Point {
        self.min.midpoint(self.max)
    }

    /// Returns `true` if `p` is inside the closed rectangle (with
    /// [`EPS`] slack).
    #[inline]
    pub fn contains(&self, p: Point) -> bool {
        p.x >= self.min.x - EPS
            && p.x <= self.max.x + EPS
            && p.y >= self.min.y - EPS
            && p.y <= self.max.y + EPS
    }

    /// Returns `true` if `p` is strictly inside (no boundary slack).
    #[inline]
    pub fn contains_strict(&self, p: Point) -> bool {
        p.x > self.min.x + EPS
            && p.x < self.max.x - EPS
            && p.y > self.min.y + EPS
            && p.y < self.max.y - EPS
    }

    /// The point of the rectangle closest to `p` (i.e. `p` clamped).
    pub fn clamp_point(&self, p: Point) -> Point {
        Point::new(
            clamp(p.x, self.min.x, self.max.x),
            clamp(p.y, self.min.y, self.max.y),
        )
    }

    /// The rectangle grown by `margin` on every side (shrunk if negative).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if shrinking past a degenerate rectangle.
    pub fn inflated(&self, margin: f64) -> Rect {
        Rect::new(
            self.min.x - margin,
            self.min.y - margin,
            self.max.x + margin,
            self.max.y + margin,
        )
    }

    /// Corner points in counter-clockwise order starting at `min`.
    pub fn corners(&self) -> [Point; 4] {
        [
            self.min,
            Point::new(self.max.x, self.min.y),
            self.max,
            Point::new(self.min.x, self.max.y),
        ]
    }

    /// The four edges as segments, counter-clockwise.
    pub fn edges(&self) -> [Segment; 4] {
        let c = self.corners();
        [
            Segment::new(c[0], c[1]),
            Segment::new(c[1], c[2]),
            Segment::new(c[2], c[3]),
            Segment::new(c[3], c[0]),
        ]
    }

    /// The rectangle as a counter-clockwise [`Polygon`].
    pub fn to_polygon(&self) -> Polygon {
        Polygon::new(self.corners().to_vec())
    }

    /// Distance from `p` to the rectangle (0 if inside).
    pub fn dist_to_point(&self, p: Point) -> f64 {
        p.dist(self.clamp_point(p))
    }
}

impl fmt::Display for Rect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rect[{} .. {}]", self.min, self.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dimensions() {
        let r = Rect::new(1.0, 2.0, 4.0, 6.0);
        assert_eq!(r.width(), 3.0);
        assert_eq!(r.height(), 4.0);
        assert_eq!(r.area(), 12.0);
        assert_eq!(r.center(), Point::new(2.5, 4.0));
    }

    #[test]
    fn from_corners_normalizes() {
        let r = Rect::from_corners(Point::new(4.0, 6.0), Point::new(1.0, 2.0));
        assert_eq!(r, Rect::new(1.0, 2.0, 4.0, 6.0));
    }

    #[test]
    fn containment_including_boundary() {
        let r = Rect::new(0.0, 0.0, 10.0, 10.0);
        assert!(r.contains(Point::new(0.0, 0.0)));
        assert!(r.contains(Point::new(10.0, 10.0)));
        assert!(!r.contains(Point::new(10.1, 5.0)));
        assert!(!r.contains_strict(Point::new(0.0, 5.0)));
        assert!(r.contains_strict(Point::new(5.0, 5.0)));
    }

    #[test]
    fn clamping_and_distance() {
        let r = Rect::new(0.0, 0.0, 10.0, 10.0);
        assert_eq!(r.clamp_point(Point::new(-3.0, 4.0)), Point::new(0.0, 4.0));
        assert_eq!(r.dist_to_point(Point::new(-3.0, 4.0)), 3.0);
        assert_eq!(r.dist_to_point(Point::new(5.0, 5.0)), 0.0);
        assert_eq!(r.dist_to_point(Point::new(13.0, 14.0)), 5.0);
    }

    #[test]
    fn corners_and_edges_are_ccw() {
        let r = Rect::new(0.0, 0.0, 2.0, 1.0);
        let poly = r.to_polygon();
        assert!(poly.area() > 0.0, "CCW polygons have positive area");
        assert_eq!(poly.area(), 2.0);
        let perimeter: f64 = r.edges().iter().map(Segment::length).sum();
        assert_eq!(perimeter, 6.0);
    }

    #[test]
    fn inflation() {
        let r = Rect::new(0.0, 0.0, 10.0, 10.0).inflated(2.0);
        assert_eq!(r, Rect::new(-2.0, -2.0, 12.0, 12.0));
    }
}
