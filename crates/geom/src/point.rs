//! Points and vectors in the plane.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// A point (or position vector) in the plane, in meters.
///
/// `Point` doubles as a 2-D vector; the alias [`Vec2`] is provided for
/// signatures where the vector interpretation is clearer.
///
/// # Examples
///
/// ```
/// use msn_geom::Point;
/// let a = Point::new(3.0, 4.0);
/// assert_eq!(a.norm(), 5.0);
/// assert_eq!(a + a, Point::new(6.0, 8.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    /// Horizontal coordinate (m).
    pub x: f64,
    /// Vertical coordinate (m).
    pub y: f64,
}

/// Alias of [`Point`] used where a displacement (rather than a position)
/// is meant.
pub type Vec2 = Point;

impl Point {
    /// The origin `(0, 0)` — the paper's reference point `O`.
    pub const ORIGIN: Point = Point { x: 0.0, y: 0.0 };

    /// Creates a point from its coordinates.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Unit vector at angle `theta` radians from the positive x-axis.
    #[inline]
    pub fn from_angle(theta: f64) -> Self {
        Point::new(theta.cos(), theta.sin())
    }

    /// Euclidean norm.
    #[inline]
    pub fn norm(self) -> f64 {
        self.x.hypot(self.y)
    }

    /// Squared Euclidean norm (avoids the square root).
    #[inline]
    pub fn norm_sq(self) -> f64 {
        self.x * self.x + self.y * self.y
    }

    /// Euclidean distance to `other`.
    #[inline]
    pub fn dist(self, other: Point) -> f64 {
        (self - other).norm()
    }

    /// Squared Euclidean distance to `other`.
    #[inline]
    pub fn dist_sq(self, other: Point) -> f64 {
        (self - other).norm_sq()
    }

    /// Dot product.
    #[inline]
    pub fn dot(self, other: Vec2) -> f64 {
        self.x * other.x + self.y * other.y
    }

    /// 2-D cross product (`self.x·other.y − self.y·other.x`).
    ///
    /// Positive when `other` is counter-clockwise from `self`.
    #[inline]
    pub fn cross(self, other: Vec2) -> f64 {
        self.x * other.y - self.y * other.x
    }

    /// The vector rotated 90° counter-clockwise.
    #[inline]
    pub fn perp(self) -> Vec2 {
        Point::new(-self.y, self.x)
    }

    /// The unit vector in the same direction, or `None` for a (near-)zero
    /// vector.
    #[inline]
    pub fn normalized(self) -> Option<Vec2> {
        let n = self.norm();
        if n <= crate::EPS {
            None
        } else {
            Some(self / n)
        }
    }

    /// Linear interpolation: `self` at `t = 0`, `other` at `t = 1`.
    #[inline]
    pub fn lerp(self, other: Point, t: f64) -> Point {
        self + (other - self) * t
    }

    /// The midpoint of `self` and `other`.
    #[inline]
    pub fn midpoint(self, other: Point) -> Point {
        self.lerp(other, 0.5)
    }

    /// Returns `true` if the point is within [`crate::EPS`] of `other`.
    #[inline]
    pub fn approx_eq(self, other: Point) -> bool {
        self.dist(other) <= crate::EPS
    }

    /// The point moved `dist` meters toward `target`.
    ///
    /// If `target` is closer than `dist` (or coincides with `self`),
    /// returns `target` — movement never overshoots.
    #[inline]
    pub fn step_toward(self, target: Point, dist: f64) -> Point {
        let d = self.dist(target);
        if d <= dist || d <= crate::EPS {
            target
        } else {
            self + (target - self) * (dist / d)
        }
    }
}

impl Add for Point {
    type Output = Point;
    #[inline]
    fn add(self, rhs: Point) -> Point {
        Point::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl AddAssign for Point {
    #[inline]
    fn add_assign(&mut self, rhs: Point) {
        *self = *self + rhs;
    }
}

impl Sub for Point {
    type Output = Point;
    #[inline]
    fn sub(self, rhs: Point) -> Point {
        Point::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl SubAssign for Point {
    #[inline]
    fn sub_assign(&mut self, rhs: Point) {
        *self = *self - rhs;
    }
}

impl Mul<f64> for Point {
    type Output = Point;
    #[inline]
    fn mul(self, rhs: f64) -> Point {
        Point::new(self.x * rhs, self.y * rhs)
    }
}

impl Div<f64> for Point {
    type Output = Point;
    #[inline]
    fn div(self, rhs: f64) -> Point {
        Point::new(self.x / rhs, self.y / rhs)
    }
}

impl Neg for Point {
    type Output = Point;
    #[inline]
    fn neg(self) -> Point {
        Point::new(-self.x, -self.y)
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.3}, {:.3})", self.x, self.y)
    }
}

impl From<(f64, f64)> for Point {
    #[inline]
    fn from((x, y): (f64, f64)) -> Self {
        Point::new(x, y)
    }
}

impl From<Point> for (f64, f64) {
    #[inline]
    fn from(p: Point) -> Self {
        (p.x, p.y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let a = Point::new(1.0, 2.0);
        let b = Point::new(3.0, -4.0);
        assert_eq!(a + b, Point::new(4.0, -2.0));
        assert_eq!(b - a, Point::new(2.0, -6.0));
        assert_eq!(a * 2.0, Point::new(2.0, 4.0));
        assert_eq!(b / 2.0, Point::new(1.5, -2.0));
        assert_eq!(-a, Point::new(-1.0, -2.0));
        let mut c = a;
        c += b;
        assert_eq!(c, a + b);
        c -= b;
        assert_eq!(c, a);
    }

    #[test]
    fn norms_and_distances() {
        let p = Point::new(3.0, 4.0);
        assert_eq!(p.norm(), 5.0);
        assert_eq!(p.norm_sq(), 25.0);
        assert_eq!(Point::ORIGIN.dist(p), 5.0);
        assert_eq!(Point::ORIGIN.dist_sq(p), 25.0);
    }

    #[test]
    fn dot_and_cross() {
        let a = Point::new(1.0, 0.0);
        let b = Point::new(0.0, 1.0);
        assert_eq!(a.dot(b), 0.0);
        assert_eq!(a.cross(b), 1.0);
        assert_eq!(b.cross(a), -1.0);
        assert_eq!(a.perp(), b);
    }

    #[test]
    fn rotation_and_angle() {
        assert!(Point::from_angle(0.3).approx_eq(Point::new(0.3f64.cos(), 0.3f64.sin())));
    }

    #[test]
    fn normalization() {
        assert!(Point::new(10.0, 0.0)
            .normalized()
            .unwrap()
            .approx_eq(Point::new(1.0, 0.0)));
        assert!(Point::ORIGIN.normalized().is_none());
    }

    #[test]
    fn lerp_and_midpoint() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(10.0, 20.0);
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        assert_eq!(a.midpoint(b), Point::new(5.0, 10.0));
    }

    #[test]
    fn step_toward_never_overshoots() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(3.0, 4.0);
        assert_eq!(a.step_toward(b, 10.0), b);
        assert_eq!(a.step_toward(b, 5.0), b);
        let half = a.step_toward(b, 2.5);
        assert!(half.approx_eq(Point::new(1.5, 2.0)));
        // degenerate: stepping toward itself stays put
        assert_eq!(a.step_toward(a, 1.0), a);
    }

    #[test]
    fn conversions_and_display() {
        let p: Point = (1.0, 2.0).into();
        let t: (f64, f64) = p.into();
        assert_eq!(t, (1.0, 2.0));
        assert_eq!(format!("{p}"), "(1.000, 2.000)");
    }
}
