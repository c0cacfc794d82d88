//! Planar geometry substrate for mobile-sensor-network deployment.
//!
//! This crate provides the 2-D primitives that every other crate in the
//! workspace builds on: [`Point`]/[`Vec2`], [`Segment`], [`Line`],
//! [`Circle`], [`Rect`], [`Polygon`], half-plane clipping
//! ([`HalfPlane::clip`]) and minimum enclosing circles
//! ([`min_enclosing_circle`]).
//!
//! All coordinates are `f64` meters. Comparisons use the crate-wide
//! tolerance [`EPS`]; the helpers [`approx_eq`] and [`approx_zero`] apply
//! it consistently.
//!
//! # Examples
//!
//! ```
//! use msn_geom::{Point, Circle, Segment};
//!
//! let disk = Circle::new(Point::new(0.0, 0.0), 40.0);
//! let chord = disk.clip_segment(Segment::new(
//!     Point::new(-100.0, 10.0),
//!     Point::new(100.0, 10.0),
//! )).expect("the horizontal line y=10 crosses the disk");
//! assert!((chord.length() - 2.0 * (40.0f64.powi(2) - 100.0).sqrt()).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod circle;
mod halfplane;
mod line;
mod mec;
mod point;
mod polygon;
mod rect;
mod segment;

pub use circle::Circle;
pub use halfplane::HalfPlane;
pub use line::Line;
pub use mec::min_enclosing_circle;
pub use point::{Point, Vec2};
pub use polygon::Polygon;
pub use rect::Rect;
pub use segment::Segment;

/// Crate-wide geometric tolerance, in meters.
///
/// The simulated fields are on the order of 10³ m, so `1e-9` m keeps
/// roughly six significant digits of slack above `f64` round-off.
pub const EPS: f64 = 1e-9;

/// Returns `true` if `a` and `b` differ by at most [`EPS`].
#[inline]
pub fn approx_eq(a: f64, b: f64) -> bool {
    (a - b).abs() <= EPS
}

/// Returns `true` if `x` is within [`EPS`] of zero.
#[inline]
pub fn approx_zero(x: f64) -> bool {
    x.abs() <= EPS
}

/// Clamps `x` into `[lo, hi]`.
///
/// Identical to [`f64::clamp`] but tolerates `lo > hi` caused by
/// floating-point jitter (returns `lo` in that case) instead of panicking.
#[inline]
pub fn clamp(x: f64, lo: f64, hi: f64) -> f64 {
    if hi < lo {
        return lo;
    }
    x.clamp(lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_helpers() {
        assert!(approx_eq(1.0, 1.0 + 1e-12));
        assert!(!approx_eq(1.0, 1.0 + 1e-6));
        assert!(approx_zero(0.0));
        assert!(approx_zero(-1e-10));
        assert!(!approx_zero(1e-3));
    }

    #[test]
    fn clamp_tolerates_inverted_range() {
        assert_eq!(clamp(5.0, 0.0, 10.0), 5.0);
        assert_eq!(clamp(-1.0, 0.0, 10.0), 0.0);
        assert_eq!(clamp(11.0, 0.0, 10.0), 10.0);
        // inverted by jitter: returns lo rather than panicking
        assert_eq!(clamp(3.0, 1.0, 1.0 - 1e-15), 1.0);
    }
}
