//! The one range-comparison rule every link test shares.

use msn_geom::Point;

/// Absolute slack (m) applied to every radio-range comparison.
///
/// Before this constant existed the substrate disagreed with itself:
/// [`crate::Neighbors::flood_from_base`] admitted base links at
/// `dist <= rc + 1e-9` while [`crate::SpatialGrid`] (and therefore
/// [`crate::DiskGraph::build`]) tested `dist² <= rc² + 1e-9` — a
/// window about fifty times narrower at `rc = 60`. A sensor pair at
/// exactly the same distance as an admitted base link could thus be
/// rejected as a graph edge, making "connected" depend on *which*
/// endpoint happened to be the base. Every range test now goes
/// through [`within_range`].
pub const RANGE_EPS: f64 = 1e-9;

/// Returns `true` when `a` and `b` are within radio range `r` of each
/// other, under the shared [`RANGE_EPS`] slack: `dist(a, b) <= r +
/// RANGE_EPS`, evaluated on squared distances to skip the square root.
#[inline]
pub fn within_range(a: Point, b: Point, r: f64) -> bool {
    let slack = r + RANGE_EPS;
    a.dist_sq(b) <= slack * slack
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boundary_is_inclusive_with_slack() {
        let a = Point::new(0.0, 0.0);
        assert!(within_range(a, Point::new(10.0, 0.0), 10.0));
        assert!(within_range(
            a,
            Point::new(10.0 + 0.5 * RANGE_EPS, 0.0),
            10.0
        ));
        assert!(!within_range(
            a,
            Point::new(10.0 + 3.0 * RANGE_EPS, 0.0),
            10.0
        ));
        assert!(!within_range(a, Point::new(10.1, 0.0), 10.0));
    }
}
