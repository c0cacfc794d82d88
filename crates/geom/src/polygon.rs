//! Simple polygons.

use crate::{Point, Rect, Segment, EPS};
use std::fmt;

/// A simple polygon given by its vertices in order (no closing
/// repetition of the first vertex).
///
/// Obstacles in the sensing field are polygons; [`Polygon::new`] accepts
/// either winding and normalizes to counter-clockwise so that
/// boundary-following rules (left-hand/right-hand, §3.2 of the paper)
/// have a consistent orientation to work with.
///
/// # Examples
///
/// ```
/// use msn_geom::{Point, Polygon};
/// let tri = Polygon::new(vec![
///     Point::new(0.0, 0.0),
///     Point::new(4.0, 0.0),
///     Point::new(0.0, 3.0),
/// ]);
/// assert_eq!(tri.area(), 6.0);
/// assert!(tri.contains(Point::new(1.0, 1.0)));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Polygon {
    vertices: Vec<Point>,
}

impl Polygon {
    /// Creates a polygon from vertices, normalizing winding to
    /// counter-clockwise.
    ///
    /// # Panics
    ///
    /// Panics if fewer than 3 vertices are given.
    pub fn new(mut vertices: Vec<Point>) -> Self {
        assert!(vertices.len() >= 3, "a polygon needs at least 3 vertices");
        if signed_area(&vertices) < 0.0 {
            vertices.reverse();
        }
        Polygon { vertices }
    }

    /// The vertices in counter-clockwise order.
    #[inline]
    pub fn vertices(&self) -> &[Point] {
        &self.vertices
    }

    /// Number of vertices.
    #[inline]
    pub fn len(&self) -> usize {
        self.vertices.len()
    }

    /// Always `false`: a polygon has at least 3 vertices.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Area of the polygon (positive; vertices are stored CCW).
    pub fn area(&self) -> f64 {
        signed_area(&self.vertices)
    }

    /// Perimeter length.
    pub fn perimeter(&self) -> f64 {
        self.edges().map(|e| e.length()).sum()
    }

    /// Iterator over the edges, each from vertex `i` to vertex `i+1`
    /// (wrapping).
    pub fn edges(&self) -> impl Iterator<Item = Segment> + '_ {
        let n = self.vertices.len();
        (0..n).map(move |i| Segment::new(self.vertices[i], self.vertices[(i + 1) % n]))
    }

    /// Edge starting at vertex `i` (wrapping).
    pub fn edge(&self, i: usize) -> Segment {
        let n = self.vertices.len();
        Segment::new(self.vertices[i % n], self.vertices[(i + 1) % n])
    }

    /// Axis-aligned bounding box.
    pub fn bounding_box(&self) -> Rect {
        let mut min = self.vertices[0];
        let mut max = self.vertices[0];
        for v in &self.vertices[1..] {
            min.x = min.x.min(v.x);
            min.y = min.y.min(v.y);
            max.x = max.x.max(v.x);
            max.y = max.y.max(v.y);
        }
        Rect::from_corners(min, max)
    }

    /// Returns `true` if `p` is inside the closed polygon.
    ///
    /// Boundary points (within [`EPS`]) count as inside. Uses the
    /// crossing-number rule for interior points.
    pub fn contains(&self, p: Point) -> bool {
        if self.on_boundary(p) {
            return true;
        }
        let mut inside = false;
        let n = self.vertices.len();
        let mut j = n - 1;
        for i in 0..n {
            let vi = self.vertices[i];
            let vj = self.vertices[j];
            if (vi.y > p.y) != (vj.y > p.y) {
                let x_cross = vj.x + (p.y - vj.y) / (vi.y - vj.y) * (vi.x - vj.x);
                if p.x < x_cross {
                    inside = !inside;
                }
            }
            j = i;
        }
        inside
    }

    /// Returns `true` if `p` lies on the polygon boundary (within [`EPS`]).
    pub fn on_boundary(&self, p: Point) -> bool {
        self.edges().any(|e| e.dist_to_point(p) <= EPS)
    }

    /// Distance from `p` to the polygon boundary (regardless of side).
    pub fn boundary_dist(&self, p: Point) -> f64 {
        self.edges()
            .map(|e| e.dist_to_point(p))
            .fold(f64::INFINITY, f64::min)
    }

    /// Distance from `p` to the polygon: 0 inside, otherwise the
    /// distance to the boundary.
    pub fn dist_to_point(&self, p: Point) -> f64 {
        if self.contains(p) {
            0.0
        } else {
            self.boundary_dist(p)
        }
    }

    /// The boundary point closest to `p`.
    pub fn closest_boundary_point(&self, p: Point) -> Point {
        let mut best = self.vertices[0];
        let mut best_d = f64::INFINITY;
        for e in self.edges() {
            let q = e.closest_point(p);
            let d = q.dist(p);
            if d < best_d {
                best_d = d;
                best = q;
            }
        }
        best
    }

    /// Returns `true` if the segment intersects the closed polygon
    /// (touches the boundary or passes through the interior).
    pub fn intersects_segment(&self, seg: &Segment) -> bool {
        if self.contains(seg.a) || self.contains(seg.b) {
            return true;
        }
        self.edges().any(|e| e.intersect(seg).is_some())
    }

    /// The first parameter `t ∈ [0, 1]` at which `seg` touches the
    /// polygon boundary, together with the index of the edge hit.
    ///
    /// Returns `None` if the segment never meets the boundary (it may
    /// still be fully inside; callers that care should test
    /// [`Polygon::contains`] on `seg.a`).
    pub fn first_boundary_hit(&self, seg: &Segment) -> Option<(f64, usize)> {
        let mut best: Option<(f64, usize)> = None;
        let n = self.vertices.len();
        for i in 0..n {
            let e = self.edge(i);
            if let Some(t) = seg.first_hit(&e) {
                if best.is_none_or(|(bt, _)| t < bt) {
                    best = Some((t, i));
                }
            }
        }
        best
    }
}

fn signed_area(vertices: &[Point]) -> f64 {
    let n = vertices.len();
    let mut s = 0.0;
    for i in 0..n {
        s += vertices[i].cross(vertices[(i + 1) % n]);
    }
    s / 2.0
}

impl fmt::Display for Polygon {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "polygon[")?;
        for (i, v) in self.vertices.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square() -> Polygon {
        Rect::new(0.0, 0.0, 10.0, 10.0).to_polygon()
    }

    #[test]
    fn winding_is_normalized() {
        // clockwise input becomes CCW
        let cw = Polygon::new(vec![
            Point::new(0.0, 0.0),
            Point::new(0.0, 1.0),
            Point::new(1.0, 1.0),
            Point::new(1.0, 0.0),
        ]);
        assert!(cw.area() > 0.0);
        assert_eq!(cw.area(), 1.0);
    }

    #[test]
    fn area_perimeter_centroid() {
        let sq = square();
        assert_eq!(sq.area(), 100.0);
        assert_eq!(sq.perimeter(), 40.0);
    }

    #[test]
    fn containment() {
        let sq = square();
        assert!(sq.contains(Point::new(5.0, 5.0)));
        assert!(sq.contains(Point::new(0.0, 5.0))); // boundary
        assert!(sq.contains(Point::new(0.0, 0.0))); // corner
        assert!(!sq.contains(Point::new(-0.1, 5.0)));
        assert!(!sq.contains(Point::new(10.1, 10.1)));
    }

    #[test]
    fn concave_containment() {
        // L-shape
        let l = Polygon::new(vec![
            Point::new(0.0, 0.0),
            Point::new(4.0, 0.0),
            Point::new(4.0, 1.0),
            Point::new(1.0, 1.0),
            Point::new(1.0, 4.0),
            Point::new(0.0, 4.0),
        ]);
        assert!(l.contains(Point::new(0.5, 3.0)));
        assert!(l.contains(Point::new(3.0, 0.5)));
        assert!(!l.contains(Point::new(3.0, 3.0)));
        assert_eq!(l.area(), 7.0);
    }

    #[test]
    fn distances() {
        let sq = square();
        assert_eq!(sq.dist_to_point(Point::new(5.0, 5.0)), 0.0);
        assert_eq!(sq.dist_to_point(Point::new(-3.0, 5.0)), 3.0);
        assert_eq!(sq.boundary_dist(Point::new(5.0, 5.0)), 5.0);
        let cb = sq.closest_boundary_point(Point::new(5.0, 12.0));
        assert!(cb.approx_eq(Point::new(5.0, 10.0)));
    }

    #[test]
    fn segment_intersection() {
        let sq = square();
        let through = Segment::new(Point::new(-5.0, 5.0), Point::new(15.0, 5.0));
        assert!(sq.intersects_segment(&through));
        let (t, edge) = sq.first_boundary_hit(&through).unwrap();
        assert!((t - 0.25).abs() < 1e-9, "hits left edge at x=0");
        assert_eq!(edge, 3, "left edge is edge index 3 of a CCW rect");
        let miss = Segment::new(Point::new(-5.0, 15.0), Point::new(15.0, 15.0));
        assert!(!sq.intersects_segment(&miss));
        let inside = Segment::new(Point::new(2.0, 2.0), Point::new(3.0, 3.0));
        assert!(sq.intersects_segment(&inside));
        assert_eq!(sq.first_boundary_hit(&inside), None);
    }

    #[test]
    fn bounding_box() {
        let tri = Polygon::new(vec![
            Point::new(1.0, 1.0),
            Point::new(5.0, 2.0),
            Point::new(3.0, 7.0),
        ]);
        assert_eq!(tri.bounding_box(), Rect::new(1.0, 1.0, 5.0, 7.0));
    }
}
