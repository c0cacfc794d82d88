//! Virtual-force computation (§4.2).
//!
//! As in Zou & Chakrabarty and Howard et al., neighbors and obstacles
//! exert repulsive forces; the resulting vector fixes only the
//! *direction* of the next step — CPVF chooses the step *size*
//! separately under the connectivity-preserving conditions.

use msn_field::Field;
use msn_geom::{Point, Vec2};

/// Tuning constants for the virtual-force field.
///
/// The paper does not publish its gains; these defaults reproduce the
/// qualitative behaviour its §4.3 reports (even spreading at large
/// `rc`, clustering at small `rc`, blockage at obstacles). See
/// DESIGN.md for the calibration note.
#[derive(Debug, Clone, PartialEq)]
pub struct ForceParams {
    /// Neighbor repulsion threshold (m): sensors closer than this repel.
    /// CPVF uses `min(rc, 2·rs)` — the largest spacing that can neither
    /// break a link nor waste sensing overlap.
    pub neighbor_threshold: f64,
    /// Gain of neighbor repulsion.
    pub neighbor_gain: f64,
    /// Obstacles repel within this distance (m); typically `rs`.
    pub obstacle_range: f64,
    /// Gain of obstacle repulsion.
    pub obstacle_gain: f64,
    /// Field-boundary repulsion range (m).
    pub boundary_range: f64,
    /// Gain of boundary repulsion.
    pub boundary_gain: f64,
    /// Forces below this magnitude are treated as equilibrium.
    pub min_force: f64,
}

impl ForceParams {
    /// Defaults for given ranges, matching §4.2's design intent.
    pub fn for_ranges(rc: f64, rs: f64) -> Self {
        ForceParams {
            neighbor_threshold: rc.min(2.0 * rs),
            neighbor_gain: 1.0,
            obstacle_range: rs.min(rc),
            obstacle_gain: 1.5,
            boundary_range: (rs * 0.5).max(2.0),
            boundary_gain: 1.5,
            min_force: 0.02,
        }
    }
}

/// Computes the total virtual force on the sensor at `pos`.
///
/// `neighbors` are the positions of sensors within communication range
/// (only those closer than [`ForceParams::neighbor_threshold`]
/// contribute). Returns the (unnormalized) force vector; compare its
/// norm against [`ForceParams::min_force`] before acting.
pub fn virtual_force(
    pos: Point,
    neighbors: impl IntoIterator<Item = Point>,
    field: &Field,
    params: &ForceParams,
) -> Vec2 {
    let mut f = Vec2::ORIGIN;
    // Neighbor repulsion: linear ramp from 1 at contact to 0 at the
    // threshold.
    let d_th = params.neighbor_threshold;
    for q in neighbors {
        let delta = pos - q;
        let d = delta.norm();
        if d >= d_th {
            continue;
        }
        let dir = if d <= 1e-9 {
            // Coincident sensors: deterministic tie-break by pushing
            // along +x (callers with RNG jitter positions elsewhere).
            Point::new(1.0, 0.0)
        } else {
            delta / d
        };
        f += dir * (params.neighbor_gain * (d_th - d) / d_th);
    }
    // Obstacle repulsion from the nearest boundary point of each
    // obstacle within range (the box filter only drops obstacles that
    // would fail the range test below).
    for obstacle in field.obstacles_near(pos, params.obstacle_range) {
        let bp = obstacle.closest_boundary_point(pos);
        let delta = pos - bp;
        let d = delta.norm();
        if d >= params.obstacle_range || d <= 1e-9 {
            continue;
        }
        f += (delta / d)
            * (params.obstacle_gain * (params.obstacle_range - d) / params.obstacle_range);
    }
    // Boundary repulsion keeps sensors inside the field.
    let b = field.bounds();
    let r = params.boundary_range;
    let g = params.boundary_gain;
    if pos.x - b.min.x < r {
        f += Point::new(g * (r - (pos.x - b.min.x)) / r, 0.0);
    }
    if b.max.x - pos.x < r {
        f += Point::new(-g * (r - (b.max.x - pos.x)) / r, 0.0);
    }
    if pos.y - b.min.y < r {
        f += Point::new(0.0, g * (r - (pos.y - b.min.y)) / r);
    }
    if b.max.y - pos.y < r {
        f += Point::new(0.0, -g * (r - (b.max.y - pos.y)) / r);
    }
    f
}

#[cfg(test)]
mod tests {
    use super::*;
    use msn_geom::Rect;

    fn open_field() -> Field {
        Field::open(1000.0, 1000.0)
    }

    fn params() -> ForceParams {
        ForceParams::for_ranges(60.0, 40.0)
    }

    #[test]
    fn default_threshold_is_min_rc_2rs() {
        assert_eq!(ForceParams::for_ranges(60.0, 40.0).neighbor_threshold, 60.0);
        assert_eq!(ForceParams::for_ranges(30.0, 40.0).neighbor_threshold, 30.0);
        assert_eq!(ForceParams::for_ranges(60.0, 20.0).neighbor_threshold, 40.0);
    }

    #[test]
    fn close_neighbor_pushes_away() {
        let pos = Point::new(500.0, 500.0);
        let f = virtual_force(pos, [Point::new(490.0, 500.0)], &open_field(), &params());
        assert!(f.x > 0.0, "pushed away from the neighbor on the left");
        assert!(f.y.abs() < 1e-9);
    }

    #[test]
    fn far_neighbor_exerts_nothing() {
        let pos = Point::new(500.0, 500.0);
        let f = virtual_force(pos, [Point::new(400.0, 500.0)], &open_field(), &params());
        assert_eq!(f, Point::ORIGIN);
    }

    #[test]
    fn closer_neighbors_push_harder() {
        let pos = Point::new(500.0, 500.0);
        let near = virtual_force(pos, [Point::new(495.0, 500.0)], &open_field(), &params());
        let far = virtual_force(pos, [Point::new(450.0, 500.0)], &open_field(), &params());
        assert!(near.norm() > far.norm());
    }

    #[test]
    fn symmetric_neighbors_cancel() {
        let pos = Point::new(500.0, 500.0);
        let f = virtual_force(
            pos,
            [Point::new(480.0, 500.0), Point::new(520.0, 500.0)],
            &open_field(),
            &params(),
        );
        assert!(f.norm() < 1e-9);
    }

    #[test]
    fn obstacle_repels_within_sensing_range() {
        let field = Field::with_obstacles(
            1000.0,
            1000.0,
            vec![Rect::new(520.0, 400.0, 600.0, 600.0).to_polygon()],
        );
        let pos = Point::new(500.0, 500.0); // 20 m from the wall, rs = 40
        let f = virtual_force(pos, [], &field, &params());
        assert!(f.x < 0.0, "pushed away from the wall on the right");
    }

    #[test]
    fn boundary_pushes_inward() {
        let pos = Point::new(3.0, 500.0); // boundary range is 20 m
        let f = virtual_force(pos, [], &open_field(), &params());
        assert!(f.x > 0.0);
        assert!(f.y.abs() < 1e-9);
        let corner = virtual_force(Point::new(3.0, 3.0), [], &open_field(), &params());
        assert!(corner.x > 0.0 && corner.y > 0.0);
    }

    /// [`virtual_force`] as it was before the box filter: every
    /// obstacle's nearest boundary point is measured.
    fn virtual_force_linear(
        pos: Point,
        neighbors: &[Point],
        field: &Field,
        p: &ForceParams,
    ) -> Vec2 {
        let mut f = Vec2::ORIGIN;
        let d_th = p.neighbor_threshold;
        for &q in neighbors {
            let delta = pos - q;
            let d = delta.norm();
            if d >= d_th {
                continue;
            }
            let dir = if d <= 1e-9 {
                Point::new(1.0, 0.0)
            } else {
                delta / d
            };
            f += dir * (p.neighbor_gain * (d_th - d) / d_th);
        }
        for obstacle in field.obstacles() {
            let delta = pos - obstacle.closest_boundary_point(pos);
            let d = delta.norm();
            if d >= p.obstacle_range || d <= 1e-9 {
                continue;
            }
            f += (delta / d) * (p.obstacle_gain * (p.obstacle_range - d) / p.obstacle_range);
        }
        let b = field.bounds();
        let (r, g) = (p.boundary_range, p.boundary_gain);
        if pos.x - b.min.x < r {
            f += Point::new(g * (r - (pos.x - b.min.x)) / r, 0.0);
        }
        if b.max.x - pos.x < r {
            f += Point::new(-g * (r - (b.max.x - pos.x)) / r, 0.0);
        }
        if pos.y - b.min.y < r {
            f += Point::new(0.0, g * (r - (pos.y - b.min.y)) / r);
        }
        if b.max.y - pos.y < r {
            f += Point::new(0.0, -g * (r - (b.max.y - pos.y)) / r);
        }
        f
    }

    #[test]
    fn box_filtered_obstacles_give_the_all_obstacles_force() {
        // The force over every obstacle (the loop before the box
        // filter), compared bit for bit on a lattice of positions
        // that straddles the range limit and the 1 mm box padding.
        let field = Field::with_obstacles(
            1000.0,
            1000.0,
            vec![
                Rect::new(200.0, 200.0, 300.0, 260.0).to_polygon(),
                Rect::new(0.0, 600.0, 120.0, 700.0).to_polygon(),
                msn_geom::Polygon::new(vec![
                    Point::new(500.0, 500.0),
                    Point::new(640.0, 520.0),
                    Point::new(560.0, 610.0),
                ]),
                Rect::new(520.0, 480.0, 700.0, 540.0).to_polygon(),
            ],
        );
        let params = params();
        let neighbors = [Point::new(250.0, 300.0), Point::new(580.0, 470.0)];
        let all_obstacles = |pos: Point| virtual_force_linear(pos, &neighbors, &field, &params);
        let r = params.obstacle_range;
        for ix in 0..200 {
            for iy in 0..200 {
                let pos = Point::new(5.0 * ix as f64 + 0.37, 5.0 * iy as f64 + 0.61);
                assert_eq!(
                    virtual_force(pos, neighbors, &field, &params),
                    all_obstacles(pos),
                    "{pos}"
                );
            }
        }
        // just inside, on and just past the range, beside each box
        for off in [-1e-3, -1e-9, 0.0, 1e-9, 5e-4, 1e-3, 2e-3] {
            for pos in [
                Point::new(300.0 + r + off, 230.0),
                Point::new(120.0 + r + off, 650.0),
                Point::new(610.0, 540.0 + r + off),
            ] {
                assert_eq!(
                    virtual_force(pos, neighbors, &field, &params),
                    all_obstacles(pos),
                    "{pos}"
                );
            }
        }
    }

    #[test]
    fn coincident_sensors_still_separate() {
        let pos = Point::new(500.0, 500.0);
        let f = virtual_force(pos, [pos], &open_field(), &params());
        assert!(f.norm() > 0.5, "coincident sensors must repel");
    }
}
