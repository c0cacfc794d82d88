//! Sensing fields, obstacles, coverage measurement and workloads.
//!
//! This crate models the paper's deployment environment (§3.1): a
//! rectangular 2-D field containing polygonal obstacles of arbitrary
//! shape, connected free space, and a reference point `O = (0, 0)`
//! where the base station sits. It also provides the measurement and
//! workload machinery the evaluation needs:
//!
//! * [`Field`] — geometry queries (free-space tests, motion blocking,
//!   first-obstacle-hit sweeps);
//! * [`CoverageGrid`] — raster coverage measurement over free area
//!   (the paper's *coverage* metric), counted from scratch per
//!   measurement as a union of exact per-row disk spans over a
//!   free-cell bitmap;
//! * [`free_space_connected`] — flood-fill check that obstacles do not
//!   partition the field (required by §3.1 and by the random-obstacle
//!   workload of §6.4);
//! * [`scatter_clustered`] / [`scatter_uniform`] — the two initial
//!   distributions of §6;
//! * [`random_obstacle_field`] — the 1–4 random rectangles workload of
//!   §6.4;
//! * [`campus_grid_field`] / [`corridor_field`] /
//!   [`disaster_zone_field`] — parametric layouts for the scenario
//!   engine's declarative field specs;
//! * [`ascii_layout`] — terminal rendering of layouts (our stand-in for
//!   the paper's layout figures 3 and 8).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ascii;
mod coverage;
mod distributions;
mod field;
mod freespace;
mod layouts;
mod random_obstacles;

pub use ascii::{ascii_layout, AsciiOptions};
pub use coverage::CoverageGrid;
pub use distributions::{scatter_clustered, scatter_uniform};
pub use field::{Field, Hit};
pub use freespace::free_space_connected;
pub use layouts::{
    campus_grid_field, corridor_field, disaster_zone_field, CampusGridParams, CorridorParams,
};
pub use random_obstacles::{random_obstacle_field, RandomObstacleParams};

/// Standard field used throughout the paper's evaluation:
/// 1000 m × 1000 m, obstacle-free.
pub fn paper_field() -> Field {
    Field::open(1000.0, 1000.0)
}

/// The two-obstacle field of Figures 3(c) and 8(c): two rectangular
/// walls around the clustered start area, leaving three exits to the
/// vacant area — two at the top and a narrower one at the bottom.
pub fn two_obstacle_field() -> Field {
    use msn_geom::Rect;
    Field::with_obstacles(
        1000.0,
        1000.0,
        vec![
            // Vertical wall east of the cluster; narrow exit below it.
            Rect::new(500.0, 30.0, 560.0, 700.0).to_polygon(),
            // Horizontal wall north of the cluster; exits on both sides.
            Rect::new(60.0, 500.0, 460.0, 560.0).to_polygon(),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use msn_geom::Point;

    #[test]
    fn paper_field_is_open_and_square() {
        let f = paper_field();
        assert_eq!(f.bounds().width(), 1000.0);
        assert!(f.obstacles().is_empty());
        assert!(f.is_free(Point::new(500.0, 500.0)));
    }

    #[test]
    fn two_obstacle_field_blocks_and_stays_connected() {
        let f = two_obstacle_field();
        assert_eq!(f.obstacles().len(), 2);
        assert!(
            !f.is_free(Point::new(530.0, 300.0)),
            "inside the vertical wall"
        );
        assert!(
            !f.is_free(Point::new(200.0, 530.0)),
            "inside the horizontal wall"
        );
        assert!(
            f.is_free(Point::new(10.0, 10.0)),
            "base-station corner clear"
        );
        // the three exits are open
        assert!(f.is_free(Point::new(30.0, 530.0)), "top-left exit");
        assert!(f.is_free(Point::new(480.0, 530.0)), "top-channel exit");
        assert!(f.is_free(Point::new(530.0, 15.0)), "narrow bottom exit");
        assert!(
            free_space_connected(&f, 10.0),
            "obstacles must not partition the field"
        );
    }
}
