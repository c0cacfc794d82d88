//! BUG2 obstacle-adaptive path planning (Lumelsky–Stepanov, §3.2 of
//! the paper).
//!
//! Sensors move toward a target along the straight *reference line*
//! until they hit an obstacle, then follow the obstacle boundary with
//! the right hand on the wall (clockwise around each obstacle, §3.2)
//! until they can rejoin the reference line closer to the target. Every
//! plan walks right-handed: §5.5.1's left-hand rule for boundary guided
//! expansion lives in FLOOR's choice of which chord end of a wall to
//! expand toward (`floor::blg_frontier` in `msn-core`), not here. BUG2 produces a path of length
//! at most `D + Σ nᵢ·lᵢ/2` for obstacles of perimeter `lᵢ` crossed
//! `nᵢ` times by the reference line, and is essentially optimal for
//! convex obstacles.
//!
//! The central type is [`Navigator`], an *incremental* planner: each
//! call to [`Navigator::advance`] moves at most a given distance, which
//! is exactly what a sensor moving at most `V·T` per period needs.
//! [`MultiLegPlan`] chains navigators through the intermediate
//! destinations of FLOOR's Algorithm 1.
//!
//! Positions are kept a small *clearance* away from obstacle walls by
//! navigating around slightly inflated obstacle polygons, so a
//! navigating sensor always stands in free space.
//!
//! # Examples
//!
//! ```
//! use msn_field::Field;
//! use msn_geom::{Point, Rect};
//! use msn_nav::Navigator;
//!
//! let field = Field::with_obstacles(
//!     100.0,
//!     100.0,
//!     vec![Rect::new(40.0, 20.0, 60.0, 80.0).to_polygon()],
//! );
//! let mut nav = Navigator::new(&field, Point::new(10.0, 50.0), Point::new(90.0, 50.0));
//! while !nav.is_done() && !nav.is_stuck() {
//!     nav.advance(5.0);
//! }
//! assert!(nav.is_done());
//! // went around: traveled noticeably more than the 80 m straight line
//! assert!(nav.traveled() > 80.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bug2;
mod context;
mod multileg;
mod offset;

pub use bug2::Navigator;
pub use context::{NavContext, NavScratch};
pub use multileg::MultiLegPlan;
pub use offset::offset_polygon;

/// Default clearance (m) kept between a navigating sensor and obstacle
/// walls.
pub const DEFAULT_CLEARANCE: f64 = 0.5;
