//! The box-filtered field queries against the linear scans they
//! replaced: `first_hit`, `segment_free` and the obstacle-force
//! neighbourhood must answer bit-identically, order included, on
//! random rectangular and polygonal obstacles, on probes aimed at
//! walls (starting on them, grazing them, collinear with them, ending
//! a hair off them, zero-length).

use msn_field::{Field, Hit};
use msn_geom::{Point, Polygon, Rect, Segment, EPS};
use proptest::prelude::*;
use proptest::TestCaseError;
use std::f64::consts::TAU;

/// The linear `Field::first_hit`: every boundary wall, then every
/// obstacle, minimum `t` with the first candidate winning ties.
fn first_hit_linear(field: &Field, seg: &Segment) -> Option<(f64, Hit)> {
    let mut best: Option<(f64, Hit)> = None;
    let start_tol = 1e-7 / seg.length().max(EPS);
    let mut consider = |t: f64, hit: Hit| {
        if t > start_tol && best.is_none_or(|(bt, _)| t < bt) {
            best = Some((t, hit));
        }
    };
    let bounds = field.bounds();
    for (i, edge) in bounds.to_polygon().edges().enumerate() {
        if let Some(t) = seg.first_hit(&edge) {
            let just_after = seg.at((t + 10.0 * start_tol).min(1.0));
            let leaving = !bounds.contains_strict(just_after) && t < 1.0 - start_tol;
            if leaving || !bounds.contains(seg.b) {
                consider(t, Hit::Boundary(i));
            }
        }
    }
    for (oi, obstacle) in field.obstacles().iter().enumerate() {
        if let Some((t, ei)) = obstacle.first_boundary_hit(seg) {
            consider(t, Hit::Obstacle(oi, ei));
        }
    }
    best
}

/// The linear `Field::segment_free`.
fn segment_free_linear(field: &Field, seg: &Segment) -> bool {
    field.bounds().contains(seg.a)
        && field.bounds().contains(seg.b)
        && !field.obstacles().iter().any(|o| o.intersects_segment(seg))
}

/// CPVF's obstacle-repulsion term over the given obstacles (the loop
/// of `msn_deploy::cpvf::virtual_force`, gain 1).
fn obstacle_force<'a>(
    pos: Point,
    obstacles: impl Iterator<Item = &'a Polygon>,
    range: f64,
) -> Point {
    let mut f = Point::ORIGIN;
    for obstacle in obstacles {
        let delta = pos - obstacle.closest_boundary_point(pos);
        let d = delta.norm();
        if d >= range || d <= 1e-9 {
            continue;
        }
        f += (delta / d) * ((range - d) / range);
    }
    f
}

/// An obstacle drawn from seven unit draws: an axis-aligned rectangle
/// (half of them flush with a field wall) or a star-shaped polygon of
/// 3–7 vertices.
fn obstacle(size: f64, u: &[f64; 7]) -> Polygon {
    let cx = size * (0.1 + 0.8 * u[1]);
    let cy = size * (0.1 + 0.8 * u[2]);
    let r = size * (0.02 + 0.15 * u[3]);
    if u[0] < 0.5 {
        let (mut x0, y0) = (cx - r, cy - r * (0.2 + u[4]));
        let mut x1 = cx + r * (0.2 + u[5]);
        if u[0] < 0.15 {
            x0 = 0.0;
        } else if u[0] < 0.3 {
            x1 = size;
        }
        Rect::new(x0.max(0.0), y0.max(0.0), x1.min(size), (cy + r).min(size)).to_polygon()
    } else {
        let k = 3 + (u[4] * 5.0) as usize;
        let mut angles: Vec<f64> = (0..k)
            .map(|j| (u[5] * 7.3 + j as f64 * (1.0 + u[6])).rem_euclid(TAU))
            .collect();
        angles.sort_by(f64::total_cmp);
        let vertices = angles
            .iter()
            .enumerate()
            .map(|(j, &a)| {
                let rr = r * (0.4 + 0.6 * ((j as f64 + 1.0) * (u[6] + 0.37)).fract());
                Point::new(cx + rr * a.cos(), cy + rr * a.sin())
            })
            .collect();
        Polygon::new(vertices)
    }
}

/// A probe segment of kind `kind % 6`, aimed at the field's walls:
///
/// 0. anywhere, endpoints possibly off the field;
/// 1. starting on an obstacle or field wall, leaving in any direction;
/// 2. along a wall's supporting line (collinear, overlapping or not,
///    any length), optionally shifted a hair off it;
/// 3. ending `1e-12 … 1e-2` m to either side of a wall;
/// 4. zero-length or sub-micrometer, on or beside a wall;
/// 5. crossing a wall at a random angle, sensor-step length.
fn probe(field: &Field, kind: u8, u: &[f64; 6]) -> Segment {
    let size = field.bounds().max.x;
    let walls: Vec<Segment> = field
        .obstacles()
        .iter()
        .flat_map(|o| o.edges().collect::<Vec<_>>())
        .chain(field.bounds().edges())
        .collect();
    let wall = walls[((u[0] * walls.len() as f64) as usize).min(walls.len() - 1)];
    let on_wall = wall.at(u[1]);
    let normal = match wall.direction() {
        Some(d) => Point::new(-d.y, d.x),
        None => Point::new(1.0, 0.0),
    };
    let side = if u[2] < 0.5 { -1.0 } else { 1.0 };
    let dir = Point::from_angle(u[3] * TAU);
    // log-uniform lengths from 1e-7 m to 100 m
    let len = 10f64.powf(-7.0 + 9.0 * u[4]);
    match kind % 6 {
        0 => Segment::new(
            Point::new(size * (1.1 * u[1] - 0.05), size * (1.1 * u[2] - 0.05)),
            Point::new(size * (1.1 * u[4] - 0.05), size * (1.1 * u[5] - 0.05)),
        ),
        1 => Segment::new(on_wall, on_wall + dir * len),
        2 => {
            let shift = if u[5] < 0.5 {
                Point::ORIGIN
            } else {
                normal * (side * 10f64.powf(-12.0 + 8.0 * u[5]))
            };
            let along = wall.direction().unwrap_or(normal) * (side * len);
            let start = wall.at(2.0 * u[3] - 0.5) + shift;
            Segment::new(start, start + along)
        }
        3 => {
            let end = on_wall + normal * (side * 10f64.powf(-12.0 + 10.0 * u[5]));
            Segment::new(end - dir * len, end)
        }
        4 => {
            let tiny = if u[5] < 0.3 {
                0.0
            } else {
                10f64.powf(-10.0 + 4.0 * u[5])
            };
            let start = on_wall + normal * (side * tiny * u[2]);
            Segment::new(start, start + dir * tiny)
        }
        _ => {
            let step = 0.5 + 10.0 * u[5];
            Segment::new(on_wall - dir * (step * u[4]), on_wall + dir * step)
        }
    }
}

fn unit7() -> impl Strategy<Value = [f64; 7]> {
    prop::collection::vec(0.0..1.0f64, 7).prop_map(|v| [v[0], v[1], v[2], v[3], v[4], v[5], v[6]])
}

fn probe_draw() -> impl Strategy<Value = (u8, [f64; 6])> {
    (0u8..6, prop::collection::vec(0.0..1.0f64, 6))
        .prop_map(|(k, v)| (k, [v[0], v[1], v[2], v[3], v[4], v[5]]))
}

fn assert_oracle_exact(field: &Field, seg: &Segment) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        field.first_hit(seg),
        first_hit_linear(field, seg),
        "first_hit on {} in {}",
        seg,
        field
    );
    prop_assert_eq!(
        field.segment_free(seg),
        segment_free_linear(field, seg),
        "segment_free on {} in {}",
        seg,
        field
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn box_filtered_sweeps_match_the_linear_scan(
        size in 100.0..1000.0f64,
        obstacles in prop::collection::vec(unit7(), 0..6),
        probes in prop::collection::vec(probe_draw(), 1..40),
    ) {
        let field = Field::with_obstacles(
            size,
            size,
            obstacles.iter().map(|u| obstacle(size, u)).collect(),
        );
        for (kind, u) in &probes {
            let seg = probe(&field, *kind, u);
            assert_oracle_exact(&field, &seg)?;
            assert_oracle_exact(&field, &seg.reversed())?;
        }
    }

    #[test]
    fn nearby_obstacles_give_the_all_obstacles_force(
        size in 100.0..1000.0f64,
        obstacles in prop::collection::vec(unit7(), 0..8),
        probes in prop::collection::vec((probe_draw(), 0.0..1.0f64), 1..30),
        range in 1.0..120.0f64,
    ) {
        // Positions on walls, a hair off them and out to twice the
        // range, plus arbitrary points: the filtered sum must equal
        // the all-obstacles sum bit for bit.
        let field = Field::with_obstacles(
            size,
            size,
            obstacles.iter().map(|u| obstacle(size, u)).collect(),
        );
        for ((kind, u), reach) in &probes {
            let seg = probe(&field, *kind, u);
            let away = seg.b + Point::from_angle(7.0 * TAU * reach) * (2.0 * range * reach);
            for p in [seg.a, seg.b, away] {
                prop_assert_eq!(
                    obstacle_force(p, field.obstacles_near(p, range), range),
                    obstacle_force(p, field.obstacles().iter(), range),
                    "force at {} range {}", p, range
                );
            }
        }
    }
}

#[test]
fn obstacles_near_skips_only_far_obstacles() {
    let field = Field::with_obstacles(
        100.0,
        100.0,
        vec![
            Rect::new(10.0, 10.0, 20.0, 20.0).to_polygon(),
            Rect::new(60.0, 60.0, 70.0, 70.0).to_polygon(),
        ],
    );
    let p = Point::new(25.0, 15.0);
    assert_eq!(
        field.obstacles_near(p, 5.0).count(),
        1,
        "5 m from the first box"
    );
    assert_eq!(
        field.obstacles_near(p, 4.9995).count(),
        1,
        "inside the 1 mm pad"
    );
    assert_eq!(field.obstacles_near(p, 4.998).count(), 0);
    assert_eq!(field.obstacles_near(p, 100.0).count(), 2);
}

#[test]
fn collinear_slack_stays_inside_the_pad() {
    // A 40 µm sweep running 20 µm above an obstacle's top wall, across
    // the wall's end: the segment kernel's collinear test accepts it
    // (|qp × r| = 8e-10 ≤ EPS) and reports contact halfway along, so
    // the box filter must not skip the obstacle.
    let field = Field::with_obstacles(
        500.0,
        500.0,
        vec![Rect::new(100.0, 100.0, 200.0, 200.0).to_polygon()],
    );
    let y = 200.0 + 2e-5;
    let seg = Segment::new(Point::new(200.0 + 2e-5, y), Point::new(200.0 - 2e-5, y));
    let hit = first_hit_linear(&field, &seg);
    assert!(
        matches!(hit, Some((_, Hit::Obstacle(0, 2)))),
        "the kernel's slack: {hit:?}"
    );
    assert_eq!(field.first_hit(&seg), hit);
    assert_eq!(field.segment_free(&seg), segment_free_linear(&field, &seg));
}
