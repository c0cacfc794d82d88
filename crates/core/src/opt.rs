//! The centralized optimal strip pattern (Bai et al., MobiHoc'06),
//! §6.1.1's OPT baseline.
//!
//! The pattern places sensors in horizontal strips with intra-strip
//! spacing `α = min(rc, √3·rs)` and strip separation
//! `β = rs + √(rs² − α²/4)`, alternate strips offset by `α/2` — the
//! asymptotically optimal density for full coverage *with*
//! connectivity. When `β > rc` the strips themselves are mutually
//! disconnected, so a vertical connector column (spacing ≤ `rc`) joins
//! them to the base station, exactly as Bai et al. prescribe.
//!
//! OPT is centralized and only defined for obstacle-free fields; its
//! moving distance is the Hungarian-matching optimum from the initial
//! layout to the pattern (Figure 11's "optimal pattern" baseline). On
//! a field with obstacles it still lays the pattern over the whole
//! bounds and moves each sensor straight through any wall in its way.

use msn_assign::{hungarian, CostMatrix};
use msn_field::{CoverageGrid, Field};
use msn_geom::Point;
use msn_sim::{RunResult, SimConfig, World};

/// Tuning parameters for the OPT baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct OptParams {
    /// Safety factor applied to connector spacing (≤ 1 keeps links
    /// strictly within `rc`).
    pub connector_slack: f64,
}

impl Default for OptParams {
    fn default() -> Self {
        OptParams {
            connector_slack: 0.95,
        }
    }
}

/// Generates the first `n` points of the strip pattern for a field,
/// ordered bottom-up (strip by strip, connector nodes interleaved) so
/// that any prefix is a connected, coverage-greedy deployment.
///
/// # Panics
///
/// Panics if `n` is zero.
pub fn strip_pattern(field: &Field, rc: f64, rs: f64, n: usize, params: &OptParams) -> Vec<Point> {
    assert!(n > 0, "need at least one sensor");
    let b = field.bounds();
    let alpha = rc.min(3f64.sqrt() * rs);
    let beta = rs + (rs * rs - alpha * alpha / 4.0).max(0.0).sqrt();
    let connector_gap = rc * params.connector_slack;
    let connector_x = alpha / 2.0;

    let mut points = Vec::with_capacity(n + 16);
    let first_row_y = (rs * 0.9).min(beta / 2.0);
    // A vertical connector column is needed when the strips are
    // farther apart than the communication range, or when the first
    // strip itself is out of the base station's reach.
    let base_reach = (connector_x * connector_x + first_row_y * first_row_y).sqrt();
    let column_needed = beta > connector_gap || base_reach > rc;
    // `layer` 0 is the Bai pattern itself; if the caller asks for more
    // sensors than the pattern needs to saturate the field, further
    // layers interleave shifted copies (redundant sensors cost no
    // coverage but keep the Hungarian baseline well-defined).
    let mut layer = 0usize;
    while points.len() < n && layer < 8 {
        let layer_dy = beta * layer as f64 / 2.0;
        let layer_dx = alpha * layer as f64 / 4.0;
        let mut y = first_row_y + layer_dy.rem_euclid(beta);
        let mut row = 0usize;
        // Column points emitted so far (layer 0 only), bottom-up and
        // interleaved with the rows so every prefix stays connected.
        let column_start = (rc * rc - connector_x * connector_x).max(0.0).sqrt() * 0.9;
        let mut next_col_y = column_start.min(connector_gap * 0.75);
        while y <= b.height() && points.len() < 4 * n {
            if layer == 0 && column_needed {
                while next_col_y < y {
                    points.push(Point::new(b.min.x + connector_x, b.min.y + next_col_y));
                    next_col_y += connector_gap;
                }
            }
            // The strip itself.
            let offset = if row.is_multiple_of(2) {
                alpha / 2.0
            } else {
                alpha
            };
            let mut x = (offset + layer_dx).rem_euclid(alpha);
            if x < 1e-9 {
                x = alpha;
            }
            while x <= b.width() {
                points.push(Point::new(b.min.x + x, b.min.y + y));
                x += alpha;
            }
            y += beta;
            row += 1;
        }
        layer += 1;
    }
    assert!(
        points.len() >= n,
        "strip pattern exhausted at {} of {n} points",
        points.len()
    );
    points.truncate(n);
    points
}

/// Runs the OPT baseline: place the strip pattern, measure its
/// coverage, and charge the Hungarian-optimal moving distance from
/// `initial`.
///
/// `grid`, when given, must have been built for `field` at
/// `cfg.coverage_cell` (the batch runner caches one per fixed field
/// layout); `None` rasterizes a fresh grid.
///
/// # Examples
///
/// ```
/// use msn_deploy::opt::{run, OptParams};
/// use msn_field::{paper_field, scatter_uniform};
/// use msn_sim::SimConfig;
/// use rand::SeedableRng;
///
/// let field = paper_field();
/// let mut rng = rand::rngs::SmallRng::seed_from_u64(2);
/// let initial = scatter_uniform(&field, 60, &mut rng);
/// let cfg = SimConfig::paper(60.0, 60.0).with_coverage_cell(10.0);
/// let r = run(&field, &initial, &OptParams::default(), &cfg, None);
/// assert!(r.coverage > 0.3);
/// assert!(r.connected);
/// ```
pub fn run(
    field: &Field,
    initial: &[Point],
    params: &OptParams,
    cfg: &SimConfig,
    grid: Option<&CoverageGrid>,
) -> RunResult {
    let _run = msn_obs::span("opt.run");
    let n = initial.len();
    assert!(n > 0, "at least one sensor required");
    let pattern = {
        let _pattern = msn_obs::span("opt.pattern");
        strip_pattern(field, cfg.rc, cfg.rs, n, params)
    };
    let sol = {
        let _hungarian = msn_obs::span("opt.hungarian");
        hungarian(&CostMatrix::euclidean(initial, &pattern))
    };
    let mut world = World::new(field.clone(), cfg.clone(), initial.to_vec(), grid);
    // OPT commands each displaced sensor straight to its target: one
    // movement action per sensor that actually relocates.
    for (i, &t) in sol.assignment.iter().enumerate() {
        if initial[i].dist(pattern[t]) > 0.0 {
            world.set_pos(i, pattern[t]);
        }
    }
    // The final measurement: coverage and the connectivity verdict.
    let _coverage = msn_obs::span("opt.coverage");
    let coverage = world.coverage();
    crate::finish(&mut world, "OPT", coverage, vec![(0.0, coverage)])
}

#[cfg(test)]
mod tests {
    use super::*;
    use msn_field::{paper_field, scatter_clustered};
    use msn_geom::Rect;
    use msn_net::DiskGraph;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn pattern_spacing_matches_bai() {
        let field = paper_field();
        let pts = strip_pattern(&field, 60.0, 60.0, 200, &OptParams::default());
        assert_eq!(pts.len(), 200);
        // alpha = min(60, 103.9) = 60; consecutive in-row points 60
        // apart. The first strip sits at y = 0.9·rs = 54.
        let mut same_row: Vec<&Point> = pts.iter().filter(|p| (p.y - 54.0).abs() < 1e-9).collect();
        same_row.sort_by(|a, b| a.x.partial_cmp(&b.x).unwrap());
        assert!(same_row.len() > 10);
        let dx = same_row[2].x - same_row[1].x;
        assert!((dx - 60.0).abs() < 1e-9, "intra-strip spacing {dx}");
    }

    #[test]
    fn pattern_is_connected_even_when_beta_exceeds_rc() {
        let field = paper_field();
        let cfg = SimConfig::paper(60.0, 60.0); // beta ≈ 112 > rc = 60
        let pts = strip_pattern(&field, cfg.rc, cfg.rs, 240, &OptParams::default());
        let graph = DiskGraph::build(&pts, cfg.rc);
        assert!(
            graph.all_connected_to_base(&pts, Point::ORIGIN, cfg.rc),
            "connector column must bridge the strips"
        );
    }

    #[test]
    fn many_sensors_approach_full_coverage() {
        let field = paper_field();
        let cfg = SimConfig::paper(60.0, 60.0).with_coverage_cell(10.0);
        let mut rng = SmallRng::seed_from_u64(8);
        let initial = scatter_clustered(&field, Rect::new(0.0, 0.0, 500.0, 500.0), 240, &mut rng);
        let r = run(&field, &initial, &OptParams::default(), &cfg, None);
        // one counted move per displaced sensor
        let displaced = initial.iter().zip(&r.positions).filter(|(a, b)| a != b);
        assert_eq!(r.moves, displaced.count() as u64);
        assert!(r.moves > 0);
        assert!(
            r.coverage > 0.9,
            "240 sensors at rc=rs=60 nearly saturate: {}",
            r.coverage
        );
        assert!(r.connected);
    }

    #[test]
    fn coverage_scales_with_sensor_count() {
        let field = paper_field();
        let cfg = SimConfig::paper(60.0, 60.0).with_coverage_cell(10.0);
        let mut rng = SmallRng::seed_from_u64(9);
        let initial = scatter_clustered(&field, Rect::new(0.0, 0.0, 500.0, 500.0), 120, &mut rng);
        let low = run(&field, &initial[..60], &OptParams::default(), &cfg, None);
        let high = run(&field, &initial, &OptParams::default(), &cfg, None);
        assert!(high.coverage > low.coverage + 0.1);
    }

    #[test]
    fn moving_distance_is_hungarian_optimal() {
        // Sanity: matching a pattern to itself costs zero.
        let field = paper_field();
        let cfg = SimConfig::paper(60.0, 40.0).with_coverage_cell(10.0);
        let pattern = strip_pattern(&field, cfg.rc, cfg.rs, 50, &OptParams::default());
        let r = run(&field, &pattern, &OptParams::default(), &cfg, None);
        assert!(r.avg_move < 1e-9);
        assert_eq!(r.moves, 0);
    }
}
