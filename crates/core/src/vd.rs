//! The Voronoi-based VOR and Minimax baselines (§6.1.2).
//!
//! Both schemes (Wang et al., INFOCOM'04) move sensors in rounds
//! according to their Voronoi cells. Crucially, a sensor can only
//! construct its cell from the neighbors it *hears* — those within
//! `rc` — so with a small `rc/rs` the cells are wrong (Figure 1) and
//! the movement targets are bogus; the run is then annotated
//! `Incorrect VD`. Neither scheme considers connectivity, so the final
//! network may be partitioned (`Disconn.`), exactly as Figure 10
//! reports.
//!
//! For the clustered initial distribution the paper first "explodes"
//! the cluster into a uniform random layout, charging the *minimum
//! possible* total moving distance via Hungarian matching (§6.2); this
//! runner does the same.

use msn_assign::{hungarian, CostMatrix};
use msn_field::{scatter_uniform, CoverageGrid, Field};
use msn_geom::Point;
use msn_net::{DiskGraph, MessageCounter};
use msn_sim::{RunResult, SimConfig};
use msn_voronoi::{cells_match, restricted_cell, VoronoiDiagram};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::borrow::Cow;

/// Which Voronoi movement rule to apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VdVariant {
    /// Move toward the farthest vertex of the own cell, stopping when
    /// the sensing disk would touch it.
    Vor,
    /// Move to the cell's minimax point (center of the minimum
    /// enclosing circle of the cell vertices).
    Minimax,
}

impl VdVariant {
    /// Scheme name as used in the paper.
    pub fn name(self) -> &'static str {
        match self {
            VdVariant::Vor => "VOR",
            VdVariant::Minimax => "Minimax",
        }
    }
}

/// Tuning parameters for the VD baselines.
#[derive(Debug, Clone, PartialEq)]
pub struct VdParams {
    /// Number of movement rounds after the explosion (paper: 10).
    pub rounds: usize,
    /// VOR's per-round movement cap as a fraction of `rc` (paper: 1/2).
    /// Minimax is uncapped — §6.1 says it "moves to the point that has
    /// the smallest distance to its farthest Voronoi polygon vertex",
    /// which is what makes it so sensitive to incorrect cells.
    pub step_cap_frac: f64,
    /// Run the explosion phase when the initial layout is clustered.
    pub explode: bool,
}

impl Default for VdParams {
    fn default() -> Self {
        VdParams {
            rounds: 10,
            step_cap_frac: 0.5,
            explode: true,
        }
    }
}

/// Runs VOR or Minimax and reports the standard metrics.
///
/// The returned [`RunResult`] carries the `Disconn.` /
/// `Incorrect VD` flags of Figure 10 when they apply. Message
/// accounting is not modeled (the paper does not report it for these
/// baselines).
///
/// # Examples
///
/// ```
/// use msn_deploy::vd::{run, VdParams, VdVariant};
/// use msn_field::{paper_field, scatter_uniform};
/// use msn_sim::SimConfig;
/// use rand::SeedableRng;
///
/// let field = paper_field();
/// let mut rng = rand::rngs::SmallRng::seed_from_u64(5);
/// let initial = scatter_uniform(&field, 50, &mut rng);
/// let cfg = SimConfig::paper(240.0, 60.0).with_coverage_cell(10.0);
/// let r = run(&field, &initial, VdVariant::Vor, &VdParams { explode: false, ..VdParams::default() }, &cfg);
/// assert!(r.coverage > 0.3);
/// ```
pub fn run(
    field: &Field,
    initial: &[Point],
    variant: VdVariant,
    params: &VdParams,
    cfg: &SimConfig,
) -> RunResult {
    run_with_grid(field, initial, variant, params, cfg, None)
}

/// Runs VOR or Minimax reusing a pre-rasterized coverage grid.
///
/// `grid` must have been built for `field` at `cfg.coverage_cell`
/// (the batch runner caches one per fixed field layout); `None`
/// rasterizes a fresh grid.
pub fn run_with_grid(
    field: &Field,
    initial: &[Point],
    variant: VdVariant,
    params: &VdParams,
    cfg: &SimConfig,
    grid: Option<&CoverageGrid>,
) -> RunResult {
    let _run = msn_obs::span("vd.run");
    let n = initial.len();
    assert!(n > 0, "at least one sensor required");
    let bounds = field.bounds();
    let cov_grid = grid.map_or_else(
        || Cow::Owned(CoverageGrid::new(field, cfg.coverage_cell)),
        Cow::Borrowed,
    );
    let mut positions = initial.to_vec();
    let mut moved = vec![0.0f64; n];
    // Per-round position updates with nonzero travel (`world.moves`
    // equivalent for this World-less baseline).
    let mut move_ops: u64 = 0;
    let mut timeline = Vec::new();
    let mut rng = SmallRng::seed_from_u64(cfg.seed);

    // ---- Explosion: minimum-cost dispersion to a uniform layout. ----
    if params.explode {
        let _explode = msn_obs::span("vd.explode");
        let targets = scatter_uniform(field, n, &mut rng);
        let costs = CostMatrix::euclidean(&positions, &targets);
        let sol = hungarian(&costs);
        for (i, &t) in sol.assignment.iter().enumerate() {
            moved[i] += positions[i].dist(targets[t]);
            positions[i] = targets[t];
        }
    }
    // One covered bitmap reused across all timeline samples
    // (identical values; saves a bitmap allocation per round).
    let mut cov_scratch = Vec::new();
    let mut sample = |positions: &[Point]| {
        let _coverage = msn_obs::span("vd.coverage");
        cov_grid.coverage_into(positions, cfg.rs, &mut cov_scratch)
    };
    timeline.push((0.0, sample(&positions)));

    // ---- VD rounds on communication-restricted cells. ----
    let mut incorrect_vd = false;
    let cap = cfg.rc * params.step_cap_frac;
    for round in 0..params.rounds {
        let voronoi = msn_obs::span("vd.voronoi");
        let graph = DiskGraph::build(&positions, cfg.rc);
        let full = VoronoiDiagram::compute(&positions, bounds);
        let mut targets: Vec<Option<Point>> = vec![None; n];
        for i in 0..n {
            let cell = restricted_cell(i, &positions, graph.neighbors(i), bounds);
            if !cells_match(&cell, full.cell(i), 1e-3) {
                incorrect_vd = true;
            }
            let Some(farthest) = cell.farthest_vertex() else {
                continue;
            };
            let target = match variant {
                VdVariant::Vor => {
                    // Move toward the farthest vertex until the sensing
                    // disk touches it; already-covered vertices need no
                    // move.
                    let d = positions[i].dist(farthest);
                    if d <= cfg.rs {
                        continue;
                    }
                    positions[i].step_toward(farthest, d - cfg.rs)
                }
                VdVariant::Minimax => match cell.minimax_point() {
                    Some(mp) => mp,
                    None => continue,
                },
            };
            targets[i] = Some(target);
        }
        drop(voronoi);
        // All sensors move simultaneously; VOR's moves are capped per
        // round, Minimax jumps to its target.
        let motion = msn_obs::span("vd.move");
        for i in 0..n {
            if let Some(t) = targets[i] {
                let step = match variant {
                    VdVariant::Vor => positions[i].dist(t).min(cap),
                    VdVariant::Minimax => positions[i].dist(t),
                };
                let next = positions[i].step_toward(t, step);
                // VD baselines assume an obstacle-free field; clamp into
                // bounds to stay well-defined if misused.
                let next = bounds.clamp_point(next);
                let step_dist = positions[i].dist(next);
                if step_dist > 0.0 {
                    move_ops += 1;
                }
                moved[i] += step_dist;
                positions[i] = next;
            }
        }
        drop(motion);
        timeline.push(((round + 1) as f64, sample(&positions)));
    }

    // The final measurement: coverage and the connectivity verdict.
    let coverage = sample(&positions);
    let connected = {
        let _coverage = msn_obs::span("vd.coverage");
        DiskGraph::build(&positions, cfg.rc).all_connected_to_base(&positions, cfg.base, cfg.rc)
    };
    let mut result = RunResult::from_run(
        variant.name(),
        coverage,
        &moved,
        MessageCounter::new(),
        connected,
        timeline,
        positions,
    )
    .with_movement(move_ops, moved.iter().sum());
    if !connected {
        result = result.with_flag("Disconn.");
    }
    if incorrect_vd {
        result = result.with_flag("Incorrect VD");
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use msn_field::{paper_field, scatter_clustered};
    use msn_geom::Rect;

    fn clustered(n: usize, seed: u64) -> Vec<Point> {
        let field = paper_field();
        let mut rng = SmallRng::seed_from_u64(seed);
        scatter_clustered(&field, Rect::new(0.0, 0.0, 500.0, 500.0), n, &mut rng)
    }

    fn cfg(rc: f64, rs: f64) -> SimConfig {
        SimConfig::paper(rc, rs).with_coverage_cell(10.0)
    }

    #[test]
    fn large_rc_yields_good_coverage() {
        let field = paper_field();
        let initial = clustered(120, 1);
        // rc/rs = 4: ample communication for useful cells.
        let r = run(
            &field,
            &initial,
            VdVariant::Vor,
            &VdParams::default(),
            &cfg(240.0, 60.0),
        );
        assert!(r.coverage > 0.6, "coverage {}", r.coverage);
    }

    #[test]
    fn grid_layout_with_large_rc_has_correct_vd() {
        // A 100 m grid: all Voronoi neighbors are at most 200 m away,
        // within rc = 240, so every restricted cell equals the true
        // cell.
        let field = paper_field();
        let mut initial = Vec::new();
        for i in 0..10 {
            for j in 0..10 {
                initial.push(Point::new(50.0 + 100.0 * i as f64, 50.0 + 100.0 * j as f64));
            }
        }
        let r = run(
            &field,
            &initial,
            VdVariant::Vor,
            &VdParams {
                explode: false,
                ..VdParams::default()
            },
            &cfg(240.0, 60.0),
        );
        assert!(
            !r.flags.iter().any(|f| f == "Incorrect VD"),
            "flags: {:?}",
            r.flags
        );
    }

    #[test]
    fn small_rc_flags_incorrect_vd() {
        let field = paper_field();
        let initial = clustered(120, 2);
        let r = run(
            &field,
            &initial,
            VdVariant::Vor,
            &VdParams::default(),
            &cfg(48.0, 60.0),
        );
        assert!(r.flags.iter().any(|f| f == "Incorrect VD"));
    }

    #[test]
    fn small_rc_usually_disconnects() {
        let field = paper_field();
        let initial = clustered(120, 3);
        let r = run(
            &field,
            &initial,
            VdVariant::Minimax,
            &VdParams::default(),
            &cfg(48.0, 60.0),
        );
        assert!(
            r.flags.iter().any(|f| f == "Disconn.") || r.connected,
            "flag must be consistent"
        );
        // uniform random layout over 1 km² with rc=48 and n=120 cannot
        // stay connected to the corner base station
        assert!(!r.connected);
    }

    #[test]
    fn explosion_dominates_moving_distance() {
        let field = paper_field();
        let initial = clustered(80, 4);
        let with = run(
            &field,
            &initial,
            VdVariant::Vor,
            &VdParams::default(),
            &cfg(240.0, 60.0),
        );
        let without = run(
            &field,
            &initial,
            VdVariant::Vor,
            &VdParams {
                explode: false,
                ..VdParams::default()
            },
            &cfg(240.0, 60.0),
        );
        assert!(
            with.avg_move > without.avg_move * 0.8,
            "explosion cost should be substantial: with {} without {}",
            with.avg_move,
            without.avg_move
        );
    }

    #[test]
    fn minimax_differs_from_vor() {
        let field = paper_field();
        let initial = clustered(60, 5);
        let a = run(
            &field,
            &initial,
            VdVariant::Vor,
            &VdParams::default(),
            &cfg(180.0, 60.0),
        );
        let b = run(
            &field,
            &initial,
            VdVariant::Minimax,
            &VdParams::default(),
            &cfg(180.0, 60.0),
        );
        assert_ne!(a.positions, b.positions, "the two rules move differently");
    }

    #[test]
    fn rounds_zero_is_explosion_only() {
        let field = paper_field();
        let initial = clustered(40, 6);
        let r = run(
            &field,
            &initial,
            VdVariant::Vor,
            &VdParams {
                rounds: 0,
                ..VdParams::default()
            },
            &cfg(120.0, 60.0),
        );
        assert_eq!(r.coverage_timeline.len(), 1);
        assert!(r.avg_move > 0.0);
    }
}
