//! Connectivity-guaranteed, obstacle-adaptive deployment schemes for
//! mobile sensor networks.
//!
//! This crate implements the two schemes of Tan, Jarvis & Kermarrec,
//! *"Connectivity-Guaranteed and Obstacle-Adaptive Deployment Schemes
//! for Mobile Sensor Networks"* (ICDCS 2008 / IEEE TMC 2009), plus the
//! baselines their evaluation compares against:
//!
//! * [`cpvf`] — the **Connectivity-Preserved Virtual Force** scheme
//!   (§4): virtual-force dispersion under connectivity-preserving step
//!   constraints, with BUG2 navigation to the base station and lazy
//!   movement;
//! * [`floor`] — the **FLOOR** scheme (§5): floors of height `2·rs`,
//!   vine-like coverage expansion along floor lines and obstacle
//!   boundaries, movable-sensor recruitment through TTL random-walk
//!   invitations;
//! * [`vd`] — the Voronoi-based **VOR** and **Minimax** baselines
//!   (Wang et al., INFOCOM'04) on communication-restricted Voronoi
//!   cells;
//! * [`opt`] — the strip-based **OPT** pattern (Bai et al.,
//!   MobiHoc'06) with Hungarian-matching movement baselines.
//!
//! Every scheme drives one [`msn_sim::World`] and exposes one runner,
//! `run`, returning a [`msn_sim::RunResult`] with coverage, moving
//! distance, message counts and connectivity — the metrics behind each
//! figure and table of the paper. [`run_scheme`] dispatches on
//! [`SchemeKind`].
//!
//! # Quickstart
//!
//! ```
//! use msn_deploy::{cpvf::CpvfParams, run_scheme, SchemeKind};
//! use msn_field::{paper_field, scatter_clustered};
//! use msn_geom::Rect;
//! use msn_sim::SimConfig;
//! use rand::SeedableRng;
//!
//! let field = paper_field();
//! let cfg = SimConfig::paper(60.0, 40.0)
//!     .with_duration(20.0)        // keep the doc test fast
//!     .with_coverage_cell(10.0);
//! let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
//! let initial = scatter_clustered(&field, Rect::new(0.0, 0.0, 500.0, 500.0), 30, &mut rng);
//! let result = run_scheme(SchemeKind::Cpvf, &field, &initial, &cfg);
//! assert!(result.coverage > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cpvf;
mod dynamic;
pub mod floor;
mod lazy;
pub mod opt;
mod overrides;
pub mod vd;

pub use dynamic::{run_scheme_dynamic, DynamicOutcome};
pub use overrides::{CpvfOverrides, FloorOverrides, SchemeOverrides, Slot};

use msn_field::{CoverageGrid, Field};
use msn_geom::Point;
use msn_sim::{RunResult, SimConfig, World};

/// The five deployment schemes of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchemeKind {
    /// Connectivity-Preserved Virtual Force (§4).
    Cpvf,
    /// The floor-based scheme (§5).
    Floor,
    /// Voronoi scheme: move toward the farthest cell vertex.
    Vor,
    /// Voronoi scheme: move to the cell's minimax point.
    Minimax,
    /// Centralized optimal strip pattern.
    Opt,
}

impl SchemeKind {
    /// All five schemes, in the paper's presentation order.
    pub const ALL: [SchemeKind; 5] = [
        SchemeKind::Cpvf,
        SchemeKind::Floor,
        SchemeKind::Vor,
        SchemeKind::Minimax,
        SchemeKind::Opt,
    ];

    /// Human-readable scheme name as used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            SchemeKind::Cpvf => "CPVF",
            SchemeKind::Floor => "FLOOR",
            SchemeKind::Vor => "VOR",
            SchemeKind::Minimax => "Minimax",
            SchemeKind::Opt => "OPT",
        }
    }
}

impl std::fmt::Display for SchemeKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for SchemeKind {
    type Err = String;

    /// Parses a scheme by its figure name, case-insensitively
    /// (`"CPVF"`, `"floor"`, `"Minimax"`, ...).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        SchemeKind::ALL
            .into_iter()
            .find(|k| k.name().eq_ignore_ascii_case(s.trim()))
            .ok_or_else(|| {
                format!("unknown scheme '{s}' (expected one of CPVF, FLOOR, VOR, Minimax, OPT)")
            })
    }
}

/// Runs `kind` with its default tuning parameters.
///
/// For declarative knob overrides use [`run_scheme_with`]; for full
/// control call a module's `run` ([`cpvf::run`], [`floor::run`],
/// [`vd::run`], [`opt::run`]) directly.
pub fn run_scheme(
    kind: SchemeKind,
    field: &Field,
    initial: &[Point],
    cfg: &SimConfig,
) -> RunResult {
    run_scheme_with(kind, field, initial, cfg, &SchemeOverrides::default(), None)
}

/// Runs `kind` with declarative parameter overrides and an optional
/// pre-rasterized coverage grid.
///
/// `overrides` resolves against the scheme's defaults (see
/// [`SchemeOverrides`]); `grid`, when given, must have been built for
/// `field` at `cfg.coverage_cell` — the batch runner caches one per
/// fixed field layout so repeated runs skip re-rasterization.
pub fn run_scheme_with(
    kind: SchemeKind,
    field: &Field,
    initial: &[Point],
    cfg: &SimConfig,
    overrides: &SchemeOverrides,
    grid: Option<&CoverageGrid>,
) -> RunResult {
    let run_vd = |variant| vd::run(field, initial, variant, &vd::VdParams::default(), cfg, grid);
    match kind {
        SchemeKind::Cpvf => cpvf::run(field, initial, &overrides.cpvf_params(), cfg, grid),
        SchemeKind::Floor => floor::run(
            field,
            initial,
            &overrides.floor_params(initial.len()),
            cfg,
            grid,
        ),
        SchemeKind::Vor => run_vd(vd::VdVariant::Vor),
        SchemeKind::Minimax => run_vd(vd::VdVariant::Minimax),
        SchemeKind::Opt => opt::run(field, initial, &overrides.opt_params(), cfg, grid),
    }
}

/// A run's result from `world` — per-sensor and aggregate movement,
/// messages, final positions and whether every sensor ended connected
/// to the base — with the final `coverage` (the caller's last sample
/// of `world.coverage()`) and the coverage `timeline`. Records the
/// run's movement aggregates on the profile ([`World::record_moves`]).
fn finish(world: &mut World, scheme: &str, coverage: f64, timeline: Vec<(f64, f64)>) -> RunResult {
    let connected = world.all_connected_tracked();
    world.record_moves();
    let moved: Vec<f64> = (0..world.n()).map(|i| world.moved(i)).collect();
    RunResult::from_run(
        scheme,
        coverage,
        &moved,
        world.msgs_ref().clone(),
        connected,
        timeline,
        world.positions().to_vec(),
    )
    .with_movement(world.move_count(), world.move_dist())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheme_names() {
        assert_eq!(SchemeKind::Cpvf.name(), "CPVF");
        assert_eq!(SchemeKind::Floor.to_string(), "FLOOR");
        assert_eq!(SchemeKind::Vor.name(), "VOR");
        assert_eq!(SchemeKind::Minimax.name(), "Minimax");
        assert_eq!(SchemeKind::Opt.name(), "OPT");
    }

    #[test]
    fn scheme_parse_roundtrip() {
        for kind in SchemeKind::ALL {
            assert_eq!(kind.name().parse::<SchemeKind>(), Ok(kind));
            assert_eq!(kind.name().to_lowercase().parse::<SchemeKind>(), Ok(kind));
        }
        assert!("NOPE".parse::<SchemeKind>().is_err());
    }
}
