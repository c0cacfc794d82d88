//! Cross-scheme integration tests: the qualitative relations the
//! paper's evaluation (§6) establishes must hold in this
//! implementation.

use msn_deploy::{opt, run_scheme, vd, SchemeKind};
use msn_field::{paper_field, scatter_clustered, two_obstacle_field, Field};
use msn_geom::Rect;
use msn_sim::SimConfig;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn clustered(field: &Field, n: usize, seed: u64) -> Vec<msn_geom::Point> {
    let b = field.bounds();
    let sub = Rect::new(0.0, 0.0, b.width() / 2.0, b.height() / 2.0);
    let mut rng = SmallRng::seed_from_u64(seed);
    scatter_clustered(field, sub, n, &mut rng)
}

/// §5.6/§6.1: FLOOR beats CPVF in coverage when obstacles are present
/// (the paper's headline: nearly twice the coverage in Figure 8(c)).
#[test]
fn floor_beats_cpvf_with_obstacles() {
    let field = two_obstacle_field();
    let initial = clustered(&field, 120, 42);
    let cfg = SimConfig::paper(60.0, 40.0)
        .with_duration(750.0)
        .with_coverage_cell(5.0);
    let cpvf = run_scheme(SchemeKind::Cpvf, &field, &initial, &cfg);
    let floor = run_scheme(SchemeKind::Floor, &field, &initial, &cfg);
    assert!(
        floor.coverage > cpvf.coverage + 0.05,
        "FLOOR {:.3} must clearly beat CPVF {:.3} around obstacles",
        floor.coverage,
        cpvf.coverage
    );
}

/// §6.2: FLOOR moves less than CPVF (oscillation) — the paper reports
/// CPVF needing more than twice FLOOR's average moving distance.
#[test]
fn floor_moves_less_than_cpvf() {
    let field = paper_field();
    let initial = clustered(&field, 120, 42);
    let cfg = SimConfig::paper(60.0, 40.0)
        .with_duration(500.0)
        .with_coverage_cell(5.0);
    let cpvf = run_scheme(SchemeKind::Cpvf, &field, &initial, &cfg);
    let floor = run_scheme(SchemeKind::Floor, &field, &initial, &cfg);
    assert!(
        cpvf.avg_move > 1.5 * floor.avg_move,
        "CPVF {:.0} m should far exceed FLOOR {:.0} m",
        cpvf.avg_move,
        floor.avg_move
    );
}

/// §6.1.2: with a small rc/rs the VD-based baselines partition the
/// network and compute incorrect cells (Figure 10's annotations).
#[test]
fn vd_baselines_fail_at_small_rc() {
    let field = paper_field();
    let initial = clustered(&field, 120, 7);
    let cfg = SimConfig::paper(48.0, 60.0).with_coverage_cell(10.0); // rc/rs = 0.8
    for variant in [vd::VdVariant::Vor, vd::VdVariant::Minimax] {
        let r = vd::run(
            &field,
            &initial,
            variant,
            &vd::VdParams::default(),
            &cfg,
            None,
        );
        assert!(
            !r.connected,
            "{variant:?} cannot keep connectivity at rc/rs = 0.8"
        );
        assert!(
            r.flags.iter().any(|f| f == "Incorrect VD"),
            "{variant:?} must compute incorrect cells at rc/rs = 0.8"
        );
    }
}

/// §6.1.1: OPT upper-bounds FLOOR's coverage, and FLOOR comes within a
/// moderate margin at a high sensor count.
#[test]
fn opt_upper_bounds_floor() {
    let field = paper_field();
    let initial = clustered(&field, 200, 13);
    let cfg = SimConfig::paper(60.0, 60.0)
        .with_duration(750.0)
        .with_coverage_cell(5.0);
    let opt_r = opt::run(&field, &initial, &opt::OptParams::default(), &cfg, None);
    let floor_r = run_scheme(SchemeKind::Floor, &field, &initial, &cfg);
    assert!(opt_r.coverage >= floor_r.coverage - 0.02);
    assert!(
        floor_r.coverage > opt_r.coverage * 0.6,
        "FLOOR {:.3} should be in reach of OPT {:.3}",
        floor_r.coverage,
        opt_r.coverage
    );
}

/// Sanity: every scheme produces positions inside the field and a
/// non-trivial coverage on a plain scenario.
#[test]
fn all_schemes_produce_valid_runs() {
    let field = paper_field();
    let initial = clustered(&field, 80, 3);
    let cfg = SimConfig::paper(90.0, 60.0)
        .with_duration(300.0)
        .with_coverage_cell(10.0);
    for kind in [
        SchemeKind::Cpvf,
        SchemeKind::Floor,
        SchemeKind::Vor,
        SchemeKind::Minimax,
        SchemeKind::Opt,
    ] {
        let r = run_scheme(kind, &field, &initial, &cfg);
        assert_eq!(r.positions.len(), 80, "{kind}: sensor count preserved");
        assert!(r.coverage > 0.05, "{kind}: coverage {:.3}", r.coverage);
        for p in &r.positions {
            assert!(
                field.bounds().inflated(1.0).contains(*p),
                "{kind}: sensor escaped the field at {p}"
            );
        }
    }
}
