//! Integration tests for the measurement machinery: message
//! accounting, coverage timelines and convergence metrics must behave
//! the way the paper's evaluation relies on.

use msn_deploy::floor::{self, FloorParams};
use msn_deploy::{cpvf, SchemeKind};
use msn_field::{paper_field, scatter_clustered, Field};
use msn_geom::Rect;
use msn_net::MsgKind;
use msn_sim::SimConfig;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn clustered(field: &Field, n: usize, seed: u64) -> Vec<msn_geom::Point> {
    let mut rng = SmallRng::seed_from_u64(seed);
    scatter_clustered(field, Rect::new(0.0, 0.0, 200.0, 200.0), n, &mut rng)
}

fn cfg() -> SimConfig {
    SimConfig::paper(50.0, 35.0)
        .with_duration(250.0)
        .with_coverage_cell(10.0)
}

/// Table 1's driver: invitation message counts grow with the TTL while
/// everything else stays comparable.
#[test]
fn invitation_cost_grows_with_ttl() {
    let field = Field::open(500.0, 500.0);
    let initial = clustered(&field, 50, 2);
    let mut last = 0u64;
    for ttl in [5usize, 15, 30] {
        let params = FloorParams {
            invitation_ttl: Some(ttl),
            ..FloorParams::default()
        };
        let r = floor::run(&field, &initial, &params, &cfg(), None);
        let inv = r.messages.count(MsgKind::Invitation);
        assert!(
            inv >= last,
            "TTL {ttl}: invitation hops {inv} must not shrink below {last}"
        );
        last = inv;
    }
}

/// The §5.4 coverage queries are tree-routed and accounted.
#[test]
fn floor_charges_coverage_queries_symmetrically() {
    let field = Field::open(500.0, 500.0);
    let initial = clustered(&field, 50, 3);
    let r = floor::run(&field, &initial, &FloorParams::default(), &cfg(), None);
    assert_eq!(
        r.messages.count(MsgKind::CoverageQuery),
        r.messages.count(MsgKind::CoverageReply),
        "every query gets exactly one reply over the same route"
    );
    assert!(r.messages.count(MsgKind::Report) > 0);
    assert_eq!(
        r.messages.count(MsgKind::Report),
        r.messages.count(MsgKind::AncestorList),
        "every arrival report is answered with an ancestor list"
    );
}

/// Coverage timelines are sampled on schedule and stay within [0, 1].
#[test]
fn coverage_timeline_is_well_formed() {
    let field = Field::open(500.0, 500.0);
    let initial = clustered(&field, 40, 4);
    for kind in [SchemeKind::Cpvf, SchemeKind::Floor] {
        let r = msn_deploy::run_scheme(kind, &field, &initial, &cfg());
        assert!(!r.coverage_timeline.is_empty());
        let mut prev_t = -1.0;
        for &(t, c) in &r.coverage_timeline {
            assert!(t > prev_t, "{kind}: timeline must be strictly ordered");
            assert!((0.0..=1.0).contains(&c), "{kind}: coverage out of range");
            prev_t = t;
        }
        if let Some(conv) = r.convergence_time {
            assert!(conv <= cfg().duration);
        }
    }
}

/// CPVF's tree-locking cost only accrues when parent changes happen,
/// and motion probing dominates its message budget (two per maintained
/// link per planned move).
#[test]
fn cpvf_message_profile() {
    let field = paper_field();
    let initial = clustered(&field, 60, 5);
    let r = cpvf::run(&field, &initial, &cpvf::CpvfParams::default(), &cfg(), None);
    let probes = r.messages.count(MsgKind::MotionProbe);
    assert!(probes > 0, "connected sensors must coordinate moves");
    assert_eq!(
        r.messages.count(MsgKind::LockTree),
        r.messages.count(MsgKind::UnlockTree),
        "every lock is matched by an unlock"
    );
    // Flood accounting: at least one message per sensor that ever
    // connected.
    assert!(r.messages.count(MsgKind::ConnectFlood) >= 60);
}

/// Moving distance is conserved arithmetic: avg · n == total, max ≥ avg.
#[test]
fn movement_accounting_is_consistent() {
    let field = Field::open(500.0, 500.0);
    let initial = clustered(&field, 45, 6);
    for kind in [SchemeKind::Cpvf, SchemeKind::Floor, SchemeKind::Opt] {
        let r = msn_deploy::run_scheme(kind, &field, &initial, &cfg());
        assert!(
            (r.avg_move * 45.0 - r.total_move).abs() < 1e-6,
            "{kind}: avg/total mismatch"
        );
        assert!(r.max_move + 1e-9 >= r.avg_move, "{kind}: max below avg");
        assert!(r.total_move >= 0.0);
    }
}
