//! Integration tests for the paper's headline guarantee: CPVF and
//! FLOOR end fully connected to the base station for arbitrary
//! `rc`/`rs` ratios, densities and obstacle layouts.

use msn_deploy::{cpvf, floor};
use msn_field::{
    random_obstacle_field, scatter_clustered, two_obstacle_field, Field, RandomObstacleParams,
};
use msn_geom::Rect;
use msn_sim::SimConfig;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn clustered(field: &Field, n: usize, side: f64, seed: u64) -> Vec<msn_geom::Point> {
    let mut rng = SmallRng::seed_from_u64(seed);
    scatter_clustered(field, Rect::new(0.0, 0.0, side, side), n, &mut rng)
}

fn cfg(rc: f64, rs: f64, duration: f64) -> SimConfig {
    SimConfig::paper(rc, rs)
        .with_duration(duration)
        .with_coverage_cell(10.0)
}

#[test]
fn cpvf_connects_across_rc_rs_ratios() {
    let field = Field::open(400.0, 400.0);
    for (rc, rs) in [(20.0, 60.0), (40.0, 40.0), (80.0, 25.0)] {
        let initial = clustered(&field, 30, 150.0, 17);
        let r = cpvf::run(
            &field,
            &initial,
            &cpvf::CpvfParams::default(),
            &cfg(rc, rs, 400.0),
            None,
        );
        assert!(r.connected, "CPVF must end connected at rc={rc} rs={rs}");
    }
}

#[test]
fn floor_connects_across_rc_rs_ratios() {
    let field = Field::open(400.0, 400.0);
    for (rc, rs) in [(20.0, 60.0), (40.0, 40.0), (80.0, 25.0)] {
        let initial = clustered(&field, 30, 150.0, 23);
        let r = floor::run(
            &field,
            &initial,
            &floor::FloorParams::default(),
            &cfg(rc, rs, 400.0),
            None,
        );
        assert!(r.connected, "FLOOR must end connected at rc={rc} rs={rs}");
    }
}

#[test]
fn cpvf_connects_with_two_obstacles() {
    let field = two_obstacle_field();
    let initial = clustered(&field, 60, 450.0, 5);
    let r = cpvf::run(
        &field,
        &initial,
        &cpvf::CpvfParams::default(),
        &cfg(60.0, 40.0, 500.0),
        None,
    );
    assert!(r.connected);
}

#[test]
fn cpvf_connects_on_random_obstacle_fields() {
    // A handful of the Figure 13 workload instances.
    let params = RandomObstacleParams::default();
    for seed in 0..3u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let field = random_obstacle_field(&params, &mut rng);
        let initial = clustered(&field, 40, 450.0, seed);
        let r = cpvf::run(
            &field,
            &initial,
            &cpvf::CpvfParams::default(),
            &cfg(60.0, 40.0, 600.0),
            None,
        );
        assert!(r.connected, "seed {seed} ended disconnected");
    }
}

#[test]
fn sparse_network_still_reaches_base() {
    // Densities far below what keeps a random layout connected: the
    // walk-to-base phase must pull everyone in.
    let field = Field::open(500.0, 500.0);
    let mut rng = SmallRng::seed_from_u64(9);
    let initial = msn_field::scatter_uniform(&field, 12, &mut rng);
    let r = cpvf::run(
        &field,
        &initial,
        &cpvf::CpvfParams::default(),
        &cfg(40.0, 30.0, 700.0),
        None,
    );
    assert!(r.connected, "every sensor must walk into the tree");
}
