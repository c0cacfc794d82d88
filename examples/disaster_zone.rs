//! Disaster-zone deployment: an irregular field with collapsed
//! structures and debris — the kind of environment the paper's
//! introduction motivates (where manual sensor placement is unsafe).
//!
//! Compares CPVF and FLOOR on the same scenario. CPVF struggles to
//! push sensors through the narrow corridors between debris; FLOOR's
//! boundary-guided expansion crawls around them.
//!
//! ```text
//! cargo run --release --example disaster_zone
//! ```

use msn_deploy::{cpvf, floor};
use msn_field::{
    ascii_layout, disaster_zone_field, free_space_connected, scatter_clustered, AsciiOptions,
};
use msn_geom::Rect;
use msn_sim::SimConfig;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn main() {
    // Two collapsed buildings, a debris pile and a flooded area — the
    // same layout `scenarios/disaster-zone.toml` drives declaratively.
    let field = disaster_zone_field();
    assert!(
        free_space_connected(&field, 10.0),
        "the debris must not seal off any region"
    );

    // Rescue teams drop 120 sensors near the command post at the
    // south-west corner.
    let mut rng = SmallRng::seed_from_u64(3);
    let initial = scatter_clustered(&field, Rect::new(0.0, 0.0, 300.0, 300.0), 120, &mut rng);
    let cfg = SimConfig::paper(55.0, 38.0)
        .with_duration(600.0)
        .with_coverage_cell(4.0);

    println!("disaster zone: {field}\n");
    for (name, result) in [
        (
            "CPVF",
            cpvf::run(&field, &initial, &cpvf::CpvfParams::default(), &cfg, None),
        ),
        (
            "FLOOR",
            floor::run(&field, &initial, &floor::FloorParams::default(), &cfg, None),
        ),
    ] {
        println!(
            "{name}: coverage {:.1}%, avg move {:.0} m, connected: {}",
            result.coverage * 100.0,
            result.avg_move,
            result.connected
        );
        println!(
            "{}",
            ascii_layout(&field, &result.positions, cfg.rs, &AsciiOptions::default())
        );
        println!();
    }
}
