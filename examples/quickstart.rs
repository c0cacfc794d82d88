//! Quickstart: deploy a small mobile sensor network with FLOOR and
//! print the resulting layout.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use msn_deploy::floor::{run, FloorParams};
use msn_field::{ascii_layout, scatter_clustered, AsciiOptions, Field};
use msn_geom::Rect;
use msn_sim::SimConfig;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn main() {
    // A 400 m x 400 m obstacle-free field with the base station at the
    // origin.
    let field = Field::open(400.0, 400.0);

    // 60 sensors dropped in the lower-left corner.
    let mut rng = SmallRng::seed_from_u64(7);
    let initial = scatter_clustered(&field, Rect::new(0.0, 0.0, 150.0, 150.0), 60, &mut rng);

    // Communication range 50 m, sensing range 35 m, 5 simulated
    // minutes.
    let cfg = SimConfig::paper(50.0, 35.0)
        .with_duration(300.0)
        .with_coverage_cell(4.0);

    let result = run(&field, &initial, &FloorParams::default(), &cfg, None);

    println!("scheme:            {}", result.scheme);
    println!("coverage:          {:.1}%", result.coverage * 100.0);
    println!("connected to base: {}", result.connected);
    println!("avg moving dist:   {:.1} m", result.avg_move);
    println!("messages sent:     {}", result.messages.total());
    if let Some(t) = result.convergence_time {
        println!("95% convergence:   {t:.0} s");
    }
    println!();
    println!(
        "{}",
        ascii_layout(&field, &result.positions, cfg.rs, &AsciiOptions::default())
    );
}
