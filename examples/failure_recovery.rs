//! Failure recovery (the paper's §7 future work), now first-class:
//! the dynamics engine schedules a 25 % die-off mid-run, restarts
//! FLOOR over the survivors — classification and expansion only need
//! the surviving positions, so the remaining redundancy heals the
//! holes — and the recovery metrics quantify the dip. The same
//! workload ships as `scenarios/failure-recovery.toml` with a
//! committed golden fixture; this example is the single-run,
//! narrated form.
//!
//! ```text
//! cargo run --release --example failure_recovery
//! ```

use msn_deploy::{run_scheme_dynamic, SchemeKind, SchemeOverrides};
use msn_field::{scatter_clustered, Field};
use msn_geom::Rect;
use msn_metrics::recovery_stats;
use msn_sim::{DynEvent, EventSchedule, SimConfig};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn main() {
    let field = Field::open(500.0, 500.0);
    let mut rng = SmallRng::seed_from_u64(21);
    let initial = scatter_clustered(&field, Rect::new(0.0, 0.0, 200.0, 200.0), 100, &mut rng);
    let cfg = SimConfig::paper(50.0, 35.0)
        .with_duration(700.0)
        .with_coverage_cell(4.0);

    // 25% of the fleet dies at t=400, after the deployment converges;
    // the engine drops the victims from its ledger and restarts FLOOR
    // over the survivors from a seeded event stream.
    let schedule = EventSchedule::new(vec![DynEvent {
        time: 400.0,
        frac: 0.25,
    }]);
    let outcome = run_scheme_dynamic(
        SchemeKind::Floor,
        &field,
        &initial,
        &cfg,
        &SchemeOverrides::default(),
        None,
        &schedule,
        21,
    );

    let event = &outcome.events[0];
    println!(
        "deployed: coverage {:.1}% before the event",
        event.pre_coverage * 100.0
    );
    println!(
        "after 25% failures: coverage {:.1}%",
        event.post_coverage * 100.0
    );

    let stats = recovery_stats(
        &outcome.result.coverage_timeline,
        &outcome.events,
        schedule.recovery_frac,
    );
    let stat = &stats[0];
    match stat.recovery_time {
        Some(t) => println!(
            "recovered to {:.0}% of pre-event coverage in {:.0} s (dip floor {:.1}%)",
            schedule.recovery_frac * 100.0,
            t,
            stat.min_coverage * 100.0
        ),
        None => println!(
            "not recovered by the horizon (dip floor {:.1}%)",
            stat.min_coverage * 100.0
        ),
    }
    println!(
        "after recovery: coverage {:.1}%, connected: {} ({:.0} m moved after the event)",
        outcome.result.coverage * 100.0,
        outcome.result.connected,
        stat.post_move_dist
    );
    assert!(
        outcome.result.coverage >= event.post_coverage - 0.02,
        "recovery must not lose coverage"
    );
}
