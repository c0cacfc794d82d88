//! The dynamic-run engine: scheduled sensor failures with
//! restart-on-event scheme execution.
//!
//! A dynamic run executes a static scheme over segments between
//! scheduled failures. A persistent *ledger* [`World`] carries the
//! cross-segment truth — positions, liveness, per-sensor travelled
//! distance, the coverage raster that measures the dips and the
//! adjacency that gives the final connectivity verdict — while each
//! segment hands the alive fleet to the ordinary
//! [`run_scheme_with`] dispatch and writes its outcome back. This is
//! the `failure_recovery` example's re-run-over-survivors pattern made
//! first-class: every scheme gets failure handling without a line of
//! scheme code changing.
//!
//! Determinism: segment 0 runs on the run's ordinary sim seed, so a
//! schedule whose first event lies past the horizon reproduces the
//! static run's trajectory exactly. Every later random choice — which
//! sensors fail, restarted segment seeds — derives from
//! [`event_stream_seed`] over a dedicated per-run event seed, a pure
//! function of the matrix coordinate; thread count and `--resume`
//! cannot perturb it.

use crate::{run_scheme_with, SchemeKind, SchemeOverrides};
use msn_field::{CoverageGrid, Field};
use msn_geom::Point;
use msn_metrics::EventMark;
use msn_net::MessageCounter;
use msn_sim::{
    event_stream_seed, DynEvent, EventQueue, EventSchedule, RunResult, SimConfig, World,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::borrow::Cow;

/// A dynamic run's result: the stitched [`RunResult`] plus one record
/// per fired event.
#[derive(Debug, Clone)]
pub struct DynamicOutcome {
    /// The run metrics, covering the whole horizon. `positions` hold
    /// the *alive* fleet's final state in slot order and `per_move`
    /// every slot's travel; `coverage_timeline` is the concatenation
    /// of every segment's timeline with pre/post samples at each
    /// event instant.
    pub result: RunResult,
    /// One record per fired event, in schedule order — the input of
    /// [`msn_metrics::recovery_stats`].
    pub events: Vec<EventMark>,
}

/// Runs `kind` under a failure schedule. See the module docs for the
/// segment/ledger model; parameters mirror [`run_scheme_with`], with
/// `schedule` (validated against `cfg.duration`) and the per-run
/// `event_seed` on top.
#[allow(clippy::too_many_arguments)]
pub fn run_scheme_dynamic(
    kind: SchemeKind,
    field: &Field,
    initial: &[Point],
    cfg: &SimConfig,
    overrides: &SchemeOverrides,
    grid: Option<&CoverageGrid>,
    schedule: &EventSchedule,
    event_seed: u64,
) -> DynamicOutcome {
    // One raster for the ledger and every segment.
    let grid = grid.map_or_else(
        || Cow::Owned(CoverageGrid::new(field, cfg.coverage_cell)),
        Cow::Borrowed,
    );

    // The ledger world: event pre/post samples count coverage on the
    // shared raster (parked slots cost nothing), and the final
    // connectivity check floods its maintained adjacency. A failed
    // sensor's slot stays parked, so per-slot travelled distance is
    // the history of one physical sensor.
    let mut ledger = World::new(field.clone(), cfg.clone(), initial.to_vec(), Some(&*grid));

    let mut queue = EventQueue::new(schedule);
    let mut time_cur = 0.0;
    let mut seg_index: u64 = 0;
    let mut timeline: Vec<(f64, f64)> = Vec::new();
    let mut messages = MessageCounter::new();
    let mut moves_total: u64 = 0;
    let mut move_dist_total: f64 = 0.0;
    let mut flags: Vec<String> = Vec::new();
    // (record, move_dist at event time) — post_move_dist is settled at
    // the end of the run.
    let mut fired: Vec<(EventMark, f64)> = Vec::new();

    loop {
        let t_next = queue.next_time().unwrap_or(cfg.duration).min(cfg.duration);
        let seg_dur = t_next - time_cur;
        if seg_dur > 0.0 && ledger.alive_count() > 0 {
            let alive = ledger.alive_indices();
            let seg_initial: Vec<Point> = alive.iter().map(|&i| ledger.pos(i)).collect();
            // Segment 0 keeps the run's ordinary sim seed (an
            // event-free prefix reproduces the static trajectory);
            // restarted segments draw from the event stream.
            let seg_seed = if seg_index == 0 {
                cfg.seed
            } else {
                event_stream_seed(event_seed, SEGMENT_STREAM_BASE + seg_index)
            };
            let seg_cfg = cfg.clone().with_duration(seg_dur).with_seed(seg_seed);
            let r = run_scheme_with(kind, field, &seg_initial, &seg_cfg, overrides, Some(&*grid));
            for (j, &i) in alive.iter().enumerate() {
                ledger.teleport(i, r.positions[j]);
                ledger.add_distance(i, r.per_move[j]);
            }
            moves_total += r.moves;
            move_dist_total += r.move_dist;
            messages.merge(&r.messages);
            for flag in r.flags {
                if !flags.contains(&flag) {
                    flags.push(flag);
                }
            }
            timeline.extend(r.coverage_timeline.iter().map(|&(t, c)| (time_cur + t, c)));
            seg_index += 1;
        }
        time_cur = t_next;
        if queue.next_time() != Some(t_next) {
            break;
        }
        let batch = queue.pop_batch();
        // Pre-event sample, per-event records, post-batch sample: the
        // recovery analysis keys on "last sample at the event instant
        // is the post-event state".
        timeline.push((time_cur, ledger.coverage()));
        for ev in batch {
            let ev_idx = fired.len() as u64;
            let pre = ledger.coverage();
            fail(ev, event_stream_seed(event_seed, ev_idx), &mut ledger);
            let post = ledger.coverage();
            fired.push((
                EventMark {
                    time: ev.time,
                    kind: DynEvent::KIND.to_string(),
                    pre_coverage: pre,
                    post_coverage: post,
                    post_move_dist: 0.0,
                },
                move_dist_total,
            ));
        }
        timeline.push((time_cur, ledger.coverage()));
    }

    let coverage = ledger.coverage();
    let conn_mask = ledger.connected_mask_tracked();
    let alive = ledger.alive_indices();
    let connected = alive.iter().all(|&i| conn_mask[i]);
    let moved: Vec<f64> = (0..ledger.n()).map(|i| ledger.moved(i)).collect();
    let positions: Vec<Point> = alive.iter().map(|&i| ledger.pos(i)).collect();
    let mut result = RunResult::from_run(
        kind.name(),
        coverage,
        &moved,
        messages,
        connected,
        timeline,
        positions,
    )
    .with_movement(moves_total, move_dist_total);
    for flag in flags {
        result = result.with_flag(flag);
    }
    let events = fired
        .into_iter()
        .map(|(mut mark, dist_at)| {
            mark.post_move_dist = move_dist_total - dist_at;
            mark
        })
        .collect();
    DynamicOutcome { result, events }
}

/// Segment-seed streams live far above the per-event streams so the
/// two can never collide however long the schedule grows.
const SEGMENT_STREAM_BASE: u64 = 1_000_000;

/// Kills `event`'s share of the alive fleet, chosen uniformly from
/// the `seed` stream.
fn fail(event: &DynEvent, seed: u64, ledger: &mut World) {
    let mut pool = ledger.alive_indices();
    let k = event.fail_count(pool.len());
    let mut rng = SmallRng::seed_from_u64(seed);
    // partial Fisher–Yates over the alive list in index order: the
    // first k swaps select the victims, independent of pool size
    // beyond k
    for j in 0..k {
        let pick = j + rng.gen_range(0..pool.len() - j);
        pool.swap(j, pick);
    }
    for &v in &pool[..k] {
        ledger.remove_sensor(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn open_setup() -> (Field, Vec<Point>, SimConfig) {
        let field = Field::open(200.0, 200.0);
        let cfg = SimConfig::paper(50.0, 35.0)
            .with_duration(60.0)
            .with_coverage_cell(10.0)
            .with_seed(7);
        let initial: Vec<Point> = (0..12)
            .map(|i| Point::new(10.0 + 13.0 * (i % 4) as f64, 10.0 + 13.0 * (i / 4) as f64))
            .collect();
        (field, initial, cfg)
    }

    fn fail_event(time: f64, frac: f64) -> DynEvent {
        DynEvent { time, frac }
    }

    #[test]
    fn empty_schedule_matches_the_static_run() {
        let (field, initial, cfg) = open_setup();
        let overrides = SchemeOverrides::default();
        let schedule = EventSchedule::new(Vec::new());
        let stat = run_scheme_with(SchemeKind::Cpvf, &field, &initial, &cfg, &overrides, None);
        let dynamic = run_scheme_dynamic(
            SchemeKind::Cpvf,
            &field,
            &initial,
            &cfg,
            &overrides,
            None,
            &schedule,
            999,
        );
        // one segment, seeded with the ordinary sim seed: identical
        // trajectory, identical metrics
        assert_eq!(dynamic.result.coverage, stat.coverage);
        assert_eq!(dynamic.result.positions, stat.positions);
        assert_eq!(dynamic.result.moves, stat.moves);
        assert_eq!(dynamic.result.move_dist, stat.move_dist);
        assert_eq!(dynamic.result.total_move, stat.total_move);
        assert!(dynamic.events.is_empty());
    }

    #[test]
    fn failure_dips_coverage_and_records_the_event() {
        let (field, initial, cfg) = open_setup();
        let schedule = EventSchedule::new(vec![fail_event(30.0, 0.5)]);
        let out = run_scheme_dynamic(
            SchemeKind::Cpvf,
            &field,
            &initial,
            &cfg,
            &SchemeOverrides::default(),
            None,
            &schedule,
            4242,
        );
        assert_eq!(out.events.len(), 1);
        let ev = &out.events[0];
        assert_eq!(ev.kind, "fail");
        assert!(
            ev.post_coverage < ev.pre_coverage,
            "killing half the fleet must dip coverage: {} -> {}",
            ev.pre_coverage,
            ev.post_coverage
        );
        assert!(ev.post_move_dist >= 0.0);
        // survivors: 6 of 12, all positions reported
        assert_eq!(out.result.positions.len(), 6);
        assert_eq!(out.result.per_move.len(), 12, "every ever-alive slot");
        // the timeline brackets the event with pre/post samples
        let at_event: Vec<f64> = out
            .result
            .coverage_timeline
            .iter()
            .filter(|&&(t, _)| t == 30.0)
            .map(|&(_, c)| c)
            .collect();
        assert!(at_event.len() >= 2, "pre and post samples at the instant");
        assert_eq!(*at_event.last().unwrap(), ev.post_coverage);
    }

    #[test]
    fn dynamic_runs_are_deterministic_in_the_event_seed() {
        let (field, initial, cfg) = open_setup();
        let schedule = EventSchedule::new(vec![fail_event(20.0, 0.34), fail_event(40.0, 0.25)]);
        let run = |event_seed: u64| {
            run_scheme_dynamic(
                SchemeKind::Cpvf,
                &field,
                &initial,
                &cfg,
                &SchemeOverrides::default(),
                None,
                &schedule,
                event_seed,
            )
        };
        let a = run(1);
        let b = run(1);
        assert_eq!(a.result.positions.len(), 12 - 4 - 2);
        assert_eq!(a.result.positions, b.result.positions);
        assert_eq!(a.result.coverage, b.result.coverage);
        assert_eq!(a.events, b.events);
        let c = run(2);
        assert_ne!(
            a.result.positions, c.result.positions,
            "a different event seed kills different sensors"
        );
    }

    #[test]
    fn every_scheme_survives_a_failure_schedule() {
        let (field, initial, cfg) = open_setup();
        let cfg = cfg.with_duration(20.0);
        let schedule = EventSchedule::new(vec![fail_event(10.0, 0.25)]);
        for kind in SchemeKind::ALL {
            let out = run_scheme_dynamic(
                kind,
                &field,
                &initial,
                &cfg,
                &SchemeOverrides::default(),
                None,
                &schedule,
                123,
            );
            assert_eq!(out.result.positions.len(), 9, "{kind} survivor count");
            assert!(out.result.coverage > 0.0, "{kind} final coverage");
            assert_eq!(out.events.len(), 1, "{kind} event record");
        }
    }
}
