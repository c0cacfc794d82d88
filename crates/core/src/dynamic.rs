//! The dynamic-run engine: scheduled world events with
//! restart-on-event scheme execution.
//!
//! A dynamic run executes a static scheme over segments between
//! scheduled events. A persistent *ledger* [`World`] carries the
//! cross-segment truth — positions, liveness, per-sensor travelled
//! distance, and the coverage and adjacency trackers that measure the
//! dips — while each segment hands the alive fleet to the ordinary
//! [`run_scheme_with`] dispatch and writes its outcome back. This is
//! the `failure_recovery` example's re-run-over-survivors pattern made
//! first-class: every scheme gets event handling without a line of
//! scheme code changing.
//!
//! Determinism: segment 0 runs on the run's ordinary sim seed, so a
//! schedule whose first event lies past the horizon reproduces the
//! static run's trajectory exactly. Every later random choice — which
//! sensors fail, where reinforcements land, restarted segment seeds —
//! derives from [`event_stream_seed`] over a dedicated per-run event
//! seed, a pure function of the matrix coordinate; thread count and
//! `--resume` cannot perturb it.

use crate::{run_scheme_with, SchemeKind, SchemeOverrides};
use msn_field::{CoverageGrid, Field};
use msn_geom::Point;
use msn_net::MessageCounter;
use msn_sim::{
    event_stream_seed, EventAction, EventQueue, EventSchedule, FailMode, RunResult, SimConfig,
    World,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// What one fired event did to the run — the raw material of the
/// recovery metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct EventRecord {
    /// Simulation time (s) at which the event fired.
    pub time: f64,
    /// Machine-readable event kind (`"fail"`, `"obstacle-add"`, …).
    pub kind: String,
    /// Coverage fraction immediately before the event applied.
    pub pre_coverage: f64,
    /// Coverage fraction immediately after the event applied.
    pub post_coverage: f64,
    /// Commanded travel distance (m) accumulated from the event to
    /// the end of the run.
    pub post_move_dist: f64,
}

/// A dynamic run's result: the stitched [`RunResult`] plus one record
/// per fired event.
#[derive(Debug, Clone)]
pub struct DynamicOutcome {
    /// The run metrics, covering the whole horizon. `positions` and
    /// `per_move` hold the *alive* fleet's final state in slot order;
    /// `coverage_timeline` is the concatenation of every segment's
    /// timeline with pre/post samples at each event instant.
    pub result: RunResult,
    /// One record per fired event, in schedule order.
    pub events: Vec<EventRecord>,
}

/// Runs `kind` under an event schedule. See the module docs for the
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
    let mut field_cur = field.clone();
    let mut grid_cur = grid
        .cloned()
        .unwrap_or_else(|| CoverageGrid::new(&field_cur, cfg.coverage_cell));
    let mut base_cur = cfg.base;

    // The ledger world: initial fleet plus every reinforcement slot,
    // coverage + adjacency tracked so event pre/post samples are
    // O(changed sensors), not full re-rasterizations, and the final
    // connectivity check floods maintained lists.
    let mut ledger = World::with_reserve(
        field_cur.clone(),
        cfg.clone(),
        initial.to_vec(),
        schedule.reinforce_total(),
    );
    ledger.track_coverage(grid_cur.clone());
    ledger.track_adjacency();
    // Reinforcements consume pristine slots past the initial fleet, in
    // order — a failed sensor's slot is never reused, so per-slot
    // travelled distance stays the history of one physical sensor.
    let mut reserve_cursor = initial.len();

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
    let mut fired: Vec<(EventRecord, f64)> = Vec::new();

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
            let seg_cfg = cfg
                .clone()
                .with_duration(seg_dur)
                .with_seed(seg_seed)
                .with_base(base_cur);
            let r = run_scheme_with(
                kind,
                &field_cur,
                &seg_initial,
                &seg_cfg,
                overrides,
                Some(&grid_cur),
            );
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
        timeline.push((time_cur, ledger.coverage_tracked()));
        for ev in batch {
            let ev_idx = fired.len() as u64;
            let pre = ledger.coverage_tracked();
            apply_event(
                &ev.action,
                event_stream_seed(event_seed, ev_idx),
                &mut ledger,
                &mut field_cur,
                &mut grid_cur,
                &mut base_cur,
                &mut reserve_cursor,
                cfg,
            );
            let post = ledger.coverage_tracked();
            fired.push((
                EventRecord {
                    time: ev.time,
                    kind: ev.action.kind().to_string(),
                    pre_coverage: pre,
                    post_coverage: post,
                    post_move_dist: 0.0,
                },
                move_dist_total,
            ));
        }
        timeline.push((time_cur, ledger.coverage_tracked()));
    }

    let coverage = ledger.coverage_tracked();
    let conn_mask = ledger.connected_mask_tracked();
    let alive = ledger.alive_indices();
    let connected = alive.iter().all(|&i| conn_mask[i]);
    // Per-sensor distances over every slot that ever lived (unused
    // reserve slots would dilute the averages with zeros).
    let moved: Vec<f64> = (0..reserve_cursor).map(|i| ledger.moved(i)).collect();
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
        .map(|(mut rec, dist_at)| {
            rec.post_move_dist = move_dist_total - dist_at;
            rec
        })
        .collect();
    DynamicOutcome { result, events }
}

/// Segment-seed streams live far above the per-event streams so the
/// two can never collide however long the schedule grows.
const SEGMENT_STREAM_BASE: u64 = 1_000_000;

/// Applies one event to the ledger and the current field/grid/base.
#[allow(clippy::too_many_arguments)]
fn apply_event(
    action: &EventAction,
    seed: u64,
    ledger: &mut World,
    field_cur: &mut Field,
    grid_cur: &mut CoverageGrid,
    base_cur: &mut Point,
    reserve_cursor: &mut usize,
    cfg: &SimConfig,
) {
    match action {
        EventAction::Fail { count, mode } => {
            let alive = ledger.alive_indices();
            let victims: Vec<usize> = match mode {
                FailMode::Random => {
                    let k = count.resolve(alive.len());
                    let mut pool = alive;
                    let mut rng = SmallRng::seed_from_u64(seed);
                    // partial Fisher–Yates over the alive list in
                    // index order: the first k swaps select the
                    // victims, independent of pool size beyond k
                    for j in 0..k {
                        let pick = j + rng.gen_range(0..pool.len() - j);
                        pool.swap(j, pick);
                    }
                    pool.truncate(k);
                    pool
                }
                FailMode::Drained => {
                    let k = count.resolve(alive.len());
                    let mut pool = alive;
                    // battery death: highest cumulative travel first,
                    // ties toward the lower index (sort is stable)
                    pool.sort_by(|&a, &b| {
                        ledger
                            .moved(b)
                            .partial_cmp(&ledger.moved(a))
                            .expect("travel distances are finite")
                    });
                    pool.truncate(k);
                    pool
                }
                FailMode::Region(rect) => {
                    let in_region: Vec<usize> = alive
                        .into_iter()
                        .filter(|&i| rect.contains(ledger.pos(i)))
                        .collect();
                    let k = count.resolve(in_region.len());
                    in_region.into_iter().take(k).collect()
                }
            };
            for v in victims {
                ledger.remove_sensor(v);
            }
        }
        EventAction::Reinforce { count, rect } => {
            let mut rng = SmallRng::seed_from_u64(seed);
            for _ in 0..*count {
                let p = sample_free_in_rect(rect, field_cur, &mut rng);
                ledger.insert_sensor(*reserve_cursor, p);
                *reserve_cursor += 1;
            }
        }
        EventAction::ObstacleAdd { rect } => {
            field_cur.push_obstacle(rect.to_polygon());
            *grid_cur = CoverageGrid::new(field_cur, cfg.coverage_cell);
            // re-rasterized world: the tracker reinstalls from current
            // positions, so cells swallowed by the obstacle leave the
            // covered count immediately
            ledger.track_coverage(grid_cur.clone());
        }
        EventAction::ObstacleRemove { index } => {
            // obstacle counts can vary per environment (randomized
            // fields), so an index past the list is a no-op rather
            // than an error — the event record still fires
            if *index < field_cur.obstacles().len() {
                field_cur.remove_obstacle(*index);
                *grid_cur = CoverageGrid::new(field_cur, cfg.coverage_cell);
                ledger.track_coverage(grid_cur.clone());
            }
        }
        EventAction::RelocateBase { to } => {
            *base_cur = *to;
            ledger.set_base(*to);
        }
    }
}

/// Draws a free point inside `rect` by rejection sampling (bounded;
/// falls back to the final draw if the rectangle is essentially all
/// obstacle — the sensor then sits in terrain and covers nothing,
/// which is the honest outcome of a bad drop zone).
fn sample_free_in_rect(rect: &msn_geom::Rect, field: &Field, rng: &mut SmallRng) -> Point {
    let mut p = rect.center();
    for _ in 0..10_000 {
        p = Point::new(
            rng.gen_range(rect.min.x..=rect.max.x),
            rng.gen_range(rect.min.y..=rect.max.y),
        );
        if field.is_free(p) {
            return p;
        }
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use msn_sim::{DynEvent, FailCount};

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

    fn fail_event(time: f64, k: usize) -> DynEvent {
        DynEvent {
            time,
            action: EventAction::Fail {
                count: FailCount::Count(k),
                mode: FailMode::Random,
            },
        }
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
        let schedule = EventSchedule::new(vec![fail_event(30.0, 6)]);
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
        let schedule = EventSchedule::new(vec![fail_event(20.0, 4), fail_event(40.0, 2)]);
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
    fn reinforcements_join_the_fleet_inside_the_drop_zone() {
        let (field, initial, cfg) = open_setup();
        let rect = msn_geom::Rect::new(100.0, 100.0, 180.0, 180.0);
        let schedule = EventSchedule::new(vec![
            fail_event(20.0, 8),
            DynEvent {
                time: 30.0,
                action: EventAction::Reinforce { count: 5, rect },
            },
        ]);
        let out = run_scheme_dynamic(
            SchemeKind::Cpvf,
            &field,
            &initial,
            &cfg,
            &SchemeOverrides::default(),
            None,
            &schedule,
            77,
        );
        assert_eq!(out.result.positions.len(), 12 - 8 + 5);
        assert_eq!(out.result.per_move.len(), 12 + 5);
        let reinforce = &out.events[1];
        assert_eq!(reinforce.kind, "reinforce");
        assert!(
            reinforce.post_coverage > reinforce.pre_coverage,
            "five arrivals must add coverage"
        );
    }

    #[test]
    fn obstacle_add_swallows_coverage_and_remove_restores_it() {
        let (field, initial, cfg) = open_setup();
        let rect = msn_geom::Rect::new(20.0, 20.0, 120.0, 120.0);
        let schedule = EventSchedule::new(vec![
            DynEvent {
                time: 20.0,
                action: EventAction::ObstacleAdd { rect },
            },
            DynEvent {
                time: 40.0,
                action: EventAction::ObstacleRemove { index: 0 },
            },
        ]);
        let out = run_scheme_dynamic(
            SchemeKind::Cpvf,
            &field,
            &initial,
            &cfg,
            &SchemeOverrides::default(),
            None,
            &schedule,
            5,
        );
        let add = &out.events[0];
        assert!(
            add.post_coverage < add.pre_coverage,
            "an obstacle over the fleet removes covered cells"
        );
        let remove = &out.events[1];
        assert!(
            remove.post_coverage >= remove.pre_coverage,
            "clearing the obstacle cannot lose coverage"
        );
        // out-of-range removal is a recorded no-op
        let noop = EventSchedule::new(vec![DynEvent {
            time: 20.0,
            action: EventAction::ObstacleRemove { index: 9 },
        }]);
        let out = run_scheme_dynamic(
            SchemeKind::Cpvf,
            &field,
            &initial,
            &cfg,
            &SchemeOverrides::default(),
            None,
            &noop,
            5,
        );
        assert_eq!(out.events[0].pre_coverage, out.events[0].post_coverage);
    }

    #[test]
    fn drained_mode_kills_the_biggest_movers() {
        let (field, initial, cfg) = open_setup();
        let schedule = EventSchedule::new(vec![DynEvent {
            time: 30.0,
            action: EventAction::Fail {
                count: FailCount::Frac(0.25),
                mode: FailMode::Drained,
            },
        }]);
        let out = run_scheme_dynamic(
            SchemeKind::Cpvf,
            &field,
            &initial,
            &cfg,
            &SchemeOverrides::default(),
            None,
            &schedule,
            11,
        );
        // 25 % of 12 = 3 dead
        assert_eq!(out.result.positions.len(), 9);
        assert_eq!(out.events[0].kind, "fail");
    }

    #[test]
    fn relocate_base_reanchors_connectivity() {
        let (field, initial, cfg) = open_setup();
        let schedule = EventSchedule::new(vec![DynEvent {
            time: 30.0,
            action: EventAction::RelocateBase {
                to: Point::new(190.0, 190.0),
            },
        }]);
        let out = run_scheme_dynamic(
            SchemeKind::Floor,
            &field,
            &initial,
            &cfg,
            &SchemeOverrides::default(),
            None,
            &schedule,
            3,
        );
        assert_eq!(out.events[0].kind, "relocate-base");
        assert_eq!(out.result.positions.len(), 12);
    }

    #[test]
    fn every_scheme_survives_a_failure_schedule() {
        let (field, initial, cfg) = open_setup();
        let cfg = cfg.with_duration(20.0);
        let schedule = EventSchedule::new(vec![fail_event(10.0, 3)]);
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
