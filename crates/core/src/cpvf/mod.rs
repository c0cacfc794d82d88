//! The Connectivity-Preserved Virtual Force scheme (§4).
//!
//! CPVF runs in two phases:
//!
//! 1. **Achieving connectivity (§4.1).** Sensors that the base
//!    station's flood reaches are *connected*; the rest walk toward the
//!    base with BUG2 (right-hand rule) under the lazy-movement strategy
//!    of §3.3, freezing as soon as they enter the communication range
//!    of a connected sensor.
//! 2. **Maximizing coverage (§4.2).** Connected sensors move under
//!    virtual forces. The force fixes only the direction; the step
//!    size is the largest candidate in `{1.0, 0.9, …, 0.1, 0}·V·T`
//!    satisfying the two *connectivity-preserving conditions* against
//!    the parent and every child, so the tree rooted at the base
//!    station never partitions (proved in the paper's Appendix A and
//!    property-tested in `msn-geom`). A sensor that cannot move under
//!    its current parent may switch parents via the subtree-locking
//!    protocol.
//!
//! The §6.3 oscillation-avoidance variants are available through
//! [`CpvfParams::oscillation`].

mod force;
mod osc;

pub use force::{virtual_force, ForceParams};
pub use osc::OscillationAvoidance;

use crate::lazy::{absorb, flood_attach, Timeline, Walkers};
use msn_field::Field;
use msn_geom::{Point, Segment, Vec2};
use msn_nav::{Hand, MultiLegPlan, NavContext};
use msn_net::{within_range, MsgKind, Parent, Tree};
use msn_sim::{RunResult, SimConfig, World};

/// Tuning parameters of CPVF. The virtual-force constants derive from
/// the configured ranges ([`ForceParams::for_ranges`]).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CpvfParams {
    /// Oscillation-avoidance technique (§6.3); default off.
    pub oscillation: OscillationAvoidance,
}

/// Per-sensor motion plan for the current period.
#[derive(Debug, Clone, Copy)]
struct Motion {
    vel: Vec2,
    planned_end: Point,
}

impl Motion {
    fn still(pos: Point) -> Self {
        Motion {
            vel: Vec2::ORIGIN,
            planned_end: pos,
        }
    }
}

/// Runs CPVF and reports the standard metrics.
///
/// `initial` gives the sensors' starting positions inside `field`.
/// `grid`, when given, must have been built for `field` at
/// `cfg.coverage_cell` (the batch runner caches one per fixed field
/// layout); `None` rasterizes a fresh grid.
///
/// # Examples
///
/// See the [crate-level quickstart](crate).
pub fn run(
    field: &Field,
    initial: &[Point],
    params: &CpvfParams,
    cfg: &SimConfig,
    grid: Option<&msn_field::CoverageGrid>,
) -> RunResult {
    let _run = msn_obs::span("cpvf.run");
    let setup = msn_obs::span("cpvf.setup");
    let n = initial.len();
    let mut world = World::new(field.clone(), cfg.clone(), initial.to_vec(), grid);
    let force_params = ForceParams::for_ranges(cfg.rc, cfg.rs);
    let max_step = cfg.max_step();

    // ---- Phase 1 setup: initial flood over the rc-disk adjacency. ----
    let mut tree = Tree::new(n);
    let flooded = flood_attach(
        world.adjacency(),
        initial,
        cfg.base,
        cfg.rc,
        |_, _| true,
        &mut tree,
    );
    // Each connected sensor forwards the flood message exactly once.
    world.msgs().record(MsgKind::ConnectFlood, flooded);

    // One shared BUG2 context: every disconnected sensor's navigator
    // probes obstacles through the same offset rings + edge grid.
    let nav_ctx = std::sync::Arc::new(NavContext::new(field));
    let mut walkers = Walkers::new(n);
    for i in (0..n).filter(|&i| !tree.in_tree(i)) {
        let route =
            MultiLegPlan::with_context(nav_ctx.clone(), initial[i], vec![cfg.base], Hand::Right);
        walkers.start(i, route, &mut world);
    }
    let mut motions: Vec<Motion> = initial.iter().map(|&p| Motion::still(p)).collect();
    // Position at the *previous* plan tick, for two-step oscillation
    // avoidance (the end of the step before the one just finished).
    let mut prev_plan_pos: Vec<Option<Point>> = vec![None; n];
    let mut timeline = Timeline::start(&world);
    // One neighbor-query buffer for every planning step of the run.
    let mut nbrs: Vec<usize> = Vec::new();
    drop(setup);

    for _ in 0..cfg.total_ticks() {
        // ---- Decisions at period boundaries. ----
        let plan = msn_obs::span("cpvf.plan");
        for i in 0..n {
            if !world.is_plan_tick(i) {
                continue;
            }
            if tree.in_tree(i) {
                plan_virtual_force(
                    i,
                    &mut world,
                    &mut tree,
                    &force_params,
                    params,
                    &mut motions,
                    &mut prev_plan_pos,
                    max_step,
                    &mut nbrs,
                )
            } else {
                walkers.plan(i, &mut world);
            }
        }

        drop(plan);

        // ---- Motion integration over one micro-tick. ----
        let motion = msn_obs::span("cpvf.motion");
        let dt = cfg.dt();
        for i in 0..n {
            if tree.in_tree(i) {
                let m = motions[i];
                if m.vel.norm() <= 1e-12 {
                    continue;
                }
                let from = world.pos(i);
                let mut to = from + m.vel * dt;
                // Never step past the planned endpoint.
                if from.dist(to) > from.dist(m.planned_end) {
                    to = m.planned_end;
                }
                let seg = Segment::new(from, to);
                if let Some((t, _)) = world.field().first_hit(&seg) {
                    // Ran into a wall mid-period: stop against it.
                    let stop = seg.at((t - 0.05).max(0.0));
                    world.set_pos(i, stop);
                    motions[i] = Motion::still(stop);
                } else {
                    world.set_pos(i, to);
                }
            } else {
                walkers.step(i, &mut world);
            }
        }

        drop(motion);

        // ---- Freeze walkers that came into range of the tree. ----
        // The margin keeps the fresh link alive through the parent's
        // residual motion in its current period (it can move at most
        // V·T before it re-plans with the new child in its link set).
        {
            let _absorb = msn_obs::span("cpvf.absorb");
            absorb(
                &mut world,
                &mut tree,
                &mut walkers,
                cfg.rc - max_step,
                |i, world, _| motions[i] = Motion::still(world.pos(i)),
            );
        }

        world.advance_tick();
        timeline.sample(&world, "cpvf.snapshot");
        // Invariant check: every tree link must stay within
        // communication range at all times — the paper's connectivity
        // guarantee. A broken link panics the run.
        let _check = msn_obs::span("cpvf.check");
        for i in 0..n {
            let other = match tree.parent(i) {
                Parent::Base => cfg.base,
                Parent::Node(p) => world.pos(p),
                Parent::None => continue,
            };
            let d = world.pos(i).dist(other);
            assert!(
                d <= cfg.rc + 1e-6,
                "t={}: link of #{i} to {:?} at {d:.3}",
                world.time(),
                tree.parent(i)
            );
        }
    }

    let _finish = msn_obs::span("cpvf.finish");
    let coverage = world.coverage();
    crate::finish(&mut world, "CPVF", coverage, timeline.samples)
}

/// One §4.2 planning step: force direction, validated step size,
/// oscillation filter, and (if pinned) a parent-change attempt.
/// `nbrs` is query scratch, overwritten.
#[allow(clippy::too_many_arguments)]
fn plan_virtual_force(
    i: usize,
    world: &mut World,
    tree: &mut Tree,
    force_params: &ForceParams,
    params: &CpvfParams,
    motions: &mut [Motion],
    prev_plan_pos: &mut [Option<Point>],
    max_step: f64,
    nbrs: &mut Vec<usize>,
) {
    let pos = world.pos(i);
    // Tracked query at the index's own rc cell: same order the
    // per-tick grid produced, so the force summation below sees its
    // neighbors in the identical sequence (f64 addition is not
    // associative — order is part of the output).
    let reach = force_params.neighbor_threshold.min(world.cfg().rc);
    world.neighbors_tracked_into(i, reach, nbrs);
    let f = virtual_force(
        pos,
        nbrs.iter().map(|&j| world.pos(j)),
        world.field(),
        force_params,
    );
    let prev = prev_plan_pos[i];
    prev_plan_pos[i] = Some(pos);
    if f.norm() < force_params.min_force {
        motions[i] = Motion::still(pos);
        return;
    }
    let dir = f.normalized().expect("norm checked above");

    // The links sensor `i` must keep alive: its parent and all
    // children. Obtaining each neighbor's direction/speed/period end
    // costs a round trip (§4.2).
    let parent = tree.parent(i);
    let children = tree.children(i);
    let probes = children.len() + usize::from(matches!(parent, Parent::Node(_)));
    world.msgs().record(MsgKind::MotionProbe, 2 * probes as u64);

    let chosen = max_valid_step(i, pos, dir, parent, children, world, motions, max_step);
    let filtered = params.oscillation.filter(pos, dir, chosen, max_step, prev);

    if filtered > 1e-9 {
        motions[i] = Motion {
            vel: dir * (filtered / SimConfig::PERIOD),
            planned_end: pos + dir * filtered,
        };
        return;
    }
    motions[i] = Motion::still(pos);
    // Pinned by the current parent and genuinely pushed: try to switch
    // parents (allowed only when the sensor cannot move, §4.2).
    if chosen <= 1e-9 {
        try_parent_change(i, pos, dir, tree, world, motions, max_step, nbrs);
    }
}

/// Largest step in `{1.0, …, 0.1, 0}·V·T` whose straight move keeps
/// the links to `parent` and every child alive under the two
/// connectivity-preserving conditions and does not run through an
/// obstacle.
#[allow(clippy::too_many_arguments)]
fn max_valid_step(
    i: usize,
    pos: Point,
    dir: Vec2,
    parent: Parent,
    children: &[usize],
    world: &World,
    motions: &[Motion],
    max_step: f64,
) -> f64 {
    let cfg = world.cfg();
    let now = world.time();
    let my_period_end = world.period_end(i);
    for k in (1..=10u32).rev() {
        let step = max_step * k as f64 / 10.0;
        let end = pos + dir * step;
        if !world.field().segment_free(&Segment::new(pos, end)) {
            continue;
        }
        let my_vel = dir * (step / SimConfig::PERIOD);
        let mut links = std::iter::once(parent).chain(children.iter().map(|&c| Parent::Node(c)));
        let ok = links.all(|link| {
            // The partner may follow its announced plan — or stop at any
            // point of it (equilibrium, wall contact, or a same-phase
            // re-plan that chooses not to move). Its possible positions
            // at t′ span the segment between "full plan" and "stopped
            // now"; by convexity it suffices to check both extremes.
            let (other_candidates, t_prime): ([Point; 2], f64) = match link {
                Parent::None => return true,
                Parent::Base => ([cfg.base, cfg.base], my_period_end),
                Parent::Node(j) => {
                    let tp = world.period_end(j);
                    let here = world.pos(j);
                    ([here + motions[j].vel * (tp - now), here], tp)
                }
            };
            let me_at_tp = pos + my_vel * (t_prime - now).clamp(0.0, SimConfig::PERIOD);
            other_candidates.iter().all(|other_at_tp| {
                // Condition 1: within rc at the neighbor's period end.
                within_range(me_at_tp, *other_at_tp, cfg.rc)
                    // Condition 2: the neighbor's position at t′ is
                    // within rc of my own period end.
                    && within_range(*other_at_tp, end, cfg.rc)
            })
        });
        if ok {
            return step;
        }
    }
    0.0
}

/// Attempts to adopt a new parent that would let the sensor move in
/// its force direction, paying the `LockTree`/`UnLockTree` cost.
/// `nbrs` is query scratch, overwritten.
#[allow(clippy::too_many_arguments)]
fn try_parent_change(
    i: usize,
    pos: Point,
    dir: Vec2,
    tree: &mut Tree,
    world: &mut World,
    motions: &mut [Motion],
    max_step: f64,
    nbrs: &mut Vec<usize>,
) {
    let cfg_rc = world.cfg().rc;
    let current = match tree.parent(i) {
        Parent::Node(p) => Some(p),
        _ => return, // directly under the base: nothing to gain
    };
    // Candidate parents: connected neighbors that do not create loops.
    // The margin below rc absorbs the candidate's residual motion in
    // its current period (it only learns of its new child when it next
    // plans).
    let reach = cfg_rc - world.cfg().max_step();
    let mut best: Option<(usize, f64)> = None;
    world.neighbors_tracked_into(i, reach, nbrs);
    for &j in nbrs.iter() {
        if Some(j) == current || !tree.in_tree(j) || tree.would_create_loop(i, j) {
            continue;
        }
        // Hypothetical link set with j as parent.
        let step = max_valid_step(
            i,
            pos,
            dir,
            Parent::Node(j),
            tree.children(i),
            world,
            motions,
            max_step,
        );
        if step > 1e-9 && best.is_none_or(|(_, bs)| step > bs) {
            best = Some((j, step));
        }
    }
    let Some((j, _)) = best else {
        return;
    };
    // Lock the subtree, switch, unlock (§4.2). In this serialized
    // simulation the lock always succeeds; the message cost remains.
    let scope = tree.subtree(i).len() as u64;
    world.msgs().record(MsgKind::LockTree, scope);
    world.msgs().record(MsgKind::UnlockTree, scope);
    tree.reparent(i, Parent::Node(j));
}

#[cfg(test)]
mod tests {
    use super::*;
    use msn_field::{scatter_clustered, two_obstacle_field};
    use msn_geom::Rect;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn small_cfg(rc: f64, rs: f64) -> SimConfig {
        SimConfig::paper(rc, rs)
            .with_duration(40.0)
            .with_coverage_cell(10.0)
    }

    fn clustered(field: &Field, n: usize, seed: u64) -> Vec<Point> {
        let mut rng = SmallRng::seed_from_u64(seed);
        scatter_clustered(field, Rect::new(0.0, 0.0, 120.0, 120.0), n, &mut rng)
    }

    #[test]
    fn run_connects_everyone_in_small_field() {
        let field = Field::open(300.0, 300.0);
        let initial = clustered(&field, 20, 7);
        let r = run(
            &field,
            &initial,
            &CpvfParams::default(),
            &small_cfg(50.0, 30.0),
            None,
        );
        assert!(r.connected, "CPVF must end fully connected");
        assert!(r.coverage > 0.05);
        assert_eq!(r.positions.len(), 20);
    }

    #[test]
    fn coverage_improves_over_time() {
        let field = Field::open(300.0, 300.0);
        let initial = clustered(&field, 25, 3);
        let r = run(
            &field,
            &initial,
            &CpvfParams::default(),
            &small_cfg(60.0, 40.0),
            None,
        );
        let first = r.coverage_timeline.first().expect("timeline").1;
        assert!(
            r.coverage >= first - 0.02,
            "coverage should not collapse: {first} -> {}",
            r.coverage
        );
        assert!(r.messages.total() > 0, "protocol must exchange messages");
    }

    #[test]
    fn isolated_sensor_walks_to_base_and_connects() {
        let field = Field::open(300.0, 300.0);
        // One sensor near the base, one far away and disconnected.
        let initial = vec![Point::new(10.0, 10.0), Point::new(250.0, 250.0)];
        let cfg = SimConfig::paper(40.0, 30.0)
            .with_duration(200.0)
            .with_coverage_cell(10.0);
        let r = run(&field, &initial, &CpvfParams::default(), &cfg, None);
        assert!(r.connected, "the walker must reach the tree");
        assert!(r.avg_move > 10.0, "the far sensor had to travel");
    }

    #[test]
    fn obstacles_do_not_break_connectivity() {
        let field = two_obstacle_field();
        let mut rng = SmallRng::seed_from_u64(11);
        let initial = scatter_clustered(&field, Rect::new(0.0, 0.0, 400.0, 400.0), 30, &mut rng);
        // Stragglers behind the walls walk 100+ m at 2 m/s: give them time.
        let cfg = SimConfig::paper(60.0, 40.0)
            .with_duration(200.0)
            .with_coverage_cell(10.0);
        let r = run(&field, &initial, &CpvfParams::default(), &cfg, None);
        assert!(r.connected);
    }

    #[test]
    fn oscillation_avoidance_reduces_movement() {
        let field = Field::open(300.0, 300.0);
        let initial = clustered(&field, 25, 9);
        let cfg = small_cfg(60.0, 40.0);
        let free = run(&field, &initial, &CpvfParams::default(), &cfg, None);
        let damped = run(
            &field,
            &initial,
            &CpvfParams {
                oscillation: OscillationAvoidance::OneStep { delta: 2.0 },
            },
            &cfg,
            None,
        );
        assert!(
            damped.avg_move <= free.avg_move + 1e-9,
            "damped {} vs free {}",
            damped.avg_move,
            free.avg_move
        );
    }

    #[test]
    fn deterministic_under_seed() {
        let field = Field::open(300.0, 300.0);
        let initial = clustered(&field, 15, 5);
        let cfg = small_cfg(50.0, 30.0);
        let a = run(&field, &initial, &CpvfParams::default(), &cfg, None);
        let b = run(&field, &initial, &CpvfParams::default(), &cfg, None);
        assert_eq!(a.coverage, b.coverage);
        assert_eq!(a.avg_move, b.avg_move);
        assert_eq!(a.messages.total(), b.messages.total());
    }
}
