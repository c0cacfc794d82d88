//! The connectivity phase shared by CPVF (§4.1) and FLOOR (§5.2).
//!
//! At t = 0 the base station floods the network and every sensor the
//! flood reaches joins the tree ([`flood_attach`]). The rest become
//! [`Walkers`]: after a random back-off each walks a BUG2 route toward
//! the base under the lazy movement strategy of §3.3, and freezes as
//! soon as it comes within a stop distance of the tree ([`absorb`]).
//! The schemes differ only in the route, a BUG2 [`MultiLegPlan`] (CPVF:
//! one leg straight to the base; FLOOR: Algorithm 1's floor-line
//! waypoints), the stop distance and what a newly attached sensor does
//! next.
//!
//! With multi-hop communication, a disconnected sensor walking toward
//! the base station may stop as soon as a neighbor *ahead of it* (its
//! *path parent*) is expected to connect first — connectivity then
//! arrives for free. Waiting chains can deadlock into loops around
//! obstacles; a waiting sensor probes its chain with
//! `PathParentInquiry` messages and resumes (blacklisting the parent)
//! when the probe returns to itself.
//!
//! Both schemes also share the coverage [`Timeline`].

use msn_geom::Point;
use msn_nav::MultiLegPlan;
use msn_net::{MsgKind, Neighbors, Parent, Tree};
use msn_sim::{SimConfig, World};
use rand::Rng;

/// Upper bound of the random start delay for disconnected sensors
/// (s), §4.1's "small random time period".
const BACKOFF_MAX: f64 = 10.0;

/// Coverage-timeline sampling interval (s).
const SNAPSHOT_EVERY: f64 = 25.0;

/// Outcome of one connectivity-phase planning step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ConnectOutcome {
    /// Keep walking this period.
    Move,
    /// Wait for the path parent (no movement this period).
    Wait,
    /// Back-off timer still running.
    BackOff,
}

/// Per-sensor lazy-movement state for a disconnected, walking sensor.
#[derive(Debug)]
struct LazyMover {
    route: MultiLegPlan,
    path_parent: Option<usize>,
    idle_periods: u32,
    blacklist: Vec<usize>,
    backoff_until: f64,
}

/// Number of idle periods after which a waiting sensor starts probing
/// its path-parent chain for loops.
const INQUIRY_AFTER_IDLE: u32 = 3;

impl LazyMover {
    fn new(route: MultiLegPlan, backoff_until: f64) -> Self {
        LazyMover {
            route,
            path_parent: None,
            idle_periods: 0,
            blacklist: Vec::new(),
            backoff_until,
        }
    }
}

/// Floods from the base station at t = 0 (§4.1) and attaches every
/// reached sensor to the still-empty `tree` along BFS predecessor
/// edges, returning how many joined.
///
/// Sensors within `base_reach` of `base` start the flood; it then
/// crosses every `graph` edge `u → v` for which `link(u, v)` holds.
/// `points` are the positions `graph` reflects.
pub(crate) fn flood_attach(
    graph: &impl Neighbors,
    points: &[Point],
    base: Point,
    base_reach: f64,
    link: impl Fn(usize, usize) -> bool,
    tree: &mut Tree,
) -> u64 {
    let mut queue = std::collections::VecDeque::new();
    for (i, p) in points.iter().enumerate() {
        if p.dist(base) <= base_reach {
            tree.attach(i, Parent::Base);
            queue.push_back(i);
        }
    }
    while let Some(u) = queue.pop_front() {
        for &v in graph.neighbors_of(u) {
            if !tree.in_tree(v) && link(u, v) {
                tree.attach(v, Parent::Node(u));
                queue.push_back(v);
            }
        }
    }
    tree.attached_count() as u64
}

/// The disconnected sensors walking toward the base: each one's lazy
/// state (`None` once it is in the tree, or while it does something
/// else) and whether it moves in the current period.
#[derive(Debug)]
pub(crate) struct Walkers {
    movers: Vec<Option<LazyMover>>,
    active: Vec<bool>,
    /// Reused neighbor-query buffer of [`absorb`] and the planning
    /// step.
    nbrs: Vec<usize>,
}

impl Walkers {
    /// No walkers among `n` sensors.
    pub(crate) fn new(n: usize) -> Self {
        Walkers {
            movers: (0..n).map(|_| None).collect(),
            active: vec![false; n],
            nbrs: Vec::new(),
        }
    }

    /// Sends sensor `i` along `route` after §4.1's random back-off,
    /// drawn from the world's RNG.
    pub(crate) fn start(&mut self, i: usize, route: MultiLegPlan, world: &mut World) {
        let backoff = world.rng().gen_range(0.0..BACKOFF_MAX);
        self.movers[i] = Some(LazyMover::new(route, backoff));
    }

    /// Sends sensor `i` along `route` at once, moving this period.
    pub(crate) fn restart(&mut self, i: usize, route: MultiLegPlan, now: f64) {
        self.movers[i] = Some(LazyMover::new(route, now));
        self.active[i] = true;
    }

    /// Plans sensor `i`'s period (§3.3): a stuck or absent walker
    /// stays put; otherwise it moves unless it backs off or waits for
    /// its path parent.
    pub(crate) fn plan(&mut self, i: usize, world: &mut World) {
        self.active[i] = self.movers[i].as_ref().is_some_and(|m| !m.route.is_stuck())
            && lazy_plan_step(i, world, &mut self.movers, &mut self.nbrs) == ConnectOutcome::Move;
    }

    /// Advances sensor `i` one micro-tick along its route if it moves
    /// this period, charging the walked path length.
    pub(crate) fn step(&mut self, i: usize, world: &mut World) {
        if !self.active[i] {
            return;
        }
        if let Some(m) = self.movers[i].as_mut() {
            let before = m.route.traveled();
            let p = m.route.advance(SimConfig::SPEED * world.cfg().dt());
            let walked = m.route.traveled() - before;
            world.set_pos_with_distance(i, p, walked);
        }
    }
}

/// Freezes walkers that came within `stop_dist` of the tree or the
/// base, chaining until a fixed point (a walker attached this round
/// can anchor another in the next).
///
/// Each walker attaches to the nearest tree member in range or to the
/// base. Distance ties go to the member first in
/// `(⌊x/s⌋, ⌊y/s⌋, index)` order at `s = stop_dist.max(1.0)`, the scan
/// order of the stop-distance grid the search was first written
/// against. Every attach charges one `ConnectFlood` (the newcomer
/// announces itself, §4.1), then runs `on_attach` in attach order.
pub(crate) fn absorb(
    world: &mut World,
    tree: &mut Tree,
    walkers: &mut Walkers,
    stop_dist: f64,
    mut on_attach: impl FnMut(usize, &mut World, &mut Tree),
) {
    let base = world.cfg().base;
    let s = stop_dist.max(1.0);
    let order = |p: Point, j: usize| ((p.x / s).floor() as i64, (p.y / s).floor() as i64, j);
    let mut nbrs = std::mem::take(&mut walkers.nbrs);
    loop {
        let mut newly: Vec<(usize, Parent)> = Vec::new();
        for i in 0..world.n() {
            if walkers.movers[i].is_none() {
                continue;
            }
            let pi = world.pos(i);
            if pi.dist(base) <= stop_dist {
                newly.push((i, Parent::Base));
                continue;
            }
            world.neighbors_tracked_into(i, stop_dist, &mut nbrs);
            let mut best: Option<(f64, (i64, i64, usize))> = None;
            for &j in &nbrs {
                if tree.in_tree(j) {
                    let pj = world.pos(j);
                    let cand = (pi.dist(pj), order(pj, j));
                    if best.is_none_or(|b| cand < b) {
                        best = Some(cand);
                    }
                }
            }
            if let Some((_, (_, _, j))) = best {
                newly.push((i, Parent::Node(j)));
            }
        }
        if newly.is_empty() {
            break;
        }
        for (i, parent) in newly {
            tree.attach(i, parent);
            walkers.movers[i] = None;
            world.msgs().record(MsgKind::ConnectFlood, 1);
            on_attach(i, world, tree);
        }
    }
    walkers.nbrs = nbrs;
}

/// One lazy-movement planning step for sensor `i` (§3.3).
///
/// `movers` exposes every walking sensor's current path parent so the
/// mutual-adoption rule and loop probes can follow chains. Range
/// queries answer from the world's adjacency buckets
/// ([`World::neighbors_tracked_into`], into the reused buffer `nbrs`).
/// Returns whether the sensor should move this period, updates
/// `movers[i]`'s lazy state and records message costs on the world's
/// counter.
fn lazy_plan_step(
    i: usize,
    world: &mut World,
    movers: &mut [Option<LazyMover>],
    nbrs: &mut Vec<usize>,
) -> ConnectOutcome {
    let rc = world.cfg().rc;
    let now = world.time();
    let me = movers[i].as_ref().expect("lazy_plan_step on non-mover");
    let target = me.route.current_target();
    if now < me.backoff_until {
        return ConnectOutcome::BackOff;
    }
    // Find the nearest neighbor strictly ahead of us (closer to our
    // current destination), not blacklisted, and not adopting us.
    let candidate: Option<(usize, f64)> = {
        world.neighbors_tracked_into(i, rc, nbrs);
        let positions = world.positions();
        let my_dist = positions[i].dist(target);
        let mut best: Option<(usize, f64)> = None;
        for &j in nbrs.iter() {
            if me.blacklist.contains(&j) {
                continue;
            }
            // Only walking sensors can serve as path parents; a
            // connected neighbor would have connected us already.
            let Some(other) = movers.get(j).and_then(|m| m.as_ref()) else {
                continue;
            };
            if other.path_parent == Some(i) {
                continue; // mutual adoption forbidden
            }
            if positions[j].dist(target) + 1e-9 < my_dist {
                let d = positions[i].dist(positions[j]);
                if best.is_none_or(|(_, bd)| d < bd) {
                    best = Some((j, d));
                }
            }
        }
        best
    };
    let m = movers[i].as_mut().expect("checked above");
    match candidate {
        Some((j, _)) => {
            m.path_parent = Some(j);
            m.idle_periods += 1;
            if m.idle_periods >= INQUIRY_AFTER_IDLE {
                // Probe the path-parent chain once per period.
                let mut hops = 0u64;
                let mut cur = j;
                let mut looped = false;
                for _ in 0..movers.len() {
                    hops += 1;
                    if cur == i {
                        looped = true;
                        break;
                    }
                    match movers
                        .get(cur)
                        .and_then(|m| m.as_ref())
                        .and_then(|m| m.path_parent)
                    {
                        Some(next) => cur = next,
                        None => break,
                    }
                }
                world.msgs().record(MsgKind::PathParentInquiry, hops);
                if looped {
                    // Waiting loop: resume walking, never trust j again.
                    let m = movers[i].as_mut().expect("still a mover");
                    m.blacklist.push(j);
                    m.path_parent = None;
                    m.idle_periods = 0;
                    return ConnectOutcome::Move;
                }
            }
            ConnectOutcome::Wait
        }
        None => {
            m.path_parent = None;
            m.idle_periods = 0;
            ConnectOutcome::Move
        }
    }
}

/// The coverage timeline, sampled every [`SNAPSHOT_EVERY`] seconds.
#[derive(Debug)]
pub(crate) struct Timeline {
    pub(crate) samples: Vec<(f64, f64)>,
    every: u64,
}

impl Timeline {
    /// A timeline holding the t = 0 coverage sample.
    pub(crate) fn start(world: &World) -> Self {
        Timeline {
            every: (SNAPSHOT_EVERY / world.cfg().dt()).round().max(1.0) as u64,
            samples: vec![(0.0, world.coverage())],
        }
    }

    /// Samples coverage, under span `span`, if the tick just taken
    /// ends a sampling interval.
    pub(crate) fn sample(&mut self, world: &World, span: &'static str) {
        if world.tick().is_multiple_of(self.every) {
            let _snapshot = msn_obs::span(span);
            self.samples.push((world.time(), world.coverage()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msn_field::Field;
    use msn_geom::Rect;
    use msn_sim::SimConfig;

    fn mover_to_origin(field: &Field, from: Point) -> LazyMover {
        LazyMover::new(MultiLegPlan::new(field, from, vec![Point::ORIGIN]), 0.0)
    }

    fn world_at(positions: &[Point]) -> World {
        let cfg = SimConfig::paper(30.0, 20.0).with_duration(10.0);
        World::new(Field::open(200.0, 200.0), cfg, positions.to_vec(), None)
    }

    fn setup(positions: &[Point]) -> (World, Vec<Option<LazyMover>>) {
        let world = world_at(positions);
        let movers = positions
            .iter()
            .map(|p| Some(mover_to_origin(world.field(), *p)))
            .collect();
        (world, movers)
    }

    /// Every sensor outside `tree` walks toward the base, no back-off.
    fn walkers_outside(world: &World, tree: &Tree) -> Walkers {
        let mut walkers = Walkers::new(world.n());
        for i in (0..world.n()).filter(|&i| !tree.in_tree(i)) {
            walkers.movers[i] = Some(mover_to_origin(world.field(), world.pos(i)));
        }
        walkers
    }

    /// Advances the world clock to (at least) `t` seconds.
    fn warp(world: &mut World, t: f64) {
        while world.time() < t {
            world.advance_tick();
        }
    }

    #[test]
    fn no_neighbors_means_move() {
        let positions = vec![Point::new(100.0, 100.0)];
        let (mut world, mut movers) = setup(&positions);
        let out = lazy_plan_step(0, &mut world, &mut movers, &mut Vec::new());
        assert_eq!(out, ConnectOutcome::Move);
        assert_eq!(world.msgs_ref().total(), 0);
    }

    #[test]
    fn sensor_behind_adopts_ahead_neighbor() {
        // sensor 1 is closer to the origin: sensor 0 adopts it and waits.
        let positions = vec![Point::new(100.0, 0.0), Point::new(80.0, 0.0)];
        let (mut world, mut movers) = setup(&positions);
        let out = lazy_plan_step(0, &mut world, &mut movers, &mut Vec::new());
        assert_eq!(out, ConnectOutcome::Wait);
        assert_eq!(movers[0].as_ref().unwrap().path_parent, Some(1));
        // and sensor 1 moves (sensor 0 is behind it)
        let out1 = lazy_plan_step(1, &mut world, &mut movers, &mut Vec::new());
        assert_eq!(out1, ConnectOutcome::Move);
    }

    #[test]
    fn mutual_adoption_is_forbidden() {
        let positions = vec![Point::new(100.0, 0.0), Point::new(80.0, 0.0)];
        let (mut world, mut movers) = setup(&positions);
        // Pretend 1 already adopted 0 (contrived, as 0 is behind).
        movers[1].as_mut().unwrap().path_parent = Some(0);
        let out = lazy_plan_step(0, &mut world, &mut movers, &mut Vec::new());
        assert_eq!(
            out,
            ConnectOutcome::Move,
            "may not adopt a sensor that adopted us"
        );
    }

    #[test]
    fn backoff_delays_start() {
        let positions = vec![Point::new(100.0, 100.0)];
        let (mut world, mut movers) = setup(&positions);
        movers[0].as_mut().unwrap().backoff_until = 5.0;
        warp(&mut world, 1.0);
        let out = lazy_plan_step(0, &mut world, &mut movers, &mut Vec::new());
        assert_eq!(out, ConnectOutcome::BackOff);
        warp(&mut world, 6.0);
        let out2 = lazy_plan_step(0, &mut world, &mut movers, &mut Vec::new());
        assert_eq!(out2, ConnectOutcome::Move);
    }

    #[test]
    fn waiting_loop_detected_and_broken() {
        // Three sensors, each "ahead" of the previous w.r.t. its own
        // target is hard to fabricate geometrically; instead wire the
        // chain by hand and let the probe find the loop.
        let positions = vec![
            Point::new(100.0, 0.0),
            Point::new(80.0, 0.0),
            Point::new(90.0, 10.0),
        ];
        let (mut world, mut movers) = setup(&positions);
        movers[1].as_mut().unwrap().path_parent = Some(2);
        movers[2].as_mut().unwrap().path_parent = Some(0);
        movers[0].as_mut().unwrap().idle_periods = INQUIRY_AFTER_IDLE - 1;
        // sensor 0 adopts 1 (ahead), probes: 0 -> 1 -> 2 -> 0: loop!
        let out = lazy_plan_step(0, &mut world, &mut movers, &mut Vec::new());
        assert_eq!(out, ConnectOutcome::Move, "loop must break the wait");
        assert!(movers[0].as_ref().unwrap().blacklist.contains(&1));
        assert!(world.msgs_ref().count(MsgKind::PathParentInquiry) >= 3);
    }

    #[test]
    fn blacklisted_parent_not_re_adopted() {
        let positions = vec![Point::new(100.0, 0.0), Point::new(80.0, 0.0)];
        let (mut world, mut movers) = setup(&positions);
        movers[0].as_mut().unwrap().blacklist.push(1);
        let out = lazy_plan_step(0, &mut world, &mut movers, &mut Vec::new());
        assert_eq!(out, ConnectOutcome::Move);
    }

    #[test]
    fn absorb_chains_walkers_in_one_call() {
        // 0 is in the tree; each walker is within the 18 m stop
        // distance of the previous sensor only.
        let positions: Vec<Point> = (0..4)
            .map(|k| Point::new(100.0 + 15.0 * k as f64, 100.0))
            .collect();
        let mut world = world_at(&positions);
        let mut tree = Tree::new(4);
        tree.attach(0, Parent::Base);
        let mut walkers = walkers_outside(&world, &tree);
        let mut order = Vec::new();
        absorb(&mut world, &mut tree, &mut walkers, 18.0, |i, _, _| {
            order.push(i)
        });
        assert_eq!(order, vec![1, 2, 3], "one round per link of the chain");
        for k in 1..4 {
            assert_eq!(tree.parent(k), Parent::Node(k - 1));
            assert!(walkers.movers[k].is_none(), "attached walkers stop");
        }
        assert_eq!(world.msgs_ref().count(MsgKind::ConnectFlood), 3);
        assert_eq!(world.msgs_ref().total(), 3, "one ConnectFlood per attach");
    }

    #[test]
    fn absorb_breaks_distance_ties_in_stop_distance_cell_order() {
        // Walker 0 sits exactly 10 m from two tree members, one in
        // stop-distance (18 m) cell x = 5 and one in cell x = 6. Both
        // share one rc (30 m) cell, where index order would decide.
        for (a, b, winner) in [(110.0, 90.0, 2), (90.0, 110.0, 1)] {
            let positions = vec![
                Point::new(100.0, 100.0),
                Point::new(a, 100.0),
                Point::new(b, 100.0),
            ];
            let mut world = world_at(&positions);
            let mut tree = Tree::new(3);
            tree.attach(1, Parent::Base);
            tree.attach(2, Parent::Base);
            let mut walkers = walkers_outside(&world, &tree);
            absorb(&mut world, &mut tree, &mut walkers, 18.0, |_, _, _| {});
            assert_eq!(
                tree.parent(0),
                Parent::Node(winner),
                "members at x = {a}, {b}"
            );
        }
    }

    #[test]
    fn absorb_stops_at_the_stop_distance_from_the_base() {
        // the base is at the origin
        let positions = vec![Point::new(18.0, 0.0), Point::new(0.0, 18.01)];
        let mut world = world_at(&positions);
        let mut tree = Tree::new(2);
        let mut walkers = walkers_outside(&world, &tree);
        absorb(&mut world, &mut tree, &mut walkers, 18.0, |_, _, _| {});
        assert_eq!(tree.parent(0), Parent::Base);
        assert_eq!(
            tree.parent(1),
            Parent::None,
            "just beyond the stop distance"
        );
        assert!(walkers.movers[1].is_some(), "it keeps walking");
        assert_eq!(world.msgs_ref().count(MsgKind::ConnectFlood), 1);
    }

    #[test]
    fn stuck_walker_plans_to_stay_put() {
        // the route's target sits inside a box: BUG2 gives up
        let field = Field::with_obstacles(
            100.0,
            100.0,
            vec![Rect::new(40.0, 40.0, 60.0, 60.0).to_polygon()],
        );
        let mut route =
            MultiLegPlan::new(&field, Point::new(10.0, 50.0), vec![Point::new(50.0, 50.0)]);
        for _ in 0..2000 {
            if route.is_stuck() {
                break;
            }
            route.advance(5.0);
        }
        assert!(route.is_stuck());
        let cfg = SimConfig::paper(30.0, 20.0).with_duration(10.0);
        let mut world = World::new(field, cfg, vec![route.pos()], None);
        let mut walkers = Walkers::new(1);
        walkers.restart(0, route, 0.0);
        assert!(walkers.active[0]);
        walkers.plan(0, &mut world);
        assert!(!walkers.active[0], "a stuck walker is inactive");
        let before = world.pos(0);
        walkers.step(0, &mut world);
        assert_eq!(world.pos(0), before);
        assert_eq!(world.msgs_ref().total(), 0, "no lazy step was planned");
    }
}
