//! The floor-based deployment scheme (§5).
//!
//! FLOOR divides the field into floors of height `2·rs` and grows the
//! network like a vine over a trellis of floor lines and
//! field/obstacle boundaries:
//!
//! 1. **Achieving connectivity (§5.2).** Every disconnected sensor
//!    runs Algorithm 1: BUG2 legs through `(x, FloorLine(y))` and
//!    `(0, FloorLine(y))` toward the base at the origin, with lazy
//!    movement; it freezes on entering `min(rc, 2·rs)` of a connected
//!    node and reports to the base station.
//! 2. **Identifying movable sensors (§5.3).** A serialized traversal
//!    classifies each sensor: *movable* iff all its children can be
//!    re-parented loop-free among 2-hop neighbors and its exclusively
//!    covered area is small; everyone else is *fixed*.
//! 3. **Expanding coverage (§5.5).** Fixed frontier sensors discover
//!    expansion points (FLG/BLG/IFLG, see [`EpKind`]), verify their
//!    coverage status through per-floor header nodes (§5.4), and
//!    recruit movable sensors with TTL-bounded random-walk
//!    `Invitation` messages. An acknowledged recruit is reserved with
//!    a *virtual fixed node*, travels by BUG2, becomes fixed on
//!    arrival and continues the expansion.

mod expand;
mod lines;
mod reach;
mod registry;

pub use expand::{
    blg_frontier, ep_toward, expansion_radius, flg_frontiers, iflg_candidates, EpKind,
    ExpansionPoint,
};
pub use lines::FloorLines;
pub use registry::{FloorRegistry, VirtualToken};

use crate::lazy::{absorb, flood_attach, Timeline, Walkers};
use msn_field::Field;
use msn_geom::Point;
use msn_nav::{MultiLegPlan, NavContext, Navigator};
use msn_net::{random_walk, MsgKind, Neighbors, Parent, Tree};
use msn_sim::{RunResult, SimConfig, World};
use reach::StaticReach;
use std::sync::Arc;

/// Invitations a movable sensor collects before committing.
const QUORUM: usize = 2;
/// Periods a movable waits with a non-empty inbox before committing
/// anyway.
const PATIENCE: u32 = 3;
/// A sensor is movable when less than this fraction of its disk is
/// covered exclusively by itself (§5.3's threshold).
const MOVABLE_THRESHOLD: f64 = 0.3;
/// Phase 2 starts at this fraction of the run duration unless all
/// sensors connect earlier.
const PHASE1_TIMEOUT_FRAC: f64 = 0.3;
/// Unanswered invitations per EP before the inviter gives up
/// (damping).
const MAX_INVITES_PER_EP: u32 = 40;
/// Expansion points a fixed node may pursue concurrently (§5.5.1
/// shows a node inviting for EPs A, B and C in parallel).
const MAX_CONCURRENT_EPS: usize = 3;
/// Consecutive EP-less periods after which a fixed node stops
/// checking (§5.5.2 stops immediately; a small grace window makes the
/// vine robust to transient coverage states).
const IDLE_STOP_PERIODS: u32 = 8;

/// Tuning parameters of FLOOR: the knobs the paper's evaluation
/// sweeps (Table 1's TTL, the BLG/IFLG ablation).
#[derive(Debug, Clone, PartialEq)]
pub struct FloorParams {
    /// TTL of invitation random walks; `None` uses `⌈0.2·n⌉`
    /// (Table 1's middle setting).
    pub invitation_ttl: Option<usize>,
    /// Enable boundary-guided expansion (ablation switch).
    pub enable_blg: bool,
    /// Enable inter-floor-line-guided expansion (ablation switch).
    pub enable_iflg: bool,
}

impl Default for FloorParams {
    fn default() -> Self {
        FloorParams {
            invitation_ttl: None,
            enable_blg: true,
            enable_iflg: true,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FState {
    Walking,
    Fixed,
    Movable,
    Relocating,
}

#[derive(Debug, Clone, Copy)]
struct Invite {
    ep: ExpansionPoint,
    inviter: usize,
}

#[derive(Debug)]
struct Reloc {
    nav: Navigator,
    token: VirtualToken,
    inviter: usize,
}

#[derive(Debug, Clone, Copy)]
struct ActiveEp {
    ep: ExpansionPoint,
    invites_sent: u32,
}

/// Runs FLOOR and reports the standard metrics.
///
/// `grid`, when given, must have been built for `field` at
/// `cfg.coverage_cell` (the batch runner caches one per fixed field
/// layout); `None` rasterizes a fresh grid.
///
/// # Examples
///
/// ```
/// use msn_deploy::floor::{run, FloorParams};
/// use msn_field::{paper_field, scatter_clustered};
/// use msn_geom::Rect;
/// use msn_sim::SimConfig;
/// use rand::SeedableRng;
///
/// let field = paper_field();
/// let mut rng = rand::rngs::SmallRng::seed_from_u64(4);
/// let initial = scatter_clustered(&field, Rect::new(0.0, 0.0, 300.0, 300.0), 25, &mut rng);
/// let cfg = SimConfig::paper(60.0, 40.0).with_duration(30.0).with_coverage_cell(10.0);
/// let r = run(&field, &initial, &FloorParams::default(), &cfg, None);
/// assert!(r.coverage > 0.0);
/// ```
pub fn run(
    field: &Field,
    initial: &[Point],
    params: &FloorParams,
    cfg: &SimConfig,
    grid: Option<&msn_field::CoverageGrid>,
) -> RunResult {
    let _run = msn_obs::span("floor.run");
    let setup = msn_obs::span("floor.setup");
    let mut sim = FloorSim::new(field, initial, params, cfg, grid);
    sim.initial_flood();
    let timeline = Timeline::start(&sim.world);
    drop(setup);
    sim.run(timeline)
}

struct FloorSim<'a> {
    field: &'a Field,
    params: &'a FloorParams,
    cfg: &'a SimConfig,
    /// Shared BUG2 context (offset rings + edge bucket grid), built
    /// once per run and reused by every plan the scheme creates.
    nav_ctx: Arc<NavContext>,
    world: World,
    tree: Tree,
    registry: FloorRegistry,
    state: Vec<FState>,
    walkers: Walkers,
    inbox: Vec<Vec<Invite>>,
    waited: Vec<u32>,
    reloc: Vec<Option<Reloc>>,
    active_eps: Vec<Vec<ActiveEp>>,
    /// Virtual fixed nodes whose recruit is still en route, as the
    /// recruits' indices in acceptance order; each one's position and
    /// owner are its recruit's [`Reloc`] target and inviter. The
    /// paper's §5.5.2 plants these in the tree immediately on
    /// acknowledgment, and EP discovery "considers the environment
    /// consisting of fixed nodes" — virtual ones included — so the vine
    /// tip advances at handshake speed while recruits travel in
    /// parallel.
    tips: Vec<usize>,
    idle_search: Vec<u32>,
    disconnected_periods: Vec<u32>,
    classified: bool,
    ttl: usize,
    rho: f64,
    stop_dist: f64,
    /// Reused range-query buffer.
    nbrs: Vec<usize>,
    /// §4.1's base-connectivity certificate for movables.
    static_reach: StaticReach,
}

impl<'a> FloorSim<'a> {
    fn new(
        field: &'a Field,
        initial: &[Point],
        params: &'a FloorParams,
        cfg: &'a SimConfig,
        grid: Option<&msn_field::CoverageGrid>,
    ) -> Self {
        let n = initial.len();
        let world = World::new(field.clone(), cfg.clone(), initial.to_vec(), grid);
        let lines = FloorLines::new(field.bounds(), cfg.rs);
        let registry = FloorRegistry::new(lines);
        let ttl = params
            .invitation_ttl
            .unwrap_or_else(|| ((n as f64 * 0.2).ceil() as usize).max(1));
        FloorSim {
            field,
            params,
            cfg,
            nav_ctx: Arc::new(NavContext::new(field)),
            world,
            tree: Tree::new(n),
            registry,
            state: vec![FState::Walking; n],
            walkers: Walkers::new(n),
            inbox: vec![Vec::new(); n],
            waited: vec![0; n],
            reloc: (0..n).map(|_| None).collect(),
            active_eps: vec![Vec::new(); n],
            tips: Vec::new(),
            idle_search: vec![0; n],
            disconnected_periods: vec![0; n],
            classified: false,
            ttl,
            rho: expansion_radius(cfg.rc, cfg.rs),
            stop_dist: cfg.rc.min(2.0 * cfg.rs),
            nbrs: Vec::new(),
            static_reach: StaticReach::new(n),
        }
    }

    #[allow(clippy::needless_range_loop)] // indexing several parallel state arrays
    fn run(mut self, mut timeline: Timeline) -> RunResult {
        let n = self.world.n();
        let classify_deadline = PHASE1_TIMEOUT_FRAC * self.cfg.duration;

        for _ in 0..self.cfg.total_ticks() {
            if !self.classified {
                let _classify = msn_obs::span("floor.classify");
                let all_connected = self.state.iter().all(|&s| s != FState::Walking);
                if all_connected || self.world.time() >= classify_deadline {
                    self.classify();
                }
            }
            let plan = msn_obs::span("floor.plan");
            for i in 0..n {
                if !self.world.is_plan_tick(i) {
                    continue;
                }
                match self.state[i] {
                    FState::Walking => self.walkers.plan(i, &mut self.world),
                    FState::Fixed if self.classified => self.expansion_step(i),
                    FState::Movable => {
                        // §4.1 applies at all times: a movable whose
                        // surroundings were recruited away may find
                        // itself cut off from the base — it must walk
                        // back in (otherwise no invitation can ever
                        // reach its separated component).
                        if !self.static_reach.connected(i, &mut self.world, &self.state) {
                            self.disconnected_periods[i] += 1;
                            if self.disconnected_periods[i] >= 5 {
                                self.restart_walk(i);
                                continue;
                            }
                        } else {
                            self.disconnected_periods[i] = 0;
                        }
                        self.movable_step(i)
                    }
                    _ => {}
                }
            }
            drop(plan);
            {
                let _motion = msn_obs::span("floor.motion");
                self.integrate_motion();
            }
            {
                let _absorb = msn_obs::span("floor.absorb");
                self.absorb_connections();
            }
            self.world.advance_tick();
            timeline.sample(&self.world, "floor.snapshot");
        }

        let _finish = msn_obs::span("floor.finish");
        let coverage = self.world.coverage();
        crate::finish(&mut self.world, "FLOOR", coverage, timeline.samples)
    }

    /// Algorithm 1's route from a starting position: BUG2 legs through
    /// `(x, FloorLine(y))` and `(0, FloorLine(y))` to the base.
    fn algorithm1_route(&self, pos: Point) -> MultiLegPlan {
        let fl = self.registry.lines().nearest_line_y(pos.y);
        let legs = vec![
            Point::new(pos.x, fl),
            Point::new(self.field.bounds().min.x, fl),
            self.cfg.base,
        ];
        MultiLegPlan::with_context(self.nav_ctx.clone(), pos, legs)
    }

    /// §4.1-style flood at t = 0 over links of at most the stop
    /// distance: reached sensors are fixed and report to the base
    /// (§5.3); the rest walk Algorithm 1's route.
    fn initial_flood(&mut self) {
        let stop = self.stop_dist;
        let adj = self.world.adjacency();
        let pos = adj.points();
        let flooded = flood_attach(
            adj,
            pos,
            self.cfg.base,
            stop,
            |u, v| pos[v].dist(pos[u]) <= stop,
            &mut self.tree,
        );
        self.world.msgs().record(MsgKind::ConnectFlood, flooded);
        for i in 0..self.world.n() {
            if self.tree.in_tree(i) {
                self.state[i] = FState::Fixed;
                let depth = self.tree.depth(i).expect("attached") as u64;
                self.world.msgs().record(MsgKind::Report, depth);
                self.world.msgs().record(MsgKind::AncestorList, depth);
            } else {
                let route = self.algorithm1_route(self.world.pos(i));
                self.walkers.start(i, route, &mut self.world);
            }
        }
    }

    /// Sends a stranded movable back toward the base station along
    /// Algorithm 1's route (it rejoins the tree as a fixed node when
    /// absorbed).
    fn restart_walk(&mut self, i: usize) {
        let route = self.algorithm1_route(self.world.pos(i));
        self.state[i] = FState::Walking;
        self.static_reach.leave(i, &mut self.world, &self.state);
        self.inbox[i].clear();
        self.waited[i] = 0;
        self.disconnected_periods[i] = 0;
        self.walkers.restart(i, route, self.world.time());
    }

    fn integrate_motion(&mut self) {
        let step = SimConfig::SPEED * self.cfg.dt();
        for i in 0..self.world.n() {
            match self.state[i] {
                FState::Walking => self.walkers.step(i, &mut self.world),
                FState::Relocating => {
                    let Some(r) = self.reloc[i].as_mut() else {
                        continue;
                    };
                    let before = r.nav.traveled();
                    let p = r.nav.advance(step);
                    let walked = r.nav.traveled() - before;
                    self.world.set_pos_with_distance(i, p, walked);
                    if r.nav.is_done() {
                        self.finish_relocation(i);
                    } else if r.nav.is_stuck() {
                        self.abort_relocation(i);
                    }
                }
                _ => {}
            }
        }
    }

    /// Freezes walkers entering `min(rc, 2·rs)` of the tree (§5.2);
    /// new members report to the base.
    fn absorb_connections(&mut self) {
        let classified = self.classified;
        absorb(
            &mut self.world,
            &mut self.tree,
            &mut self.walkers,
            self.stop_dist,
            |i, world, tree| {
                self.state[i] = FState::Fixed;
                self.static_reach.join(i, world, &self.state);
                let depth = tree.depth(i).expect("attached") as u64;
                world.msgs().record(MsgKind::Report, depth);
                world.msgs().record(MsgKind::AncestorList, depth);
                if !classified {
                    return;
                }
                // Late arrivals get the same §5.3 test immediately: a
                // childless newcomer whose disk is already covered by
                // others joins the movable pool instead of ossifying
                // where it happens to stand.
                if Self::exclusive_fraction(world, tree, &mut self.nbrs, i) < MOVABLE_THRESHOLD {
                    tree.detach(i);
                    self.state[i] = FState::Movable;
                    self.waited[i] = 0;
                    self.disconnected_periods[i] = 0;
                } else {
                    self.registry.register_real(i, world.pos(i));
                }
            },
        );
    }

    /// Phase 2 (§5.3): serialized movable/fixed classification.
    fn classify(&mut self) {
        self.classified = true;
        let n = self.world.n();
        // Serialized DFS traversal from the base's direct children.
        // Classification decisions ride on the token's way back up
        // (post-order): leaves decide first, so a departing subtree no
        // longer pins its ancestors with children to re-home.
        let mut order = Vec::new();
        let mut stack: Vec<usize> = (0..n)
            .filter(|&i| matches!(self.tree.parent(i), Parent::Base))
            .collect();
        while let Some(u) = stack.pop() {
            order.push(u);
            stack.extend_from_slice(self.tree.children(u));
        }
        order.reverse();
        // Token walks down and back up every tree edge.
        self.world
            .msgs()
            .record(MsgKind::ClassifyToken, 2 * order.len() as u64);

        for &i in &order {
            if !self.tree.in_tree(i) {
                continue;
            }
            // (b) first the cheap test: its exclusively covered area
            // must be small, otherwise moving it away costs coverage.
            if Self::exclusive_fraction(&mut self.world, &self.tree, &mut self.nbrs, i)
                >= MOVABLE_THRESHOLD
            {
                continue;
            }
            // (a) every child must find a loop-free substitute parent
            // among its neighbors. Children are re-homed one at a time
            // against the *current* tree (earlier re-homes change what
            // is loop-free); if any child is stranded, the ones already
            // moved return to `i` and `i` stays fixed.
            let kids: Vec<usize> = self.tree.children(i).to_vec();
            let mut rehomed: Vec<usize> = Vec::with_capacity(kids.len());
            let mut ok = true;
            let adj = self.world.adjacency();
            let pos = adj.points();
            for &c in &kids {
                let mut found: Option<(usize, f64)> = None;
                for &j in adj.neighbors_of(c) {
                    if j == i || !self.tree.in_tree(j) || self.tree.would_create_loop(c, j) {
                        continue;
                    }
                    let d = pos[c].dist(pos[j]);
                    if d <= self.stop_dist && found.is_none_or(|(_, bd)| d < bd) {
                        found = Some((j, d));
                    }
                }
                match found {
                    Some((j, _)) => {
                        self.tree.reparent(c, Parent::Node(j));
                        rehomed.push(c);
                    }
                    None => {
                        ok = false;
                        break;
                    }
                }
            }
            if !ok {
                for c in rehomed {
                    self.tree.reparent(c, Parent::Node(i));
                }
                continue;
            }
            self.tree.detach(i);
            self.state[i] = FState::Movable;
        }
        // Fixed survivors register with their floor headers.
        for i in 0..n {
            if self.state[i] == FState::Fixed {
                self.registry.register_real(i, self.world.pos(i));
            }
        }
    }

    /// Fraction of sensor `i`'s disk covered by no other attached
    /// sensor, estimated on a fixed sample pattern. `nbrs` is a reused
    /// query buffer.
    fn exclusive_fraction(world: &mut World, tree: &Tree, nbrs: &mut Vec<usize>, i: usize) -> f64 {
        let rs = world.cfg().rs;
        // 2·rs can exceed the index's rc cell — the query stays exact,
        // it just scans a wider cell window; and the `any` fold below
        // is order-insensitive.
        world.neighbors_tracked_into(i, 2.0 * rs, nbrs);
        nbrs.retain(|&j| tree.in_tree(j));
        let positions = world.positions();
        let pos = positions[i];
        let mut exclusive = 0usize;
        let mut total = 0usize;
        let mut visit = |p: Point| {
            total += 1;
            if !nbrs.iter().any(|&q| positions[q].dist(p) <= rs) {
                exclusive += 1;
            }
        };
        visit(pos);
        for ring in [0.5, 0.9] {
            for k in 0..8 {
                let ang = k as f64 * std::f64::consts::TAU / 8.0;
                visit(pos + Point::from_angle(ang) * (ring * rs));
            }
        }
        exclusive as f64 / total as f64
    }

    /// Phase 3 per-period step of a fixed node: maintain its set of
    /// concurrent EPs and invite movables for each (§5.5).
    fn expansion_step(&mut self, i: usize) {
        if self.idle_search[i] >= IDLE_STOP_PERIODS {
            return;
        }
        // Drop EPs that were claimed meanwhile (the inviter "can
        // continue to find movable sensors to relocate to B and C");
        // an EP that exhausted its invitations marks the node idle.
        let mut exhausted = false;
        let rho = self.rho;
        let registry = &self.registry;
        self.active_eps[i].retain(|a| {
            if registry.is_reserved(a.ep.pos, 0.5 * rho) {
                return false;
            }
            if a.invites_sent >= MAX_INVITES_PER_EP {
                exhausted = true;
                return false;
            }
            true
        });
        if exhausted && self.active_eps[i].is_empty() {
            self.idle_search[i] = IDLE_STOP_PERIODS;
            return;
        }
        // Top up with fresh discoveries — from the node itself and
        // from every virtual fixed node it planted whose recruit is
        // still traveling (the vine tip keeps advancing meanwhile).
        if self.active_eps[i].len() < MAX_CONCURRENT_EPS {
            let room = MAX_CONCURRENT_EPS - self.active_eps[i].len();
            let mut fresh = self.discover_eps(i, room);
            if fresh.len() < room {
                // discovery never plants or drops a tip, so the list
                // is stable across this loop
                for k in 0..self.tips.len() {
                    let recruit = self.tips[k];
                    if self.tip_reloc(recruit).inviter != i {
                        continue;
                    }
                    if fresh.len() >= room {
                        break;
                    }
                    for ep in self.discover_from_tip(i, recruit, room - fresh.len()) {
                        let dup = fresh
                            .iter()
                            .any(|e: &ExpansionPoint| e.pos.dist(ep.pos) < 0.5 * self.rho)
                            || self.active_eps[i]
                                .iter()
                                .any(|a| a.ep.pos.dist(ep.pos) < 0.5 * self.rho);
                        if !dup {
                            fresh.push(ep);
                        }
                    }
                }
            }
            if fresh.is_empty() && self.active_eps[i].is_empty() {
                self.idle_search[i] += 1;
                return;
            }
            for ep in fresh {
                self.active_eps[i].push(ActiveEp {
                    ep,
                    invites_sent: 0,
                });
            }
        }
        self.idle_search[i] = 0;
        // One invitation walk per active EP per period.
        for k in 0..self.active_eps[i].len() {
            self.active_eps[i][k].invites_sent += 1;
            let ep = self.active_eps[i][k].ep;
            self.send_invitation(i, ep);
        }
    }

    /// EP discovery in priority order FLG > BLG > IFLG (§5.5.1),
    /// returning up to `room` fresh EPs not yet pursued by this node.
    fn discover_eps(&mut self, i: usize, room: usize) -> Vec<ExpansionPoint> {
        let pos = self.world.pos(i);
        let rs = self.cfg.rs;
        let mut out: Vec<ExpansionPoint> = Vec::new();
        let push = |sim: &Self, out: &mut Vec<ExpansionPoint>, ep: ExpansionPoint| {
            let dup = out.iter().any(|e| e.pos.dist(ep.pos) < 0.5 * sim.rho)
                || sim.active_eps[i]
                    .iter()
                    .any(|a| a.ep.pos.dist(ep.pos) < 0.5 * sim.rho);
            if !dup {
                out.push(ep);
            }
        };
        // FLG: uncovered endpoints of the floor-line chord.
        for frontier in flg_frontiers(pos, rs, self.registry.lines()) {
            if out.len() >= room {
                return out;
            }
            if let Some(ep) = self.try_frontier(i, pos, frontier, EpKind::Flg, &[i]) {
                push(self, &mut out, ep);
            }
        }
        // BLG: frontier on an obstacle or field boundary.
        if self.params.enable_blg && out.len() < room {
            let frontier = {
                let field = self.field;
                blg_frontier(pos, rs, field, self.world.rng())
            };
            if let Some(frontier) = frontier {
                if let Some(ep) = self.try_frontier(i, pos, frontier, EpKind::Blg, &[i]) {
                    push(self, &mut out, ep);
                }
            }
        }
        // IFLG: holes between same-floor parent/child pairs.
        if self.params.enable_iflg && out.len() < room {
            let my_floor = self.registry.lines().floor_index(pos.y);
            let kids: Vec<usize> = self.tree.children(i).to_vec();
            'kids: for c in kids {
                let cpos = self.world.pos(c);
                if self.registry.lines().floor_index(cpos.y) != my_floor {
                    continue;
                }
                for cand in iflg_candidates(pos, cpos, self.rho) {
                    if out.len() >= room {
                        break 'kids;
                    }
                    if self.field.is_free(cand)
                        && !self.point_covered(i, cand, &[i, c])
                        && !self.registry.is_reserved(cand, 0.5 * self.rho)
                    {
                        let ep = ExpansionPoint {
                            pos: self.nudge_free(cand),
                            kind: EpKind::Iflg,
                            frontier: cand,
                        };
                        push(self, &mut out, ep);
                    }
                }
            }
        }
        out
    }

    /// The relocation record of a virtual tip's recruit.
    fn tip_reloc(&self, recruit: usize) -> &Reloc {
        self.reloc[recruit]
            .as_ref()
            .expect("a tip's recruit is relocating")
    }

    /// EP discovery anchored at the virtual fixed node of `recruit`,
    /// which has not reached it yet: FLG along the tip's floor line and
    /// BLG along boundaries in the tip's sensing range.
    fn discover_from_tip(
        &mut self,
        owner: usize,
        recruit: usize,
        room: usize,
    ) -> Vec<ExpansionPoint> {
        let rs = self.cfg.rs;
        let pos = self.tip_reloc(recruit).nav.target();
        let exclude = [owner, recruit];
        let mut out = Vec::new();
        for frontier in flg_frontiers(pos, rs, self.registry.lines()) {
            if out.len() >= room {
                return out;
            }
            if let Some(ep) = self.try_frontier(owner, pos, frontier, EpKind::Flg, &exclude) {
                out.push(ep);
            }
        }
        if self.params.enable_blg && out.len() < room {
            let frontier = {
                let field = self.field;
                blg_frontier(pos, rs, field, self.world.rng())
            };
            if let Some(frontier) = frontier {
                if let Some(ep) = self.try_frontier(owner, pos, frontier, EpKind::Blg, &exclude) {
                    out.push(ep);
                }
            }
        }
        out
    }

    /// Checks a frontier point seen from `origin` (the querier's own
    /// position, or a virtual tip it planted) and converts it into an
    /// EP on the expansion circle if it is valid and uncovered by any
    /// sensor but those in `exclude`.
    fn try_frontier(
        &mut self,
        querier: usize,
        origin: Point,
        frontier: Point,
        kind: EpKind,
        exclude: &[usize],
    ) -> Option<ExpansionPoint> {
        if !self.field.bounds().contains(frontier) || !self.field.is_free(frontier) {
            return None;
        }
        if self.point_covered(querier, frontier, exclude) {
            return None;
        }
        let ep = self.nudge_free(ep_toward(origin, frontier, self.rho));
        if !self.field.is_free(ep) || self.registry.is_reserved(ep, 0.5 * self.rho) {
            return None;
        }
        Some(ExpansionPoint {
            pos: ep,
            kind,
            frontier,
        })
    }

    /// §5.4 coverage-status determination for a point: local check
    /// first, then tree-routed queries to the relevant floor headers.
    /// `exclude` lists sensors whose own disks must not answer (the
    /// querier; for IFLG also the child sharing the hole).
    fn point_covered(&mut self, querier: usize, p: Point, exclude: &[usize]) -> bool {
        let rs = self.cfg.rs;
        // Local: any fixed neighbor within communication range already
        // covering the point answers for free.
        self.world
            .neighbors_tracked_into(querier, self.cfg.rc, &mut self.nbrs);
        let local = self.nbrs.iter().any(|&j| {
            self.state[j] == FState::Fixed
                && !exclude.contains(&j)
                && self.world.pos(j).dist(p) <= rs
        });
        if local {
            return true;
        }
        // Remote: ask each floor header whose band could cover p.
        let floors = self.registry.query_floors(p);
        for k in floors {
            let Some(header) = self.registry.header(k) else {
                continue;
            };
            if header == querier {
                continue;
            }
            let hops = self.tree.tree_hops(querier, header) as u64;
            self.world.msgs().record(MsgKind::CoverageQuery, hops);
            self.world.msgs().record(MsgKind::CoverageReply, hops);
        }
        self.registry.covers_excluding(p, rs, exclude)
    }

    /// Pushes a point out of obstacle clearance so BUG2 can reach it.
    fn nudge_free(&self, p: Point) -> Point {
        let clearance = msn_nav::DEFAULT_CLEARANCE + 0.1;
        let mut out = self.field.clamp(p);
        if let Some(bp) = self.field.nearest_obstacle_point(out) {
            let d = out.dist(bp);
            if d < clearance {
                if let Some(dir) = (out - bp).normalized() {
                    out = self.field.clamp(bp + dir * clearance);
                }
            }
        }
        out
    }

    /// Sends one TTL random-walk invitation; movable sensors along the
    /// walk collect it (§5.5.2).
    fn send_invitation(&mut self, i: usize, ep: ExpansionPoint) {
        let visits = {
            let (graph, rng) = self.world.adjacency_and_rng();
            random_walk(graph, i, self.ttl, rng)
        };
        self.world
            .msgs()
            .record(MsgKind::Invitation, visits.len() as u64);
        for v in visits {
            if self.state[v] == FState::Movable
                && !self.inbox[v]
                    .iter()
                    .any(|inv| inv.inviter == i && inv.ep.pos.approx_eq(ep.pos))
            {
                self.inbox[v].push(Invite { ep, inviter: i });
            }
        }
    }

    /// Per-period step of a movable sensor: commit to the best
    /// invitation once the quorum (or patience) is reached.
    fn movable_step(&mut self, i: usize) {
        if self.inbox[i].is_empty() {
            return;
        }
        self.waited[i] += 1;
        if self.inbox[i].len() < QUORUM && self.waited[i] < PATIENCE {
            return;
        }
        // Highest priority (FLG < BLG < IFLG in enum order), then the
        // closest EP.
        let my_pos = self.world.pos(i);
        let best = *self.inbox[i]
            .iter()
            .min_by(|a, b| {
                (a.ep.kind, a.ep.pos.dist(my_pos))
                    .partial_cmp(&(b.ep.kind, b.ep.pos.dist(my_pos)))
                    .expect("finite")
            })
            .expect("inbox non-empty");
        // an unreachable inviter is charged 0 hops
        let hops = self
            .world
            .hop_distance(i, best.inviter)
            .map_or(0, |h| h as u64);
        self.world.msgs().record(MsgKind::AcceptInvitation, hops);
        // Inviter-side check: EP still unclaimed?
        if self.registry.is_reserved(best.ep.pos, 0.5 * self.rho) {
            self.world.msgs().record(MsgKind::Reject, hops);
            self.inbox[i]
                .retain(|inv| !(inv.inviter == best.inviter && inv.ep.pos.approx_eq(best.ep.pos)));
            self.waited[i] = 0;
            return;
        }
        self.world.msgs().record(MsgKind::Acknowledge, hops);
        let token = self.registry.add_virtual(best.ep.pos, i);
        self.tips.push(i);
        // The inviter updates its ancestors' location records on behalf
        // of the virtual node.
        if let Some(depth) = self.tree.depth(best.inviter) {
            self.world
                .msgs()
                .record(MsgKind::LocationUpdate, depth as u64);
        }
        self.reloc[i] = Some(Reloc {
            nav: Navigator::with_context(self.nav_ctx.clone(), my_pos, best.ep.pos),
            token,
            inviter: best.inviter,
        });
        self.state[i] = FState::Relocating;
        self.static_reach.leave(i, &mut self.world, &self.state);
        self.inbox[i].clear();
        self.waited[i] = 0;
        // The inviter is free to pursue its next EP.
        self.active_eps[best.inviter].retain(|a| !a.ep.pos.approx_eq(best.ep.pos));
        self.idle_search[best.inviter] = 0;
    }

    /// A recruit arrived at its EP: become fixed, join the tree,
    /// register with the floor header (§5.5.2).
    fn finish_relocation(&mut self, i: usize) {
        let r = self.reloc[i].take().expect("relocating");
        self.tips.retain(|&r| r != i);
        let pos = self.world.pos(i);
        self.state[i] = FState::Fixed;
        self.static_reach.join(i, &mut self.world, &self.state);
        self.registry.fulfill_virtual(r.token, i, pos);
        // Parent: the inviter if possible, otherwise the nearest
        // attached sensor in range.
        let parent = if self.tree.in_tree(r.inviter)
            && self.world.pos(r.inviter).dist(pos) <= self.cfg.rc + 1e-6
            && !self.tree.would_create_loop(i, r.inviter)
        {
            Some(Parent::Node(r.inviter))
        } else {
            self.world
                .neighbors_tracked_into(i, self.cfg.rc, &mut self.nbrs);
            self.nbrs
                .iter()
                .copied()
                .filter(|&j| self.tree.in_tree(j) && !self.tree.would_create_loop(i, j))
                .min_by(|&a, &b| {
                    self.world
                        .pos(a)
                        .dist(pos)
                        .partial_cmp(&self.world.pos(b).dist(pos))
                        .expect("finite")
                })
                .map(Parent::Node)
        };
        match parent {
            Some(p) => self.tree.attach(i, p),
            None => {
                // Degenerate: nothing in range (should not happen, the
                // inviter was within the expansion radius). Attach
                // directly under the base to keep the tree consistent.
                self.tree.attach(i, Parent::Base);
            }
        }
        let depth = self.tree.depth(i).expect("attached") as u64;
        self.world.msgs().record(MsgKind::LocationUpdate, depth);
        // Fresh fixed nodes start searching immediately.
        self.idle_search[i] = 0;
    }

    /// The recruit could not reach its EP: release the reservation and
    /// return to the movable pool.
    fn abort_relocation(&mut self, i: usize) {
        let r = self.reloc[i].take().expect("relocating");
        self.tips.retain(|&r| r != i);
        self.registry.release_virtual(r.token);
        self.state[i] = FState::Movable;
        self.static_reach.join(i, &mut self.world, &self.state);
        self.waited[i] = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msn_field::{paper_field, scatter_clustered, two_obstacle_field};
    use msn_geom::Rect;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn clustered(field: &Field, n: usize, side: f64, seed: u64) -> Vec<Point> {
        let mut rng = SmallRng::seed_from_u64(seed);
        scatter_clustered(field, Rect::new(0.0, 0.0, side, side), n, &mut rng)
    }

    fn short_cfg(rc: f64, rs: f64, dur: f64) -> SimConfig {
        SimConfig::paper(rc, rs)
            .with_duration(dur)
            .with_coverage_cell(10.0)
    }

    #[test]
    fn stays_connected_and_covers() {
        let field = Field::open(400.0, 400.0);
        let initial = clustered(&field, 30, 150.0, 1);
        let r = run(
            &field,
            &initial,
            &FloorParams::default(),
            &short_cfg(60.0, 40.0, 120.0),
            None,
        );
        assert!(r.connected, "FLOOR must end connected");
        assert!(r.coverage > 0.1, "coverage {}", r.coverage);
        assert!(r.messages.total() > 0);
    }

    #[test]
    fn expansion_grows_coverage_over_time() {
        let field = Field::open(400.0, 400.0);
        let initial = clustered(&field, 40, 120.0, 2);
        let r = run(
            &field,
            &initial,
            &FloorParams::default(),
            &short_cfg(60.0, 40.0, 200.0),
            None,
        );
        let early = r.coverage_timeline[0].1;
        assert!(
            r.coverage > early + 0.03,
            "vine must grow: {} -> {}",
            early,
            r.coverage
        );
    }

    #[test]
    fn small_rc_still_connects() {
        let field = Field::open(300.0, 300.0);
        let initial = clustered(&field, 25, 100.0, 3);
        // Recruits may still be traveling at a mid-deployment snapshot;
        // by 300 s this scenario has fully converged.
        let r = run(
            &field,
            &initial,
            &FloorParams::default(),
            &short_cfg(30.0, 40.0, 300.0),
            None,
        );
        assert!(r.connected, "connectivity must hold for rc < rs");
    }

    #[test]
    fn handles_obstacles() {
        let field = two_obstacle_field();
        let initial = clustered(&field, 40, 400.0, 4);
        // Algorithm 1's waypoint detours make the walk-in phase slower
        // than CPVF's straight-line approach: give it time.
        let cfg = SimConfig::paper(60.0, 40.0)
            .with_duration(350.0)
            .with_coverage_cell(10.0);
        let r = run(&field, &initial, &FloorParams::default(), &cfg, None);
        assert!(r.connected);
        assert!(r.coverage > 0.05);
    }

    #[test]
    fn invitations_are_sent_and_answered() {
        let field = Field::open(400.0, 400.0);
        let initial = clustered(&field, 40, 120.0, 5);
        let r = run(
            &field,
            &initial,
            &FloorParams::default(),
            &short_cfg(60.0, 40.0, 150.0),
            None,
        );
        assert!(r.messages.count(msn_net::MsgKind::Invitation) > 0);
        assert!(r.messages.count(msn_net::MsgKind::Acknowledge) > 0);
    }

    #[test]
    fn larger_ttl_costs_more_messages() {
        let field = Field::open(400.0, 400.0);
        let initial = clustered(&field, 40, 120.0, 6);
        let cfg = short_cfg(60.0, 40.0, 100.0);
        let small = run(
            &field,
            &initial,
            &FloorParams {
                invitation_ttl: Some(4),
                ..FloorParams::default()
            },
            &cfg,
            None,
        );
        let large = run(
            &field,
            &initial,
            &FloorParams {
                invitation_ttl: Some(16),
                ..FloorParams::default()
            },
            &cfg,
            None,
        );
        assert!(
            large.messages.count(msn_net::MsgKind::Invitation)
                > small.messages.count(msn_net::MsgKind::Invitation)
        );
    }

    #[test]
    fn deterministic_under_seed() {
        let field = Field::open(300.0, 300.0);
        let initial = clustered(&field, 20, 100.0, 7);
        let cfg = short_cfg(50.0, 30.0, 60.0);
        let a = run(&field, &initial, &FloorParams::default(), &cfg, None);
        let b = run(&field, &initial, &FloorParams::default(), &cfg, None);
        assert_eq!(a.coverage, b.coverage);
        assert_eq!(a.messages.total(), b.messages.total());
    }

    #[test]
    fn fixed_sensors_never_move_after_classification() {
        let field = paper_field();
        let initial = clustered(&field, 30, 200.0, 8);
        let r = run(
            &field,
            &initial,
            &FloorParams::default(),
            &short_cfg(60.0, 40.0, 80.0),
            None,
        );
        // Sensors fixed from t=0 (the flood-connected ones that stayed
        // fixed) have zero moving distance.
        let stationary = r
            .positions
            .iter()
            .zip(initial.iter())
            .filter(|(a, b)| a.approx_eq(**b))
            .count();
        assert!(stationary > 0, "some sensors never moved");
    }
}
