//! The mutable simulation state.

use crate::SimConfig;
use msn_field::{CoverageGrid, Field};
use msn_geom::Point;
use msn_net::{AdjacencyTracker, DiskGraph, MessageCounter, Neighbors};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::fmt;

/// One position change, the single record every mutation path builds
/// before anything is written. Applying it updates the moved-distance
/// array and the adjacency (which holds the position) in one step.
struct PosChange {
    i: usize,
    p: Point,
    /// Path length charged to the sensor's moving-distance account
    /// (zero for teleports).
    charged: f64,
    /// Whether this change counts as a movement for the
    /// movement-cost aggregates (teleports and cost-free layout
    /// adjustments do not).
    counted: bool,
}

/// All mutable state of one simulation run: moving-distance
/// accounting, simulated time, a seeded RNG, the message counter, the
/// coverage raster, and the one proximity structure — an
/// [`AdjacencyTracker`] that holds the sensor positions and answers
/// every scheme's per-tick questions: who reaches the base
/// ([`World::connected_tracked`]), who is near whom
/// ([`World::neighbors_tracked_into`], [`World::adjacency`]) and how many
/// hops apart ([`World::hop_distance`]). How much is covered
/// ([`World::coverage`]) is counted from scratch on the raster at each
/// sample.
///
/// A `World` models one static fleet: every sensor it holds is alive
/// for the whole run (the failure engine in `msn-deploy` reruns a
/// scheme over the survivors instead). All five deployment schemes
/// drive a `World` through their protocol phases, so every move of
/// every scheme goes through one funnel; the engine itself is
/// policy-free.
///
/// # Examples
///
/// ```
/// use msn_field::Field;
/// use msn_geom::Point;
/// use msn_sim::{SimConfig, World};
///
/// let field = Field::open(100.0, 100.0);
/// let cfg = SimConfig::paper(20.0, 15.0).with_duration(5.0);
/// let mut world = World::new(field, cfg, vec![Point::new(10.0, 10.0)], None);
/// world.set_pos(0, Point::new(12.0, 10.0));
/// assert_eq!(world.moved(0), 2.0);
/// assert!(world.all_connected_tracked());
/// ```
#[derive(Debug)]
pub struct World {
    field: Field,
    cfg: SimConfig,
    moved: Vec<f64>,
    /// Number of charged movements (`set_pos` family, not teleports) —
    /// maintained natively so movement-cost summaries work without
    /// profiling.
    move_count: u64,
    /// Total path length charged through the `set_pos` family.
    move_charged: f64,
    time: f64,
    tick: u64,
    rng: SmallRng,
    msgs: MessageCounter,
    /// The raster [`World::coverage`] measures on.
    grid: CoverageGrid,
    /// The sensor positions with their maintained buckets and
    /// `rc`-disk adjacency, fed by every position change.
    adj: AdjacencyTracker,
    /// Base-connectivity mask flooded over `adj`; `None` once a
    /// position change makes it stale.
    conn_mask: Option<Vec<bool>>,
}

impl World {
    /// Creates a world with sensors at `positions`, measuring coverage
    /// on `grid` (a raster of `field` at `cfg.coverage_cell`; `None`
    /// rasterizes one), with its adjacency at `cfg.rc`.
    pub fn new(
        field: Field,
        cfg: SimConfig,
        positions: Vec<Point>,
        grid: Option<&CoverageGrid>,
    ) -> Self {
        let n = positions.len();
        let grid = grid
            .cloned()
            .unwrap_or_else(|| CoverageGrid::new(&field, cfg.coverage_cell));
        World {
            grid,
            adj: AdjacencyTracker::with_extent(&positions, cfg.rc, field.bounds()),
            rng: SmallRng::seed_from_u64(cfg.seed),
            field,
            cfg,
            moved: vec![0.0; n],
            move_count: 0,
            move_charged: 0.0,
            time: 0.0,
            tick: 0,
            msgs: MessageCounter::new(),
            conn_mask: None,
        }
    }

    /// Number of sensors.
    #[inline]
    pub fn n(&self) -> usize {
        self.adj.len()
    }

    /// The sensing field.
    #[inline]
    pub fn field(&self) -> &Field {
        &self.field
    }

    /// The simulation configuration.
    #[inline]
    pub fn cfg(&self) -> &SimConfig {
        &self.cfg
    }

    /// Current simulated time (s).
    #[inline]
    pub fn time(&self) -> f64 {
        self.time
    }

    /// Current micro-tick index.
    #[inline]
    pub fn tick(&self) -> u64 {
        self.tick
    }

    /// Advances the clock by one micro-tick.
    pub fn advance_tick(&mut self) {
        self.tick += 1;
        self.time = self.tick as f64 * self.cfg.dt();
    }

    /// Returns `true` if sensor `i` plans a new step at the current
    /// tick. Planning instants are phase-offset per sensor
    /// (`i mod SimConfig::TICKS_PER_PERIOD`), modeling the asynchronous network
    /// of §4.2.
    pub fn is_plan_tick(&self, i: usize) -> bool {
        let tpp = SimConfig::TICKS_PER_PERIOD as u64;
        self.tick % tpp == (i as u64) % tpp
    }

    /// Simulated time at which sensor `i`'s current period ends (its
    /// next planning instant) — the `t′` of the connectivity-preserving
    /// conditions.
    pub fn period_end(&self, i: usize) -> f64 {
        let tpp = SimConfig::TICKS_PER_PERIOD as u64;
        let phase = (i as u64) % tpp;
        let current = self.tick;
        let next = if current % tpp < phase {
            current - (current % tpp) + phase
        } else {
            current - (current % tpp) + phase + tpp
        };
        next as f64 * self.cfg.dt()
    }

    /// Position of sensor `i`.
    #[inline]
    pub fn pos(&self, i: usize) -> Point {
        self.adj.points()[i]
    }

    /// All sensor positions, indexed by slot.
    #[inline]
    pub fn positions(&self) -> &[Point] {
        self.adj.points()
    }

    /// Moves sensor `i` to `p`, charging the straight-line distance.
    pub fn set_pos(&mut self, i: usize, p: Point) {
        let dist = self.pos(i).dist(p);
        self.apply_change(PosChange {
            i,
            p,
            charged: dist,
            counted: true,
        });
    }

    /// Applies one change record: movement accounting, then the
    /// position in the adjacency — the only path that writes
    /// positions, so no derived state can miss a move.
    fn apply_change(&mut self, c: PosChange) {
        if c.counted {
            msn_obs::counter("world.moves", 1);
            msn_obs::value("world.move_dist", c.charged);
            self.move_count += 1;
            self.move_charged += c.charged;
        }
        self.moved[c.i] += c.charged;
        self.adj.set_sensor(c.i, c.p);
        self.conn_mask = None;
    }

    /// Moves sensor `i` to `p`, charging an explicit path length
    /// `dist` (BUG2 boundary-following covers more ground than the
    /// displacement).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `dist` is shorter than the
    /// displacement (path lengths can never undercut a straight line).
    pub fn set_pos_with_distance(&mut self, i: usize, p: Point, dist: f64) {
        debug_assert!(
            dist + 1e-6 >= self.pos(i).dist(p),
            "path length {dist} below displacement {}",
            self.pos(i).dist(p)
        );
        self.apply_change(PosChange {
            i,
            p,
            charged: dist,
            counted: true,
        });
    }

    /// Places sensor `i` without charging distance (initial layout
    /// adjustments whose cost is charged elsewhere, e.g. Hungarian
    /// matching baselines).
    pub fn teleport(&mut self, i: usize, p: Point) {
        self.apply_change(PosChange {
            i,
            p,
            charged: 0.0,
            counted: false,
        });
    }

    /// Distance sensor `i` has moved so far.
    #[inline]
    pub fn moved(&self, i: usize) -> f64 {
        self.moved[i]
    }

    /// Charges extra moving distance to sensor `i` without changing
    /// its position.
    pub fn add_distance(&mut self, i: usize, dist: f64) {
        debug_assert!(dist >= 0.0);
        self.moved[i] += dist;
    }

    /// Total moving distance over all sensors.
    pub fn total_moved(&self) -> f64 {
        self.moved.iter().sum()
    }

    /// Number of charged movements so far (`set_pos` /
    /// `set_pos_with_distance` calls; teleports excluded) — the
    /// `world.moves` aggregate, maintained natively so it is available
    /// without profiling.
    #[inline]
    pub fn move_count(&self) -> u64 {
        self.move_count
    }

    /// Total path length charged through the `set_pos` family — the
    /// `world.move_dist` aggregate. Unlike [`World::total_moved`] this
    /// excludes [`World::add_distance`] adjustments: it is movement
    /// the fleet actually executed, the headline movement-cost metric
    /// at scale.
    #[inline]
    pub fn move_dist(&self) -> f64 {
        self.move_charged
    }

    /// Connected-to-base mask for the current positions, by full graph
    /// rebuild + flood (the reference oracle; independent of the
    /// adjacency).
    pub fn connected_mask(&self) -> Vec<bool> {
        let positions = self.positions();
        DiskGraph::build(positions, self.cfg.rc).flood_from_base(
            positions,
            self.cfg.base,
            self.cfg.rc,
        )
    }

    /// Connected-to-base mask over the maintained adjacency: one BFS
    /// flood ([`Neighbors::flood_from_base`]) on the first query after
    /// a position change, cached until the next one — so
    /// a tick of per-sensor queries pays `O(N + E)` once. Equal to
    /// [`World::connected_mask`] at every instant: the mask does not
    /// depend on visit order.
    fn base_flood(&mut self) -> &[bool] {
        let (adj, cfg) = (&mut self.adj, &self.cfg);
        self.conn_mask.get_or_insert_with(|| {
            adj.sync();
            msn_obs::counter("conn.floods", 1);
            adj.flood_from_base(adj.points(), cfg.base, cfg.rc)
        })
    }

    /// Whether sensor `i` is connected to the base, from the
    /// maintained adjacency.
    pub fn connected_tracked(&mut self, i: usize) -> bool {
        self.base_flood()[i]
    }

    /// Whether every sensor is connected to the base, from the
    /// maintained adjacency.
    pub fn all_connected_tracked(&mut self) -> bool {
        self.base_flood().iter().all(|&c| c)
    }

    /// Sensors within `r` of sensor `i` (excluding `i`), from the
    /// maintained buckets, into `out` (its contents replaced, so a
    /// per-tick caller reuses one buffer) — byte-identical, order
    /// included, to
    /// `SpatialGrid::build(positions, rc.max(1.0)).neighbors(positions, i, r)`,
    /// but `O(moved sensors)` reconciliation per query round instead
    /// of an `O(N)` rebuild.
    pub fn neighbors_tracked_into(&mut self, i: usize, r: f64, out: &mut Vec<usize>) {
        self.adj.neighbors_within_into(i, r, out);
    }

    /// The maintained `rc`-disk adjacency, synced: neighbor lists
    /// ([`Neighbors::neighbors_of`]) equal to a fresh
    /// [`DiskGraph::build`], order included, but `O(moved sensors ·
    /// local repair)` per tick instead of `O(N · deg)`.
    pub fn adjacency(&mut self) -> &AdjacencyTracker {
        self.adj.sync();
        &self.adj
    }

    /// BFS hop count from sensor `from` to sensor `to` over the
    /// maintained adjacency (`None` = unreachable) — equal to
    /// [`DiskGraph::hop_distances`]`(from)[to]` on the current
    /// positions.
    pub fn hop_distance(&mut self, from: usize, to: usize) -> Option<usize> {
        self.adj.hop_distance(from, to)
    }

    /// The adjacency (synced) and the RNG, borrowed together — for
    /// consumers like [`msn_net::random_walk`] that draw picks from
    /// neighbor lists while consuming the world RNG.
    pub fn adjacency_and_rng(&mut self) -> (&AdjacencyTracker, &mut SmallRng) {
        self.adj.sync();
        (&self.adj, &mut self.rng)
    }

    /// The seeded RNG.
    #[inline]
    pub fn rng(&mut self) -> &mut SmallRng {
        &mut self.rng
    }

    /// The message counter.
    #[inline]
    pub fn msgs(&mut self) -> &mut MessageCounter {
        &mut self.msgs
    }

    /// Read-only view of the message counter.
    #[inline]
    pub fn msgs_ref(&self) -> &MessageCounter {
        &self.msgs
    }

    /// Current coverage fraction on the world's raster
    /// ([`CoverageGrid::coverage`] at the current positions and
    /// `cfg.rs`).
    pub fn coverage(&self) -> f64 {
        self.grid.coverage(self.positions(), self.cfg.rs)
    }
}

impl fmt::Display for World {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "world(n={}, t={:.1}s, moved {:.1} m total)",
            self.n(),
            self.time,
            self.total_moved()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn world_with(n: usize) -> World {
        let field = Field::open(100.0, 100.0);
        let cfg = SimConfig::paper(20.0, 15.0).with_duration(10.0);
        let positions = (0..n)
            .map(|i| Point::new(5.0 * i as f64 + 5.0, 5.0))
            .collect();
        World::new(field, cfg, positions, None)
    }

    fn raster(w: &World) -> CoverageGrid {
        CoverageGrid::new(w.field(), w.cfg().coverage_cell)
    }

    /// Coverage of `w` on `grid` counted from the per-cell-test oracle
    /// mask.
    fn mask_coverage(w: &World, grid: &CoverageGrid) -> f64 {
        let mask = grid.covered_mask(w.positions(), w.cfg().rs);
        mask.iter().filter(|&&c| c).count() as f64 / grid.free_cells() as f64
    }

    #[test]
    fn distance_accounting() {
        let mut w = world_with(2);
        w.set_pos(0, Point::new(8.0, 9.0)); // from (5,5): 3-4-5 triangle
        assert_eq!(w.moved(0), 5.0);
        w.set_pos_with_distance(1, Point::new(10.0, 8.0), 7.0);
        assert_eq!(w.moved(1), 7.0);
        assert_eq!(w.total_moved(), 12.0);
        w.teleport(0, Point::new(0.0, 0.0));
        assert_eq!(w.moved(0), 5.0, "teleport charges nothing");
        w.add_distance(0, 1.5);
        assert_eq!(w.moved(0), 6.5);
        for i in 0..w.n() {
            assert_eq!(w.pos(i), w.positions()[i]);
        }
        assert_eq!(w.positions()[1], Point::new(10.0, 8.0));
    }

    #[test]
    fn clock_and_phases() {
        let mut w = world_with(3);
        assert_eq!(w.time(), 0.0);
        assert!(w.is_plan_tick(0), "sensor 0 plans at tick 0");
        assert!(!w.is_plan_tick(1));
        w.advance_tick();
        assert!(w.is_plan_tick(1), "sensor 1 plans at tick 1");
        assert_eq!(w.time(), 0.2);
        // period_end: sensor 1 at tick 1 has period ending at tick 6
        assert!((w.period_end(1) - 1.2).abs() < 1e-12);
        // sensor 0 (phase 0) at tick 1: period ends at tick 5
        assert!((w.period_end(0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn connectivity_mask() {
        let w = world_with(3); // at x = 5, 10, 15 with rc = 20: all near base
        let mask = w.connected_mask();
        assert_eq!(mask, vec![true, true, true]);
        let mut w2 = world_with(3);
        w2.teleport(2, Point::new(90.0, 90.0));
        assert_eq!(w2.connected_mask(), vec![true, true, false]);
    }

    #[test]
    fn coverage_measurement() {
        let w = world_with(1);
        let cov = w.coverage();
        assert!(cov > 0.0 && cov < 0.2);
    }

    #[test]
    fn coverage_equals_the_mask_oracle() {
        // a world rasterizing its own grid and one handed the same
        // raster must both measure what the oracle mask counts
        let mut own = world_with(3);
        let grid = raster(&own);
        let mut shared = World::new(
            own.field().clone(),
            own.cfg().clone(),
            own.positions().to_vec(),
            Some(&grid),
        );
        assert_eq!(own.coverage(), mask_coverage(&own, &grid));
        assert_eq!(shared.coverage(), mask_coverage(&own, &grid));
        for (i, p) in [
            (0, Point::new(70.0, 30.0)),
            (2, Point::new(-5.0, 50.0)), // off-field clips like the oracle
            (1, Point::new(40.0, 90.0)),
        ] {
            for w in [&mut own, &mut shared] {
                w.set_pos(i, p);
                assert_eq!(w.coverage(), mask_coverage(w, &grid));
            }
        }
        for w in [&mut own, &mut shared] {
            w.teleport(0, Point::new(10.0, 10.0));
            assert_eq!(w.coverage(), mask_coverage(w, &grid));
        }
    }

    #[test]
    fn tracked_connectivity_equals_flood_oracle() {
        // per-sensor answers from the cached flood against a fresh
        // build + flood, after every kind of position change
        let check = |w: &mut World| {
            let oracle = w.connected_mask();
            for (i, &c) in oracle.iter().enumerate() {
                assert_eq!(w.connected_tracked(i), c, "sensor {i}");
            }
            assert_eq!(w.all_connected_tracked(), oracle.iter().all(|&c| c));
        };
        let mut w = world_with(4);
        check(&mut w);
        assert!(w.all_connected_tracked());
        for (i, p) in [
            (3, Point::new(95.0, 95.0)), // out of everyone's range
            (0, Point::new(60.0, 60.0)),
            (3, Point::new(30.0, 5.0)), // rejoins via the chain
        ] {
            w.set_pos(i, p);
            check(&mut w);
        }
        w.teleport(1, Point::new(90.0, 5.0));
        check(&mut w);
    }

    #[test]
    fn tracked_neighbors_equal_fresh_grid_builds() {
        use msn_net::SpatialGrid;
        let mut w = world_with(5);
        let rc = w.cfg().rc;
        let oracle = |w: &World, i: usize, r: f64, cell: f64| {
            let pts = w.positions();
            SpatialGrid::build(pts, cell).neighbors(pts, i, r)
        };
        let tracked = |w: &mut World, i: usize, r: f64| {
            let mut out = Vec::new();
            w.neighbors_tracked_into(i, r, &mut out);
            out
        };
        for (i, p) in [
            (0, Point::new(70.0, 30.0)),
            (3, Point::new(12.0, 6.0)),
            (0, Point::new(14.0, 5.5)),
        ] {
            w.set_pos(i, p);
            for q in 0..w.n() {
                assert_eq!(
                    tracked(&mut w, q, rc),
                    oracle(&w, q, rc, rc.max(1.0)),
                    "sensor {q} at rc"
                );
                let mut buf = vec![usize::MAX; 3];
                w.neighbors_tracked_into(q, 8.0, &mut buf);
                assert_eq!(buf, oracle(&w, q, 8.0, rc.max(1.0)), "sensor {q} at 8 m");
            }
        }
        w.teleport(2, Point::new(11.0, 7.0));
        assert_eq!(tracked(&mut w, 2, rc), oracle(&w, 2, rc, rc.max(1.0)));
    }

    #[test]
    fn tracked_adjacency_equals_graph_builds() {
        let graph = |w: &World| DiskGraph::build(w.positions(), w.cfg().rc);
        let mut w = world_with(5);
        for (i, p) in [
            (0, Point::new(70.0, 30.0)),
            (3, Point::new(12.0, 6.0)),
            (4, Point::new(95.0, 95.0)), // disconnects
            (0, Point::new(14.0, 5.5)),
        ] {
            w.set_pos(i, p);
            let g = graph(&w);
            for q in 0..w.n() {
                assert_eq!(w.adjacency().neighbors_of(q), g.neighbors(q), "list {q}");
                for (j, &h) in g.hop_distances(q).iter().enumerate() {
                    let want = (h != usize::MAX).then_some(h);
                    assert_eq!(w.hop_distance(q, j), want, "hops {q} -> {j}");
                }
            }
        }
        w.teleport(2, Point::new(11.0, 7.0));
        let n = w.n();
        let g = graph(&w);
        let (adj, _rng) = w.adjacency_and_rng();
        for q in 0..n {
            assert_eq!(adj.neighbors_of(q), g.neighbors(q));
        }
    }

    #[test]
    fn native_movement_aggregates() {
        let mut w = world_with(2);
        assert_eq!(w.move_count(), 0);
        assert_eq!(w.move_dist(), 0.0);
        w.set_pos(0, Point::new(8.0, 9.0)); // 5 m
        w.set_pos_with_distance(1, Point::new(10.0, 8.0), 7.0);
        assert_eq!(w.move_count(), 2);
        assert_eq!(w.move_dist(), 12.0);
        // Teleports and side-channel charges are not fleet movement.
        w.teleport(0, Point::new(0.0, 0.0));
        w.add_distance(0, 1.5);
        assert_eq!(w.move_count(), 2);
        assert_eq!(w.move_dist(), 12.0);
        assert_eq!(w.total_moved(), 13.5, "total_moved still sees add_distance");
    }

    #[test]
    fn deterministic_rng() {
        use rand::Rng;
        let mut a = world_with(1);
        let mut b = world_with(1);
        let x: u64 = a.rng().gen();
        let y: u64 = b.rng().gen();
        assert_eq!(x, y);
    }
}
