//! Incremental disk-graph adjacency (FLOOR's tick graph).
//!
//! Invariants (the incremental-tracker pattern, see
//! `ARCHITECTURE.md`):
//!
//! * **Oracle bit-identity** — after any move sequence, every
//!   neighbor list equals the corresponding
//!   [`crate::DiskGraph::build`] list *including order* (the shared
//!   grid scan order), because consumers observe it: FLOOR's TTL
//!   random walks draw neighbor picks from these lists, so list
//!   order and length are part of the RNG stream. Property-tested in
//!   `tests/properties.rs`.
//! * **Lazy dirty sets** — [`AdjacencyTracker::set_sensor`] is
//!   `O(1)`; link diffs run on the next query.
//! * **Rebuild-if-cheaper** — when at least half the fleet moved, the
//!   tracker re-queries every list instead of diffing.

use crate::{Neighbors, PointIndex};
use msn_geom::Point;

/// Incremental counterpart of [`crate::DiskGraph::build`]: maintains
/// the full disk-graph adjacency (every neighbor list, in the shared
/// grid scan order) under sensor moves, so consumers that need *the
/// graph* every tick — FLOOR's random-walk invitations and hop
/// accounting — stop paying an `O(N · deg)` rebuild per tick.
///
/// Moves are recorded lazily ([`AdjacencyTracker::set_sensor`] is
/// `O(1)`) and reconciled on the next query in three passes over the
/// moved set: **unlink** (remove each moved sensor from its old
/// neighbors' lists), **requery** (fresh grid-order neighborhoods
/// from the maintained [`PointIndex`]), **relink** (insert each moved
/// sensor into its new neighbors' lists at the grid-order position).
/// Untouched lists keep their order; repaired entries land exactly
/// where a fresh build would put them, because every list is sorted
/// by the same `(⌊x/cell⌋, ⌊y/cell⌋, index)` key a
/// `SpatialGrid::build(points, rc.max(1.0))` query scans in. When at
/// least half the fleet moved, the tracker re-queries every list
/// instead (rebuild-if-cheaper).
///
/// The maintained lists also answer §4.1's base-connectivity
/// question: [`Neighbors::flood_from_base`] over [`Self::points`]
/// equals the `DiskGraph::build` + flood oracle, so no second graph
/// is kept for it.
///
/// The lists are queried from a [`PointIndex`] at cell `rc.max(1.0)`
/// that the tracker owns and feeds from [`Self::set_sensor`]. A
/// caller that already maintains such an index hands it over with
/// [`AdjacencyTracker::over`] and keeps range-querying it through
/// [`AdjacencyTracker::index`], so one move stream feeds one index.
///
/// # Examples
///
/// ```
/// use msn_geom::Point;
/// use msn_net::{AdjacencyTracker, DiskGraph, Neighbors};
///
/// let mut pts = vec![Point::new(0.0, 0.0), Point::new(8.0, 0.0), Point::new(40.0, 0.0)];
/// let mut tracker = AdjacencyTracker::new(&pts, 10.0);
/// assert_eq!(tracker.neighbors(0), &[1]);
/// pts[2] = Point::new(16.0, 0.0); // walks into range of sensor 1
/// tracker.set_sensor(2, pts[2]);
/// assert_eq!(tracker.neighbors(1), DiskGraph::build(&pts, 10.0).neighbors(1));
/// assert_eq!(tracker.hop_distance(0, 2), Some(2));
/// // the lists are synced, so the base flood reads them directly
/// let connected = tracker.flood_from_base(tracker.points(), Point::new(0.0, 0.0), 10.0);
/// assert_eq!(connected, vec![true, true, true]);
/// ```
#[derive(Debug, Clone)]
pub struct AdjacencyTracker {
    rc: f64,
    /// Incrementally-maintained bucket grid at cell `rc.max(1.0)` —
    /// the cell size [`crate::DiskGraph::build`] uses, so the index's
    /// natural query order *is* the oracle's adjacency order.
    index: PointIndex,
    /// Positions the adjacency currently reflects.
    synced: Vec<Point>,
    /// Sensors whose latest position may differ from `synced`.
    dirty: Vec<u32>,
    is_dirty: Vec<bool>,
    /// Neighbor lists over `synced`, each in grid scan order.
    adj: Vec<Vec<usize>>,
    /// Reused [`AdjacencyTracker::hop_distance`] scratch.
    hops: HopScratch,
}

/// Generation-stamped BFS scratch: a node is visited in the current
/// search iff its stamp equals `stamp`, so a search clears nothing
/// and allocates only when the fleet outgrows the marks.
#[derive(Debug, Clone, Default)]
struct HopScratch {
    stamp: u64,
    seen: Vec<u64>,
    /// BFS queue of `(node, hops from the source)`.
    queue: Vec<(usize, usize)>,
}

impl AdjacencyTracker {
    /// Builds the tracker for `positions` and communication range
    /// `rc`.
    ///
    /// # Panics
    ///
    /// Panics if `rc` is not strictly positive.
    pub fn new(positions: &[Point], rc: f64) -> Self {
        Self::over(PointIndex::new(positions, rc.max(1.0)), rc)
    }

    /// Builds the tracker over an existing index, taking it over: from
    /// here on moves are recorded through [`Self::set_sensor`], and
    /// the index is reached through [`Self::index`]. The tracked
    /// positions are the index's latest points.
    ///
    /// # Panics
    ///
    /// Panics if `rc` is not strictly positive or the index's cell is
    /// not `rc.max(1.0)`.
    pub fn over(index: PointIndex, rc: f64) -> Self {
        assert!(rc > 0.0, "communication range must be positive");
        assert_eq!(index.cell(), rc.max(1.0), "index cell must be rc.max(1.0)");
        let n = index.len();
        let mut tracker = AdjacencyTracker {
            rc,
            synced: index.points().to_vec(),
            index,
            dirty: Vec::new(),
            is_dirty: vec![false; n],
            adj: vec![Vec::new(); n],
            hops: HopScratch::default(),
        };
        tracker.rebuild();
        tracker
    }

    /// The communication range.
    #[inline]
    pub fn rc(&self) -> f64 {
        self.rc
    }

    /// Number of tracked sensors.
    #[inline]
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the tracker follows zero sensors.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Records sensor `i`'s new position. `O(1)`: the link diff is
    /// deferred to the next query.
    #[inline]
    pub fn set_sensor(&mut self, i: usize, p: Point) {
        self.index.set_point(i, p);
        if !self.is_dirty[i] {
            self.is_dirty[i] = true;
            self.dirty.push(i as u32);
        }
    }

    /// The underlying point index, for range queries at any radius.
    /// Record moves through [`Self::set_sensor`], never through the
    /// index's own `set_point`, or the neighbor lists miss them.
    #[inline]
    pub fn index(&mut self) -> &mut PointIndex {
        &mut self.index
    }

    /// Latest recorded positions, indexed by sensor — what
    /// [`AdjacencyTracker::sync`] brings the lists up to date with.
    #[inline]
    pub fn points(&self) -> &[Point] {
        self.index.points()
    }

    /// Neighbors of sensor `i` on the current positions — equal to
    /// `DiskGraph::build(points, rc).neighbors(i)`, order included.
    pub fn neighbors(&mut self, i: usize) -> &[usize] {
        self.sync();
        &self.adj[i]
    }

    /// BFS hop count from `from` to `to` on the current positions
    /// (`None` = unreachable) — equal to
    /// [`crate::DiskGraph::hop_distances`]`(from)[to]`, but the search
    /// stops as soon as `to` is reached and reuses a stamped scratch
    /// instead of allocating a distance vector per call.
    pub fn hop_distance(&mut self, from: usize, to: usize) -> Option<usize> {
        self.sync();
        if from == to {
            return Some(0);
        }
        let HopScratch { stamp, seen, queue } = &mut self.hops;
        if seen.len() < self.adj.len() {
            seen.resize(self.adj.len(), 0);
        }
        *stamp += 1;
        queue.clear();
        seen[from] = *stamp;
        queue.push((from, 0));
        let mut head = 0;
        while let Some(&(u, d)) = queue.get(head) {
            head += 1;
            for &v in &self.adj[u] {
                if v == to {
                    return Some(d + 1);
                }
                if seen[v] != *stamp {
                    seen[v] = *stamp;
                    queue.push((v, d + 1));
                }
            }
        }
        None
    }

    /// Applies pending moves so that shared reads (the
    /// [`Neighbors`] impl used by [`crate::random_walk`]) see the
    /// current positions.
    pub fn sync(&mut self) {
        if self.dirty.is_empty() {
            return;
        }
        let n = self.synced.len();
        msn_obs::counter("adj.syncs", 1);
        msn_obs::value("adj.dirty", self.dirty.len() as f64);
        // Filter no-op moves *before* the rebuild decision: a burst of
        // redundant `set_sensor` calls must not push a 10k fleet over
        // the fleet-wide rebuild threshold. The index reconciles its
        // buckets on the first requery below; this tracker's own link
        // repair is O(moved · degree).
        let dirty = std::mem::take(&mut self.dirty);
        let mut moved: Vec<u32> = Vec::with_capacity(dirty.len());
        for &i in &dirty {
            let iu = i as usize;
            let (from, to) = (self.synced[iu], self.index.point(iu));
            if from == to {
                self.is_dirty[iu] = false;
                continue;
            }
            self.synced[iu] = to;
            moved.push(i);
        }
        if moved.is_empty() {
            return;
        }
        if 2 * moved.len() >= n {
            msn_obs::counter("adj.rebuilds", 1);
            for &i in &moved {
                self.is_dirty[i as usize] = false;
            }
            self.rebuild();
            return;
        }
        msn_obs::counter("adj.repairs", 1);
        // Phase 1: unlink. Drop each moved sensor from its old
        // neighbors' lists (moved sensors' own lists are replaced
        // whole in phase 2, so moved-moved edges need no bookkeeping).
        for &i in &moved {
            let iu = i as usize;
            let old = std::mem::take(&mut self.adj[iu]);
            for &j in &old {
                if self.is_dirty[j] {
                    continue;
                }
                let list = &mut self.adj[j];
                let at = list.iter().position(|&x| x == iu).expect("symmetric edge");
                list.remove(at);
            }
        }
        // Phase 2: requery. Fresh grid-order neighborhoods for the
        // moved sensors (the index reconciles its buckets on the
        // first query).
        for &i in &moved {
            let iu = i as usize;
            self.adj[iu] = self.index.neighbors_within(iu, self.rc);
        }
        // Phase 3: relink. Insert each moved sensor into its new
        // neighbors' lists at the position the oracle's scan order
        // dictates. Keys are unique (the index breaks ties), so the
        // partition point is exact even when several moved sensors
        // land in one list.
        let cell = self.index.cell();
        for &i in &moved {
            let iu = i as usize;
            let ki = Self::order_key(self.index.point(iu), cell, iu);
            for k in 0..self.adj[iu].len() {
                let j = self.adj[iu][k];
                if self.is_dirty[j] {
                    continue;
                }
                let index = &self.index;
                let list = &mut self.adj[j];
                let at = list.partition_point(|&m| Self::order_key(index.point(m), cell, m) < ki);
                list.insert(at, iu);
            }
        }
        for &i in &moved {
            self.is_dirty[i as usize] = false;
        }
    }

    /// The `(⌊x/cell⌋, ⌊y/cell⌋, index)` key the shared grid scan
    /// order sorts by — must match `PointIndex`'s bucket key exactly.
    #[inline]
    fn order_key(p: Point, cell: f64, idx: usize) -> (i64, i64, usize) {
        (
            (p.x / cell).floor() as i64,
            (p.y / cell).floor() as i64,
            idx,
        )
    }

    /// Full reconstruction: every list re-queried from the index.
    fn rebuild(&mut self) {
        let n = self.adj.len();
        for &i in &self.dirty {
            self.is_dirty[i as usize] = false;
        }
        self.dirty.clear();
        for i in 0..n {
            self.adj[i] = self.index.neighbors_within(i, self.rc);
        }
        self.synced.copy_from_slice(self.index.points());
    }
}

impl Neighbors for AdjacencyTracker {
    /// Shared read of a neighbor list; callers must
    /// [`AdjacencyTracker::sync`] first (checked in debug builds).
    fn neighbors_of(&self, i: usize) -> &[usize] {
        debug_assert!(
            self.dirty.is_empty(),
            "sync() the tracker before shared neighbor reads"
        );
        &self.adj[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DiskGraph;

    fn assert_matches(tracker: &mut AdjacencyTracker, pts: &[Point], rc: f64) {
        let oracle = DiskGraph::build(pts, rc);
        for i in 0..pts.len() {
            assert_eq!(tracker.neighbors(i), oracle.neighbors(i), "list {i}");
            for (j, &h) in oracle.hop_distances(i).iter().enumerate() {
                let want = (h != usize::MAX).then_some(h);
                assert_eq!(tracker.hop_distance(i, j), want, "hops {i} -> {j}");
            }
        }
    }

    #[test]
    fn single_moves_track_the_oracle() {
        let rc = 10.0;
        let mut pts: Vec<Point> = (0..8)
            .map(|i| Point::new(8.0 * i as f64, 0.5 * i as f64))
            .collect();
        let mut tracker = AdjacencyTracker::new(&pts, rc);
        assert_matches(&mut tracker, &pts, rc);
        // walk one sensor across the field in steps
        for step in 0..6 {
            pts[3] = Point::new(5.0 + 11.0 * step as f64, 3.0);
            tracker.set_sensor(3, pts[3]);
            assert_matches(&mut tracker, &pts, rc);
        }
    }

    #[test]
    fn batched_moves_rebuild_and_stay_exact() {
        let rc = 12.0;
        let mut pts: Vec<Point> = (0..10).map(|i| Point::new(9.0 * i as f64, 0.0)).collect();
        let mut tracker = AdjacencyTracker::new(&pts, rc);
        for (i, p) in pts.iter_mut().enumerate() {
            *p = Point::new(p.x, 7.0 * (i % 3) as f64);
            tracker.set_sensor(i, *p);
        }
        assert_matches(&mut tracker, &pts, rc);
    }

    #[test]
    fn two_sensors_landing_in_one_list_keep_grid_order() {
        let rc = 10.0;
        // sensors 1 and 2 both move next to sensor 0
        let mut pts = vec![
            Point::new(50.0, 50.0),
            Point::new(100.0, 0.0),
            Point::new(0.0, 100.0),
            Point::new(55.0, 50.0),
        ];
        let mut tracker = AdjacencyTracker::new(&pts, rc);
        pts[1] = Point::new(46.0, 49.0);
        pts[2] = Point::new(53.0, 54.0);
        tracker.set_sensor(1, pts[1]);
        tracker.set_sensor(2, pts[2]);
        assert_matches(&mut tracker, &pts, rc);
    }

    #[test]
    fn redundant_sets_are_noops() {
        let pts = vec![Point::new(5.0, 0.0), Point::new(9.0, 0.0)];
        let mut tracker = AdjacencyTracker::new(&pts, 10.0);
        for _ in 0..3 {
            tracker.set_sensor(0, pts[0]);
        }
        assert_eq!(tracker.neighbors(0), &[1]);
        assert_eq!(tracker.len(), 2);
        assert!(!tracker.is_empty());
        assert_eq!(tracker.rc(), 10.0);
    }

    #[test]
    fn empty_tracker() {
        let mut tracker = AdjacencyTracker::new(&[], 10.0);
        assert!(tracker.is_empty());
        tracker.sync();
    }

    #[test]
    fn random_walks_match_the_oracle_graph() {
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let rc = 10.0;
        let mut pts: Vec<Point> = (0..12)
            .map(|i| Point::new(7.0 * i as f64, (i % 4) as f64))
            .collect();
        let mut tracker = AdjacencyTracker::new(&pts, rc);
        pts[5] = Point::new(40.0, 6.0);
        tracker.set_sensor(5, pts[5]);
        tracker.sync();
        let oracle = DiskGraph::build(&pts, rc);
        let mut rng_a = SmallRng::seed_from_u64(7);
        let mut rng_b = SmallRng::seed_from_u64(7);
        let a = crate::random_walk(&tracker, 0, 30, &mut rng_a);
        let b = crate::random_walk(&oracle, 0, 30, &mut rng_b);
        assert_eq!(a, b, "walks must consume the identical RNG stream");
    }
}
