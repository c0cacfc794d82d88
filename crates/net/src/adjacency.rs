//! Incremental proximity: one maintained structure answers range
//! queries and the `rc`-disk graph under sensor moves.
//!
//! Invariants (the incremental-tracker pattern, see
//! `ARCHITECTURE.md`):
//!
//! * **Oracle bit-identity** — every range query answers exactly what
//!   a fresh [`crate::SpatialGrid::build`] at cell `rc.max(1.0)` would,
//!   and every neighbor list equals the corresponding
//!   [`crate::DiskGraph::build`] list, *order included*, because
//!   consumers observe it: FLOOR's TTL random walks draw neighbor
//!   picks from these lists, so list order and length are part of the
//!   RNG stream. Property-tested in `tests/properties.rs`.
//! * **One dense window** — the buckets are a flat array over the
//!   cells of a fixed extent (the field, for a simulated fleet), so a
//!   range query indexes its cells instead of hashing them. Every
//!   point must stay inside the extent: one outside it panics at the
//!   build or the next bucket sync, naming the sensor and the point.
//! * **Lazy dirty sets** — [`AdjacencyTracker::set_sensor`] is
//!   `O(1)`: it writes the one position array and marks the sensor
//!   dirty for two levels, the buckets and the lists, each reconciled
//!   only when a query of that level next needs it. A set to the
//!   current position marks nothing.
//! * **Rebuild-if-cheaper** — when at least half the fleet moved since
//!   a level last synced (for the lists, also when the moved sensors'
//!   links reach [`REBUILD_DEGREE`] per sensor), that level is rebuilt
//!   from scratch instead of repaired move by move. A cell's final
//!   bucket content (ascending indices) and a list's content (grid
//!   scan order) do not depend on the path taken, so both paths answer
//!   identically.

use crate::{within_range, Neighbors, RANGE_EPS};
use msn_geom::{Point, Rect};

/// Cells a tracker's window may span: 2^22 empty buckets take about
/// 100 MB. The bundled maximum, `scale-50k`, spans 267 × 267 = 71,289.
const MAX_CELLS: i128 = 1 << 22;

/// Moved sensors' summed degree, per sensor, from which a list sync
/// rebuilds instead of repairing. Timed per sync on full `paper-field`,
/// `fig11` and the obstacle field: below mean degree 10 a repair beat
/// a rebuild at every share of moved links seen, while on the dense
/// graphs VD's Minimax rounds leave (mean degree 100–190, 34–101 of
/// 240 sensors moved) a repair cost ~3× a rebuild.
const REBUILD_DEGREE: usize = 6;

/// Point indices bucketed by grid cell `(⌊x/cell⌋, ⌊y/cell⌋)`, each
/// bucket ascending, in a flat array over the cell window
/// `x0 ≤ gx < x0 + nx`, `y0 ≤ gy < y0 + ny`. Cell `(gx, gy)` is slot
/// `(gx - x0) · ny + (gy - y0)`, so slots ascend in the scan order
/// `(gx, gy)`.
#[derive(Debug, Clone)]
struct Buckets {
    /// Cell side, `rc.max(1.0)` — the cell [`crate::DiskGraph::build`]
    /// uses, so the natural bucket scan order *is* the oracle's
    /// adjacency order.
    cell: f64,
    x0: i64,
    y0: i64,
    nx: i64,
    ny: i64,
    dense: Vec<Vec<u32>>,
}

impl Buckets {
    /// Empty buckets over the cells of `extent`.
    ///
    /// # Panics
    ///
    /// Panics if the window spans more than [`MAX_CELLS`] cells.
    fn new(cell: f64, extent: Rect, rc: f64) -> Self {
        let mut b = Buckets {
            cell,
            x0: 0,
            y0: 0,
            nx: 0,
            ny: 0,
            dense: Vec::new(),
        };
        let ((x0, y0), (x1, y1)) = (b.key(extent.min), b.key(extent.max));
        // i128: the span of saturated i64 keys does not fit an i64
        let nx = x1 as i128 - x0 as i128 + 1;
        let ny = y1 as i128 - y0 as i128 + 1;
        let cells = nx.saturating_mul(ny);
        assert!(
            nx > 0 && ny > 0 && cells <= MAX_CELLS,
            "proximity window over {extent} at rc {rc} spans {nx} x {ny} = {cells} cells, \
             past the limit of {MAX_CELLS}"
        );
        (b.x0, b.y0, b.nx, b.ny) = (x0, y0, nx as i64, ny as i64);
        b.dense = vec![Vec::new(); cells as usize];
        b
    }

    /// The cell of `p`, unclipped.
    #[inline]
    fn key(&self, p: Point) -> (i64, i64) {
        (
            (p.x / self.cell).floor() as i64,
            (p.y / self.cell).floor() as i64,
        )
    }

    /// The slot of sensor `i`'s position `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` lies outside the window.
    #[inline]
    fn slot(&self, i: usize, p: Point) -> u32 {
        let (gx, gy) = self.key(p);
        let (dx, dy) = (gx.wrapping_sub(self.x0), gy.wrapping_sub(self.y0));
        assert!(
            (0..self.nx).contains(&dx) && (0..self.ny).contains(&dy),
            "sensor {i} at {p} lies outside the tracked extent"
        );
        (dx * self.ny + dy) as u32
    }

    /// Empties the buckets of `slots`, keeping their allocations.
    fn clear(&mut self, slots: &[u32]) {
        for &c in slots {
            self.dense[c as usize].clear();
        }
    }

    /// Moves point `i` from slot `from` to slot `to`, keeping both
    /// buckets ascending.
    fn transfer(&mut self, i: u32, from: u32, to: u32) {
        // Vec::remove / sorted insert (not swap_remove + push):
        // ascending bucket order is what makes query results
        // identical to SpatialGrid's.
        let bucket = &mut self.dense[from as usize];
        let at = bucket.binary_search(&i).expect("point in cell");
        bucket.remove(at);
        let bucket = &mut self.dense[to as usize];
        let at = bucket.binary_search(&i).expect_err("point was absent");
        bucket.insert(at, i);
    }

    /// Replaces `out` with the indices other than `skip` within `r` of
    /// `center`, in scan order: cells ascending by `(gx, gy)`, each
    /// bucket ascending.
    fn collect(&self, points: &[Point], center: Point, r: f64, skip: usize, out: &mut Vec<usize>) {
        out.clear();
        // Exact cell bounds of the slack-padded reach (the same
        // minimal-window rule SpatialGrid::within uses), clipped to the
        // window, which holds every point.
        let reach = r + RANGE_EPS;
        let (gx_lo, gy_lo) = self.key(Point::new(center.x - reach, center.y - reach));
        let (gx_hi, gy_hi) = self.key(Point::new(center.x + reach, center.y + reach));
        let (xa, xb) = (gx_lo.max(self.x0), gx_hi.min(self.x0 + self.nx - 1));
        let (ya, yb) = (gy_lo.max(self.y0), gy_hi.min(self.y0 + self.ny - 1));
        if xa > xb || ya > yb {
            return;
        }
        let (ya, yb) = ((ya - self.y0) as usize, (yb - self.y0) as usize);
        for gx in xa..=xb {
            let row = (gx - self.x0) as usize * self.ny as usize;
            for bucket in &self.dense[row + ya..=row + yb] {
                for &j in bucket {
                    let j = j as usize;
                    if j != skip && within_range(points[j], center, r) {
                        out.push(j);
                    }
                }
            }
        }
    }
}

/// A set of sensor indices: a list for the pass over it plus a
/// membership mark, so an index marked twice is listed once.
#[derive(Debug, Clone)]
struct DirtySet {
    list: Vec<u32>,
    marked: Vec<bool>,
}

impl DirtySet {
    fn new(n: usize) -> Self {
        DirtySet {
            list: Vec::new(),
            marked: vec![false; n],
        }
    }

    #[inline]
    fn mark(&mut self, i: usize) {
        if !self.marked[i] {
            self.marked[i] = true;
            self.list.push(i as u32);
        }
    }

    /// Unmarks everyone listed and empties the list, keeping its
    /// capacity for the next batch.
    fn clear(&mut self) {
        for &i in &self.list {
            self.marked[i as usize] = false;
        }
        self.list.clear();
    }
}

/// The one proximity structure of a simulated fleet: the latest
/// sensor positions, buckets over them at cell `rc.max(1.0)` for range
/// queries at any radius, and the full `rc`-disk adjacency — the
/// incremental counterparts of [`crate::SpatialGrid::build`] and
/// [`crate::DiskGraph::build`], maintained under sensor moves instead
/// of rebuilt per tick.
///
/// **Buckets.** The cells of the extent given to [`Self::new`] — a
/// simulated fleet's field — are a flat array, and every point must
/// stay inside that extent. Each bucket keeps its indices ascending and
/// queries scan the candidate cell window in the same lexicographic
/// order as [`crate::SpatialGrid`], so [`Self::neighbors_within_into`]
/// returns byte-for-byte what `SpatialGrid::build(points, rc.max(1.0))
/// .neighbors(points, i, r)` would, for any radius `r`. Radii up to the
/// cell scan at most a 3×3 cell window; larger radii stay exact but
/// scan proportionally more cells.
///
/// **Lists.** Moved sensors are reconciled on the next list query in
/// three passes: **unlink** (drop the moved sensors from their old
/// neighbors' lists, one filter per list), **requery** (fresh
/// grid-order neighborhoods from the buckets), **relink** (append each
/// moved sensor to its new neighbors' lists, then sort each touched
/// list once). Untouched lists keep their order; repaired lists come
/// out exactly as a fresh build makes them, because every list is
/// sorted by the bucket scan key `(⌊x/cell⌋, ⌊y/cell⌋, index)`.
///
/// Range queries sync only the buckets and list queries both levels,
/// so a scheme that range-queries every tick but reads the graph
/// rarely (CPVF) never pays for list repairs it does not read. The
/// lists also answer §4.1's base-connectivity question:
/// [`Neighbors::flood_from_base`] over [`Self::points`] equals the
/// `DiskGraph::build` + flood oracle.
///
/// # Examples
///
/// ```
/// use msn_geom::{Point, Rect};
/// use msn_net::{AdjacencyTracker, DiskGraph, Neighbors};
///
/// let field = Rect::new(0.0, 0.0, 100.0, 100.0);
/// let mut pts = vec![Point::new(0.0, 0.0), Point::new(8.0, 0.0), Point::new(40.0, 0.0)];
/// let mut tracker = AdjacencyTracker::new(&pts, 10.0, field);
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
    /// Latest recorded positions, indexed by sensor.
    points: Vec<Point>,
    buckets: Buckets,
    /// The bucket slot each point is filed under; slots ascend in the
    /// scan order, so they are also the lists' sort key.
    slots: Vec<u32>,
    /// Sensors moved since the buckets last synced.
    bucket_dirty: DirtySet,
    /// Neighbor lists, each in grid scan order.
    adj: Vec<Vec<usize>>,
    /// Sensors moved since the lists last synced.
    list_dirty: DirtySet,
    /// The lists a repair pass edits (reused scratch).
    touched: DirtySet,
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
    /// `rc`, with dense cells over `extent` — the region the points
    /// stay in (a simulated fleet's field).
    ///
    /// # Panics
    ///
    /// Panics if `rc` is not strictly positive, a coordinate is not
    /// finite, a point lies outside `extent`, or the window over
    /// `extent` at cell `rc.max(1.0)` spans more than 2^22 cells.
    pub fn new(positions: &[Point], rc: f64, extent: Rect) -> Self {
        assert!(rc > 0.0, "communication range must be positive");
        for (i, p) in positions.iter().enumerate() {
            assert!(p.x.is_finite() && p.y.is_finite(), "non-finite point {i}");
        }
        let n = positions.len();
        let mut tracker = AdjacencyTracker {
            rc,
            points: positions.to_vec(),
            buckets: Buckets::new(rc.max(1.0), extent, rc),
            // slot 0 lies in every window and starts empty, so the
            // first rebuild's clear is a no-op
            slots: vec![0; n],
            bucket_dirty: DirtySet::new(n),
            adj: vec![Vec::new(); n],
            list_dirty: DirtySet::new(n),
            touched: DirtySet::new(n),
            hops: HopScratch::default(),
        };
        tracker.rebuild_buckets();
        tracker.rebuild_lists();
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
        self.points.len()
    }

    /// Whether the tracker follows zero sensors.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Latest recorded positions, indexed by sensor (pending,
    /// not-yet-reconciled moves included).
    #[inline]
    pub fn points(&self) -> &[Point] {
        &self.points
    }

    /// Records sensor `i`'s new position. `O(1)`: the bucket move and
    /// the link diff are deferred to the next query of each level. A
    /// position equal to the current one marks nothing.
    ///
    /// # Panics
    ///
    /// Panics if a coordinate is not finite (matching
    /// [`crate::SpatialGrid::build`]). A position outside the extent
    /// panics at the next query, when the buckets sync.
    #[inline]
    pub fn set_sensor(&mut self, i: usize, p: Point) {
        assert!(p.x.is_finite() && p.y.is_finite(), "non-finite point {i}");
        if std::mem::replace(&mut self.points[i], p) == p {
            return;
        }
        self.bucket_dirty.mark(i);
        self.list_dirty.mark(i);
    }

    /// Full bucket reconstruction: the cells named by `slots` are
    /// emptied (never the whole window), then every point is
    /// reinserted in index order, which keeps each bucket ascending
    /// for free. A fleet that mostly stays in its cells re-pushes into
    /// the previous rebuild's allocations.
    fn rebuild_buckets(&mut self) {
        self.bucket_dirty.clear();
        self.buckets.clear(&self.slots);
        for (i, &p) in self.points.iter().enumerate() {
            let slot = self.buckets.slot(i, p);
            self.slots[i] = slot;
            self.buckets.dense[slot as usize].push(i as u32);
        }
    }

    /// Applies pending moves to the buckets: per-point bucket
    /// transfers for scattered movement, or a full rebuild when at
    /// least half the points moved — the same buckets either way.
    fn sync_buckets(&mut self) {
        let dirty = &self.bucket_dirty.list;
        if dirty.is_empty() {
            return;
        }
        msn_obs::counter("pidx.syncs", 1);
        msn_obs::value("pidx.dirty", dirty.len() as f64);
        if 2 * dirty.len() >= self.points.len() {
            msn_obs::counter("pidx.rebuilds", 1);
            self.rebuild_buckets();
            return;
        }
        for &i in dirty {
            let iu = i as usize;
            let new_slot = self.buckets.slot(iu, self.points[iu]);
            let old_slot = std::mem::replace(&mut self.slots[iu], new_slot);
            if old_slot != new_slot {
                msn_obs::counter("pidx.bucket_moves", 1);
                self.buckets.transfer(i, old_slot, new_slot);
            }
        }
        self.bucket_dirty.clear();
    }

    /// Indices of all points within `r` of point `i` (inclusive, under
    /// the shared [`crate::RANGE_EPS`] slack), excluding `i` itself,
    /// into `out` (its contents replaced, so no allocation once `out`
    /// has grown to the largest neighborhood) — byte-identical,
    /// order included, to
    /// `SpatialGrid::build(points, rc.max(1.0)).neighbors(points, i, r)`.
    /// Syncs the buckets only.
    pub fn neighbors_within_into(&mut self, i: usize, r: f64, out: &mut Vec<usize>) {
        self.sync_buckets();
        self.buckets
            .collect(&self.points, self.points[i], r, i, out);
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

    /// Applies pending moves to the neighbor lists so that shared
    /// reads (the [`Neighbors`] impl used by [`crate::random_walk`])
    /// see the current positions.
    pub fn sync(&mut self) {
        let dirty = self.list_dirty.list.len();
        if dirty == 0 {
            return;
        }
        msn_obs::counter("adj.syncs", 1);
        msn_obs::value("adj.dirty", dirty as f64);
        let n = self.adj.len();
        // A rebuild's work grows with the edge count E; a repair edits,
        // per link of a moved sensor, a list of mean length 2E/n, so
        // its work grows with (moved sensors' summed degree) · 2E/n.
        // Rebuild once that degree sum reaches REBUILD_DEGREE · n, or
        // once half the fleet moved.
        let moved_degree: usize = self
            .list_dirty
            .list
            .iter()
            .map(|&i| self.adj[i as usize].len())
            .sum();
        if 2 * dirty >= n || moved_degree >= REBUILD_DEGREE * n {
            msn_obs::counter("adj.rebuilds", 1);
            self.rebuild_lists();
            return;
        }
        msn_obs::counter("adj.repairs", 1);
        self.sync_buckets();
        let AdjacencyTracker {
            rc,
            points,
            buckets,
            slots,
            adj,
            list_dirty,
            touched,
            ..
        } = self;
        // The moved sensors stay marked until the end: the phases
        // below skip moved neighbors by their mark.
        let (moved, is_moved) = (&list_dirty.list, &list_dirty.marked);
        // Phase 1: unlink. Every list holding a moved sensor belongs
        // to one of its old neighbors; filter each such list once
        // (moved sensors' own lists are replaced whole in phase 2, so
        // moved-moved edges need no bookkeeping).
        for &i in moved {
            for &j in &adj[i as usize] {
                if !is_moved[j] {
                    touched.mark(j);
                }
            }
        }
        for &j in &touched.list {
            adj[j as usize].retain(|&m| !is_moved[m]);
        }
        touched.clear();
        // Phase 2: requery. Fresh grid-order neighborhoods for the
        // moved sensors, each into its own list.
        for &i in moved {
            let iu = i as usize;
            buckets.collect(points, points[iu], *rc, iu, &mut adj[iu]);
        }
        // Phase 3: relink. Append each moved sensor to its new
        // neighbors' lists, then restore the oracle's scan order with
        // one sort per touched list on the cached (now current) bucket
        // slots. The sensor index breaks ties, so the order is exact
        // even when several moved sensors land in one list.
        for &i in moved {
            let iu = i as usize;
            for k in 0..adj[iu].len() {
                let j = adj[iu][k];
                if !is_moved[j] {
                    adj[j].push(iu);
                    touched.mark(j);
                }
            }
        }
        for &j in &touched.list {
            adj[j as usize].sort_by_key(|&m| (slots[m], m));
        }
        touched.clear();
        list_dirty.clear();
    }

    /// Full list reconstruction: every list re-queried from the
    /// buckets into its own allocation.
    fn rebuild_lists(&mut self) {
        self.list_dirty.clear();
        self.sync_buckets();
        let (buckets, points, rc) = (&self.buckets, &self.points, self.rc);
        for (i, list) in self.adj.iter_mut().enumerate() {
            buckets.collect(points, points[i], rc, i, list);
        }
    }
}

impl Neighbors for AdjacencyTracker {
    /// Shared read of a neighbor list; callers must
    /// [`AdjacencyTracker::sync`] first (checked in debug builds).
    fn neighbors_of(&self, i: usize) -> &[usize] {
        debug_assert!(
            self.list_dirty.list.is_empty(),
            "sync() the tracker before shared neighbor reads"
        );
        &self.adj[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DiskGraph, SpatialGrid};

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

    /// [`AdjacencyTracker::neighbors_within_into`] into a fresh vector.
    fn neighbors_within(tracker: &mut AdjacencyTracker, i: usize, r: f64) -> Vec<usize> {
        let mut out = Vec::new();
        tracker.neighbors_within_into(i, r, &mut out);
        out
    }

    fn oracle_neighbors(pts: &[Point], cell: f64, i: usize, r: f64) -> Vec<usize> {
        SpatialGrid::build(pts, cell).neighbors(pts, i, r)
    }

    /// The extent every test layout below stays in.
    fn field() -> Rect {
        Rect::new(-10.0, -10.0, 200.0, 200.0)
    }

    #[test]
    fn single_moves_track_the_oracle() {
        let rc = 10.0;
        let mut pts: Vec<Point> = (0..8)
            .map(|i| Point::new(8.0 * i as f64, 0.5 * i as f64))
            .collect();
        let mut tracker = AdjacencyTracker::new(&pts, rc, field());
        assert_matches(&mut tracker, &pts, rc);
        // walk one sensor across the field in steps
        for step in 0..6 {
            pts[3] = Point::new(5.0 + 11.0 * step as f64, 3.0);
            tracker.set_sensor(3, pts[3]);
            assert_matches(&mut tracker, &pts, rc);
        }
    }

    #[test]
    fn range_queries_track_the_grid_oracle_in_order() {
        let mut pts = vec![
            Point::new(5.0, 5.0),
            Point::new(12.0, 5.0),
            Point::new(45.0, 45.0),
            Point::new(5.0, 14.0),
        ];
        let mut tracker = AdjacencyTracker::new(&pts, 10.0, field());
        for (i, p) in [
            (2, Point::new(8.0, 8.0)),
            (0, Point::new(44.0, 44.0)),
            (2, Point::new(9.0, 9.0)), // moves again before a query
            (3, Point::new(-3.0, -7.0)),
        ] {
            pts[i] = p;
            tracker.set_sensor(i, p);
            for q in 0..pts.len() {
                // radii below, at and beyond rc
                for r in [4.0, 10.0, 30.0] {
                    assert_eq!(
                        neighbors_within(&mut tracker, q, r),
                        oracle_neighbors(&pts, 10.0, q, r),
                        "point {q} radius {r}"
                    );
                }
            }
        }
    }

    #[test]
    fn range_radius_beyond_rc_stays_exact() {
        let pts: Vec<Point> = (0..9)
            .map(|i| Point::new(20.0 * (i % 3) as f64, 20.0 * (i / 3) as f64))
            .collect();
        let mut tracker = AdjacencyTracker::new(&pts, 10.0, field());
        assert_eq!(
            neighbors_within(&mut tracker, 4, 45.0),
            oracle_neighbors(&pts, 10.0, 4, 45.0)
        );
    }

    #[test]
    fn batched_moves_rebuild_and_stay_exact() {
        let rc = 12.0;
        let mut pts: Vec<Point> = (0..10).map(|i| Point::new(9.0 * i as f64, 0.0)).collect();
        let mut tracker = AdjacencyTracker::new(&pts, rc, field());
        for (i, p) in pts.iter_mut().enumerate() {
            *p = Point::new(p.x, 7.0 * (i % 3) as f64);
            tracker.set_sensor(i, *p);
        }
        assert_matches(&mut tracker, &pts, rc);
    }

    #[test]
    fn batched_moves_take_the_bucket_rebuild_path() {
        // every sensor moves before the next range query, so the
        // bucket sync rebuilds instead of moving points one by one
        let mut pts: Vec<Point> = (0..12).map(|i| Point::new(7.0 * i as f64, 3.0)).collect();
        let mut tracker = AdjacencyTracker::new(&pts, 15.0, field());
        for (i, p) in pts.iter_mut().enumerate() {
            *p = Point::new(80.0 - 7.0 * i as f64, 9.0 * (i % 2) as f64);
            tracker.set_sensor(i, *p);
        }
        for q in 0..pts.len() {
            assert_eq!(
                neighbors_within(&mut tracker, q, 15.0),
                oracle_neighbors(&pts, 15.0, q, 15.0)
            );
        }
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
        let mut tracker = AdjacencyTracker::new(&pts, rc, field());
        pts[1] = Point::new(46.0, 49.0);
        pts[2] = Point::new(53.0, 54.0);
        tracker.set_sensor(1, pts[1]);
        tracker.set_sensor(2, pts[2]);
        assert_matches(&mut tracker, &pts, rc);
    }

    #[test]
    fn duplicates_and_redundant_sets() {
        let pts = vec![Point::new(1.0, 1.0); 4];
        let mut tracker = AdjacencyTracker::new(&pts, 5.0, field());
        assert_eq!(neighbors_within(&mut tracker, 2, 1.0), vec![0, 1, 3]);
        assert_eq!(tracker.neighbors(2), &[0, 1, 3]);
        for _ in 0..3 {
            tracker.set_sensor(1, pts[1]); // no-op moves reconcile cleanly
        }
        assert_eq!(neighbors_within(&mut tracker, 2, 1.0), vec![0, 1, 3]);
        assert_eq!(tracker.neighbors(2), &[0, 1, 3]);
        assert_eq!(tracker.len(), 4);
        assert!(!tracker.is_empty());
        assert_eq!(tracker.rc(), 5.0);
        assert_eq!(tracker.points(), &pts[..]);
    }

    #[test]
    fn redundant_sets_are_noops() {
        // A burst of sets to the current positions marks neither
        // level dirty: no query afterwards syncs anything.
        let pts = vec![
            Point::new(5.0, 0.0),
            Point::new(9.0, 0.0),
            Point::new(50.0, 0.0),
        ];
        let mut tracker = AdjacencyTracker::new(&pts, 10.0, field());
        msn_obs::start();
        for _ in 0..3 {
            for (i, &p) in pts.iter().enumerate() {
                tracker.set_sensor(i, p);
            }
        }
        assert_eq!(neighbors_within(&mut tracker, 0, 10.0), vec![1]);
        assert_eq!(tracker.neighbors(0), &[1]);
        let report = msn_obs::finish().expect("collector installed");
        assert_eq!(report.counter_total("pidx.syncs"), 0);
        assert_eq!(report.counter_total("adj.syncs"), 0);
    }

    #[test]
    fn list_sync_rebuilds_by_the_moved_sensors_summed_degree() {
        // 7 of 20 sensors move (under half): on a complete graph their
        // 133 links pass 6 per sensor and the lists rebuild; on a
        // chain their 14 links do not and the lists are repaired.
        for (spacing, want_rebuilds) in [(0.1, 1), (9.0, 0)] {
            let mut pts: Vec<Point> = (0..20)
                .map(|i| Point::new(spacing * i as f64, 0.0))
                .collect();
            let mut tracker = AdjacencyTracker::new(&pts, 10.0, field());
            msn_obs::start();
            for i in 3..10 {
                pts[i].y = 0.5;
                tracker.set_sensor(i, pts[i]);
            }
            tracker.sync();
            let report = msn_obs::finish().expect("collector installed");
            assert_eq!(report.counter_total("adj.rebuilds"), want_rebuilds);
            assert_eq!(report.counter_total("adj.repairs"), 1 - want_rebuilds);
            assert_matches(&mut tracker, &pts, 10.0);
        }
    }

    #[test]
    fn the_window_spans_the_extent_at_cell_rc() {
        let pts = [Point::new(5.0, 5.0)];
        let tracker = AdjacencyTracker::new(&pts, 10.0, Rect::new(0.0, 0.0, 600.0, 600.0));
        assert_eq!(tracker.buckets.dense.len(), 61 * 61);
        // the cell never drops below 1 m
        let tracker = AdjacencyTracker::new(&pts, 0.5, Rect::new(0.0, 0.0, 10.0, 10.0));
        assert_eq!(tracker.buckets.dense.len(), 11 * 11);
    }

    #[test]
    #[should_panic(expected = "past the limit")]
    fn an_oversized_window_is_refused() {
        // 10,001² cells of 1 m, past the 2^22 limit
        AdjacencyTracker::new(&[], 1.0, Rect::new(0.0, 0.0, 1.0e4, 1.0e4));
    }

    #[test]
    #[should_panic(expected = "sensor 1 at (-15.000, 5.000) lies outside the tracked extent")]
    fn a_point_outside_the_extent_is_refused_at_build() {
        let pts = [Point::new(5.0, 5.0), Point::new(-15.0, 5.0)];
        AdjacencyTracker::new(&pts, 10.0, Rect::new(0.0, 0.0, 100.0, 100.0));
    }

    #[test]
    #[should_panic(expected = "sensor 0 at (5.000, 250.000) lies outside the tracked extent")]
    fn a_move_outside_the_extent_is_refused_at_the_next_sync() {
        let pts = [Point::new(5.0, 5.0), Point::new(9.0, 5.0)];
        let mut tracker = AdjacencyTracker::new(&pts, 10.0, Rect::new(0.0, 0.0, 100.0, 100.0));
        tracker.set_sensor(0, Point::new(5.0, 250.0));
        tracker.sync();
    }

    #[test]
    fn empty_tracker() {
        let mut tracker = AdjacencyTracker::new(&[], 10.0, field());
        assert!(tracker.is_empty());
        tracker.sync();
    }

    #[test]
    fn empty_range_queries() {
        // a lone sensor finds no one, at any radius
        let mut tracker = AdjacencyTracker::new(&[Point::ORIGIN], 5.0, field());
        assert!(neighbors_within(&mut tracker, 0, 100.0).is_empty());
        assert!(tracker.neighbors(0).is_empty());
    }

    #[test]
    fn random_walks_match_the_oracle_graph() {
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let rc = 10.0;
        let mut pts: Vec<Point> = (0..12)
            .map(|i| Point::new(7.0 * i as f64, (i % 4) as f64))
            .collect();
        let mut tracker = AdjacencyTracker::new(&pts, rc, field());
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
