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
//! * **Dense cells** — the buckets are a flat array over the cells of
//!   a fixed window (the field, for a simulated fleet), so a range
//!   query indexes its cells instead of hashing them. Points outside
//!   the window fall back to a hash map; both scan in the same order.
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
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// FxHash-style multiplicative hasher for the `(i64, i64)` keys of the
/// overflow cells, the ones outside the dense window. SipHash would
/// dominate the per-query cost of a bucket map this small; a keyed
/// DoS-resistant hash buys nothing here (cell keys come from simulated
/// positions, not attacker input), and the map is only ever probed by
/// key — never iterated — so the hasher cannot influence query
/// results.
///
/// All arithmetic is wrapping on `u64`, so large and negative cell
/// coordinates (far-off-field sensors saturate the `i64` keys) cannot
/// overflow. `finish` folds the high half into the low bits: the map
/// indexes buckets by the *low* bits of the hash, and the low bits of
/// a wrapping product depend only on the low bits of its inputs — keys
/// agreeing in their low bits but differing in magnitude would
/// otherwise share buckets systematically.
#[derive(Default)]
struct CellHasher(u64);

impl CellHasher {
    #[inline]
    fn add(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for CellHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(b as u64);
        }
    }
    #[inline]
    fn write_i64(&mut self, n: i64) {
        self.add(n as u64);
    }
    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }
}

type CellMap = HashMap<(i64, i64), Vec<u32>, BuildHasherDefault<CellHasher>>;

/// Moved sensors' summed degree, per sensor, from which a list sync
/// rebuilds instead of repairing. Timed per sync on full `paper-field`,
/// `fig11` and the obstacle field: below mean degree 10 a repair beat
/// a rebuild at every share of moved links seen, while on the dense
/// graphs VD's Minimax rounds leave (mean degree 100–190, 34–101 of
/// 240 sensors moved) a repair cost ~3× a rebuild.
const REBUILD_DEGREE: usize = 6;

/// Point indices bucketed by grid cell `(⌊x/cell⌋, ⌊y/cell⌋)`, each
/// bucket ascending: a flat array over the inclusive cell window
/// `[x0, x1] × [y0, y1]`, and a hash map for cells outside it.
#[derive(Debug, Clone)]
struct Buckets {
    /// Cell side, `rc.max(1.0)` — the cell [`crate::DiskGraph::build`]
    /// uses, so the natural bucket scan order *is* the oracle's
    /// adjacency order.
    cell: f64,
    x0: i64,
    x1: i64,
    y0: i64,
    y1: i64,
    /// Window cell `(gx, gy)` is `dense[(gx - x0) · ny + (gy - y0)]`.
    dense: Vec<Vec<u32>>,
    ny: usize,
    /// Non-empty buckets of the cells outside the window.
    overflow: CellMap,
}

impl Buckets {
    /// Empty buckets whose dense window covers `extent`, unless that
    /// window would exceed `max(4·n, 4096)` cells (the proportionality
    /// guard of [`crate::SpatialGrid::build`]); then every cell
    /// overflows into the map.
    fn new(cell: f64, extent: Option<Rect>, n: usize) -> Self {
        let mut b = Buckets {
            cell,
            x0: 0,
            x1: -1,
            y0: 0,
            y1: -1,
            dense: Vec::new(),
            ny: 0,
            overflow: CellMap::default(),
        };
        let Some(extent) = extent else {
            return b;
        };
        let (x0, y0) = b.key(extent.min);
        let (x1, y1) = b.key(extent.max);
        // i128: saturated i64 keys would overflow the span
        let nx = x1 as i128 - x0 as i128 + 1;
        let ny = y1 as i128 - y0 as i128 + 1;
        let cap = (4 * n as i128).max(4096);
        if nx > 0 && ny > 0 && nx.checked_mul(ny).is_some_and(|cells| cells <= cap) {
            (b.x0, b.x1, b.y0, b.y1) = (x0, x1, y0, y1);
            b.ny = ny as usize;
            b.dense = vec![Vec::new(); (nx * ny) as usize];
        }
        b
    }

    #[inline]
    fn key(&self, p: Point) -> (i64, i64) {
        (
            (p.x / self.cell).floor() as i64,
            (p.y / self.cell).floor() as i64,
        )
    }

    /// The dense slot of cell `(gx, gy)`, if it lies in the window.
    #[inline]
    fn slot(&self, (gx, gy): (i64, i64)) -> Option<usize> {
        (self.x0 <= gx && gx <= self.x1 && self.y0 <= gy && gy <= self.y1)
            .then(|| (gx - self.x0) as usize * self.ny + (gy - self.y0) as usize)
    }

    #[inline]
    fn get(&self, key: (i64, i64)) -> &[u32] {
        match self.slot(key) {
            Some(c) => &self.dense[c],
            None => self.overflow.get(&key).map_or(&[], Vec::as_slice),
        }
    }

    #[inline]
    fn get_mut(&mut self, key: (i64, i64)) -> &mut Vec<u32> {
        match self.slot(key) {
            Some(c) => &mut self.dense[c],
            None => self.overflow.entry(key).or_default(),
        }
    }

    /// Empties the buckets of `keys`, keeping the dense allocations.
    fn clear(&mut self, keys: &[(i64, i64)]) {
        for &key in keys {
            match self.slot(key) {
                Some(c) => self.dense[c].clear(),
                None => {
                    self.overflow.remove(&key);
                }
            }
        }
    }

    /// Moves point `i` from cell `from` to cell `to`, keeping both
    /// buckets ascending.
    fn transfer(&mut self, i: u32, from: (i64, i64), to: (i64, i64)) {
        // Vec::remove / sorted insert (not swap_remove + push):
        // ascending bucket order is what makes query results
        // identical to SpatialGrid's.
        let bucket = self.get_mut(from);
        let at = bucket.binary_search(&i).expect("point in cell");
        bucket.remove(at);
        if bucket.is_empty() && self.slot(from).is_none() {
            self.overflow.remove(&from);
        }
        let bucket = self.get_mut(to);
        let at = bucket.binary_search(&i).expect_err("point was absent");
        bucket.insert(at, i);
    }

    /// Replaces `out` with the indices other than `skip` within `r` of
    /// `center`, in scan order: cells ascending by `(gx, gy)`, each
    /// bucket ascending.
    fn collect(&self, points: &[Point], center: Point, r: f64, skip: usize, out: &mut Vec<usize>) {
        out.clear();
        let mut visit = |bucket: &[u32]| {
            for &j in bucket {
                let j = j as usize;
                if j != skip && within_range(points[j], center, r) {
                    out.push(j);
                }
            }
        };
        // Exact cell bounds of the slack-padded reach (the same
        // minimal-window rule SpatialGrid::within uses).
        let reach = r + RANGE_EPS;
        let (gx_lo, gy_lo) = self.key(Point::new(center.x - reach, center.y - reach));
        let (gx_hi, gy_hi) = self.key(Point::new(center.x + reach, center.y + reach));
        if self.overflow.is_empty() {
            // Every point lies in the window: scan only its overlap
            // with the reach, a row of slots per gx.
            let (xa, xb) = (gx_lo.max(self.x0), gx_hi.min(self.x1));
            let (ya, yb) = (gy_lo.max(self.y0), gy_hi.min(self.y1));
            if xa > xb || ya > yb {
                return;
            }
            let (ya, yb) = ((ya - self.y0) as usize, (yb - self.y0) as usize);
            for gx in xa..=xb {
                let row = (gx - self.x0) as usize * self.ny;
                self.dense[row + ya..=row + yb]
                    .iter()
                    .for_each(|b| visit(b));
            }
        } else {
            for gx in gx_lo..=gx_hi {
                for gy in gy_lo..=gy_hi {
                    visit(self.get((gx, gy)));
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
/// **Buckets.** The cells of a fixed window — the field
/// ([`Self::with_extent`]) or the initial points' bounding box
/// ([`Self::new`]) — are a flat array; a point outside it is bucketed
/// in a hash map instead. Each bucket keeps its indices ascending and
/// queries scan the candidate cell window in the same lexicographic
/// order as [`crate::SpatialGrid`], so [`Self::within`] returns
/// byte-for-byte what `SpatialGrid::build(points, rc.max(1.0))
/// .within(points, center, r)` would, for any radius `r`. Radii up to
/// the cell scan at most a 3×3 cell window; larger radii stay exact
/// but scan proportionally more cells.
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
    /// Latest recorded positions, indexed by sensor.
    points: Vec<Point>,
    buckets: Buckets,
    /// The cell each point is bucketed under.
    keys: Vec<(i64, i64)>,
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
    /// `rc`, with dense cells over the positions' bounding box.
    ///
    /// # Panics
    ///
    /// Panics if `rc` is not strictly positive or a coordinate is not
    /// finite.
    pub fn new(positions: &[Point], rc: f64) -> Self {
        let bbox = positions.iter().fold(None, |acc: Option<Rect>, &p| {
            Some(acc.map_or(Rect::from_corners(p, p), |r| {
                Rect::from_corners(
                    Point::new(r.min.x.min(p.x), r.min.y.min(p.y)),
                    Point::new(r.max.x.max(p.x), r.max.y.max(p.y)),
                )
            }))
        });
        Self::build(positions, rc, bbox)
    }

    /// Builds the tracker for `positions` and communication range
    /// `rc`, with dense cells over `extent` — the region the points
    /// stay in (a simulated fleet's field). Points may leave it; they
    /// are then bucketed in a slower hash map, with identical answers.
    ///
    /// # Panics
    ///
    /// Panics if `rc` is not strictly positive or a coordinate is not
    /// finite.
    pub fn with_extent(positions: &[Point], rc: f64, extent: Rect) -> Self {
        Self::build(positions, rc, Some(extent))
    }

    fn build(positions: &[Point], rc: f64, extent: Option<Rect>) -> Self {
        assert!(rc > 0.0, "communication range must be positive");
        for (i, p) in positions.iter().enumerate() {
            assert!(p.x.is_finite() && p.y.is_finite(), "non-finite point {i}");
        }
        let n = positions.len();
        let mut tracker = AdjacencyTracker {
            rc,
            points: positions.to_vec(),
            buckets: Buckets::new(rc.max(1.0), extent, n),
            keys: vec![(0, 0); n],
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
    /// [`crate::SpatialGrid::build`]).
    #[inline]
    pub fn set_sensor(&mut self, i: usize, p: Point) {
        assert!(p.x.is_finite() && p.y.is_finite(), "non-finite point {i}");
        if std::mem::replace(&mut self.points[i], p) == p {
            return;
        }
        self.bucket_dirty.mark(i);
        self.list_dirty.mark(i);
    }

    /// Full bucket reconstruction: the cells named by `keys` are
    /// emptied (never the whole window), then every point is
    /// reinserted in index order, which keeps each bucket ascending
    /// for free. A fleet that mostly stays in its cells re-pushes into
    /// the previous rebuild's allocations.
    fn rebuild_buckets(&mut self) {
        self.bucket_dirty.clear();
        self.buckets.clear(&self.keys);
        for (i, &p) in self.points.iter().enumerate() {
            let key = self.buckets.key(p);
            self.keys[i] = key;
            self.buckets.get_mut(key).push(i as u32);
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
            let new_key = self.buckets.key(self.points[iu]);
            let old_key = std::mem::replace(&mut self.keys[iu], new_key);
            if old_key != new_key {
                msn_obs::counter("pidx.bucket_moves", 1);
                self.buckets.transfer(i, old_key, new_key);
            }
        }
        self.bucket_dirty.clear();
    }

    /// Indices of all points within `r` of `center` (inclusive, under
    /// the shared [`crate::RANGE_EPS`] slack), including any point
    /// equal to `center` itself — byte-identical, order included, to
    /// `SpatialGrid::build(points, rc.max(1.0)).within(points, center, r)`
    /// on the current points. Syncs the buckets only.
    ///
    /// # Examples
    ///
    /// ```
    /// use msn_geom::Point;
    /// use msn_net::{AdjacencyTracker, SpatialGrid};
    ///
    /// let mut pts = vec![Point::new(0.0, 0.0), Point::new(5.0, 0.0), Point::new(50.0, 0.0)];
    /// let mut tracker = AdjacencyTracker::new(&pts, 10.0);
    /// assert_eq!(tracker.within(pts[0], 10.0), vec![0, 1]);
    /// pts[2] = Point::new(8.0, 0.0); // walks into range
    /// tracker.set_sensor(2, pts[2]);
    /// let oracle = SpatialGrid::build(&pts, 10.0).within(&pts, pts[0], 10.0);
    /// assert_eq!(tracker.within(pts[0], 10.0), oracle);
    /// ```
    pub fn within(&mut self, center: Point, r: f64) -> Vec<usize> {
        self.sync_buckets();
        let mut out = Vec::with_capacity(16);
        self.buckets
            .collect(&self.points, center, r, usize::MAX, &mut out);
        out
    }

    /// Indices of all points within `r` of point `i`, excluding `i`
    /// itself — byte-identical, order included, to
    /// `SpatialGrid::build(points, rc.max(1.0)).neighbors(points, i, r)`.
    pub fn neighbors_within(&mut self, i: usize, r: f64) -> Vec<usize> {
        let mut out = Vec::with_capacity(16);
        self.neighbors_within_into(i, r, &mut out);
        out
    }

    /// [`AdjacencyTracker::neighbors_within`] into `out`, replacing its
    /// contents — no allocation once `out` has grown to the largest
    /// neighborhood.
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
            keys,
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
        // one sort per touched list on the cached (now current) cell
        // keys. The sensor index breaks ties, so the order is exact
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
            adj[j as usize].sort_by_key(|&m| (keys[m], m));
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

    fn oracle_neighbors(pts: &[Point], cell: f64, i: usize, r: f64) -> Vec<usize> {
        SpatialGrid::build(pts, cell).neighbors(pts, i, r)
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
    fn range_queries_track_the_grid_oracle_in_order() {
        let mut pts = vec![
            Point::new(5.0, 5.0),
            Point::new(12.0, 5.0),
            Point::new(45.0, 45.0),
            Point::new(5.0, 14.0),
        ];
        let mut tracker = AdjacencyTracker::new(&pts, 10.0);
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
                        tracker.neighbors_within(q, r),
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
        let mut tracker = AdjacencyTracker::new(&pts, 10.0);
        assert_eq!(
            tracker.neighbors_within(4, 45.0),
            oracle_neighbors(&pts, 10.0, 4, 45.0)
        );
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
    fn batched_moves_take_the_bucket_rebuild_path() {
        // every sensor moves before the next range query, so the
        // bucket sync rebuilds instead of moving points one by one
        let mut pts: Vec<Point> = (0..12).map(|i| Point::new(7.0 * i as f64, 3.0)).collect();
        let mut tracker = AdjacencyTracker::new(&pts, 15.0);
        for (i, p) in pts.iter_mut().enumerate() {
            *p = Point::new(80.0 - 7.0 * i as f64, 9.0 * (i % 2) as f64);
            tracker.set_sensor(i, *p);
        }
        for q in 0..pts.len() {
            assert_eq!(
                tracker.neighbors_within(q, 15.0),
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
        let mut tracker = AdjacencyTracker::new(&pts, rc);
        pts[1] = Point::new(46.0, 49.0);
        pts[2] = Point::new(53.0, 54.0);
        tracker.set_sensor(1, pts[1]);
        tracker.set_sensor(2, pts[2]);
        assert_matches(&mut tracker, &pts, rc);
    }

    #[test]
    fn duplicates_and_redundant_sets() {
        let pts = vec![Point::new(1.0, 1.0); 4];
        let mut tracker = AdjacencyTracker::new(&pts, 5.0);
        assert_eq!(tracker.within(Point::new(1.0, 1.0), 1.0).len(), 4);
        assert_eq!(tracker.neighbors_within(2, 1.0), vec![0, 1, 3]);
        assert_eq!(tracker.neighbors(2), &[0, 1, 3]);
        for _ in 0..3 {
            tracker.set_sensor(1, pts[1]); // no-op moves reconcile cleanly
        }
        assert_eq!(tracker.neighbors_within(2, 1.0), vec![0, 1, 3]);
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
        let mut tracker = AdjacencyTracker::new(&pts, 10.0);
        msn_obs::start();
        for _ in 0..3 {
            for (i, &p) in pts.iter().enumerate() {
                tracker.set_sensor(i, p);
            }
        }
        assert_eq!(tracker.neighbors_within(0, 10.0), vec![1]);
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
            let mut tracker = AdjacencyTracker::new(&pts, 10.0);
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
    fn oversized_extent_overflows_every_cell() {
        // a window past max(4n, 4096) cells is not flattened; the map
        // answers alone, identically
        let mut pts = vec![
            Point::new(5.0, 5.0),
            Point::new(9.0, 5.0),
            Point::new(60.0, 60.0),
        ];
        let extent = Rect::new(0.0, 0.0, 1.0e4, 1.0e4);
        let mut tracker = AdjacencyTracker::with_extent(&pts, 10.0, extent);
        assert!(tracker.buckets.dense.is_empty());
        pts[2] = Point::new(12.0, 8.0);
        tracker.set_sensor(2, pts[2]);
        assert_eq!(
            tracker.neighbors_within(0, 10.0),
            oracle_neighbors(&pts, 10.0, 0, 10.0)
        );
        assert_matches(&mut tracker, &pts, 10.0);
        let field_sized =
            AdjacencyTracker::with_extent(&pts, 10.0, Rect::new(0.0, 0.0, 600.0, 600.0));
        assert_eq!(field_sized.buckets.dense.len(), 61 * 61);
    }

    #[test]
    fn empty_tracker() {
        let mut tracker = AdjacencyTracker::new(&[], 10.0);
        assert!(tracker.is_empty());
        tracker.sync();
    }

    #[test]
    fn empty_range_queries() {
        let mut tracker = AdjacencyTracker::new(&[], 5.0);
        assert!(tracker.within(Point::ORIGIN, 100.0).is_empty());
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
