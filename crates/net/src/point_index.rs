//! Incrementally-maintained point index for range queries under moves.
//!
//! Invariants (shared with every incremental kernel in this
//! workspace — see `ARCHITECTURE.md`):
//!
//! * **Oracle bit-identity.** Every query answers exactly what a fresh
//!   [`crate::SpatialGrid::build`] over the current points would —
//!   the same indices in the same order — so swapping a per-tick
//!   rebuild for a maintained index can never change simulation
//!   output. Property-tested in `tests/properties.rs`.
//! * **Lazy dirty sets.** [`PointIndex::set_point`] is `O(1)`: it
//!   records the move and defers the bucket update to the next query,
//!   so a burst of moves between two queries costs one reconciliation.
//! * **Rebuild-if-cheaper.** When at least half the points moved since
//!   the last query, reconciliation rebuilds all buckets from scratch
//!   instead of moving them one by one — a query is never
//!   asymptotically more expensive than the full
//!   `SpatialGrid::build` it replaces. Because a cell's final bucket
//!   content (ascending indices of its points) is independent of the
//!   path taken, both paths yield bit-identical queries.

use crate::{within_range, RANGE_EPS};
use msn_geom::Point;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// FxHash-style multiplicative hasher for the `(i64, i64)` cell keys.
/// SipHash dominates the per-query cost of a bucket map this small;
/// a keyed DoS-resistant hash buys nothing here (cell keys come from
/// simulated positions, not attacker input), and the map is only ever
/// probed by key — never iterated — so the hasher cannot influence
/// query results.
///
/// All arithmetic is wrapping on `u64`, so large and negative cell
/// coordinates (far-off-field sensors saturate the `i64` keys) cannot
/// overflow. `finish` folds the high half into the low bits: the map
/// indexes buckets by the *low* bits of the hash, and the low bits of
/// a wrapping product depend only on the low bits of its inputs — at
/// 50k-scale extents, keys agreeing in their low bits but differing
/// in magnitude would otherwise share buckets systematically.
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

/// A dynamic counterpart of [`crate::SpatialGrid`]: hash buckets of
/// cell side `cell` maintained under point moves, instead of rebuilt
/// from scratch per tick.
///
/// Buckets keep their indices sorted ascending and queries scan the
/// candidate cell window in the same lexicographic order as
/// [`crate::SpatialGrid`], so for any radius `r`,
/// [`PointIndex::within`] returns byte-for-byte what
/// `SpatialGrid::build(points, cell).within(points, center, r)`
/// would. Call sites whose historical grid used a *different* cell
/// size can reproduce that exact order too, via
/// [`PointIndex::neighbors_within_grid_order`].
///
/// Queries at radius `r ≤ cell` scan at most a 3×3 cell window;
/// larger radii stay correct but scan proportionally more cells.
///
/// # Examples
///
/// ```
/// use msn_geom::Point;
/// use msn_net::{PointIndex, SpatialGrid};
///
/// let mut pts = vec![Point::new(0.0, 0.0), Point::new(5.0, 0.0), Point::new(50.0, 0.0)];
/// let mut index = PointIndex::new(&pts, 10.0);
/// assert_eq!(index.neighbors_within(0, 10.0), vec![1]);
/// pts[2] = Point::new(8.0, 0.0); // walks into range
/// index.set_point(2, pts[2]);
/// let oracle = SpatialGrid::build(&pts, 10.0).neighbors(&pts, 0, 10.0);
/// assert_eq!(index.neighbors_within(0, 10.0), oracle);
/// ```
#[derive(Debug, Clone)]
pub struct PointIndex {
    cell: f64,
    /// Latest positions reported via `set_point`.
    current: Vec<Point>,
    /// Positions the buckets currently reflect.
    synced: Vec<Point>,
    /// Points whose `current` may differ from `synced`.
    dirty: Vec<u32>,
    is_dirty: Vec<bool>,
    /// Cell `(gx, gy)` holds the indices of the synced points inside
    /// it, sorted ascending.
    buckets: CellMap,
}

impl PointIndex {
    /// Indexes `points` with grid cells of side `cell` meters.
    ///
    /// A good `cell` is the largest radius you intend to query at.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is not strictly positive or a coordinate is
    /// not finite.
    pub fn new(points: &[Point], cell: f64) -> Self {
        assert!(cell > 0.0, "cell size must be positive");
        for (i, p) in points.iter().enumerate() {
            assert!(p.x.is_finite() && p.y.is_finite(), "non-finite point {i}");
        }
        let n = points.len();
        let mut index = PointIndex {
            cell,
            current: points.to_vec(),
            synced: points.to_vec(),
            dirty: Vec::new(),
            is_dirty: vec![false; n],
            buckets: CellMap::default(),
        };
        index.rebuild();
        index
    }

    /// The cell side length.
    #[inline]
    pub fn cell(&self) -> f64 {
        self.cell
    }

    /// Number of indexed points.
    #[inline]
    pub fn len(&self) -> usize {
        self.current.len()
    }

    /// Whether the index holds zero points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.current.is_empty()
    }

    /// The latest reported position of point `i` (which pending,
    /// not-yet-reconciled moves already reflect).
    #[inline]
    pub fn point(&self, i: usize) -> Point {
        self.current[i]
    }

    /// All latest reported positions.
    #[inline]
    pub fn points(&self) -> &[Point] {
        &self.current
    }

    /// Records point `i`'s new position. `O(1)`: the bucket move is
    /// deferred to the next query.
    ///
    /// # Panics
    ///
    /// Panics if a coordinate is not finite (matching
    /// [`crate::SpatialGrid::build`]).
    #[inline]
    pub fn set_point(&mut self, i: usize, p: Point) {
        assert!(p.x.is_finite() && p.y.is_finite(), "non-finite point {i}");
        self.current[i] = p;
        if !self.is_dirty[i] {
            self.is_dirty[i] = true;
            self.dirty.push(i as u32);
        }
    }

    #[inline]
    fn key_at(p: Point, cell: f64) -> (i64, i64) {
        ((p.x / cell).floor() as i64, (p.y / cell).floor() as i64)
    }

    #[inline]
    fn key(&self, p: Point) -> (i64, i64) {
        Self::key_at(p, self.cell)
    }

    /// Full reconstruction: every bucket reinserted in index order
    /// (which keeps each bucket ascending for free). Buckets are
    /// emptied in place rather than dropped, so a fleet that mostly
    /// stays in its cells re-pushes into the previous rebuild's
    /// allocations; keys left empty are removed afterwards, leaving
    /// exactly the map a from-scratch build makes.
    fn rebuild(&mut self) {
        self.synced.copy_from_slice(&self.current);
        for &i in &self.dirty {
            self.is_dirty[i as usize] = false;
        }
        self.dirty.clear();
        self.buckets.values_mut().for_each(Vec::clear);
        for i in 0..self.synced.len() {
            let key = self.key(self.synced[i]);
            self.buckets.entry(key).or_default().push(i as u32);
        }
        self.buckets.retain(|_, list| !list.is_empty());
    }

    /// Applies pending moves: per-point bucket transfers for scattered
    /// movement, or a full rebuild when at least half the points
    /// moved — the same buckets either way.
    fn sync(&mut self) {
        if self.dirty.is_empty() {
            return;
        }
        msn_obs::counter("pidx.syncs", 1);
        msn_obs::value("pidx.dirty", self.dirty.len() as f64);
        if 2 * self.dirty.len() >= self.current.len() {
            msn_obs::counter("pidx.rebuilds", 1);
            self.rebuild();
            return;
        }
        let mut dirty = std::mem::take(&mut self.dirty);
        for &i in &dirty {
            let iu = i as usize;
            self.is_dirty[iu] = false;
            let (from, to) = (self.synced[iu], self.current[iu]);
            if from == to {
                continue;
            }
            let old_key = self.key(from);
            let new_key = self.key(to);
            self.synced[iu] = to;
            if old_key == new_key {
                continue;
            }
            msn_obs::counter("pidx.bucket_moves", 1);
            let bucket = self.buckets.get_mut(&old_key).expect("point indexed");
            let at = bucket.binary_search(&i).expect("point in cell");
            // Vec::remove / sorted insert (not swap_remove + push):
            // ascending bucket order is what makes query results
            // identical to SpatialGrid's.
            bucket.remove(at);
            if bucket.is_empty() {
                self.buckets.remove(&old_key);
            }
            let bucket = self.buckets.entry(new_key).or_default();
            let at = bucket.binary_search(&i).expect_err("point was absent");
            bucket.insert(at, i);
        }
        // Hand the capacity back for the next batch of moves.
        dirty.clear();
        self.dirty = dirty;
    }

    /// Indices of all points within `r` of `center` (inclusive, under
    /// the shared [`crate::RANGE_EPS`] slack), including any point
    /// equal to `center` itself — byte-identical, order included, to
    /// `SpatialGrid::build(points, self.cell()).within(points, center, r)`
    /// on the current points.
    pub fn within(&mut self, center: Point, r: f64) -> Vec<usize> {
        self.sync();
        let mut out = Vec::with_capacity(16);
        // Exact cell bounds of the slack-padded reach (the same
        // minimal-window rule SpatialGrid::within uses).
        let reach = r + RANGE_EPS;
        let (cx_lo, cy_lo) = self.key(Point::new(center.x - reach, center.y - reach));
        let (cx_hi, cy_hi) = self.key(Point::new(center.x + reach, center.y + reach));
        for gx in cx_lo..=cx_hi {
            for gy in cy_lo..=cy_hi {
                let Some(bucket) = self.buckets.get(&(gx, gy)) else {
                    continue;
                };
                for &j in bucket {
                    if within_range(self.synced[j as usize], center, r) {
                        out.push(j as usize);
                    }
                }
            }
        }
        out
    }

    /// Indices of all points within `r` of point `i`, excluding `i`
    /// itself — byte-identical, order included, to
    /// `SpatialGrid::build(points, self.cell()).neighbors(points, i, r)`.
    pub fn neighbors_within(&mut self, i: usize, r: f64) -> Vec<usize> {
        let mut v = self.within(self.current[i], r);
        v.retain(|&j| j != i);
        v
    }

    /// Like [`PointIndex::neighbors_within`], but ordered as a
    /// `SpatialGrid::build(points, order_cell)` query would order it:
    /// ascending by `(⌊x/order_cell⌋, ⌊y/order_cell⌋, index)`.
    ///
    /// Call sites migrating off a per-tick grid whose cell size
    /// differs from this index's use this to keep tie-breaks (nearest
    /// neighbor scans, first-minimum folds) byte-identical to the
    /// grid they replace.
    pub fn neighbors_within_grid_order(&mut self, i: usize, r: f64, order_cell: f64) -> Vec<usize> {
        assert!(order_cell > 0.0, "order cell size must be positive");
        let mut v = self.neighbors_within(i, r);
        if order_cell != self.cell {
            v.sort_unstable_by_key(|&j| {
                let (gx, gy) = Self::key_at(self.synced[j], order_cell);
                (gx, gy, j)
            });
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SpatialGrid;

    fn oracle_neighbors(pts: &[Point], cell: f64, i: usize, r: f64) -> Vec<usize> {
        SpatialGrid::build(pts, cell).neighbors(pts, i, r)
    }

    #[test]
    fn moves_track_the_grid_oracle_in_order() {
        let mut pts = vec![
            Point::new(5.0, 5.0),
            Point::new(12.0, 5.0),
            Point::new(45.0, 45.0),
            Point::new(5.0, 14.0),
        ];
        let mut index = PointIndex::new(&pts, 10.0);
        for (i, p) in [
            (2, Point::new(8.0, 8.0)),
            (0, Point::new(44.0, 44.0)),
            (2, Point::new(9.0, 9.0)), // moves again before a query
            (3, Point::new(-3.0, -7.0)),
        ] {
            pts[i] = p;
            index.set_point(i, p);
            for q in 0..pts.len() {
                for r in [4.0, 10.0, 30.0] {
                    assert_eq!(
                        index.neighbors_within(q, r),
                        oracle_neighbors(&pts, 10.0, q, r),
                        "point {q} radius {r}"
                    );
                }
            }
        }
    }

    #[test]
    fn batched_moves_take_the_rebuild_path() {
        let mut pts: Vec<Point> = (0..12).map(|i| Point::new(7.0 * i as f64, 3.0)).collect();
        let mut index = PointIndex::new(&pts, 15.0);
        for (i, p) in pts.iter_mut().enumerate() {
            *p = Point::new(80.0 - 7.0 * i as f64, 9.0 * (i % 2) as f64);
            index.set_point(i, *p);
        }
        for q in 0..pts.len() {
            assert_eq!(
                index.neighbors_within(q, 15.0),
                oracle_neighbors(&pts, 15.0, q, 15.0)
            );
        }
    }

    #[test]
    fn grid_order_emulates_other_cell_sizes() {
        // Two neighbors whose scan order flips between cell sizes:
        // with cell 40 both share a bucket (ascending index), with
        // cell 10 the bucket scan meets them in reverse.
        let pts = vec![
            Point::new(5.0, 5.0),
            Point::new(15.0, 5.0), // cell-10 bucket (1,0)
            Point::new(6.0, 5.0),  // cell-10 bucket (0,0): scanned first
        ];
        let mut index = PointIndex::new(&pts, 40.0);
        assert_eq!(index.neighbors_within(0, 12.0), vec![1, 2]);
        for order_cell in [10.0, 3.0, 40.0] {
            assert_eq!(
                index.neighbors_within_grid_order(0, 12.0, order_cell),
                oracle_neighbors(&pts, order_cell, 0, 12.0),
                "order cell {order_cell}"
            );
        }
    }

    #[test]
    fn radius_beyond_cell_size_stays_exact() {
        let pts: Vec<Point> = (0..9)
            .map(|i| Point::new(20.0 * (i % 3) as f64, 20.0 * (i / 3) as f64))
            .collect();
        let mut index = PointIndex::new(&pts, 10.0);
        assert_eq!(
            index.neighbors_within(4, 45.0),
            oracle_neighbors(&pts, 10.0, 4, 45.0)
        );
    }

    #[test]
    fn duplicates_and_redundant_sets() {
        let pts = vec![Point::new(1.0, 1.0); 4];
        let mut index = PointIndex::new(&pts, 5.0);
        assert_eq!(index.within(Point::new(1.0, 1.0), 1.0).len(), 4);
        assert_eq!(index.neighbors_within(2, 1.0), vec![0, 1, 3]);
        for _ in 0..3 {
            index.set_point(1, pts[1]); // no-op moves reconcile cleanly
        }
        assert_eq!(index.neighbors_within(2, 1.0), vec![0, 1, 3]);
        assert_eq!(index.len(), 4);
        assert!(!index.is_empty());
        assert_eq!(index.cell(), 5.0);
        assert_eq!(index.point(2), pts[2]);
        assert_eq!(index.points(), &pts[..]);
    }

    #[test]
    fn empty_index() {
        let mut index = PointIndex::new(&[], 5.0);
        assert!(index.is_empty());
        assert!(index.within(Point::ORIGIN, 100.0).is_empty());
    }
}
