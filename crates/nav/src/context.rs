//! Shared per-run navigation context: offset rings computed once per
//! `(field, clearance)` plus a segment-vs-edge bucket grid.
//!
//! Before this module every [`crate::Navigator`] re-offset *all*
//! obstacle polygons at construction and scanned every edge of every
//! ring on every segment probe. A [`NavContext`] is built once per
//! scheme run, shared by every navigator via [`std::sync::Arc`], and
//! answers the probe query (*first ring edge hit by this segment*)
//! from a bucket grid like the adjacency tracker's: each edge is
//! registered in every grid cell its bounding box touches, and a probe
//! only tests edges registered in the cells its own (padded) bounding
//! box overlaps.
//!
//! Bit-identity contract: [`NavContext::first_ring_hit`] returns
//! exactly what the linear scan
//! ([`NavContext::first_ring_hit_linear`]) returns — the minimum over
//! `(t, ring index, edge index)` in lexicographic order, with the same
//! `t > 1e-6 / len` near-start rejection and the same `skip_inside`
//! ring filtering. The property tests in `tests/properties.rs` pin
//! the two against each other over random fields and probes.

use crate::offset_polygon;
use msn_field::Field;
use msn_geom::{Point, Polygon, Rect, Segment};

/// Target number of bucket cells per axis for the edge grid.
const GRID_RES: usize = 64;

/// Padding applied to a probe's bounding box before collecting cells.
///
/// `Segment::first_hit` accepts intersections within small tolerances
/// (`EPS = 1e-9` relative), so a reported hit point can sit slightly
/// outside the edge's exact bounding box. The worst-case geometric
/// slack is well below a micrometer for the segment lengths this
/// workspace uses; a one-millimeter pad makes the candidate set
/// provably a superset of the linear scan's hits.
const QUERY_PAD: f64 = 1e-3;

/// Reusable per-navigator query scratch for [`NavContext`] probes.
///
/// Holds the stamp-based visited marks that deduplicate edges
/// registered in several grid cells and cache the per-ring
/// `skip_inside` test within one probe. Obtain one from
/// [`NavContext::scratch`]; it allocates once and is reused across
/// probes.
#[derive(Debug, Clone, Default)]
pub struct NavScratch {
    stamp: u64,
    edge_seen: Vec<u64>,
    ring_stamp: Vec<u64>,
    ring_skip: Vec<bool>,
}

impl NavScratch {
    fn begin(&mut self, n_edges: usize, n_rings: usize) {
        if self.edge_seen.len() < n_edges {
            self.edge_seen.resize(n_edges, 0);
        }
        if self.ring_stamp.len() < n_rings {
            self.ring_stamp.resize(n_rings, 0);
            self.ring_skip.resize(n_rings, false);
        }
        self.stamp += 1;
    }

    #[inline]
    fn first_visit(&mut self, eid: u32) -> bool {
        let seen = &mut self.edge_seen[eid as usize];
        if *seen == self.stamp {
            false
        } else {
            *seen = self.stamp;
            true
        }
    }
}

/// Offset obstacle rings plus an edge bucket grid, shared by every
/// navigator of one scheme run.
///
/// Build one with [`NavContext::new`] (default clearance) or
/// [`NavContext::with_clearance`], wrap it in an [`std::sync::Arc`],
/// and hand it to [`crate::Navigator::with_context`] /
/// [`crate::MultiLegPlan::with_context`]. The context is immutable
/// after construction, so sharing needs no locks.
#[derive(Debug, Clone)]
pub struct NavContext {
    rings: Vec<Polygon>,
    bounds: Rect,
    total_perimeter: f64,
    /// Flat edge array over all rings, in (ring, edge) order.
    edges: Vec<Segment>,
    edge_ring: Vec<u32>,
    edge_idx: Vec<u32>,
    grid_origin: Point,
    inv_cell: f64,
    nx: usize,
    ny: usize,
    /// CSR bucket layout: edge ids for cell `c` live at
    /// `cell_edges[cell_start[c]..cell_start[c + 1]]`.
    cell_start: Vec<u32>,
    cell_edges: Vec<u32>,
}

impl NavContext {
    /// Builds the context for `field` with the default wall clearance
    /// ([`crate::DEFAULT_CLEARANCE`]).
    pub fn new(field: &Field) -> Self {
        Self::with_clearance(field, crate::DEFAULT_CLEARANCE)
    }

    /// Builds the context keeping `clearance` meters from obstacle
    /// walls.
    ///
    /// # Panics
    ///
    /// Panics if `clearance` is negative.
    pub fn with_clearance(field: &Field, clearance: f64) -> Self {
        let _span = msn_obs::span("nav.context");
        let rings: Vec<Polygon> = field
            .obstacles()
            .iter()
            .map(|o| offset_polygon(o, clearance))
            .collect();
        let total_perimeter: f64 = rings.iter().map(Polygon::perimeter).sum();

        let mut edges = Vec::new();
        let mut edge_ring = Vec::new();
        let mut edge_idx = Vec::new();
        for (ri, ring) in rings.iter().enumerate() {
            for ei in 0..ring.len() {
                edges.push(ring.edge(ei));
                edge_ring.push(ri as u32);
                edge_idx.push(ei as u32);
            }
        }

        let mut ctx = NavContext {
            rings,
            bounds: field.bounds(),
            total_perimeter,
            edges,
            edge_ring,
            edge_idx,
            grid_origin: Point::ORIGIN,
            inv_cell: 0.0,
            nx: 0,
            ny: 0,
            cell_start: vec![0],
            cell_edges: Vec::new(),
        };
        ctx.build_grid();
        ctx
    }

    fn build_grid(&mut self) {
        if self.edges.is_empty() {
            return;
        }
        let mut min_x = f64::INFINITY;
        let mut min_y = f64::INFINITY;
        let mut max_x = f64::NEG_INFINITY;
        let mut max_y = f64::NEG_INFINITY;
        for e in &self.edges {
            min_x = min_x.min(e.a.x).min(e.b.x);
            min_y = min_y.min(e.a.y).min(e.b.y);
            max_x = max_x.max(e.a.x).max(e.b.x);
            max_y = max_y.max(e.a.y).max(e.b.y);
        }
        let w = (max_x - min_x).max(1e-9);
        let h = (max_y - min_y).max(1e-9);
        let cell = (w.max(h) / GRID_RES as f64).max(1.0);
        self.grid_origin = Point::new(min_x, min_y);
        self.inv_cell = 1.0 / cell;
        self.nx = (w / cell).floor() as usize + 1;
        self.ny = (h / cell).floor() as usize + 1;

        let ncells = self.nx * self.ny;
        let mut counts = vec![0u32; ncells];
        let ranges: Vec<(usize, usize, usize, usize)> = self
            .edges
            .iter()
            .map(|e| {
                let (gx0, gx1) = self
                    .axis_range(
                        e.a.x.min(e.b.x),
                        e.a.x.max(e.b.x),
                        self.grid_origin.x,
                        self.nx,
                    )
                    .expect("edge lies inside the grid bbox by construction");
                let (gy0, gy1) = self
                    .axis_range(
                        e.a.y.min(e.b.y),
                        e.a.y.max(e.b.y),
                        self.grid_origin.y,
                        self.ny,
                    )
                    .expect("edge lies inside the grid bbox by construction");
                (gx0, gx1, gy0, gy1)
            })
            .collect();
        for &(gx0, gx1, gy0, gy1) in &ranges {
            for gy in gy0..=gy1 {
                for gx in gx0..=gx1 {
                    counts[gy * self.nx + gx] += 1;
                }
            }
        }
        let mut cell_start = Vec::with_capacity(ncells + 1);
        let mut acc = 0u32;
        cell_start.push(0);
        for &c in &counts {
            acc += c;
            cell_start.push(acc);
        }
        let mut cursor: Vec<u32> = cell_start[..ncells].to_vec();
        let mut cell_edges = vec![0u32; acc as usize];
        for (eid, &(gx0, gx1, gy0, gy1)) in ranges.iter().enumerate() {
            for gy in gy0..=gy1 {
                for gx in gx0..=gx1 {
                    let c = gy * self.nx + gx;
                    cell_edges[cursor[c] as usize] = eid as u32;
                    cursor[c] += 1;
                }
            }
        }
        self.cell_start = cell_start;
        self.cell_edges = cell_edges;
    }

    /// Grid cells overlapped by `[lo, hi]` on one axis, clamped to the
    /// grid; `None` when the interval misses the grid entirely.
    #[inline]
    fn axis_range(&self, lo: f64, hi: f64, origin: f64, n: usize) -> Option<(usize, usize)> {
        let g0 = ((lo - origin) * self.inv_cell).floor();
        let g1 = ((hi - origin) * self.inv_cell).floor();
        if g1 < 0.0 || g0 >= n as f64 {
            return None;
        }
        Some((g0.max(0.0) as usize, (g1 as usize).min(n - 1)))
    }

    /// The offset obstacle rings (one inflated polygon per obstacle).
    #[inline]
    pub fn rings(&self) -> &[Polygon] {
        &self.rings
    }

    /// The field bounds positions are clamped into.
    #[inline]
    pub fn bounds(&self) -> Rect {
        self.bounds
    }

    /// Sum of all ring perimeters (drives BUG2 travel caps).
    #[inline]
    pub fn total_perimeter(&self) -> f64 {
        self.total_perimeter
    }

    /// A query scratch sized for this context.
    pub fn scratch(&self) -> NavScratch {
        NavScratch {
            stamp: 0,
            edge_seen: vec![0; self.edges.len()],
            ring_stamp: vec![0; self.rings.len()],
            ring_skip: vec![false; self.rings.len()],
        }
    }

    #[inline]
    fn ring_skipped(&self, scratch: &mut NavScratch, ri: usize, a: Point) -> bool {
        if scratch.ring_stamp[ri] != scratch.stamp {
            scratch.ring_stamp[ri] = scratch.stamp;
            let ring = &self.rings[ri];
            scratch.ring_skip[ri] = ring.contains(a) && ring.boundary_dist(a) > 1e-6;
        }
        scratch.ring_skip[ri]
    }

    /// First boundary hit of `seg` against the rings, via the edge
    /// bucket grid.
    ///
    /// Semantics are identical to
    /// [`NavContext::first_ring_hit_linear`]: hits in the first
    /// micro-meter are skipped (so motion away from a wall the sensor
    /// stands on is not self-blocking), `exclude` skips one ring (the
    /// one currently being followed), and `skip_inside` skips rings
    /// whose interior strictly contains the segment start. Returns the
    /// lexicographically smallest `(t, ring index, edge index)`.
    pub fn first_ring_hit(
        &self,
        scratch: &mut NavScratch,
        seg: &Segment,
        exclude: Option<usize>,
        skip_inside: bool,
    ) -> Option<(f64, usize, usize)> {
        let len = seg.length();
        if len <= 1e-12 || self.edges.is_empty() {
            return None;
        }
        let t_min = 1e-6 / len;
        let (gx0, gx1) = self.axis_range(
            seg.a.x.min(seg.b.x) - QUERY_PAD,
            seg.a.x.max(seg.b.x) + QUERY_PAD,
            self.grid_origin.x,
            self.nx,
        )?;
        let (gy0, gy1) = self.axis_range(
            seg.a.y.min(seg.b.y) - QUERY_PAD,
            seg.a.y.max(seg.b.y) + QUERY_PAD,
            self.grid_origin.y,
            self.ny,
        )?;
        scratch.begin(self.edges.len(), self.rings.len());
        let mut best: Option<(f64, usize, usize)> = None;
        let mut tested = 0u64;
        for gy in gy0..=gy1 {
            for gx in gx0..=gx1 {
                let c = gy * self.nx + gx;
                let bucket =
                    &self.cell_edges[self.cell_start[c] as usize..self.cell_start[c + 1] as usize];
                for &eid in bucket {
                    if !scratch.first_visit(eid) {
                        continue;
                    }
                    let ri = self.edge_ring[eid as usize] as usize;
                    if Some(ri) == exclude {
                        continue;
                    }
                    if skip_inside && self.ring_skipped(scratch, ri, seg.a) {
                        continue;
                    }
                    tested += 1;
                    if let Some(t) = seg.first_hit(&self.edges[eid as usize]) {
                        if t > t_min {
                            let ei = self.edge_idx[eid as usize] as usize;
                            let better = match best {
                                None => true,
                                Some((bt, bri, bei)) => {
                                    t < bt || (t == bt && (ri, ei) < (bri, bei))
                                }
                            };
                            if better {
                                best = Some((t, ri, ei));
                            }
                        }
                    }
                }
            }
        }
        msn_obs::counter("nav.edge_tests", tested);
        if best.is_some() {
            msn_obs::counter("nav.ring_hits", 1);
        }
        best
    }

    /// Reference linear scan over every edge of every ring — the
    /// oracle [`NavContext::first_ring_hit`] is property-tested
    /// against, kept callable for the kernels benchmark.
    pub fn first_ring_hit_linear(
        &self,
        seg: &Segment,
        exclude: Option<usize>,
        skip_inside: bool,
    ) -> Option<(f64, usize, usize)> {
        let len = seg.length();
        if len <= 1e-12 {
            return None;
        }
        let t_min = 1e-6 / len;
        let mut best: Option<(f64, usize, usize)> = None;
        for (i, ring) in self.rings.iter().enumerate() {
            if Some(i) == exclude {
                continue;
            }
            if skip_inside && ring.contains(seg.a) && ring.boundary_dist(seg.a) > 1e-6 {
                continue;
            }
            for ei in 0..ring.len() {
                if let Some(t) = seg.first_hit(&ring.edge(ei)) {
                    if t > t_min && best.is_none_or(|(bt, _, _)| t < bt) {
                        best = Some((t, i, ei));
                    }
                }
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msn_geom::Rect;

    fn two_obstacle_ctx() -> NavContext {
        let f = Field::with_obstacles(
            200.0,
            100.0,
            vec![
                Rect::new(40.0, 30.0, 70.0, 70.0).to_polygon(),
                Rect::new(110.0, 20.0, 140.0, 60.0).to_polygon(),
            ],
        );
        NavContext::new(&f)
    }

    #[test]
    fn indexed_matches_linear_on_crossing_probes() {
        let ctx = two_obstacle_ctx();
        let mut scratch = ctx.scratch();
        for i in 0..40 {
            let y = 2.0 + 2.4 * i as f64;
            let seg = Segment::new(Point::new(5.0, y), Point::new(195.0, 100.0 - y));
            for skip_inside in [false, true] {
                for exclude in [None, Some(0), Some(1)] {
                    assert_eq!(
                        ctx.first_ring_hit(&mut scratch, &seg, exclude, skip_inside),
                        ctx.first_ring_hit_linear(&seg, exclude, skip_inside),
                        "probe {seg:?} exclude {exclude:?} skip {skip_inside}"
                    );
                }
            }
        }
    }

    #[test]
    fn degenerate_probe_returns_none() {
        let ctx = two_obstacle_ctx();
        let mut scratch = ctx.scratch();
        let p = Point::new(39.4, 50.0);
        let seg = Segment::new(p, p);
        assert_eq!(ctx.first_ring_hit(&mut scratch, &seg, None, true), None);
        assert_eq!(ctx.first_ring_hit_linear(&seg, None, true), None);
    }

    #[test]
    fn open_field_has_no_hits() {
        let f = Field::open(100.0, 100.0);
        let ctx = NavContext::new(&f);
        let mut scratch = ctx.scratch();
        let seg = Segment::new(Point::new(1.0, 1.0), Point::new(99.0, 99.0));
        assert_eq!(ctx.first_ring_hit(&mut scratch, &seg, None, true), None);
        assert_eq!(ctx.rings().len(), 0);
    }

    #[test]
    fn probe_outside_grid_misses_cheaply() {
        let ctx = two_obstacle_ctx();
        let mut scratch = ctx.scratch();
        // Far above every ring: the padded bbox misses the grid.
        let seg = Segment::new(Point::new(10.0, 95.0), Point::new(30.0, 99.0));
        assert_eq!(
            ctx.first_ring_hit(&mut scratch, &seg, None, true),
            ctx.first_ring_hit_linear(&seg, None, true),
        );
    }
}
