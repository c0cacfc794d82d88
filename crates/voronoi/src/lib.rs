//! Bounded and communication-restricted Voronoi cells.
//!
//! The VOR and Minimax deployment baselines (Wang et al., INFOCOM'04)
//! move every sensor according to its Voronoi cell. A real sensor can
//! only learn the positions of neighbors within its communication range
//! `rc`, so it computes a **restricted** cell from that subset — which
//! may be strictly larger than the true cell when `rc` is small
//! (Figure 1 of the paper). This crate provides both:
//!
//! * [`voronoi_cell`] — the exact cell of one site against every other
//!   site, clipped to a bounding rectangle;
//! * [`VoronoiDiagram::compute`] — the exact diagram, [`voronoi_cell`]
//!   for every site;
//! * [`restricted_cell`] — the cell a sensor would compute from a given
//!   neighbor subset;
//! * [`VoronoiCell::farthest_vertex`] / [`VoronoiCell::minimax_point`] —
//!   the two movement targets the baselines need.
//!
//! Cells are computed by iterative half-plane clipping of the bounding
//! rectangle: `O(k)` clips per cell for `k` sites considered, `O(n²)`
//! for the full diagram — ample for the few hundred sensors simulated.
//! A caller that needs only some true cells asks [`voronoi_cell`] for
//! those and skips the rest of the diagram.
//!
//! # Examples
//!
//! ```
//! use msn_geom::{Point, Rect};
//! use msn_voronoi::VoronoiDiagram;
//!
//! let sites = vec![Point::new(25.0, 50.0), Point::new(75.0, 50.0)];
//! let vd = VoronoiDiagram::compute(&sites, Rect::new(0.0, 0.0, 100.0, 100.0));
//! // The two half-field cells split the area evenly.
//! assert!((vd.cell(0).area() - 5000.0).abs() < 1e-6);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cell;
mod restricted;

pub use cell::VoronoiCell;
pub use restricted::{cells_match, restricted_cell};

use msn_geom::{Point, Rect};

/// The Voronoi diagram of a set of sites, bounded by a rectangle.
///
/// Cell `i` corresponds to site `i` of the input slice.
#[derive(Debug, Clone)]
pub struct VoronoiDiagram {
    cells: Vec<VoronoiCell>,
    bounds: Rect,
}

impl VoronoiDiagram {
    /// Computes the bounded Voronoi diagram of `sites`.
    ///
    /// Sites outside `bounds` still get (possibly empty) cells.
    /// Duplicate sites yield empty cells for all but one copy.
    ///
    /// # Panics
    ///
    /// Panics if `sites` is empty.
    pub fn compute(sites: &[Point], bounds: Rect) -> Self {
        assert!(!sites.is_empty(), "at least one site required");
        let cells = (0..sites.len())
            .map(|i| voronoi_cell(i, sites, bounds))
            .collect();
        VoronoiDiagram { cells, bounds }
    }

    /// The cell of site `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn cell(&self, i: usize) -> &VoronoiCell {
        &self.cells[i]
    }

    /// All cells, in site order.
    pub fn cells(&self) -> &[VoronoiCell] {
        &self.cells
    }

    /// The bounding rectangle the diagram was clipped to.
    pub fn bounds(&self) -> Rect {
        self.bounds
    }

    /// Number of cells (== number of sites).
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Returns `true` if the diagram has no cells.
    ///
    /// Always `false`: construction requires at least one site.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }
}

/// The exact Voronoi cell of `sites[site_idx]`: `bounds` clipped by the
/// bisector with every other site, in index order. This is cell
/// `site_idx` of [`VoronoiDiagram::compute`], without the other cells.
///
/// A duplicate site keeps its cell only as its lowest-index copy.
///
/// # Panics
///
/// Panics if `site_idx` is out of range.
///
/// # Examples
///
/// ```
/// use msn_geom::{Point, Rect};
/// use msn_voronoi::voronoi_cell;
///
/// let sites = vec![Point::new(25.0, 50.0), Point::new(75.0, 50.0)];
/// let cell = voronoi_cell(1, &sites, Rect::new(0.0, 0.0, 100.0, 100.0));
/// assert!((cell.area() - 5000.0).abs() < 1e-6);
/// ```
pub fn voronoi_cell(site_idx: usize, sites: &[Point], bounds: Rect) -> VoronoiCell {
    cell_of(
        site_idx,
        sites,
        (0..sites.len()).filter(|&j| j != site_idx),
        bounds,
    )
}

/// Computes the Voronoi cell of `sites[site_idx]` against an iterator of
/// competitor site indices, clipped to `bounds`.
pub(crate) fn cell_of<I>(site_idx: usize, sites: &[Point], others: I, bounds: Rect) -> VoronoiCell
where
    I: IntoIterator<Item = usize>,
{
    let site = sites[site_idx];
    let mut poly: Vec<Point> = bounds.to_polygon().vertices().to_vec();
    for j in others {
        if poly.is_empty() {
            break;
        }
        let other = sites[j];
        if other.approx_eq(site) {
            // Duplicate site: by convention the later index loses its cell.
            if j < site_idx {
                poly.clear();
            }
            continue;
        }
        poly = msn_geom::HalfPlane::bisector(site, other).clip(&poly);
    }
    VoronoiCell::new(site, poly)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bounds() -> Rect {
        Rect::new(0.0, 0.0, 100.0, 100.0)
    }

    #[test]
    fn single_site_owns_everything() {
        let vd = VoronoiDiagram::compute(&[Point::new(10.0, 10.0)], bounds());
        assert_eq!(vd.len(), 1);
        assert!(!vd.is_empty());
        assert!((vd.cell(0).area() - 10_000.0).abs() < 1e-6);
        assert_eq!(vd.bounds(), bounds());
    }

    #[test]
    fn two_sites_split_evenly() {
        let sites = vec![Point::new(25.0, 50.0), Point::new(75.0, 50.0)];
        let vd = VoronoiDiagram::compute(&sites, bounds());
        assert!((vd.cell(0).area() - 5000.0).abs() < 1e-6);
        assert!((vd.cell(1).area() - 5000.0).abs() < 1e-6);
        // every cell vertex of cell 0 has x <= 50
        for v in vd.cell(0).vertices() {
            assert!(v.x <= 50.0 + 1e-9);
        }
    }

    #[test]
    fn grid_sites_tile_area() {
        let mut sites = Vec::new();
        for i in 0..4 {
            for j in 0..4 {
                sites.push(Point::new(12.5 + 25.0 * i as f64, 12.5 + 25.0 * j as f64));
            }
        }
        let vd = VoronoiDiagram::compute(&sites, bounds());
        let total: f64 = vd.cells().iter().map(|c| c.area()).sum();
        assert!((total - 10_000.0).abs() < 1e-6);
        for c in vd.cells() {
            assert!((c.area() - 625.0).abs() < 1e-6, "uniform grid: equal cells");
        }
    }

    #[test]
    fn nearest_site_rule_holds_on_samples() {
        // Deterministic pseudo-random sites.
        let sites: Vec<Point> = (0..25)
            .map(|i| {
                let a = i as f64;
                Point::new(
                    50.0 + 49.0 * (a * 1.618).sin(),
                    50.0 + 49.0 * (a * 2.414).cos(),
                )
            })
            .collect();
        let vd = VoronoiDiagram::compute(&sites, bounds());
        for gx in 0..20 {
            for gy in 0..20 {
                let p = Point::new(2.5 + 5.0 * gx as f64, 2.5 + 5.0 * gy as f64);
                let nearest = (0..sites.len())
                    .min_by(|&a, &b| {
                        sites[a]
                            .dist_sq(p)
                            .partial_cmp(&sites[b].dist_sq(p))
                            .expect("finite")
                    })
                    .expect("non-empty");
                assert!(
                    vd.cell(nearest).contains(p),
                    "point {p} must lie in the cell of its nearest site"
                );
            }
        }
    }

    #[test]
    fn duplicate_sites_leave_one_cell() {
        let sites = vec![Point::new(50.0, 50.0), Point::new(50.0, 50.0)];
        let vd = VoronoiDiagram::compute(&sites, bounds());
        let a0 = vd.cell(0).area();
        let a1 = vd.cell(1).area();
        assert!((a0 + a1 - 10_000.0).abs() < 1e-6);
        assert!(a0 == 0.0 || a1 == 0.0);
    }
}
