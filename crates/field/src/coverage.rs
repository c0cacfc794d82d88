//! Raster coverage measurement.

use crate::Field;
use msn_geom::Point;

/// A raster over the field's free space used to measure sensing
/// coverage — the paper's metric "fraction of area covered by at least
/// one sensor".
///
/// Cells whose centers fall inside obstacles are excluded from the
/// denominator, so coverage is measured over *reachable* area only.
///
/// # Examples
///
/// ```
/// use msn_field::{CoverageGrid, Field};
/// use msn_geom::Point;
///
/// let field = Field::open(100.0, 100.0);
/// let grid = CoverageGrid::new(&field, 2.0);
/// // One sensor in the middle with rs = 50 covers roughly a quarter
/// // circle... no — the full disk of radius 50 clipped to the square:
/// let cov = grid.coverage(&[Point::new(50.0, 50.0)], 50.0);
/// assert!((cov - std::f64::consts::PI * 2500.0 / 10_000.0).abs() < 0.02);
/// ```
#[derive(Debug, Clone)]
pub struct CoverageGrid {
    origin: Point,
    cell: f64,
    nx: usize,
    ny: usize,
    free: Vec<bool>,
    free_count: usize,
}

impl CoverageGrid {
    /// Builds a grid over `field` with square cells of side `cell`
    /// meters.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is not strictly positive.
    pub fn new(field: &Field, cell: f64) -> Self {
        assert!(cell > 0.0, "cell size must be positive");
        let b = field.bounds();
        let nx = (b.width() / cell).ceil() as usize;
        let ny = (b.height() / cell).ceil() as usize;
        let mut free = vec![false; nx * ny];
        let mut free_count = 0;
        for iy in 0..ny {
            for ix in 0..nx {
                let p = Point::new(
                    b.min.x + (ix as f64 + 0.5) * cell,
                    b.min.y + (iy as f64 + 0.5) * cell,
                );
                if field.in_bounds(p) && field.is_free(p) {
                    free[iy * nx + ix] = true;
                    free_count += 1;
                }
            }
        }
        CoverageGrid {
            origin: b.min,
            cell,
            nx,
            ny,
            free,
            free_count,
        }
    }

    /// Grid width in cells.
    #[inline]
    pub fn nx(&self) -> usize {
        self.nx
    }

    /// Grid height in cells.
    #[inline]
    pub fn ny(&self) -> usize {
        self.ny
    }

    /// Cell side length in meters.
    #[inline]
    pub fn cell_size(&self) -> f64 {
        self.cell
    }

    /// Number of free (non-obstacle) cells.
    #[inline]
    pub fn free_cells(&self) -> usize {
        self.free_count
    }

    /// Center point of cell `(ix, iy)`.
    #[inline]
    pub fn cell_center(&self, ix: usize, iy: usize) -> Point {
        Point::new(
            self.origin.x + (ix as f64 + 0.5) * self.cell,
            self.origin.y + (iy as f64 + 0.5) * self.cell,
        )
    }

    /// `true` when the center of cell `(ix, iy)` passes the disk
    /// membership test — the single authoritative predicate both stamp
    /// kernels share.
    #[inline]
    fn center_in_disk(&self, ix: usize, iy: usize, s: Point, rs_sq: f64) -> bool {
        self.cell_center(ix, iy).dist_sq(s) <= rs_sq
    }

    /// Calls `f` with the flat index of every *free* cell whose center
    /// lies within `rs` of `s` — the scanline stamp kernel.
    ///
    /// This is the one disk-rasterization kernel behind
    /// [`CoverageGrid::covered_mask`], [`CoverageGrid::covered_count`]
    /// and the incremental [`crate::CoverageTracker`]: the visited set
    /// is exactly `{free (ix, iy) : dist(center, s) <= rs}`, so every
    /// consumer agrees with the others bit-for-bit. Per row, the
    /// squared center distance is weakly unimodal in the column index
    /// (monotone |Δx| into a monotone square, plus a constant), so the
    /// passing columns form one contiguous interval: the kernel
    /// refines the conservative chord window to that interval with a
    /// handful of boundary distance tests and then stamps the interior
    /// as a straight run over the free bitmap — no per-cell distance
    /// test. [`CoverageGrid::disk_free_cells_chord`] keeps the
    /// per-cell-test kernel as the property-tested oracle.
    #[inline]
    pub(crate) fn disk_free_cells(&self, s: Point, rs: f64, f: &mut impl FnMut(usize)) {
        let r_cells = (rs / self.cell).ceil() as isize + 1;
        let rs_sq = rs * rs;
        let cx = ((s.x - self.origin.x) / self.cell - 0.5).round() as isize;
        let cy = ((s.y - self.origin.y) / self.cell - 0.5).round() as isize;
        for dy in -r_cells..=r_cells {
            let iy = cy + dy;
            if iy < 0 || iy >= self.ny as isize {
                continue;
            }
            let center_y = self.origin.y + (iy as f64 + 0.5) * self.cell;
            let rem = rs_sq - (center_y - s.y) * (center_y - s.y);
            if rem < 0.0 {
                continue; // the whole row lies outside the disk
            }
            // Chord half-width in cells, padded so float rounding can
            // never exclude a center the distance test would accept.
            let half = (rem.sqrt() / self.cell) as isize + 2;
            let lo = (cx - half.min(r_cells)).max(0);
            let hi = (cx + half.min(r_cells)).min(self.nx as isize - 1);
            if lo > hi {
                continue;
            }
            let iyu = iy as usize;
            // Shrink the padded window to the exact passing interval
            // (the pad is at most a few cells, so this is a handful of
            // distance tests per row).
            let mut a = lo;
            while a <= hi && !self.center_in_disk(a as usize, iyu, s, rs_sq) {
                a += 1;
            }
            if a > hi {
                continue;
            }
            let mut b = hi;
            while b > a && !self.center_in_disk(b as usize, iyu, s, rs_sq) {
                b -= 1;
            }
            // Stamp the interval as a straight slice walk: one bounds
            // check for the whole run instead of one per cell, and no
            // distance math left in the loop.
            let start = iyu * self.nx + a as usize;
            let run = &self.free[start..=start + (b - a) as usize];
            for (off, &fr) in run.iter().enumerate() {
                if fr {
                    f(start + off);
                }
            }
        }
    }

    /// The pre-scanline stamp kernel: same visited set as
    /// [`CoverageGrid::disk_free_cells`], computed with a per-cell
    /// distance test over the padded chord window. Kept as the oracle
    /// for the scanline kernel's property tests and benchmark pair.
    #[inline]
    pub(crate) fn disk_free_cells_chord(&self, s: Point, rs: f64, f: &mut impl FnMut(usize)) {
        let r_cells = (rs / self.cell).ceil() as isize + 1;
        let rs_sq = rs * rs;
        let cx = ((s.x - self.origin.x) / self.cell - 0.5).round() as isize;
        let cy = ((s.y - self.origin.y) / self.cell - 0.5).round() as isize;
        for dy in -r_cells..=r_cells {
            let iy = cy + dy;
            if iy < 0 || iy >= self.ny as isize {
                continue;
            }
            let center_y = self.origin.y + (iy as f64 + 0.5) * self.cell;
            let rem = rs_sq - (center_y - s.y) * (center_y - s.y);
            if rem < 0.0 {
                continue;
            }
            let half = (rem.sqrt() / self.cell) as isize + 2;
            let lo = (cx - half.min(r_cells)).max(0);
            let hi = (cx + half.min(r_cells)).min(self.nx as isize - 1);
            let row = iy as usize * self.nx;
            for ix in lo..=hi {
                let idx = row + ix as usize;
                if !self.free[idx] {
                    continue;
                }
                if self.center_in_disk(ix as usize, iy as usize, s, rs_sq) {
                    f(idx);
                }
            }
        }
    }

    /// Flat indices of the free cells one disk stamp visits, in visit
    /// order — the scanline kernel, exposed for property tests and the
    /// kernels benchmark.
    pub fn disk_cells(&self, s: Point, rs: f64) -> Vec<usize> {
        let mut out = Vec::new();
        self.disk_free_cells(s, rs, &mut |idx| out.push(idx));
        out
    }

    /// Flat indices of the free cells the chord-window oracle kernel
    /// visits, in visit order. [`CoverageGrid::disk_cells`] must match
    /// this exactly.
    pub fn disk_cells_chord(&self, s: Point, rs: f64) -> Vec<usize> {
        let mut out = Vec::new();
        self.disk_free_cells_chord(s, rs, &mut |idx| out.push(idx));
        out
    }

    /// Marks every free cell within `rs` of any sensor and returns the
    /// boolean mask (row-major, `ny` rows of `nx`).
    pub fn covered_mask(&self, sensors: &[Point], rs: f64) -> Vec<bool> {
        let mut mask = Vec::new();
        self.covered_mask_into(sensors, rs, &mut mask);
        mask
    }

    /// Like [`CoverageGrid::covered_mask`], but reuses `mask` as the
    /// scratch buffer (cleared and resized to `nx · ny`) and returns
    /// the number of covered free cells, so hot callers measure
    /// coverage without any per-measurement allocation or a second
    /// pass over the raster.
    pub fn covered_mask_into(&self, sensors: &[Point], rs: f64, mask: &mut Vec<bool>) -> usize {
        mask.clear();
        mask.resize(self.nx * self.ny, false);
        let mut covered = 0usize;
        for s in sensors {
            self.disk_free_cells(*s, rs, &mut |idx| {
                if !mask[idx] {
                    mask[idx] = true;
                    covered += 1;
                }
            });
        }
        covered
    }

    /// Number of free cells covered by at least one sensing disk of
    /// radius `rs` centered at `sensors`.
    pub fn covered_count(&self, sensors: &[Point], rs: f64) -> usize {
        let mut mask = Vec::new();
        self.covered_mask_into(sensors, rs, &mut mask)
    }

    /// Fraction of free cells covered by at least one sensing disk of
    /// radius `rs` centered at `sensors`.
    ///
    /// Returns 0 when the field has no free cells.
    pub fn coverage(&self, sensors: &[Point], rs: f64) -> f64 {
        let mut mask = Vec::new();
        self.coverage_into(sensors, rs, &mut mask)
    }

    /// Like [`CoverageGrid::coverage`], but reuses `mask` as the
    /// scratch buffer (see [`CoverageGrid::covered_mask_into`]) so
    /// callers measuring coverage repeatedly allocate nothing per
    /// measurement.
    ///
    /// Returns 0 when the field has no free cells.
    pub fn coverage_into(&self, sensors: &[Point], rs: f64, mask: &mut Vec<bool>) -> f64 {
        if self.free_count == 0 {
            return 0.0;
        }
        self.covered_mask_into(sensors, rs, mask) as f64 / self.free_count as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msn_geom::Rect;

    #[test]
    fn empty_sensor_set_covers_nothing() {
        let f = Field::open(100.0, 100.0);
        let g = CoverageGrid::new(&f, 5.0);
        assert_eq!(g.coverage(&[], 10.0), 0.0);
        assert_eq!(g.free_cells(), 400);
        assert_eq!(g.nx(), 20);
        assert_eq!(g.ny(), 20);
        assert_eq!(g.cell_size(), 5.0);
    }

    #[test]
    fn full_coverage_with_huge_disk() {
        let f = Field::open(100.0, 100.0);
        let g = CoverageGrid::new(&f, 5.0);
        let cov = g.coverage(&[Point::new(50.0, 50.0)], 200.0);
        assert_eq!(cov, 1.0);
    }

    #[test]
    fn disk_area_matches_analytic_value() {
        let f = Field::open(1000.0, 1000.0);
        let g = CoverageGrid::new(&f, 2.0);
        let cov = g.coverage(&[Point::new(500.0, 500.0)], 100.0);
        let expected = std::f64::consts::PI * 100.0 * 100.0 / 1_000_000.0;
        assert!(
            (cov - expected).abs() < 0.001,
            "got {cov}, expected {expected}"
        );
    }

    #[test]
    fn obstacle_cells_excluded_from_denominator() {
        let f = Field::with_obstacles(
            100.0,
            100.0,
            vec![Rect::new(0.0, 0.0, 50.0, 100.0).to_polygon()],
        );
        let g = CoverageGrid::new(&f, 2.0);
        // covering the entire right half covers 100% of free space
        let sensors: Vec<Point> = (0..10)
            .flat_map(|i| {
                (0..10).map(move |j| Point::new(52.0 + 5.0 * i as f64, 5.0 + 10.0 * j as f64))
            })
            .collect();
        let cov = g.coverage(&sensors, 12.0);
        assert!(cov > 0.99, "got {cov}");
    }

    #[test]
    fn coverage_is_monotone_in_sensors() {
        let f = Field::open(200.0, 200.0);
        let g = CoverageGrid::new(&f, 4.0);
        let s1 = vec![Point::new(50.0, 50.0)];
        let s2 = vec![Point::new(50.0, 50.0), Point::new(150.0, 150.0)];
        assert!(g.coverage(&s2, 30.0) >= g.coverage(&s1, 30.0));
    }

    #[test]
    fn sensors_outside_field_still_cover_edge_cells() {
        let f = Field::open(100.0, 100.0);
        let g = CoverageGrid::new(&f, 2.0);
        let cov = g.coverage(&[Point::new(-10.0, 50.0)], 20.0);
        assert!(cov > 0.0);
    }

    #[test]
    fn mask_count_and_reused_scratch_agree() {
        let f = Field::with_obstacles(
            200.0,
            200.0,
            vec![Rect::new(40.0, 40.0, 120.0, 90.0).to_polygon()],
        );
        let g = CoverageGrid::new(&f, 4.0);
        let sensors = vec![
            Point::new(10.0, 10.0),
            Point::new(150.0, 60.0),
            Point::new(-5.0, 190.0), // off-field sensor clips cleanly
        ];
        let mask = g.covered_mask(&sensors, 35.0);
        let brute = mask.iter().filter(|&&c| c).count();
        assert_eq!(g.covered_count(&sensors, 35.0), brute);
        // reusing a dirty, wrongly-sized scratch must not leak state
        let mut scratch = vec![true; 3];
        let count = g.covered_mask_into(&sensors, 35.0, &mut scratch);
        assert_eq!(count, brute);
        assert_eq!(scratch, mask);
    }

    #[test]
    fn scanline_stamp_matches_chord_oracle() {
        let f = Field::with_obstacles(
            100.0,
            100.0,
            vec![Rect::new(20.0, 20.0, 80.0, 80.0).to_polygon()],
        );
        let g = CoverageGrid::new(&f, 3.0);
        for (s, rs) in [
            (Point::new(50.0, 50.0), 40.0),
            (Point::new(0.0, 0.0), 25.0),
            (Point::new(-10.0, 103.0), 30.0), // off-field sensor
            (Point::new(49.5, 49.5), 0.0),    // degenerate disk
            (Point::new(10.5, 10.5), 1.5),    // center on cell boundary
        ] {
            assert_eq!(
                g.disk_cells(s, rs),
                g.disk_cells_chord(s, rs),
                "s={s} rs={rs}"
            );
        }
    }

    #[test]
    fn coverage_into_matches_coverage() {
        let f = Field::open(100.0, 100.0);
        let g = CoverageGrid::new(&f, 2.0);
        let sensors = vec![Point::new(30.0, 40.0), Point::new(70.0, 60.0)];
        let mut scratch = Vec::new();
        let a = g.coverage(&sensors, 25.0);
        let b = g.coverage_into(&sensors, 25.0, &mut scratch);
        assert_eq!(a.to_bits(), b.to_bits());
    }

    #[test]
    fn covered_cells_are_always_free() {
        let f = Field::with_obstacles(
            100.0,
            100.0,
            vec![Rect::new(20.0, 20.0, 80.0, 80.0).to_polygon()],
        );
        let g = CoverageGrid::new(&f, 5.0);
        let mask = g.covered_mask(&[Point::new(50.0, 50.0)], 60.0);
        for iy in 0..g.ny() {
            for ix in 0..g.nx() {
                if mask[iy * g.nx() + ix] {
                    let c = g.cell_center(ix, iy);
                    assert!(f.in_bounds(c) && f.is_free(c));
                }
            }
        }
    }
}
