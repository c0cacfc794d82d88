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
    /// `u64` words per raster row.
    words: usize,
    /// Free-cell bitmap, row-major: cell `(ix, iy)` is bit `ix % 64`
    /// of word `iy * words + ix / 64`. Bits past `nx` stay clear.
    free: Vec<u64>,
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
        let words = nx.div_ceil(64);
        // Cell-center coordinates, ascending.
        let xs: Vec<f64> = (0..nx)
            .map(|ix| b.min.x + (ix as f64 + 0.5) * cell)
            .collect();
        let ys: Vec<f64> = (0..ny)
            .map(|iy| b.min.y + (iy as f64 + 0.5) * cell)
            .collect();
        // `Field::is_free` is the bounds test and no obstacle. The
        // bounds test is separable (`Rect::contains` tests x and y
        // apart, and the center passes both): one row mask of the
        // columns whose center x passes, copied into every row whose
        // center y does.
        let mid = b.center();
        let mut row = vec![0u64; words];
        for (ix, &x) in xs.iter().enumerate() {
            if b.contains(Point::new(x, mid.y)) {
                row[ix / 64] |= 1 << (ix % 64);
            }
        }
        let mut free = vec![0u64; ny * words];
        for (iy, &y) in ys.iter().enumerate() {
            if b.contains(Point::new(mid.x, y)) {
                free[iy * words..(iy + 1) * words].copy_from_slice(&row);
            }
        }
        // An obstacle contains no point outside its padded box, so only
        // the centers inside the box are tested against the polygon.
        let span = |cs: &[f64], min: f64, max: f64| {
            cs.partition_point(|&c| c < min)..cs.partition_point(|&c| c <= max)
        };
        for (obstacle, bx) in field.obstacles().iter().zip(&field.boxes) {
            let cols = span(&xs, bx.min.x, bx.max.x);
            for iy in span(&ys, bx.min.y, bx.max.y) {
                for ix in cols.clone() {
                    if obstacle.contains(Point::new(xs[ix], ys[iy])) {
                        free[iy * words + ix / 64] &= !(1 << (ix % 64));
                    }
                }
            }
        }
        let free_count = free.iter().map(|w| w.count_ones() as usize).sum();
        CoverageGrid {
            origin: b.min,
            cell,
            nx,
            ny,
            words,
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

    #[inline]
    fn is_free(&self, ix: usize, iy: usize) -> bool {
        self.free[iy * self.words + ix / 64] >> (ix % 64) & 1 == 1
    }

    /// `true` when the center of cell `(ix, iy)` passes the disk
    /// membership test — the single authoritative predicate both disk
    /// kernels share.
    #[inline]
    fn center_in_disk(&self, ix: usize, iy: usize, s: Point, rs_sq: f64) -> bool {
        self.cell_center(ix, iy).dist_sq(s) <= rs_sq
    }

    /// Calls `f(iy, a, b)` for every raster row the disk of radius
    /// `rs` around `s` reaches, where `[a, b]` is the exact column
    /// interval whose centers pass the disk test — free or not.
    ///
    /// This is the one disk kernel behind [`CoverageGrid::coverage`].
    /// Per row, the squared center distance is weakly unimodal in the
    /// column index (monotone |Δx| into a monotone square, plus a
    /// constant), so the passing columns form one contiguous interval
    /// inside the chord oracle's padded window. The kernel guesses the
    /// interval's ends from the chord and confirms each with the disk
    /// test (two tests per end when the guess is right); a guess that
    /// fails the test falls back to shrinking the padded window. Rows
    /// and windows are clipped to the raster before any test, so a
    /// disk that misses the raster costs at most O(rows) and never a
    /// full-row scan. [`CoverageGrid::disk_cells_chord`] keeps the
    /// per-cell-test kernel as the property-tested oracle.
    #[inline]
    fn row_spans(&self, s: Point, rs: f64, f: &mut impl FnMut(usize, usize, usize)) {
        let r_cells = (rs / self.cell).ceil() as isize + 1;
        let rs_sq = rs * rs;
        // The sensor's column coordinate, in cells from the first center.
        let u = (s.x - self.origin.x) / self.cell - 0.5;
        let cx = u.round() as isize;
        let cy = ((s.y - self.origin.y) / self.cell - 0.5).round() as isize;
        let (nx, ny) = (self.nx as isize, self.ny as isize);
        for iy in (cy - r_cells).max(0)..=(cy + r_cells).min(ny - 1) {
            let center_y = self.origin.y + (iy as f64 + 0.5) * self.cell;
            let rem = rs_sq - (center_y - s.y) * (center_y - s.y);
            if rem < 0.0 {
                continue; // the whole row lies outside the disk
            }
            let chord = rem.sqrt() / self.cell;
            // The oracle's window, padded so float rounding can never
            // exclude a center the distance test would accept.
            let half = (chord as isize + 2).min(r_cells);
            let lo = (cx - half).max(0);
            let hi = (cx + half).min(nx - 1);
            if lo > hi {
                continue;
            }
            let iyu = iy as usize;
            let inside = |ix: isize| self.center_in_disk(ix as usize, iyu, s, rs_sq);
            // Truncating casts, not `ceil`/`floor`: a guess only has to
            // be near the end it names, and baseline x86-64 lowers
            // `ceil`/`floor` to libm calls.
            let mut a = ((u - chord) as isize + 1).clamp(lo, hi);
            let mut b = ((u + chord) as isize).clamp(lo, hi);
            if a <= b && inside(a) && inside(b) {
                // [a, b] passes, so by contiguity the interval is [a, b]
                // grown while its neighbours pass.
                while a > lo && inside(a - 1) {
                    a -= 1;
                }
                while b < hi && inside(b + 1) {
                    b += 1;
                }
            } else {
                a = lo;
                while a <= hi && !inside(a) {
                    a += 1;
                }
                if a > hi {
                    continue;
                }
                b = hi;
                while b > a && !inside(b) {
                    b -= 1;
                }
            }
            f(iyu, a as usize, b as usize);
        }
    }

    /// The per-cell-test disk kernel: calls `f` with the flat index of
    /// every free cell whose center lies within `rs` of `s`, testing
    /// each cell of the padded chord window. Kept as the oracle for
    /// the row-span kernel's property tests and benchmark pair.
    #[inline]
    fn disk_free_cells_chord(&self, s: Point, rs: f64, f: &mut impl FnMut(usize)) {
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
            for ix in lo..=hi {
                let (ix, iy) = (ix as usize, iy as usize);
                if self.is_free(ix, iy) && self.center_in_disk(ix, iy, s, rs_sq) {
                    f(iy * self.nx + ix);
                }
            }
        }
    }

    /// Flat indices (`iy · nx + ix`) of the free cells inside the row
    /// spans of one disk, in row-major order — the row-span kernel,
    /// exposed for property tests and the kernels benchmark.
    pub fn disk_cells(&self, s: Point, rs: f64) -> Vec<usize> {
        let mut out = Vec::new();
        self.row_spans(s, rs, &mut |iy, a, b| {
            out.extend(
                (a..=b)
                    .filter(|&ix| self.is_free(ix, iy))
                    .map(|ix| iy * self.nx + ix),
            );
        });
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
    /// boolean mask (row-major, `ny` rows of `nx`). Built with the
    /// per-cell-test oracle kernel: this is the reference the
    /// row-span count is tested against.
    pub fn covered_mask(&self, sensors: &[Point], rs: f64) -> Vec<bool> {
        let mut mask = vec![false; self.nx * self.ny];
        for s in sensors {
            self.disk_free_cells_chord(*s, rs, &mut |idx| mask[idx] = true);
        }
        mask
    }

    /// Number of free cells covered by at least one sensing disk of
    /// radius `rs` centered at `sensors` — the row-span count: ORs each
    /// disk's row spans into a covered bitmap a word at a time and
    /// returns the popcount of covered AND free.
    pub fn covered_count(&self, sensors: &[Point], rs: f64) -> usize {
        msn_obs::counter("cov.samples", 1);
        let mut bits = vec![0u64; self.free.len()];
        let words = self.words;
        for s in sensors {
            self.row_spans(*s, rs, &mut |iy, a, b| {
                let row = &mut bits[iy * words..(iy + 1) * words];
                let (wa, wb) = (a / 64, b / 64);
                let head = !0u64 << (a % 64);
                let tail = !0u64 >> (63 - b % 64);
                if wa == wb {
                    row[wa] |= head & tail;
                } else {
                    row[wa] |= head;
                    row[wa + 1..wb].fill(!0);
                    row[wb] |= tail;
                }
            });
        }
        bits.iter()
            .zip(&self.free)
            .map(|(c, f)| (c & f).count_ones() as usize)
            .sum()
    }

    /// Fraction of free cells covered by at least one sensing disk of
    /// radius `rs` centered at `sensors`.
    ///
    /// Returns 0 when the field has no free cells.
    pub fn coverage(&self, sensors: &[Point], rs: f64) -> f64 {
        let covered = self.covered_count(sensors, rs);
        if self.free_count == 0 {
            return 0.0;
        }
        covered as f64 / self.free_count as f64
    }
}

#[cfg(test)]
impl CoverageGrid {
    /// The free-cell bitmap built by one [`Field::is_free`] test per
    /// cell center, the oracle of [`CoverageGrid::new`]'s property test.
    fn free_bits_per_cell(field: &Field, cell: f64) -> Vec<u64> {
        let b = field.bounds();
        let nx = (b.width() / cell).ceil() as usize;
        let ny = (b.height() / cell).ceil() as usize;
        let words = nx.div_ceil(64);
        let mut free = vec![0u64; ny * words];
        for iy in 0..ny {
            for ix in 0..nx {
                let p = Point::new(
                    b.min.x + (ix as f64 + 0.5) * cell,
                    b.min.y + (iy as f64 + 0.5) * cell,
                );
                if field.is_free(p) {
                    free[iy * words + ix / 64] |= 1 << (ix % 64);
                }
            }
        }
        free
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{random_obstacle_field, RandomObstacleParams};
    use msn_geom::{Polygon, Rect};
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

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
    fn mask_count_and_row_span_count_agree() {
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
        assert_eq!(g.covered_count(&[], 35.0), 0);
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
        // Disks whose rim passes exactly through a cell center: float
        // rounding in the chord, not geometry, then decides whether a
        // span's guessed end is the true one.
        // A center on a cell center with its rim on the same column
        // makes the disk's end rows a single cell.
        let g = CoverageGrid::new(&Field::open(100.0, 100.0), 2.5);
        for k in 0..400 {
            let kf = k as f64;
            let (ax, ay) = ((k * 7) % g.nx(), (k * 11) % g.ny());
            let (s, rim) = match k % 2 {
                0 => (
                    Point::new((kf * 7.31) % 100.0, (kf * 3.77) % 100.0),
                    g.cell_center((k * 13) % g.nx(), (k * 29) % g.ny()),
                ),
                _ => (
                    g.cell_center(ax, ay),
                    g.cell_center(ax, (ay + 1 + k % 9) % g.ny()),
                ),
            };
            for rs in [s.dist(rim), s.dist(rim).next_down(), s.dist(rim).next_up()] {
                assert_eq!(
                    g.disk_cells(s, rs),
                    g.disk_cells_chord(s, rs),
                    "s={s} rs={rs}"
                );
            }
        }
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

    proptest! {
        #[test]
        fn raster_matches_the_per_cell_build(
            rects in prop::collection::vec(
                (-20.0..300.0f64, -20.0..300.0f64, 0.5..120.0f64, 0.5..120.0f64),
                0..5,
            ),
            tri in (0.0..300.0f64, 0.0..300.0f64, 1.0..80.0f64),
            seed in 0u64..1000,
            cell in 0.7..23.0f64,
        ) {
            // Rectangles (some past the border), a triangle whose
            // slanted edges cut cells, and a random obstacle field, at
            // odd cell sizes: the box-restricted build must set exactly
            // the bits the per-cell `is_free` test sets.
            let (tx, ty, ts) = tri;
            let mut obstacles: Vec<Polygon> = rects
                .iter()
                .map(|&(x, y, w, h)| Rect::new(x, y, x + w, y + h).to_polygon())
                .collect();
            obstacles.push(Polygon::new(vec![
                Point::new(tx, ty),
                Point::new(tx + ts, ty + 0.3 * ts),
                Point::new(tx + 0.4 * ts, ty + ts),
            ]));
            let params = RandomObstacleParams {
                width: 300.0,
                height: 260.0,
                side: (20.0, 120.0),
                base_clearance: 20.0,
                ..RandomObstacleParams::default()
            };
            let random = random_obstacle_field(&params, &mut SmallRng::seed_from_u64(seed));
            for field in [Field::with_obstacles(280.0, 250.0, obstacles), random] {
                let grid = CoverageGrid::new(&field, cell);
                let oracle = CoverageGrid::free_bits_per_cell(&field, cell);
                prop_assert_eq!(&grid.free, &oracle, "cell {}", cell);
                let count: usize = oracle.iter().map(|w| w.count_ones() as usize).sum();
                prop_assert_eq!(grid.free_count, count);
            }
        }
    }
}
