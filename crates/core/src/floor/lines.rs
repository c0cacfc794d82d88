//! Floor-line geometry (§5).
//!
//! The field is divided into horizontal *floors* of common height
//! `2·rs`; the *floor line* runs through the middle of each floor, and
//! the *inter-floor line* halfway between two adjacent floor lines.

use msn_geom::Rect;

/// The floor decomposition of a field for a given sensing range.
///
/// Floor `k` spans `y ∈ [2·rs·k, 2·rs·(k+1))` with its floor line at
/// `y = rs + 2·rs·k`.
///
/// # Examples
///
/// ```
/// use msn_deploy::floor::FloorLines;
/// use msn_geom::Rect;
///
/// let lines = FloorLines::new(Rect::new(0.0, 0.0, 1000.0, 1000.0), 40.0);
/// assert_eq!(lines.count(), 13);
/// assert_eq!(lines.line_y(0), 40.0);
/// assert_eq!(lines.nearest_line_y(130.0), 120.0);
/// assert_eq!(lines.floor_index(130.0), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FloorLines {
    bounds: Rect,
    rs: f64,
    count: usize,
}

impl FloorLines {
    /// Builds the floor decomposition of `bounds` for sensing range
    /// `rs`.
    ///
    /// # Panics
    ///
    /// Panics if `rs` is not strictly positive.
    pub fn new(bounds: Rect, rs: f64) -> Self {
        assert!(rs > 0.0, "sensing range must be positive");
        let height = bounds.height();
        let count = ((height / (2.0 * rs)).ceil() as usize).max(1);
        FloorLines { bounds, rs, count }
    }

    /// Number of floors.
    #[inline]
    pub fn count(&self) -> usize {
        self.count
    }

    /// The y coordinate of floor line `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    pub fn line_y(&self, k: usize) -> f64 {
        assert!(k < self.count, "floor index out of range");
        self.bounds.min.y + self.rs + 2.0 * self.rs * k as f64
    }

    /// Index of the floor containing height `y` (clamped to the field).
    pub fn floor_index(&self, y: f64) -> usize {
        let rel = (y - self.bounds.min.y) / (2.0 * self.rs);
        (rel.floor().max(0.0) as usize).min(self.count - 1)
    }

    /// The paper's `FloorLine(y)`: the y coordinate of the floor line
    /// nearest to height `y`.
    pub fn nearest_line_y(&self, y: f64) -> f64 {
        self.line_y(self.floor_index(y))
    }

    /// Indices of floors whose *band* (line ± rs, i.e. the whole
    /// floor strip plus the adjacent half-floors a node can sit in)
    /// could contain a node covering a point at height `y`.
    pub fn floors_covering(&self, y: f64) -> impl Iterator<Item = usize> + '_ {
        let reach = 2.0 * self.rs;
        (0..self.count).filter(move |&k| (self.line_y(k) - y).abs() <= reach + 1e-9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines() -> FloorLines {
        FloorLines::new(Rect::new(0.0, 0.0, 1000.0, 1000.0), 40.0)
    }

    #[test]
    fn counts_and_positions() {
        let l = lines();
        assert_eq!(l.count(), 13); // ceil(1000 / 80)
        assert_eq!(l.line_y(0), 40.0);
        assert_eq!(l.line_y(1), 120.0);
        assert_eq!(l.line_y(12), 1000.0); // the top line may graze the edge
    }

    #[test]
    fn floor_index_boundaries() {
        let l = lines();
        assert_eq!(l.floor_index(0.0), 0);
        assert_eq!(l.floor_index(79.9), 0);
        assert_eq!(l.floor_index(80.0), 1);
        assert_eq!(l.floor_index(-5.0), 0, "clamped below");
        assert_eq!(l.floor_index(5000.0), 12, "clamped above");
    }

    #[test]
    fn nearest_line() {
        let l = lines();
        assert_eq!(l.nearest_line_y(10.0), 40.0);
        assert_eq!(l.nearest_line_y(100.0), 120.0);
        assert_eq!(l.nearest_line_y(81.0), 120.0, "just into floor 1");
    }

    #[test]
    fn covering_floors_window() {
        let l = lines();
        let idx: Vec<usize> = l.floors_covering(120.0).collect();
        assert_eq!(idx, vec![0, 1, 2], "lines within 2·rs of y=120");
        let low: Vec<usize> = l.floors_covering(0.0).collect();
        assert_eq!(low, vec![0], "only line 0 (y=40) is within 2·rs of y=0");
    }

    #[test]
    fn small_field_has_one_floor() {
        let l = FloorLines::new(Rect::new(0.0, 0.0, 50.0, 30.0), 40.0);
        assert_eq!(l.count(), 1);
        assert_eq!(l.floor_index(29.0), 0);
    }
}
