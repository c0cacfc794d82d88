//! Dense cost matrices.

use std::fmt;

/// A dense row-major cost matrix for assignment problems.
///
/// Rows are "sources" (initial sensor positions), columns are "sinks"
/// (target positions). All costs must be finite and non-negative.
///
/// # Examples
///
/// ```
/// use msn_assign::CostMatrix;
///
/// let m = CostMatrix::from_fn(2, 3, |r, c| (r + c) as f64);
/// assert_eq!(m.rows(), 2);
/// assert_eq!(m.cols(), 3);
/// assert_eq!(m.get(1, 2), 3.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CostMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl CostMatrix {
    /// Builds a matrix from a row-of-rows representation.
    ///
    /// # Panics
    ///
    /// Panics if the rows are empty, ragged, or contain non-finite or
    /// negative values.
    pub fn from_rows(rows: Vec<Vec<f64>>) -> Self {
        assert!(!rows.is_empty(), "cost matrix needs at least one row");
        let cols = rows[0].len();
        assert!(cols > 0, "cost matrix needs at least one column");
        let mut data = Vec::with_capacity(rows.len() * cols);
        for row in &rows {
            assert_eq!(row.len(), cols, "ragged cost matrix");
            for &v in row {
                assert!(v.is_finite() && v >= 0.0, "costs must be finite and >= 0");
                data.push(v);
            }
        }
        CostMatrix {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Builds an `n × m` matrix by evaluating `f(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if `n` or `m` is zero, or `f` returns a non-finite or
    /// negative value.
    pub fn from_fn<F: FnMut(usize, usize) -> f64>(n: usize, m: usize, mut f: F) -> Self {
        assert!(n > 0 && m > 0, "cost matrix must be non-empty");
        let mut data = Vec::with_capacity(n * m);
        for r in 0..n {
            for c in 0..m {
                let v = f(r, c);
                assert!(v.is_finite() && v >= 0.0, "costs must be finite and >= 0");
                data.push(v);
            }
        }
        CostMatrix {
            rows: n,
            cols: m,
            data,
        }
    }

    /// Euclidean distances from each source point to each target point.
    ///
    /// This is the matrix used throughout the paper's moving-distance
    /// baselines.
    ///
    /// # Panics
    ///
    /// Panics if either slice is empty.
    pub fn euclidean(sources: &[msn_geom::Point], targets: &[msn_geom::Point]) -> Self {
        CostMatrix::from_fn(sources.len(), targets.len(), |r, c| {
            sources[r].dist(targets[c])
        })
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Cost at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> f64 {
        assert!(row < self.rows && col < self.cols, "index out of range");
        self.data[row * self.cols + col]
    }

    /// The costs of row `row`, one per column.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    #[inline]
    pub fn row(&self, row: usize) -> &[f64] {
        assert!(row < self.rows, "index out of range");
        &self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// Total cost of a row-to-column assignment (`assignment[r] = c`).
    ///
    /// # Panics
    ///
    /// Panics if the assignment is the wrong length or indexes out of
    /// range.
    pub fn assignment_cost(&self, assignment: &[usize]) -> f64 {
        assert_eq!(assignment.len(), self.rows, "assignment length mismatch");
        assignment
            .iter()
            .enumerate()
            .map(|(r, &c)| self.get(r, c))
            .sum()
    }
}

impl fmt::Display for CostMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}x{} cost matrix", self.rows, self.cols)?;
        for r in 0..self.rows {
            for c in 0..self.cols {
                write!(f, "{:8.2} ", self.get(r, c))?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msn_geom::Point;

    #[test]
    fn from_rows_roundtrip() {
        let m = CostMatrix::from_rows(vec![vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(m.get(0, 0), 1.0);
        assert_eq!(m.get(1, 1), 4.0);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 2);
        assert_eq!(m.row(1), &[3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_panic() {
        CostMatrix::from_rows(vec![vec![1.0], vec![1.0, 2.0]]);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn negative_costs_panic() {
        CostMatrix::from_rows(vec![vec![-1.0]]);
    }

    #[test]
    fn euclidean_costs() {
        let src = [Point::new(0.0, 0.0), Point::new(10.0, 0.0)];
        let dst = [Point::new(3.0, 4.0)];
        let m = CostMatrix::euclidean(&src, &dst);
        assert_eq!(m.get(0, 0), 5.0);
        assert!((m.get(1, 0) - 65f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn assignment_cost_sums_entries() {
        let m = CostMatrix::from_rows(vec![vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(m.assignment_cost(&[1, 0]), 5.0);
        assert_eq!(m.assignment_cost(&[0, 1]), 5.0);
    }
}
