//! The Hungarian algorithm (shortest-augmenting-path formulation).

use crate::CostMatrix;
use std::fmt;

/// The result of an assignment solve.
#[derive(Debug, Clone, PartialEq)]
pub struct Assignment {
    /// `assignment[row] = column` matched to that row.
    pub assignment: Vec<usize>,
    /// Sum of the costs of the matched pairs.
    pub total_cost: f64,
}

impl fmt::Display for Assignment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "assignment of {} rows, total cost {:.3}",
            self.assignment.len(),
            self.total_cost
        )
    }
}

/// Solves the minimum-cost assignment problem exactly.
///
/// Uses the `O(n²·m)` shortest-augmenting-path formulation with row and
/// column potentials (the "Hungarian algorithm" as commonly implemented
/// for dense matrices). Handles rectangular instances with
/// `rows <= cols`; every row is matched to a distinct column. Each
/// augmenting step makes one pass over the columns and updates the
/// potentials of the visited columns only. A tie for the smallest
/// reduced cost goes to the lowest column index.
///
/// The paper uses this to compute (a) the minimum moving distance of
/// the VOR/Minimax explosion phase and (b) the optimal-movement
/// baselines of Figure 11.
///
/// # Panics
///
/// Panics if the matrix has more rows than columns.
///
/// # Examples
///
/// ```
/// use msn_assign::{hungarian, CostMatrix};
///
/// let m = CostMatrix::from_rows(vec![
///     vec![4.0, 1.0, 3.0],
///     vec![2.0, 0.0, 5.0],
///     vec![3.0, 2.0, 2.0],
/// ]);
/// let sol = hungarian(&m);
/// assert_eq!(sol.total_cost, 5.0); // 1 + 2 + 2
/// ```
pub fn hungarian(costs: &CostMatrix) -> Assignment {
    let n = costs.rows();
    let m = costs.cols();
    assert!(
        n <= m,
        "hungarian requires rows <= cols; transpose the problem"
    );

    // 1-indexed potentials and matching, per the classic formulation:
    // u[i] for rows, v[j] for columns, way[j] = previous column on the
    // augmenting path, p[j] = row matched to column j (0 = none).
    let mut u = vec![0.0f64; n + 1];
    let mut v = vec![0.0f64; m + 1];
    let mut p = vec![0usize; m + 1];
    let mut way = vec![0usize; m + 1];
    // Per-row scratch, reset at the start of every row. `visited`
    // lists the used columns, so the potential update touches only
    // those.
    let mut minv = vec![f64::INFINITY; m + 1];
    let mut used = vec![false; m + 1];
    let mut visited: Vec<usize> = Vec::with_capacity(m + 1);

    for i in 1..=n {
        p[0] = i;
        let mut j0 = 0usize;
        minv.fill(f64::INFINITY);
        used.fill(false);
        visited.clear();
        // The previous iteration's `minv[j] -= delta` on unused
        // columns, applied lazily by the next scan. `minv` of a column
        // that becomes used is never read again, so skipping its
        // subtraction changes nothing.
        let mut pending = 0.0f64;
        loop {
            used[j0] = true;
            visited.push(j0);
            let i0 = p[j0];
            let ui0 = u[i0];
            // Column `j` is slot `j - 1` of these slices; one known
            // length `m` lets the compiler drop the per-column bounds
            // checks.
            let row = &costs.row(i0 - 1)[..m];
            let (used_c, minv_c) = (&used[1..=m], &mut minv[1..=m]);
            let (v_c, way_c) = (&v[1..=m], &mut way[1..=m]);
            let mut delta = f64::INFINITY;
            let mut j1 = 0usize;
            for k in 0..m {
                if used_c[k] {
                    continue;
                }
                let mut mj = minv_c[k] - pending;
                let cur = row[k] - ui0 - v_c[k];
                if cur < mj {
                    mj = cur;
                    way_c[k] = j0;
                }
                minv_c[k] = mj;
                if mj < delta {
                    delta = mj;
                    j1 = k + 1;
                }
            }
            // Each used column and its matched row is updated once,
            // so the order of `visited` does not matter.
            for &j in &visited {
                u[p[j]] += delta;
                v[j] -= delta;
            }
            pending = delta;
            j0 = j1;
            if p[j0] == 0 {
                break;
            }
        }
        // Augment along the path back to the virtual column 0.
        loop {
            let j1 = way[j0];
            p[j0] = p[j1];
            j0 = j1;
            if j0 == 0 {
                break;
            }
        }
    }

    let mut assignment = vec![usize::MAX; n];
    for j in 1..=m {
        if p[j] != 0 {
            assignment[p[j] - 1] = j - 1;
        }
    }
    debug_assert!(assignment.iter().all(|&c| c != usize::MAX));
    let total_cost = costs.assignment_cost(&assignment);
    Assignment {
        assignment,
        total_cost,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msn_geom::Point;

    /// The textbook loop `hungarian` was derived from: fresh `minv` and
    /// `used` per row, and a full pass over every column to update the
    /// potentials. The exactness oracle for the one-pass solve.
    fn textbook(costs: &CostMatrix) -> Assignment {
        let n = costs.rows();
        let m = costs.cols();
        let mut u = vec![0.0f64; n + 1];
        let mut v = vec![0.0f64; m + 1];
        let mut p = vec![0usize; m + 1];
        let mut way = vec![0usize; m + 1];
        for i in 1..=n {
            p[0] = i;
            let mut j0 = 0usize;
            let mut minv = vec![f64::INFINITY; m + 1];
            let mut used = vec![false; m + 1];
            loop {
                used[j0] = true;
                let i0 = p[j0];
                let mut delta = f64::INFINITY;
                let mut j1 = 0usize;
                for j in 1..=m {
                    if used[j] {
                        continue;
                    }
                    let cur = costs.get(i0 - 1, j - 1) - u[i0] - v[j];
                    if cur < minv[j] {
                        minv[j] = cur;
                        way[j] = j0;
                    }
                    if minv[j] < delta {
                        delta = minv[j];
                        j1 = j;
                    }
                }
                for j in 0..=m {
                    if used[j] {
                        u[p[j]] += delta;
                        v[j] -= delta;
                    } else {
                        minv[j] -= delta;
                    }
                }
                j0 = j1;
                if p[j0] == 0 {
                    break;
                }
            }
            loop {
                let j1 = way[j0];
                p[j0] = p[j1];
                j0 = j1;
                if j0 == 0 {
                    break;
                }
            }
        }
        let mut assignment = vec![usize::MAX; n];
        for j in 1..=m {
            if p[j] != 0 {
                assignment[p[j] - 1] = j - 1;
            }
        }
        let total_cost = costs.assignment_cost(&assignment);
        Assignment {
            assignment,
            total_cost,
        }
    }

    /// A deterministic xorshift stream for test matrices.
    fn xorshift(seed: u64) -> impl FnMut() -> u64 {
        let mut state = seed.wrapping_mul(2654435761).wrapping_add(1);
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        }
    }

    fn assert_matches_textbook(m: &CostMatrix, what: &str) {
        let fast = hungarian(m);
        let slow = textbook(m);
        assert_eq!(fast.assignment, slow.assignment, "{what}: assignment");
        assert_eq!(
            fast.total_cost.to_bits(),
            slow.total_cost.to_bits(),
            "{what}: total cost"
        );
    }

    #[test]
    fn one_pass_equals_textbook_on_euclidean_matrices() {
        for seed in 0..40u64 {
            let mut next = xorshift(seed);
            let mut point = || {
                let x = (next() % 1_000_000) as f64 / 1000.0;
                let y = (next() % 1_000_000) as f64 / 1000.0;
                Point::new(x, y)
            };
            let rows = 1 + (seed as usize * 7) % 60;
            let cols = if seed % 2 == 0 {
                rows
            } else {
                (rows + 1 + seed as usize % 9).min(60)
            };
            let sources: Vec<Point> = (0..rows).map(|_| point()).collect();
            let targets: Vec<Point> = (0..cols).map(|_| point()).collect();
            let m = CostMatrix::euclidean(&sources, &targets);
            assert_matches_textbook(&m, &format!("seed {seed}, {rows}x{cols}"));
        }
        // The largest square instance.
        let mut next = xorshift(99);
        let pts: Vec<Point> = (0..120)
            .map(|_| Point::new((next() % 1000) as f64, (next() % 1000) as f64))
            .collect();
        let m = CostMatrix::euclidean(&pts[..60], &pts[60..]);
        assert_matches_textbook(&m, "60x60");
    }

    #[test]
    fn one_pass_equals_textbook_on_tied_integer_matrices() {
        // Costs in 0..=3 (or all-equal) leave many optimal assignments;
        // which one wins depends on the order of operations.
        for seed in 0..60u64 {
            let mut next = xorshift(seed + 1000);
            let rows = 2 + (seed as usize % 12);
            let cols = rows + (seed as usize / 12) % 4;
            let span = 1 + seed % 4;
            let m = CostMatrix::from_fn(rows, cols, |_, _| (next() % span) as f64);
            assert_matches_textbook(&m, &format!("seed {seed}, {rows}x{cols}"));
        }
        let all_equal = CostMatrix::from_fn(7, 9, |_, _| 2.0);
        assert_matches_textbook(&all_equal, "all equal");
    }

    /// Exhaustive minimum over all permutations, for cross-checking.
    fn brute_force(costs: &CostMatrix) -> f64 {
        fn rec(costs: &CostMatrix, row: usize, used: &mut Vec<bool>, acc: f64, best: &mut f64) {
            if row == costs.rows() {
                *best = best.min(acc);
                return;
            }
            if acc >= *best {
                return;
            }
            for c in 0..costs.cols() {
                if !used[c] {
                    used[c] = true;
                    rec(costs, row + 1, used, acc + costs.get(row, c), best);
                    used[c] = false;
                }
            }
        }
        let mut best = f64::INFINITY;
        rec(costs, 0, &mut vec![false; costs.cols()], 0.0, &mut best);
        best
    }

    #[test]
    fn one_by_one() {
        let m = CostMatrix::from_rows(vec![vec![7.0]]);
        let sol = hungarian(&m);
        assert_eq!(sol.assignment, vec![0]);
        assert_eq!(sol.total_cost, 7.0);
    }

    #[test]
    fn identity_is_optimal_for_diagonal_matrix() {
        let m = CostMatrix::from_fn(4, 4, |r, c| if r == c { 0.0 } else { 10.0 });
        let sol = hungarian(&m);
        assert_eq!(sol.assignment, vec![0, 1, 2, 3]);
        assert_eq!(sol.total_cost, 0.0);
    }

    #[test]
    fn classic_3x3() {
        let m = CostMatrix::from_rows(vec![
            vec![4.0, 1.0, 3.0],
            vec![2.0, 0.0, 5.0],
            vec![3.0, 2.0, 2.0],
        ]);
        let sol = hungarian(&m);
        assert_eq!(sol.total_cost, 5.0);
        assert_eq!(sol.total_cost, brute_force(&m));
    }

    #[test]
    fn rectangular_chooses_best_columns() {
        let m = CostMatrix::from_rows(vec![
            vec![10.0, 10.0, 1.0, 10.0],
            vec![10.0, 2.0, 10.0, 10.0],
        ]);
        let sol = hungarian(&m);
        assert_eq!(sol.assignment, vec![2, 1]);
        assert_eq!(sol.total_cost, 3.0);
    }

    #[test]
    fn matches_brute_force_on_pseudorandom_instances() {
        for seed in 0..30u64 {
            // xorshift-style deterministic costs
            let mut state = seed.wrapping_mul(2654435761).wrapping_add(1);
            let mut next = || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state % 1000) as f64 / 10.0
            };
            let n = 2 + (seed % 5) as usize; // 2..=6
            let m_cols = n + (seed % 3) as usize;
            let m = CostMatrix::from_fn(n, m_cols, |_, _| next());
            let sol = hungarian(&m);
            let bf = brute_force(&m);
            assert!(
                (sol.total_cost - bf).abs() < 1e-9,
                "seed {seed}: hungarian {} != brute force {bf}",
                sol.total_cost
            );
            // assignment is a valid injection
            let mut seen = vec![false; m_cols];
            for &c in &sol.assignment {
                assert!(!seen[c], "column used twice");
                seen[c] = true;
            }
        }
    }

    #[test]
    fn all_equal_costs_any_permutation_is_fine() {
        let m = CostMatrix::from_fn(5, 5, |_, _| 3.0);
        let sol = hungarian(&m);
        assert_eq!(sol.total_cost, 15.0);
    }

    #[test]
    #[should_panic(expected = "rows <= cols")]
    fn more_rows_than_cols_panics() {
        let m = CostMatrix::from_rows(vec![vec![1.0], vec![2.0]]);
        hungarian(&m);
    }
}
