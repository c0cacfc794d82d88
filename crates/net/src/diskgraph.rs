//! Unit-disk communication graphs and the read-only view their
//! consumers share.

use crate::{within_range, SpatialGrid};
use msn_geom::Point;
use std::collections::VecDeque;

/// Read-only neighbor-list access for disk-graph consumers.
///
/// Both the snapshot [`DiskGraph`] and the incremental
/// [`crate::AdjacencyTracker`] expose their adjacency through this
/// trait, so walk-style consumers ([`crate::random_walk`]) and the
/// base flood ([`Neighbors::flood_from_base`]) run on either.
/// Implementations must return lists in the shared grid scan order —
/// consumers observe both order and length (a random walk draws its
/// neighbor picks from the list), so the order is part of the
/// simulation output.
pub trait Neighbors {
    /// Neighbors of node `i`, in the shared grid scan order.
    fn neighbors_of(&self, i: usize) -> &[usize];

    /// Models the §4.1 connectivity flood: sensors within `rc` of the
    /// base station start the flood; the returned mask marks every
    /// sensor that (transitively) received it, i.e. the *connected*
    /// sensors. `points` are the positions the adjacency reflects.
    ///
    /// Base links use the same [`crate::within_range`] rule as the
    /// graph's own edges, so a sensor pair and a base link at equal
    /// distance always get the same verdict. The mask does not depend
    /// on neighbor order.
    fn flood_from_base(&self, points: &[Point], base: Point, rc: f64) -> Vec<bool> {
        let mut seen = vec![false; points.len()];
        let mut queue = VecDeque::new();
        for (i, &p) in points.iter().enumerate() {
            if within_range(p, base, rc) {
                seen[i] = true;
                queue.push_back(i);
            }
        }
        while let Some(u) = queue.pop_front() {
            for &v in self.neighbors_of(u) {
                if !seen[v] {
                    seen[v] = true;
                    queue.push_back(v);
                }
            }
        }
        seen
    }
}

/// The `rc`-disk graph over sensor positions: an undirected graph with
/// an edge between every pair of sensors at distance ≤ `rc`.
///
/// The base station at a fixed point participates implicitly: sensors
/// within `rc` of it are the flood seeds of
/// [`Neighbors::flood_from_base`].
///
/// # Examples
///
/// ```
/// use msn_geom::Point;
/// use msn_net::{DiskGraph, Neighbors};
///
/// let pts = vec![Point::new(5.0, 0.0), Point::new(12.0, 0.0), Point::new(40.0, 0.0)];
/// let g = DiskGraph::build(&pts, 10.0);
/// let connected = g.flood_from_base(&pts, Point::new(0.0, 0.0), 10.0);
/// assert_eq!(connected, vec![true, true, false]);
/// ```
#[derive(Debug, Clone)]
pub struct DiskGraph {
    rc: f64,
    adj: Vec<Vec<usize>>,
}

impl DiskGraph {
    /// Builds the disk graph for communication range `rc`.
    ///
    /// # Panics
    ///
    /// Panics if `rc` is not strictly positive.
    pub fn build(points: &[Point], rc: f64) -> Self {
        assert!(rc > 0.0, "communication range must be positive");
        let grid = SpatialGrid::build(points, rc.max(1.0));
        let adj = (0..points.len())
            .map(|i| grid.neighbors(points, i, rc))
            .collect();
        DiskGraph { rc, adj }
    }

    /// The communication range the graph was built with.
    #[inline]
    pub fn rc(&self) -> f64 {
        self.rc
    }

    /// Number of nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.adj.len()
    }

    /// Returns `true` for a graph over zero points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.adj.is_empty()
    }

    /// Neighbors of node `i` (distance ≤ rc, excluding `i`).
    #[inline]
    pub fn neighbors(&self, i: usize) -> &[usize] {
        &self.adj[i]
    }

    /// Returns `true` if every sensor is connected (multi-hop) to the
    /// base station.
    pub fn all_connected_to_base(&self, points: &[Point], base: Point, rc: f64) -> bool {
        self.flood_from_base(points, base, rc).iter().all(|&c| c)
    }

    /// BFS hop distances from `from` (usize::MAX = unreachable).
    pub fn hop_distances(&self, from: usize) -> Vec<usize> {
        let n = self.adj.len();
        let mut dist = vec![usize::MAX; n];
        let mut queue = VecDeque::new();
        dist[from] = 0;
        queue.push_back(from);
        while let Some(u) = queue.pop_front() {
            for &v in &self.adj[u] {
                if dist[v] == usize::MAX {
                    dist[v] = dist[u] + 1;
                    queue.push_back(v);
                }
            }
        }
        dist
    }
}

impl Neighbors for DiskGraph {
    fn neighbors_of(&self, i: usize) -> &[usize] {
        self.neighbors(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain(n: usize, spacing: f64) -> Vec<Point> {
        (0..n)
            .map(|i| Point::new(i as f64 * spacing, 0.0))
            .collect()
    }

    #[test]
    fn chain_connectivity() {
        let pts = chain(5, 8.0);
        let g = DiskGraph::build(&pts, 10.0);
        assert!(g.all_connected_to_base(&pts, Point::ORIGIN, 10.0));
        assert_eq!(g.neighbors(2), &[1, 3]);
        assert!(!g.is_empty());
        assert_eq!(g.len(), 5);
        assert_eq!(g.rc(), 10.0);
    }

    #[test]
    fn broken_chain_partitions() {
        let mut pts = chain(3, 8.0);
        pts.push(Point::new(100.0, 0.0));
        let g = DiskGraph::build(&pts, 10.0);
        let mask = g.flood_from_base(&pts, Point::ORIGIN, 10.0);
        assert_eq!(mask, vec![true, true, true, false]);
        assert!(!g.all_connected_to_base(&pts, Point::ORIGIN, 10.0));
    }

    #[test]
    fn base_out_of_range_of_everyone() {
        let pts = chain(3, 8.0);
        let g = DiskGraph::build(&pts, 10.0);
        let mask = g.flood_from_base(&pts, Point::new(500.0, 500.0), 10.0);
        assert!(mask.iter().all(|&c| !c));
    }

    #[test]
    fn hop_distances_along_a_chain() {
        let pts = chain(6, 8.0);
        let g = DiskGraph::build(&pts, 10.0);
        let d = g.hop_distances(0);
        assert_eq!(d, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn boundary_links_agree_between_edges_and_base_flood() {
        use crate::RANGE_EPS;
        // Three collinear points at the same pairwise spacing, chosen
        // inside the tolerance window where the old squared-distance
        // epsilon disagreed with the base-link epsilon: the base link
        // and the sensor-sensor edge must now get the same verdict.
        let rc = 10.0;
        let spacing = rc + 0.5 * RANGE_EPS;
        let base = Point::new(0.0, 0.0);
        let pts = vec![Point::new(spacing, 0.0), Point::new(2.0 * spacing, 0.0)];
        let g = DiskGraph::build(&pts, rc);
        assert_eq!(
            g.neighbors(0),
            &[1],
            "sensor pair at base-link distance must be an edge"
        );
        assert_eq!(g.flood_from_base(&pts, base, rc), vec![true, true]);
        // just past the slack, both verdicts flip together
        let spacing = rc + 3.0 * RANGE_EPS;
        let pts = vec![Point::new(spacing, 0.0), Point::new(2.0 * spacing, 0.0)];
        let g = DiskGraph::build(&pts, rc);
        assert!(g.neighbors(0).is_empty());
        assert_eq!(g.flood_from_base(&pts, base, rc), vec![false, false]);
        // and exactly at range, both admit
        let pts = vec![Point::new(rc, 0.0), Point::new(2.0 * rc, 0.0)];
        let g = DiskGraph::build(&pts, rc);
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.flood_from_base(&pts, base, rc), vec![true, true]);
    }

    #[test]
    fn dense_cluster_is_complete() {
        let pts = vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(0.0, 1.0),
        ];
        let g = DiskGraph::build(&pts, 5.0);
        assert_eq!(g.neighbors(0).len(), 2);
        assert_eq!(g.neighbors(1).len(), 2);
        assert_eq!(g.neighbors(2).len(), 2);
    }
}
