//! TTL-bounded random walks (FLOOR's invitation dissemination, §5.5.2).

use crate::Neighbors;
use rand::Rng;

/// Performs a TTL-bounded *non-backtracking* random walk on the disk
/// graph starting at `start`.
///
/// Each hop forwards the message to a uniformly random neighbor other
/// than the one it came from (falling back to backtracking only at
/// dead ends). Non-backtracking is how gossip walks are implemented in
/// practice: on the chain-like topologies a FLOOR vine produces, a
/// plain walk would diffuse only `O(√TTL)` hops and invitations from
/// distant frontier tips would never reach the movable pool.
///
/// Returns the sequence of nodes visited *after* `start`, one entry
/// per hop (so `result.len() <= ttl`); the walk stops early only at an
/// isolated node. Revisits are allowed. Each entry costs one message
/// transmission.
///
/// # Examples
///
/// ```
/// use msn_geom::Point;
/// use msn_net::{random_walk, DiskGraph};
/// use rand::SeedableRng;
///
/// let pts: Vec<Point> = (0..5).map(|i| Point::new(i as f64 * 5.0, 0.0)).collect();
/// let g = DiskGraph::build(&pts, 6.0);
/// let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
/// let visits = random_walk(&g, 0, 10, &mut rng);
/// assert_eq!(visits.len(), 10);
/// ```
pub fn random_walk<G: Neighbors + ?Sized, R: Rng>(
    graph: &G,
    start: usize,
    ttl: usize,
    rng: &mut R,
) -> Vec<usize> {
    let mut out = Vec::with_capacity(ttl);
    let mut prev: Option<usize> = None;
    let mut cur = start;
    for _ in 0..ttl {
        let nbrs = graph.neighbors_of(cur);
        if nbrs.is_empty() {
            break;
        }
        let next = if nbrs.len() == 1 {
            nbrs[0]
        } else {
            // choose among neighbors excluding the previous hop
            let mut pick = nbrs[rng.gen_range(0..nbrs.len())];
            for _ in 0..4 {
                if Some(pick) != prev {
                    break;
                }
                pick = nbrs[rng.gen_range(0..nbrs.len())];
            }
            if Some(pick) == prev {
                // improbable after retries; scan for any other neighbor
                *nbrs.iter().find(|&&x| Some(x) != prev).unwrap_or(&pick)
            } else {
                pick
            }
        };
        prev = Some(cur);
        cur = next;
        out.push(cur);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DiskGraph;
    use msn_geom::Point;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn chain_graph(n: usize) -> DiskGraph {
        let pts: Vec<Point> = (0..n).map(|i| Point::new(i as f64 * 5.0, 0.0)).collect();
        DiskGraph::build(&pts, 6.0)
    }

    #[test]
    fn walk_length_equals_ttl_on_connected_graph() {
        let g = chain_graph(10);
        let mut rng = SmallRng::seed_from_u64(3);
        assert_eq!(random_walk(&g, 5, 25, &mut rng).len(), 25);
        assert!(random_walk(&g, 5, 0, &mut rng).is_empty());
    }

    #[test]
    fn isolated_node_stops_immediately() {
        let pts = vec![Point::new(0.0, 0.0), Point::new(100.0, 0.0)];
        let g = DiskGraph::build(&pts, 5.0);
        let mut rng = SmallRng::seed_from_u64(3);
        assert!(random_walk(&g, 0, 10, &mut rng).is_empty());
    }

    #[test]
    fn steps_are_graph_edges() {
        let g = chain_graph(10);
        let mut rng = SmallRng::seed_from_u64(9);
        let walk = random_walk(&g, 4, 50, &mut rng);
        let mut prev = 4;
        for &v in &walk {
            assert!(
                g.neighbors(prev).contains(&v),
                "{prev} -> {v} is not an edge"
            );
            prev = v;
        }
    }

    #[test]
    fn walk_eventually_explores_neighborhood() {
        let g = chain_graph(5);
        let mut rng = SmallRng::seed_from_u64(12);
        let mut visited = std::collections::HashSet::new();
        for _ in 0..20 {
            for v in random_walk(&g, 2, 10, &mut rng) {
                visited.insert(v);
            }
        }
        assert!(
            visited.len() >= 4,
            "random walks should reach most of a 5-chain"
        );
    }

    #[test]
    fn non_backtracking_covers_chain_linearly() {
        // On a chain, a non-backtracking walk starting at one end
        // marches straight to the other end.
        let g = chain_graph(20);
        let mut rng = SmallRng::seed_from_u64(5);
        let walk = random_walk(&g, 0, 19, &mut rng);
        assert_eq!(walk.last(), Some(&19), "must reach the far end");
    }

    #[test]
    fn deterministic_under_seed() {
        let g = chain_graph(8);
        let a = random_walk(&g, 3, 20, &mut SmallRng::seed_from_u64(42));
        let b = random_walk(&g, 3, 20, &mut SmallRng::seed_from_u64(42));
        assert_eq!(a, b);
    }
}
