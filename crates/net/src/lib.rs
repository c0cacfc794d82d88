//! Disk graphs, spanning trees, flooding and message accounting.
//!
//! The paper's protocols run on a unit-disk communication graph: two
//! sensors are neighbors iff they are within communication range `rc`
//! of each other, and the base station at the reference point is
//! reachable by multi-hop paths. This crate provides that substrate:
//!
//! * [`SpatialGrid`] — flat-grid index for `O(1)`-ish range queries
//!   (falls back to hash buckets for pathologically spread points);
//! * [`PointIndex`] — the incremental counterpart of `SpatialGrid`:
//!   bucket maintenance under point moves (`O(1)` lazy recording,
//!   rebuild-if-cheaper reconciliation) with query results
//!   byte-identical to a fresh grid build, so per-tick rebuilds can
//!   be replaced without changing simulation output;
//! * [`within_range`] / [`RANGE_EPS`] — the single range-tolerance
//!   rule every link test shares (graph edges, base links, range
//!   queries), so equal distances always get equal verdicts;
//! * [`DiskGraph`] — the `rc`-disk graph of one position snapshot,
//!   with BFS hop distances;
//! * [`Neighbors`] — the read-only neighbor-list view shared by
//!   [`DiskGraph`] and [`AdjacencyTracker`], carrying the one BFS
//!   base flood ([`Neighbors::flood_from_base`], modeling §4.1's
//!   connectivity flood) both answer from;
//! * [`Tree`] — the parent/children forest rooted at the base station,
//!   with ancestor lists (§5.3), loop-free reparent checks and subtree
//!   enumeration (the `LockTree` protocol of §4.2);
//! * [`AdjacencyTracker`] — incremental counterpart of the full
//!   `DiskGraph::build`: maintains every neighbor list (grid scan
//!   order included) under sensor moves, so per-tick graph consumers
//!   (FLOOR's random-walk invitations, hop accounting and base
//!   connectivity checks) stop rebuilding the graph. It can take
//!   over an existing [`PointIndex`] ([`AdjacencyTracker::over`]), so
//!   one index serves both range queries and the graph;
//! * [`random_walk`] — TTL-bounded random walks for FLOOR's
//!   `Invitation` messages (§5.5.2), generic over [`Neighbors`];
//! * [`MsgKind`] / [`MessageCounter`] — the message taxonomy and hop
//!   accounting behind Table 1.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adjacency;
mod diskgraph;
mod messages;
mod point_index;
mod randomwalk;
mod range;
mod spatial;
mod tree;

pub use adjacency::AdjacencyTracker;
pub use diskgraph::{DiskGraph, Neighbors};
pub use messages::{MessageCounter, MsgKind};
pub use point_index::PointIndex;
pub use randomwalk::random_walk;
pub use range::{within_range, RANGE_EPS};
pub use spatial::SpatialGrid;
pub use tree::{Parent, Tree};
