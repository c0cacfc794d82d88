//! Disk graphs, spanning trees, flooding and message accounting.
//!
//! The paper's protocols run on a unit-disk communication graph: two
//! sensors are neighbors iff they are within communication range `rc`
//! of each other, and the base station at the reference point is
//! reachable by multi-hop paths. This crate provides that substrate:
//!
//! * [`SpatialGrid`] — flat-grid index for `O(1)`-ish range queries
//!   (falls back to hash buckets for pathologically spread points);
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
//! * [`AdjacencyTracker`] — the one incremental proximity structure:
//!   the latest positions, buckets at cell `rc.max(1.0)` answering
//!   range queries byte-identically to a fresh `SpatialGrid` build,
//!   and every `DiskGraph::build` neighbor list (grid scan order
//!   included), each level kept under sensor moves by `O(1)` lazy
//!   recording and rebuild-if-cheaper reconciliation. Per-tick
//!   consumers (force neighborhoods, absorption scans, FLOOR's
//!   random-walk invitations, hop accounting and base connectivity
//!   checks) stop rebuilding grids and graphs without changing
//!   simulation output;
//! * [`random_walk`] — TTL-bounded random walks for FLOOR's
//!   `Invitation` messages (§5.5.2), generic over [`Neighbors`];
//! * [`MsgKind`] / [`MessageCounter`] — the message taxonomy and hop
//!   accounting behind Table 1.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adjacency;
mod diskgraph;
mod messages;
mod randomwalk;
mod range;
mod spatial;
mod tree;

pub use adjacency::AdjacencyTracker;
pub use diskgraph::{DiskGraph, Neighbors};
pub use messages::{MessageCounter, MsgKind};
pub use randomwalk::random_walk;
pub use range::{within_range, RANGE_EPS};
pub use spatial::SpatialGrid;
pub use tree::{Parent, Tree};
