//! Time-stepped mobile-sensor simulation engine.
//!
//! Replaces the paper's private event-based C++ simulator. The model
//! (§3.1): sensors plan once per *period* `T` and move in straight
//! lines (or along BUG2 boundary-following paths) at speed ≤ `V`
//! within the period; the network is asynchronous, so each sensor's
//! planning instant carries a fixed phase offset. The engine integrates
//! motion in `ticks_per_period` micro-ticks and offers the state every
//! protocol needs: positions with distance accounting, a coverage
//! raster, maintained adjacency and proximity trackers, a seeded RNG
//! and a message counter.
//!
//! * [`SimConfig`] — time constants and radio/sensing ranges
//!   ([`SimConfig::paper`] gives the evaluation defaults: V = 2 m/s,
//!   T = 1 s, 750 s runs);
//! * [`World`] — the mutable simulation state;
//! * [`RunResult`] — the per-run metrics every experiment reports.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod events;
mod result;
mod world;

pub use config::SimConfig;
pub use events::{event_stream_seed, DynEvent, EventQueue, EventSchedule};
pub use result::{convergence_time, RunResult};
pub use world::World;
