//! Workload-level benchmark of the msn-deploy workspace.
//!
//! Four workloads ([`workload::WORKLOADS`]) run through the same
//! `RunConfig`/`BatchRunner` path `scenario run` uses, on two worker
//! threads. One invocation measures one workload, either
//!
//! * untraced ([`measure::run_untraced`]): the end-to-end metrics of
//!   [`metrics::END_TO_END`] — wall and CPU seconds per batch, set-up
//!   time, per-run latency percentiles, peak memory; or
//! * traced ([`trace::run_traced`]): the per-layer metrics of
//!   [`metrics::PER_LAYER`] — span self times and counters from the
//!   program's own `msn-obs` profile, plus layer timings of a serial
//!   replay through each crate's public calls.
//!
//! Both check the program's outputs ([`check`]) and end with one JSON
//! result line. The workload seed is a benchmark argument: the program
//! receives only the generated spec.

pub mod check;
pub mod manifest;
pub mod measure;
pub mod metrics;
mod sys;
pub mod trace;
pub mod workload;
