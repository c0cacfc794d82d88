//! Declarative scenario engine with a parallel batch runner.
//!
//! The paper's evaluation is a fixed set of figures over one field
//! layout; this crate turns that pattern into a reusable subsystem:
//!
//! * [`ScenarioSpec`] — a declarative, TOML-loadable description of an
//!   experiment: field geometry ([`FieldSpec`]: paper field, campus
//!   grid, corridor, disaster zone, random-obstacle generator),
//!   initial scatter ([`ScatterSpec`]), sensor-count sweep, scheme
//!   set, radio combinations, duration, repetitions and seed policy;
//! * [`BatchRunner`] — expands a spec into its run matrix and
//!   executes it in parallel, longest runs first, with deterministic per-run
//!   seeding (seeds derive from the base seed and matrix coordinates,
//!   so results are byte-identical at any thread count);
//! * [`BatchResult`] — per-cell mean/CI aggregation via
//!   `msn-metrics`, exported as JSON, CSV and ASCII report tables.
//!
//! The `scenario` binary runs specs from the bundled `scenarios/`
//! directory (`run`, `list`, `describe`) and compares what runs leave
//! behind (`diff`, `bench-diff`, `profile-report`, `profile-diff`);
//! `msn-bench` renders the paper's figures from batches of the same
//! bundled specs. Runs write through [`write_atomic`] under a
//! [`BatchLock`], so a killed run never leaves a torn `batch.json`.
//!
//! # Quickstart
//!
//! ```
//! use msn_deploy::SchemeKind;
//! use msn_scenario::{BatchRunner, ScenarioSpec};
//!
//! let spec = ScenarioSpec::new("quickstart")
//!     .with_schemes(vec![SchemeKind::Floor])
//!     .with_sensor_counts(vec![15])
//!     .with_duration(20.0)        // keep the doc test fast
//!     .with_coverage_cell(25.0);
//! let result = BatchRunner::new().run(&spec).unwrap();
//! assert_eq!(result.records.len(), 1);
//! assert!(result.records[0].coverage > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bench;
mod diff;
mod json;
mod junit;
mod persist;
mod profile;
mod progress;
mod runner;
mod spec;
mod toml;

pub use bench::{diff_bench, BenchDiffReport, BenchKernel, BenchRecord, DeltaStatus, KernelDelta};
pub use diff::{diff_batches, BatchFile, CellDiff, CellKey, DiffReport, FileRun, MetricSummary};
pub use json::{Json, JsonError};
pub use junit::junit_xml;
pub use persist::{write_atomic, BatchLock};
pub use profile::{ProfileCell, ProfileRecord};
pub use progress::{eta_seconds, ProgressEvent, ProgressSink};
pub use runner::{BatchResult, BatchRunner, CellStats, RunConfig, RunRecord, ScenarioError};
pub use spec::{
    derive_seed, FieldSpec, ParamVariant, RadioSpec, RunCell, ScatterSpec, ScenarioSpec,
};
pub use toml::{TomlError, TomlValue};
