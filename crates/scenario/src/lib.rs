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
//! The `scenario` binary (`run` / `list` / `describe`) drives specs
//! from the bundled `scenarios/` directory; `msn-bench` renders the
//! paper's figures from batches of the same bundled specs.
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

mod api;
mod bench;
mod diff;
mod jobstore;
mod json;
mod junit;
mod profile;
mod progress;
mod runner;
mod serve;
mod spec;
mod toml;
mod wire;

pub use api::{
    job_event_line, job_state_line, ApiError, JobInfo, JobState, Request, Response, SpecEntry,
    API_VERSION,
};
pub use bench::{diff_bench, BenchDiffReport, BenchKernel, BenchRecord, DeltaStatus, KernelDelta};
pub use diff::{diff_batches, BatchFile, CellDiff, CellKey, DiffReport, FileRun, MetricSummary};
pub use jobstore::{write_atomic, BatchLock, JobStore, ARTIFACTS};
pub use json::{Json, JsonError};
pub use junit::junit_xml;
pub use profile::{ProfileCell, ProfileRecord};
pub use progress::{eta_seconds, ProgressEvent, ProgressSink};
pub use runner::{BatchResult, BatchRunner, CellStats, RunConfig, RunRecord, ScenarioError};
pub use serve::{serve, ServeConfig};
pub use spec::{
    derive_seed, FieldSpec, ParamVariant, RadioSpec, RunCell, ScatterSpec, ScenarioSpec,
};
pub use toml::{TomlError, TomlValue};
pub use wire::{
    read_request, read_response, reason_phrase, write_ndjson_header, write_request, write_response,
    Client, Subscription, MAX_BODY, MAX_HEADER,
};
