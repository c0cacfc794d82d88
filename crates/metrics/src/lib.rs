//! Statistics, CDFs and table formatting for experiment reports.
//!
//! The paper reports scalar summaries (mean coverage, average moving
//! distance), cumulative distribution functions (Figure 13) and tables
//! (Table 1). This crate provides the small measurement/reporting
//! toolkit the experiment harness uses:
//!
//! * [`Summary`] — streaming min/max/mean/std over `f64` samples;
//! * [`Cdf`] — empirical CDFs with quantile queries;
//! * [`Table`] — plain-text table builder with aligned columns;
//! * [`to_csv`] — CSV export of row-oriented data;
//! * [`recovery_stats`] — per-event coverage-dip / recovery-time
//!   analysis for dynamic runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cdf;
mod recovery;
mod stats;
mod table;

pub use cdf::Cdf;
pub use recovery::{recovery_stats, EventMark, RecoveryStat};
pub use stats::Summary;
pub use table::{to_csv, Table};
