//! Streaming progress events for batch runs.
//!
//! The runner reports run lifecycle and checkpoint writes through a
//! [`ProgressSink`] callback; the CLI turns events into either a
//! human progress line (elapsed + ETA) or an NDJSON stream on stderr
//! (`scenario run --progress ndjson`) — one schema-stable JSON object
//! per line. Events carry the run's matrix coordinates and environment
//! seed, so a consumer can correlate them with `batch.json` records.
//!
//! Emitting events never perturbs the simulation: events are built
//! from already-computed records and wall-clock readings only.

use crate::json::Json;
use std::fmt;
use std::sync::Arc;

/// One progress event of a batch run.
///
/// `elapsed_s` is wall time since the batch started; `eta_s` is the
/// linear estimate `elapsed * remaining / completed` over the runs
/// this invocation actually executes (cached cells restored by
/// `--resume` are excluded — they complete instantly).
#[derive(Debug, Clone, PartialEq)]
pub enum ProgressEvent {
    /// The batch is about to execute.
    BatchStarted {
        /// Scenario name.
        scenario: String,
        /// Runs this invocation will execute (matrix minus cached).
        total: usize,
        /// Matrix cells restored from a prior `batch.json`.
        cached: usize,
        /// Worker threads.
        threads: usize,
    },
    /// A worker picked up one matrix cell.
    RunStarted {
        /// Matrix index of the cell.
        index: usize,
        /// Communication radius.
        rc: f64,
        /// Sensing radius.
        rs: f64,
        /// Sensor count.
        n: usize,
        /// Scheme name.
        scheme: String,
        /// Variant label (empty without variants).
        variant: String,
        /// Repetition number.
        rep: usize,
        /// Environment seed of the run.
        env_seed: u64,
    },
    /// A run completed and its record is in place.
    RunFinished {
        /// Matrix index of the cell.
        index: usize,
        /// Communication radius.
        rc: f64,
        /// Sensing radius.
        rs: f64,
        /// Sensor count.
        n: usize,
        /// Scheme name.
        scheme: String,
        /// Variant label (empty without variants).
        variant: String,
        /// Repetition number.
        rep: usize,
        /// Environment seed of the run.
        env_seed: u64,
        /// Final coverage fraction of the run.
        coverage: f64,
        /// Wall seconds this run took, from pickup to its record
        /// landing (its own cost, unlike the batch-wide `elapsed_s`).
        wall_s: f64,
        /// Runs finished so far this invocation.
        completed: usize,
        /// Runs this invocation executes in total.
        total: usize,
        /// Seconds since the batch started.
        elapsed_s: f64,
        /// Estimated seconds to completion (see [`eta_seconds`]).
        eta_s: Option<f64>,
    },
    /// A `--checkpoint-every` snapshot landed on disk.
    CheckpointWritten {
        /// Destination `batch.json`.
        path: String,
        /// Completed runs the checkpoint covers.
        runs: usize,
    },
    /// A checkpoint write failed. Not fatal: the batch goes on, and
    /// only resume granularity is lost.
    CheckpointFailed {
        /// Destination `batch.json`.
        path: String,
        /// The IO error, as text.
        error: String,
    },
    /// Every run finished (before output files are written).
    BatchFinished {
        /// Scenario name.
        scenario: String,
        /// Runs executed this invocation.
        total: usize,
        /// Seconds since the batch started.
        elapsed_s: f64,
    },
}

impl ProgressEvent {
    /// The event as a JSON object with a fixed member order — the
    /// NDJSON schema (`event` discriminates the variant).
    pub fn to_json(&self) -> Json {
        match self {
            ProgressEvent::BatchStarted {
                scenario,
                total,
                cached,
                threads,
            } => Json::obj()
                .field("event", "batch-started")
                .field("scenario", scenario.as_str())
                .field("total", *total)
                .field("cached", *cached)
                .field("threads", *threads),
            ProgressEvent::RunStarted {
                index,
                rc,
                rs,
                n,
                scheme,
                variant,
                rep,
                env_seed,
            } => Json::obj()
                .field("event", "run-started")
                .field("index", *index)
                .field("rc", *rc)
                .field("rs", *rs)
                .field("n", *n)
                .field("scheme", scheme.as_str())
                .field("variant", variant.as_str())
                .field("rep", *rep)
                .field("env_seed", *env_seed),
            ProgressEvent::RunFinished {
                index,
                rc,
                rs,
                n,
                scheme,
                variant,
                rep,
                env_seed,
                coverage,
                wall_s,
                completed,
                total,
                elapsed_s,
                eta_s,
            } => Json::obj()
                .field("event", "run-finished")
                .field("index", *index)
                .field("rc", *rc)
                .field("rs", *rs)
                .field("n", *n)
                .field("scheme", scheme.as_str())
                .field("variant", variant.as_str())
                .field("rep", *rep)
                .field("env_seed", *env_seed)
                .field("coverage", *coverage)
                .field("wall_s", *wall_s)
                .field("completed", *completed)
                .field("total", *total)
                .field("elapsed_s", *elapsed_s)
                .field("eta_s", *eta_s),
            ProgressEvent::CheckpointWritten { path, runs } => Json::obj()
                .field("event", "checkpoint")
                .field("path", path.as_str())
                .field("runs", *runs),
            ProgressEvent::CheckpointFailed { path, error } => Json::obj()
                .field("event", "checkpoint-failed")
                .field("path", path.as_str())
                .field("error", error.as_str()),
            ProgressEvent::BatchFinished {
                scenario,
                total,
                elapsed_s,
            } => Json::obj()
                .field("event", "batch-finished")
                .field("scenario", scenario.as_str())
                .field("total", *total)
                .field("elapsed_s", *elapsed_s),
        }
    }

    /// The event as one NDJSON line (no trailing newline).
    pub fn ndjson_line(&self) -> String {
        self.to_json().compact()
    }
}

/// Linear time-to-completion estimate from `completed` of `total`
/// runs in `elapsed_s` seconds; `None` until the first run finishes
/// (no rate to extrapolate). The human progress line and the NDJSON
/// `run-finished` payload share this derivation.
pub fn eta_seconds(completed: usize, total: usize, elapsed_s: f64) -> Option<f64> {
    if completed == 0 || total < completed {
        return None;
    }
    Some(elapsed_s * (total - completed) as f64 / completed as f64)
}

/// A shared, thread-safe callback receiving [`ProgressEvent`]s during
/// a batch. Workers call it concurrently; the callback must do its
/// own line-atomic output (one `eprintln!` per event qualifies).
#[derive(Clone)]
pub struct ProgressSink(Arc<dyn Fn(&ProgressEvent) + Send + Sync>);

impl ProgressSink {
    /// Wraps a callback.
    pub fn new(callback: impl Fn(&ProgressEvent) + Send + Sync + 'static) -> Self {
        ProgressSink(Arc::new(callback))
    }

    /// Delivers one event.
    pub fn emit(&self, event: &ProgressEvent) {
        (self.0)(event);
    }
}

impl fmt::Debug for ProgressSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("ProgressSink")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ndjson_schema_is_stable() {
        let event = ProgressEvent::RunFinished {
            index: 3,
            rc: 60.0,
            rs: 40.0,
            n: 240,
            scheme: "FLOOR".into(),
            variant: "defaults".into(),
            rep: 1,
            env_seed: 42,
            coverage: 0.5,
            wall_s: 0.25,
            completed: 4,
            total: 8,
            elapsed_s: 2.0,
            eta_s: Some(2.0),
        };
        assert_eq!(
            event.ndjson_line(),
            "{\"event\":\"run-finished\",\"index\":3,\"rc\":60.0,\"rs\":40.0,\"n\":240,\
             \"scheme\":\"FLOOR\",\"variant\":\"defaults\",\"rep\":1,\"env_seed\":42,\
             \"coverage\":0.5,\"wall_s\":0.25,\"completed\":4,\"total\":8,\"elapsed_s\":2.0,\"eta_s\":2.0}"
        );
        let line = ProgressEvent::CheckpointWritten {
            path: "out/batch.json".into(),
            runs: 4,
        }
        .ndjson_line();
        assert_eq!(
            line,
            "{\"event\":\"checkpoint\",\"path\":\"out/batch.json\",\"runs\":4}"
        );
        // every line parses back as a JSON object
        assert!(Json::parse(&line).is_ok());
    }

    #[test]
    fn missing_eta_serializes_as_null() {
        let event = ProgressEvent::RunFinished {
            index: 0,
            rc: 60.0,
            rs: 40.0,
            n: 10,
            scheme: "CPVF".into(),
            variant: String::new(),
            rep: 0,
            env_seed: 1,
            coverage: 0.1,
            wall_s: 0.0,
            completed: 0,
            total: 2,
            elapsed_s: 0.0,
            eta_s: None,
        };
        assert!(event.ndjson_line().contains("\"eta_s\":null"));
    }

    #[test]
    fn eta_extrapolates_linearly() {
        assert_eq!(eta_seconds(0, 8, 1.0), None);
        assert_eq!(eta_seconds(2, 8, 10.0), Some(30.0));
        assert_eq!(eta_seconds(8, 8, 10.0), Some(0.0));
        assert_eq!(eta_seconds(9, 8, 10.0), None);
    }
}
