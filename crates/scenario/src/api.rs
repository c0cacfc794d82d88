//! The typed service API shared by the CLI and `scenario serve`.
//!
//! Every operation the `scenario` binary performs is expressed as a
//! [`Request`] and answered with a [`Response`]; the CLI subcommands
//! and the Unix-socket daemon are two thin transports over this one
//! vocabulary. Batches submitted to the daemon become jobs — a
//! [`JobInfo`] carrying a [`JobState`] that walks the lifecycle
//! `queued → running → checkpointed* → done | failed` with transitions
//! validated by [`JobState::can_transition`]. Failures are a closed
//! [`ApiError`] taxonomy (machine-readable [`ApiError::code`], HTTP
//! status via [`ApiError::http_status`]) instead of ad-hoc strings.
//!
//! All types serialize to the crate's deterministic [`Json`] value
//! (`{"request": ...}` / `{"response": ...}` discriminants) and parse
//! back losslessly; the round trip is what the wire protocol in
//! [`crate::wire`] frames and what `--json` output modes print.

use crate::json::Json;
use crate::progress::ProgressEvent;
use std::fmt;

/// Protocol version announced by [`Response::Pong`]. Bumped when the
/// request/response vocabulary changes incompatibly.
pub const API_VERSION: &str = "1";

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// The closed error taxonomy of the service API.
///
/// Every fallible operation returns one of these instead of an ad-hoc
/// `String`; [`ApiError::code`] gives the stable machine-readable
/// discriminant and [`ApiError::http_status`] the wire status.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ApiError {
    /// The command line was malformed (unknown flag, missing operand).
    Usage(String),
    /// A scenario spec failed to parse or validate.
    InvalidSpec(String),
    /// A job digest, artifact or spec path does not exist.
    NotFound(String),
    /// The daemon's bounded submission queue is full.
    QueueFull {
        /// Queue capacity the daemon was started with.
        capacity: usize,
    },
    /// The operation conflicts with concurrent state (e.g. a second
    /// `scenario run` against a locked `batch.json`).
    Conflict(String),
    /// The peer violated the wire protocol (bad framing, bad JSON,
    /// oversized body).
    Protocol(String),
    /// An I/O operation failed.
    Io(String),
    /// An internal invariant broke (bug or corrupted store).
    Internal(String),
}

impl ApiError {
    /// Stable machine-readable error code.
    pub fn code(&self) -> &'static str {
        match self {
            ApiError::Usage(_) => "usage",
            ApiError::InvalidSpec(_) => "invalid-spec",
            ApiError::NotFound(_) => "not-found",
            ApiError::QueueFull { .. } => "queue-full",
            ApiError::Conflict(_) => "conflict",
            ApiError::Protocol(_) => "protocol",
            ApiError::Io(_) => "io",
            ApiError::Internal(_) => "internal",
        }
    }

    /// HTTP status code used when this error crosses the socket.
    pub fn http_status(&self) -> u16 {
        match self {
            ApiError::Usage(_) | ApiError::InvalidSpec(_) | ApiError::Protocol(_) => 400,
            ApiError::NotFound(_) => 404,
            ApiError::Conflict(_) => 409,
            ApiError::QueueFull { .. } => 429,
            ApiError::Io(_) | ApiError::Internal(_) => 500,
        }
    }

    /// Rebuilds the error from its `code` + display message (the
    /// inverse of [`Response::Error`]'s serialization).
    fn from_code(code: &str, message: &str, capacity: Option<usize>) -> ApiError {
        match code {
            "usage" => ApiError::Usage(message.to_string()),
            "invalid-spec" => ApiError::InvalidSpec(message.to_string()),
            "not-found" => ApiError::NotFound(message.to_string()),
            "queue-full" => ApiError::QueueFull {
                capacity: capacity.unwrap_or(0),
            },
            "conflict" => ApiError::Conflict(message.to_string()),
            "io" => ApiError::Io(message.to_string()),
            "internal" => ApiError::Internal(message.to_string()),
            _ => ApiError::Protocol(message.to_string()),
        }
    }
}

impl fmt::Display for ApiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ApiError::Usage(m)
            | ApiError::InvalidSpec(m)
            | ApiError::NotFound(m)
            | ApiError::Conflict(m)
            | ApiError::Protocol(m)
            | ApiError::Io(m)
            | ApiError::Internal(m) => f.write_str(m),
            ApiError::QueueFull { capacity } => {
                write!(f, "submission queue full (capacity {capacity})")
            }
        }
    }
}

impl std::error::Error for ApiError {}

impl From<std::io::Error> for ApiError {
    fn from(e: std::io::Error) -> ApiError {
        ApiError::Io(e.to_string())
    }
}

// ---------------------------------------------------------------------------
// Job lifecycle
// ---------------------------------------------------------------------------

/// Where a job is in its lifecycle.
///
/// Legal transitions (enforced by [`JobState::can_transition`] and the
/// job store):
///
/// ```text
/// queued ──► running ──► checkpointed ──► done
///   ▲  │        │  ▲           │  │
///   │  └──────► │  └───────────┘  │   (checkpointed repeats)
///   │          failed ◄───────────┘
///   └── failed / running / checkpointed   (retry & restart recovery)
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobState {
    /// Waiting in the daemon's FIFO.
    Queued,
    /// Executing on the batch runner's threads.
    Running,
    /// Executing, with `runs` runs durable in `batch.json`.
    Checkpointed {
        /// Completed runs covered by the last checkpoint.
        runs: usize,
    },
    /// All runs finished and artifacts are on disk.
    Done,
    /// The batch errored; resubmitting the spec retries it.
    Failed {
        /// Human-readable failure reason.
        error: String,
    },
}

impl JobState {
    /// The stable kind discriminant (`"queued"`, `"running"`, ...).
    pub fn kind(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Checkpointed { .. } => "checkpointed",
            JobState::Done => "done",
            JobState::Failed { .. } => "failed",
        }
    }

    /// Whether the job has reached a final state.
    pub fn is_terminal(&self) -> bool {
        matches!(self, JobState::Done | JobState::Failed { .. })
    }

    /// Whether moving from `self` to `next` is a legal lifecycle edge.
    ///
    /// `running`/`checkpointed → queued` models daemon-restart
    /// recovery; `failed → queued` models an explicit retry. `done` is
    /// immutable.
    pub fn can_transition(&self, next: &JobState) -> bool {
        matches!(
            (self, next),
            (
                JobState::Queued,
                JobState::Running | JobState::Failed { .. }
            ) | (
                JobState::Running | JobState::Checkpointed { .. },
                JobState::Checkpointed { .. } | JobState::Done | JobState::Failed { .. },
            ) | (
                JobState::Running | JobState::Checkpointed { .. } | JobState::Failed { .. },
                JobState::Queued,
            )
        )
    }
}

/// A job's public description: identity, state and progress.
#[derive(Debug, Clone, PartialEq)]
pub struct JobInfo {
    /// Content address of the submitted spec ([`crate::ScenarioSpec::job_digest`]).
    pub digest: String,
    /// Scenario name from the spec.
    pub scenario: String,
    /// Lifecycle state.
    pub state: JobState,
    /// Runs in the spec's full matrix.
    pub total_runs: usize,
    /// Runs finished so far (checkpoint-covered runs once persisted).
    pub completed_runs: usize,
}

impl JobInfo {
    /// The job as a JSON object — the schema of `job.json` in the
    /// store and of every job payload the daemon serves. The state is
    /// flattened: `"state"` plus optional `"runs"` (checkpointed) or
    /// `"error"` (failed).
    pub fn to_json(&self) -> Json {
        let mut obj = Json::obj()
            .field("digest", self.digest.as_str())
            .field("scenario", self.scenario.as_str())
            .field("state", self.state.kind());
        if let JobState::Checkpointed { runs } = &self.state {
            obj = obj.field("runs", *runs);
        }
        if let JobState::Failed { error } = &self.state {
            obj = obj.field("error", error.as_str());
        }
        obj.field("total_runs", self.total_runs)
            .field("completed_runs", self.completed_runs)
    }

    /// Parses the [`JobInfo::to_json`] schema back.
    pub fn from_json(value: &Json) -> Result<JobInfo, ApiError> {
        let state = match need_str(value, "state", "job")?.as_str() {
            "queued" => JobState::Queued,
            "running" => JobState::Running,
            "checkpointed" => JobState::Checkpointed {
                runs: need_usize(value, "runs", "job")?,
            },
            "done" => JobState::Done,
            "failed" => JobState::Failed {
                error: need_str(value, "error", "job")?,
            },
            other => {
                return Err(ApiError::Protocol(format!("unknown job state '{other}'")));
            }
        };
        Ok(JobInfo {
            digest: need_str(value, "digest", "job")?,
            scenario: need_str(value, "scenario", "job")?,
            state,
            total_runs: need_usize(value, "total_runs", "job")?,
            completed_runs: need_usize(value, "completed_runs", "job")?,
        })
    }
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// One operation a client asks of the service.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness check; answered with [`Response::Pong`].
    Ping,
    /// Submit a scenario spec (TOML text) as a batch job.
    Submit {
        /// The spec document, exactly as a `scenarios/*.toml` file.
        spec_toml: String,
    },
    /// Fetch one job's [`JobInfo`].
    Status {
        /// Job digest.
        job: String,
    },
    /// List all jobs in the store.
    List,
    /// Stream NDJSON progress events for a job until it finishes.
    Subscribe {
        /// Job digest.
        job: String,
    },
    /// Fetch a stored artifact (`batch.json`, `report.txt`, ...).
    Artifact {
        /// Job digest.
        job: String,
        /// Artifact file name.
        name: String,
    },
    /// Diff the stored `batch.json` of two finished jobs.
    Diff {
        /// Baseline job digest.
        job_a: String,
        /// Candidate job digest.
        job_b: String,
        /// Mean-relative tolerance.
        tol: f64,
    },
    /// Render the profile report of a finished job.
    ProfileReport {
        /// Job digest.
        job: String,
    },
    /// Compare per-kernel timings of two finished jobs.
    ProfileDiff {
        /// Baseline job digest.
        job_a: String,
        /// Candidate job digest.
        job_b: String,
        /// Relative time tolerance.
        tol: f64,
    },
    /// Ask the daemon to finish in-flight work and exit.
    Shutdown,
}

impl Request {
    /// The request as a JSON object (`"request"` discriminates).
    pub fn to_json(&self) -> Json {
        match self {
            Request::Ping => Json::obj().field("request", "ping"),
            Request::Submit { spec_toml } => Json::obj()
                .field("request", "submit")
                .field("spec_toml", spec_toml.as_str()),
            Request::Status { job } => Json::obj()
                .field("request", "status")
                .field("job", job.as_str()),
            Request::List => Json::obj().field("request", "list"),
            Request::Subscribe { job } => Json::obj()
                .field("request", "subscribe")
                .field("job", job.as_str()),
            Request::Artifact { job, name } => Json::obj()
                .field("request", "artifact")
                .field("job", job.as_str())
                .field("name", name.as_str()),
            Request::Diff { job_a, job_b, tol } => Json::obj()
                .field("request", "diff")
                .field("job_a", job_a.as_str())
                .field("job_b", job_b.as_str())
                .field("tol", *tol),
            Request::ProfileReport { job } => Json::obj()
                .field("request", "profile-report")
                .field("job", job.as_str()),
            Request::ProfileDiff { job_a, job_b, tol } => Json::obj()
                .field("request", "profile-diff")
                .field("job_a", job_a.as_str())
                .field("job_b", job_b.as_str())
                .field("tol", *tol),
            Request::Shutdown => Json::obj().field("request", "shutdown"),
        }
    }

    /// Parses a request object ([`Request::to_json`]'s inverse).
    pub fn from_json(value: &Json) -> Result<Request, ApiError> {
        match need_str(value, "request", "request")?.as_str() {
            "ping" => Ok(Request::Ping),
            "submit" => Ok(Request::Submit {
                spec_toml: need_str(value, "spec_toml", "submit")?,
            }),
            "status" => Ok(Request::Status {
                job: need_str(value, "job", "status")?,
            }),
            "list" => Ok(Request::List),
            "subscribe" => Ok(Request::Subscribe {
                job: need_str(value, "job", "subscribe")?,
            }),
            "artifact" => Ok(Request::Artifact {
                job: need_str(value, "job", "artifact")?,
                name: need_str(value, "name", "artifact")?,
            }),
            "diff" => Ok(Request::Diff {
                job_a: need_str(value, "job_a", "diff")?,
                job_b: need_str(value, "job_b", "diff")?,
                tol: need_f64(value, "tol", "diff")?,
            }),
            "profile-report" => Ok(Request::ProfileReport {
                job: need_str(value, "job", "profile-report")?,
            }),
            "profile-diff" => Ok(Request::ProfileDiff {
                job_a: need_str(value, "job_a", "profile-diff")?,
                job_b: need_str(value, "job_b", "profile-diff")?,
                tol: need_f64(value, "tol", "profile-diff")?,
            }),
            other => Err(ApiError::Protocol(format!("unknown request '{other}'"))),
        }
        .or_else(|e| {
            // `shutdown` falls through the match above only on typo'd
            // payload fields; re-check the discriminant before failing.
            if value.get("request").and_then(Json::as_str) == Some("shutdown") {
                Ok(Request::Shutdown)
            } else {
                Err(e)
            }
        })
    }
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

/// One entry of `scenario list`: a spec file on disk.
#[derive(Debug, Clone, PartialEq)]
pub struct SpecEntry {
    /// Path of the spec file.
    pub path: String,
    /// Scenario name (or the parse error for broken files).
    pub scenario: String,
    /// Matrix size (0 when the file failed to parse).
    pub runs: usize,
    /// One-line human summary.
    pub summary: String,
}

impl SpecEntry {
    fn to_json(&self) -> Json {
        Json::obj()
            .field("path", self.path.as_str())
            .field("scenario", self.scenario.as_str())
            .field("runs", self.runs)
            .field("summary", self.summary.as_str())
    }

    fn from_json(value: &Json) -> Result<SpecEntry, ApiError> {
        Ok(SpecEntry {
            path: need_str(value, "path", "spec entry")?,
            scenario: need_str(value, "scenario", "spec entry")?,
            runs: need_usize(value, "runs", "spec entry")?,
            summary: need_str(value, "summary", "spec entry")?,
        })
    }
}

/// One answer from the service (or from a CLI subcommand in `--json`
/// mode — both speak the same vocabulary).
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The daemon is alive.
    Pong {
        /// Protocol version ([`API_VERSION`]).
        version: String,
    },
    /// A spec was submitted.
    Submitted {
        /// The job it maps to (new or existing).
        job: JobInfo,
        /// Whether an identical digest was already in the store.
        deduped: bool,
        /// Jobs waiting in the FIFO after this submission.
        queue_depth: usize,
    },
    /// One job's state.
    Job {
        /// The job.
        job: JobInfo,
    },
    /// Every job in the store, sorted by digest.
    Jobs {
        /// The jobs.
        jobs: Vec<JobInfo>,
    },
    /// A stored artifact's contents.
    Artifact {
        /// Job digest.
        job: String,
        /// Artifact file name.
        name: String,
        /// File contents (UTF-8).
        contents: String,
    },
    /// A batch diff result.
    Diff {
        /// Whether the batches match within tolerance.
        matches: bool,
        /// Tolerance used.
        tol: f64,
        /// Rendered report.
        report: String,
    },
    /// A benchmark diff result.
    BenchDiff {
        /// Whether all kernels are within tolerance.
        matches: bool,
        /// Tolerance used.
        tol: f64,
        /// Label of the baseline record (file path or job digest).
        baseline: String,
        /// Label of the current record (file path or job digest).
        current: String,
        /// Rendered report.
        report: String,
        /// Per-kernel regression/improvement annotations.
        annotations: Vec<String>,
    },
    /// A rendered text report (profile report, describe, ...).
    Report {
        /// The report text.
        text: String,
    },
    /// The daemon acknowledged [`Request::Shutdown`].
    ShuttingDown,
    /// `scenario run` finished a batch locally (CLI-only).
    RunFinished {
        /// The completed batch as a job description.
        job: JobInfo,
        /// Output directory holding the artifacts.
        out_dir: String,
        /// Rendered result table.
        report: String,
    },
    /// `scenario list` output (CLI-only).
    Specs {
        /// Spec files found.
        specs: Vec<SpecEntry>,
    },
    /// `scenario describe` output (CLI-only).
    Spec {
        /// Scenario name.
        scenario: String,
        /// Full-spec content address ([`crate::ScenarioSpec::job_digest`]).
        digest: String,
        /// Repetition-invariant digest guarding `--resume`.
        resume_digest: String,
        /// Matrix size.
        total_runs: usize,
        /// Canonical TOML of the spec.
        spec_toml: String,
    },
    /// The operation failed.
    Error {
        /// What went wrong.
        error: ApiError,
    },
}

impl Response {
    /// The response as a JSON object (`"response"` discriminates;
    /// errors flatten their code/message into the same object).
    pub fn to_json(&self) -> Json {
        match self {
            Response::Pong { version } => Json::obj()
                .field("response", "pong")
                .field("version", version.as_str()),
            Response::Submitted {
                job,
                deduped,
                queue_depth,
            } => Json::obj()
                .field("response", "submitted")
                .field("job", job.to_json())
                .field("deduped", *deduped)
                .field("queue_depth", *queue_depth),
            Response::Job { job } => Json::obj()
                .field("response", "job")
                .field("job", job.to_json()),
            Response::Jobs { jobs } => Json::obj().field("response", "jobs").field(
                "jobs",
                Json::Arr(jobs.iter().map(JobInfo::to_json).collect()),
            ),
            Response::Artifact {
                job,
                name,
                contents,
            } => Json::obj()
                .field("response", "artifact")
                .field("job", job.as_str())
                .field("name", name.as_str())
                .field("contents", contents.as_str()),
            Response::Diff {
                matches,
                tol,
                report,
            } => Json::obj()
                .field("response", "diff")
                .field("matches", *matches)
                .field("tol", *tol)
                .field("report", report.as_str()),
            Response::BenchDiff {
                matches,
                tol,
                baseline,
                current,
                report,
                annotations,
            } => Json::obj()
                .field("response", "bench-diff")
                .field("matches", *matches)
                .field("tol", *tol)
                .field("baseline", baseline.as_str())
                .field("current", current.as_str())
                .field("report", report.as_str())
                .field(
                    "annotations",
                    Json::Arr(annotations.iter().map(|a| Json::Str(a.clone())).collect()),
                ),
            Response::Report { text } => Json::obj()
                .field("response", "report")
                .field("text", text.as_str()),
            Response::ShuttingDown => Json::obj().field("response", "shutting-down"),
            Response::RunFinished {
                job,
                out_dir,
                report,
            } => Json::obj()
                .field("response", "run-finished")
                .field("job", job.to_json())
                .field("out_dir", out_dir.as_str())
                .field("report", report.as_str()),
            Response::Specs { specs } => Json::obj().field("response", "specs").field(
                "specs",
                Json::Arr(specs.iter().map(SpecEntry::to_json).collect()),
            ),
            Response::Spec {
                scenario,
                digest,
                resume_digest,
                total_runs,
                spec_toml,
            } => Json::obj()
                .field("response", "spec")
                .field("scenario", scenario.as_str())
                .field("digest", digest.as_str())
                .field("resume_digest", resume_digest.as_str())
                .field("total_runs", *total_runs)
                .field("spec_toml", spec_toml.as_str()),
            Response::Error { error } => {
                let mut obj = Json::obj()
                    .field("response", "error")
                    .field("code", error.code())
                    .field("message", error.to_string());
                if let ApiError::QueueFull { capacity } = error {
                    obj = obj.field("capacity", *capacity);
                }
                obj
            }
        }
    }

    /// Parses a response object ([`Response::to_json`]'s inverse).
    pub fn from_json(value: &Json) -> Result<Response, ApiError> {
        match need_str(value, "response", "response")?.as_str() {
            "pong" => Ok(Response::Pong {
                version: need_str(value, "version", "pong")?,
            }),
            "submitted" => Ok(Response::Submitted {
                job: JobInfo::from_json(need(value, "job", "submitted")?)?,
                deduped: need_bool(value, "deduped", "submitted")?,
                queue_depth: need_usize(value, "queue_depth", "submitted")?,
            }),
            "job" => Ok(Response::Job {
                job: JobInfo::from_json(need(value, "job", "job")?)?,
            }),
            "jobs" => {
                let items = need(value, "jobs", "jobs")?
                    .as_array()
                    .ok_or_else(|| ApiError::Protocol("'jobs' must be an array".into()))?;
                Ok(Response::Jobs {
                    jobs: items
                        .iter()
                        .map(JobInfo::from_json)
                        .collect::<Result<_, _>>()?,
                })
            }
            "artifact" => Ok(Response::Artifact {
                job: need_str(value, "job", "artifact")?,
                name: need_str(value, "name", "artifact")?,
                contents: need_str(value, "contents", "artifact")?,
            }),
            "diff" => Ok(Response::Diff {
                matches: need_bool(value, "matches", "diff")?,
                tol: need_f64(value, "tol", "diff")?,
                report: need_str(value, "report", "diff")?,
            }),
            "bench-diff" => {
                let items = need(value, "annotations", "bench-diff")?
                    .as_array()
                    .ok_or_else(|| ApiError::Protocol("'annotations' must be an array".into()))?;
                Ok(Response::BenchDiff {
                    matches: need_bool(value, "matches", "bench-diff")?,
                    tol: need_f64(value, "tol", "bench-diff")?,
                    baseline: need_str(value, "baseline", "bench-diff")?,
                    current: need_str(value, "current", "bench-diff")?,
                    report: need_str(value, "report", "bench-diff")?,
                    annotations: items
                        .iter()
                        .map(|a| {
                            a.as_str().map(str::to_string).ok_or_else(|| {
                                ApiError::Protocol("annotations must be strings".into())
                            })
                        })
                        .collect::<Result<_, _>>()?,
                })
            }
            "report" => Ok(Response::Report {
                text: need_str(value, "text", "report")?,
            }),
            "shutting-down" => Ok(Response::ShuttingDown),
            "run-finished" => Ok(Response::RunFinished {
                job: JobInfo::from_json(need(value, "job", "run-finished")?)?,
                out_dir: need_str(value, "out_dir", "run-finished")?,
                report: need_str(value, "report", "run-finished")?,
            }),
            "specs" => {
                let items = need(value, "specs", "specs")?
                    .as_array()
                    .ok_or_else(|| ApiError::Protocol("'specs' must be an array".into()))?;
                Ok(Response::Specs {
                    specs: items
                        .iter()
                        .map(SpecEntry::from_json)
                        .collect::<Result<_, _>>()?,
                })
            }
            "spec" => Ok(Response::Spec {
                scenario: need_str(value, "scenario", "spec")?,
                digest: need_str(value, "digest", "spec")?,
                resume_digest: need_str(value, "resume_digest", "spec")?,
                total_runs: need_usize(value, "total_runs", "spec")?,
                spec_toml: need_str(value, "spec_toml", "spec")?,
            }),
            "error" => Ok(Response::Error {
                error: ApiError::from_code(
                    &need_str(value, "code", "error")?,
                    &need_str(value, "message", "error")?,
                    value.get("capacity").and_then(Json::as_usize),
                ),
            }),
            other => Err(ApiError::Protocol(format!("unknown response '{other}'"))),
        }
    }

    /// Whether this response reports a failed operation (drives the
    /// CLI exit code): errors, and diff results that don't match.
    pub fn indicates_failure(&self) -> bool {
        match self {
            Response::Error { .. } => true,
            Response::Diff { matches, .. } | Response::BenchDiff { matches, .. } => !matches,
            _ => false,
        }
    }
}

// ---------------------------------------------------------------------------
// Subscription event lines
// ---------------------------------------------------------------------------

/// A batch progress event scoped to a job: the [`ProgressEvent`]
/// NDJSON schema with a leading `"job"` member, as streamed to
/// [`Request::Subscribe`] clients.
pub fn job_event_line(digest: &str, event: &ProgressEvent) -> String {
    let Json::Obj(members) = event.to_json() else {
        unreachable!("progress events serialize as objects");
    };
    let mut scoped = vec![("job".to_string(), Json::Str(digest.to_string()))];
    scoped.extend(members);
    Json::Obj(scoped).compact()
}

/// The `job-state` NDJSON line announcing a lifecycle transition on a
/// subscription stream (terminal states end the stream).
pub fn job_state_line(digest: &str, state: &JobState) -> String {
    let mut obj = Json::obj()
        .field("job", digest)
        .field("event", "job-state")
        .field("state", state.kind());
    if let JobState::Checkpointed { runs } = state {
        obj = obj.field("runs", *runs);
    }
    if let JobState::Failed { error } = state {
        obj = obj.field("error", error.as_str());
    }
    obj.compact()
}

// ---------------------------------------------------------------------------
// Field extraction helpers
// ---------------------------------------------------------------------------

fn need<'a>(value: &'a Json, key: &str, what: &str) -> Result<&'a Json, ApiError> {
    value
        .get(key)
        .ok_or_else(|| ApiError::Protocol(format!("{what}: missing field '{key}'")))
}

fn need_str(value: &Json, key: &str, what: &str) -> Result<String, ApiError> {
    need(value, key, what)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| ApiError::Protocol(format!("{what}: field '{key}' must be a string")))
}

fn need_usize(value: &Json, key: &str, what: &str) -> Result<usize, ApiError> {
    need(value, key, what)?
        .as_usize()
        .ok_or_else(|| ApiError::Protocol(format!("{what}: field '{key}' must be an integer")))
}

fn need_f64(value: &Json, key: &str, what: &str) -> Result<f64, ApiError> {
    need(value, key, what)?
        .as_f64()
        .ok_or_else(|| ApiError::Protocol(format!("{what}: field '{key}' must be a number")))
}

fn need_bool(value: &Json, key: &str, what: &str) -> Result<bool, ApiError> {
    need(value, key, what)?
        .as_bool()
        .ok_or_else(|| ApiError::Protocol(format!("{what}: field '{key}' must be a boolean")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_request(req: Request) {
        let text = req.to_json().compact();
        let parsed = Request::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(parsed, req, "request round trip failed for {text}");
    }

    fn roundtrip_response(resp: Response) {
        let text = resp.to_json().pretty();
        let parsed = Response::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(parsed, resp, "response round trip failed for {text}");
    }

    fn job() -> JobInfo {
        JobInfo {
            digest: "00ff00ff00ff00ff".into(),
            scenario: "smoke".into(),
            state: JobState::Checkpointed { runs: 3 },
            total_runs: 8,
            completed_runs: 3,
        }
    }

    #[test]
    fn every_request_round_trips() {
        roundtrip_request(Request::Ping);
        roundtrip_request(Request::Submit {
            spec_toml: "name = \"x\"\n".into(),
        });
        roundtrip_request(Request::Status { job: "ab".into() });
        roundtrip_request(Request::List);
        roundtrip_request(Request::Subscribe { job: "ab".into() });
        roundtrip_request(Request::Artifact {
            job: "ab".into(),
            name: "batch.json".into(),
        });
        roundtrip_request(Request::Diff {
            job_a: "a".into(),
            job_b: "b".into(),
            tol: 1e-9,
        });
        roundtrip_request(Request::ProfileReport { job: "ab".into() });
        roundtrip_request(Request::ProfileDiff {
            job_a: "a".into(),
            job_b: "b".into(),
            tol: 0.25,
        });
        roundtrip_request(Request::Shutdown);
    }

    #[test]
    fn every_response_round_trips() {
        roundtrip_response(Response::Pong {
            version: API_VERSION.into(),
        });
        roundtrip_response(Response::Submitted {
            job: job(),
            deduped: true,
            queue_depth: 4,
        });
        roundtrip_response(Response::Job { job: job() });
        roundtrip_response(Response::Jobs {
            jobs: vec![
                job(),
                JobInfo {
                    state: JobState::Failed {
                        error: "boom".into(),
                    },
                    ..job()
                },
            ],
        });
        roundtrip_response(Response::Artifact {
            job: "ab".into(),
            name: "report.txt".into(),
            contents: "line one\nline \"two\"\n".into(),
        });
        roundtrip_response(Response::Diff {
            matches: false,
            tol: 1e-9,
            report: "MISMATCH\n".into(),
        });
        roundtrip_response(Response::BenchDiff {
            matches: true,
            tol: 0.25,
            baseline: "BENCH_pr7.json".into(),
            current: "BENCH_pr8.json".into(),
            report: "ok\n".into(),
            annotations: vec!["kernel a: +1%".into()],
        });
        roundtrip_response(Response::Report {
            text: "profile\n".into(),
        });
        roundtrip_response(Response::ShuttingDown);
        roundtrip_response(Response::RunFinished {
            job: job(),
            out_dir: "out".into(),
            report: "table\n".into(),
        });
        roundtrip_response(Response::Specs {
            specs: vec![SpecEntry {
                path: "scenarios/smoke.toml".into(),
                scenario: "smoke".into(),
                runs: 8,
                summary: "8 runs".into(),
            }],
        });
        roundtrip_response(Response::Spec {
            scenario: "smoke".into(),
            digest: "ff".into(),
            resume_digest: "ee".into(),
            total_runs: 8,
            spec_toml: "name = \"smoke\"\n".into(),
        });
        for error in [
            ApiError::Usage("bad flag".into()),
            ApiError::InvalidSpec("no schemes".into()),
            ApiError::NotFound("job ff".into()),
            ApiError::QueueFull { capacity: 64 },
            ApiError::Conflict("locked".into()),
            ApiError::Protocol("bad frame".into()),
            ApiError::Io("EPIPE".into()),
            ApiError::Internal("bug".into()),
        ] {
            roundtrip_response(Response::Error { error });
        }
    }

    #[test]
    fn error_codes_and_statuses_are_stable() {
        assert_eq!(ApiError::Usage(String::new()).code(), "usage");
        assert_eq!(ApiError::Usage(String::new()).http_status(), 400);
        assert_eq!(ApiError::NotFound(String::new()).http_status(), 404);
        assert_eq!(ApiError::Conflict(String::new()).http_status(), 409);
        assert_eq!(ApiError::QueueFull { capacity: 1 }.http_status(), 429);
        assert_eq!(ApiError::Internal(String::new()).http_status(), 500);
        assert_eq!(
            ApiError::QueueFull { capacity: 64 }.to_string(),
            "submission queue full (capacity 64)"
        );
    }

    #[test]
    fn state_machine_edges() {
        use JobState::*;
        let ck = |n| Checkpointed { runs: n };
        let failed = || Failed { error: "x".into() };
        assert!(Queued.can_transition(&Running));
        assert!(Queued.can_transition(&failed()));
        assert!(!Queued.can_transition(&Done));
        assert!(Running.can_transition(&ck(1)));
        assert!(Running.can_transition(&Done));
        assert!(Running.can_transition(&Queued), "restart recovery");
        assert!(ck(1).can_transition(&ck(2)));
        assert!(ck(2).can_transition(&Done));
        assert!(ck(2).can_transition(&Queued), "restart recovery");
        assert!(failed().can_transition(&Queued), "retry");
        assert!(!Done.can_transition(&Queued), "done is immutable");
        assert!(!Done.can_transition(&Running));
        assert!(!failed().can_transition(&Running));
        assert!(Done.is_terminal() && failed().is_terminal());
        assert!(!Queued.is_terminal() && !ck(1).is_terminal());
    }

    #[test]
    fn malformed_payloads_are_protocol_errors() {
        let bad = Json::parse("{\"request\":\"submit\"}").unwrap();
        let err = Request::from_json(&bad).unwrap_err();
        assert_eq!(err.code(), "protocol");
        let unknown = Json::parse("{\"request\":\"frobnicate\"}").unwrap();
        assert!(Request::from_json(&unknown).is_err());
        let not_obj = Json::parse("[1,2]").unwrap();
        assert!(Response::from_json(&not_obj).is_err());
    }

    #[test]
    fn subscription_lines_are_schema_stable() {
        let line = job_event_line(
            "ab12",
            &ProgressEvent::CheckpointWritten {
                path: "jobs/ab12/batch.json".into(),
                runs: 4,
            },
        );
        assert_eq!(
            line,
            "{\"job\":\"ab12\",\"event\":\"checkpoint\",\
             \"path\":\"jobs/ab12/batch.json\",\"runs\":4}"
        );
        assert_eq!(
            job_state_line("ab12", &JobState::Done),
            "{\"job\":\"ab12\",\"event\":\"job-state\",\"state\":\"done\"}"
        );
        assert_eq!(
            job_state_line(
                "ab12",
                &JobState::Failed {
                    error: "boom".into()
                }
            ),
            "{\"job\":\"ab12\",\"event\":\"job-state\",\"state\":\"failed\",\"error\":\"boom\"}"
        );
        assert!(Json::parse(&line).is_ok());
    }
}
