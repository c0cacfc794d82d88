//! The `scenario serve` daemon: batches as jobs behind a Unix socket.
//!
//! [`serve`] binds a Unix socket, opens (or creates) a content-addressed
//! [`JobStore`], re-queues whatever a previous daemon left unfinished,
//! and then runs two loops: an accept loop answering one framed
//! [`Request`] per connection (see [`crate::wire`]) and a single
//! executor thread draining the bounded submission FIFO, one batch
//! at a time, through the batch runner ([`RunConfig`]).
//!
//! Submissions dedup by construction — the job address is the spec
//! digest, so resubmitting an identical spec attaches to the existing
//! job (or returns the finished artifact) instead of queueing a second
//! execution; a failed digest is re-queued as a retry. Subscribed
//! clients receive the batch's [`ProgressEvent`] stream as NDJSON
//! lines scoped with the job digest, plus `job-state` lines on every
//! lifecycle transition; terminal states close the stream.
//!
//! Durability mirrors the CLI: checkpoints land in the job directory's
//! `batch.json`, so a SIGKILL'd daemon restarts, re-queues the job and
//! resumes from the last checkpoint — the finished artifact is
//! byte-identical to an uninterrupted `scenario run` of the same spec.

use crate::api::{
    job_event_line, job_state_line, ApiError, JobState, Request, Response, API_VERSION,
};
use crate::bench::diff_bench;
use crate::diff::{diff_batches, BatchFile};
use crate::jobstore::{write_atomic, BatchLock, JobStore};
use crate::profile::ProfileRecord;
use crate::progress::{ProgressEvent, ProgressSink};
use crate::runner::RunConfig;
use crate::spec::ScenarioSpec;
use crate::wire::{read_request, write_ndjson_header, write_response};
use std::collections::{HashMap, VecDeque};
use std::io::{BufReader, Write as _};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// How the daemon is wired up.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Unix socket path to listen on.
    pub socket: PathBuf,
    /// Root directory of the content-addressed job store.
    pub jobs_root: PathBuf,
    /// Worker threads per batch (`None`: the runner's default).
    pub threads: Option<usize>,
    /// Bounded submission FIFO capacity; further submissions are
    /// rejected with `queue-full`.
    pub queue_capacity: usize,
    /// Checkpoint interval in runs (0 disables mid-run durability).
    pub checkpoint_every: usize,
    /// Whether executed batches also write `profile.json`.
    pub profiling: bool,
}

impl ServeConfig {
    /// A config with the default queue capacity (64), checkpoint
    /// interval (25) and profiling on.
    pub fn new(socket: impl Into<PathBuf>, jobs_root: impl Into<PathBuf>) -> ServeConfig {
        ServeConfig {
            socket: socket.into(),
            jobs_root: jobs_root.into(),
            threads: None,
            queue_capacity: 64,
            checkpoint_every: 25,
            profiling: true,
        }
    }
}

struct Server {
    config: ServeConfig,
    store: JobStore,
    queue: Mutex<VecDeque<String>>,
    queue_cv: Condvar,
    shutdown: AtomicBool,
    subscribers: Mutex<HashMap<String, Vec<UnixStream>>>,
}

/// Runs the daemon until a [`Request::Shutdown`] arrives. Blocks the
/// calling thread; in-flight batches finish before it returns (queued
/// but unstarted jobs stay `queued` and are recovered on the next
/// start).
pub fn serve(config: ServeConfig) -> Result<(), ApiError> {
    let listener = bind(&config.socket)?;
    let store = JobStore::open(&config.jobs_root)?;
    let server = Arc::new(Server {
        config,
        store,
        queue: Mutex::new(VecDeque::new()),
        queue_cv: Condvar::new(),
        shutdown: AtomicBool::new(false),
        subscribers: Mutex::new(HashMap::new()),
    });

    // a previous daemon's unfinished jobs resume first, in digest order
    let recovered = server.store.recover()?;
    if !recovered.is_empty() {
        eprintln!("serve: recovered {} unfinished job(s)", recovered.len());
        server.queue.lock().unwrap().extend(recovered);
        server.queue_cv.notify_all();
    }

    let executor = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || executor_loop(&server))
    };

    eprintln!(
        "serve: listening on {} (jobs under {})",
        server.config.socket.display(),
        server.config.jobs_root.display()
    );
    let mut handlers: Vec<std::thread::JoinHandle<()>> = Vec::new();
    for stream in listener.incoming() {
        if server.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let server = Arc::clone(&server);
        handlers.retain(|h| !h.is_finished());
        handlers.push(std::thread::spawn(move || {
            handle_connection(&server, stream)
        }));
    }
    drop(listener);
    for handler in handlers {
        let _ = handler.join();
    }
    server.queue_cv.notify_all();
    let _ = executor.join();
    let _ = std::fs::remove_file(&server.config.socket);
    eprintln!("serve: stopped");
    Ok(())
}

/// Binds the socket, refusing if another daemon is live on it and
/// sweeping the stale file if not.
fn bind(socket: &PathBuf) -> Result<UnixListener, ApiError> {
    if socket.exists() {
        if UnixStream::connect(socket).is_ok() {
            return Err(ApiError::Conflict(format!(
                "{} already has a live `scenario serve`",
                socket.display()
            )));
        }
        // stale socket from a killed daemon
        std::fs::remove_file(socket)
            .map_err(|e| ApiError::Io(format!("cannot remove stale {}: {e}", socket.display())))?;
    }
    if let Some(parent) = socket.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent)
            .map_err(|e| ApiError::Io(format!("cannot create {}: {e}", parent.display())))?;
    }
    UnixListener::bind(socket)
        .map_err(|e| ApiError::Io(format!("cannot bind {}: {e}", socket.display())))
}

/// Answers the single request of one connection.
fn handle_connection(server: &Arc<Server>, stream: UnixStream) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let request = match read_request(&mut reader) {
        Ok(request) => request,
        Err(error) => {
            // oversized / truncated / malformed frame: best-effort 400,
            // then drop the connection
            let _ = write_response(&mut &stream, &Response::Error { error });
            return;
        }
    };
    if let Request::Subscribe { job } = request {
        handle_subscribe(server, stream, &job);
        return;
    }
    let response = match answer(server, &request) {
        Ok(response) => response,
        Err(error) => Response::Error { error },
    };
    let _ = write_response(&mut &stream, &response);
}

/// Request dispatch for everything except `subscribe`.
fn answer(server: &Arc<Server>, request: &Request) -> Result<Response, ApiError> {
    match request {
        Request::Ping => Ok(Response::Pong {
            version: API_VERSION.to_string(),
        }),
        Request::Submit { spec_toml } => submit(server, spec_toml),
        Request::Status { job } => Ok(Response::Job {
            job: server
                .store
                .get(job)
                .ok_or_else(|| ApiError::NotFound(format!("job {job}")))?,
        }),
        Request::List => Ok(Response::Jobs {
            jobs: server.store.list(),
        }),
        Request::Artifact { job, name } => Ok(Response::Artifact {
            job: job.clone(),
            name: name.clone(),
            contents: server.store.artifact(job, name)?,
        }),
        Request::Diff { job_a, job_b, tol } => {
            let a = stored_batch(server, job_a)?;
            let b = stored_batch(server, job_b)?;
            let report = diff_batches(&a, &b, *tol);
            Ok(Response::Diff {
                matches: report.is_match(),
                tol: *tol,
                report: report.render(),
            })
        }
        Request::ProfileReport { job } => Ok(Response::Report {
            text: stored_profile(server, job)?.render_report(),
        }),
        Request::ProfileDiff { job_a, job_b, tol } => {
            let baseline = stored_profile(server, job_a)?.to_bench_record(job_a);
            let current = stored_profile(server, job_b)?.to_bench_record(job_b);
            let report = diff_bench(&baseline, &current, *tol);
            Ok(Response::BenchDiff {
                matches: report.is_match(),
                tol: *tol,
                baseline: job_a.clone(),
                current: job_b.clone(),
                report: report.render(),
                annotations: report.annotations(),
            })
        }
        Request::Shutdown => {
            server.shutdown.store(true, Ordering::SeqCst);
            server.queue_cv.notify_all();
            // poke the accept loop so it observes the flag
            let _ = UnixStream::connect(&server.config.socket);
            Ok(Response::ShuttingDown)
        }
        Request::Subscribe { .. } => Err(ApiError::Internal(
            "subscribe is handled on the streaming path".into(),
        )),
    }
}

fn stored_batch(server: &Server, job: &str) -> Result<BatchFile, ApiError> {
    let text = server.store.artifact(job, "batch.json")?;
    BatchFile::parse(&text).map_err(|e| ApiError::Internal(format!("job {job}: {e}")))
}

fn stored_profile(server: &Server, job: &str) -> Result<ProfileRecord, ApiError> {
    let text = server.store.artifact(job, "profile.json")?;
    ProfileRecord::parse(&text).map_err(|e| ApiError::Internal(format!("job {job}: {e}")))
}

/// Parses, validates and registers a submission. The queue mutex is
/// the submission critical section: dedup-check, capacity check,
/// create and enqueue happen atomically, so concurrent identical
/// submissions produce exactly one queued job.
fn submit(server: &Arc<Server>, spec_toml: &str) -> Result<Response, ApiError> {
    let spec =
        ScenarioSpec::from_toml_str(spec_toml).map_err(|e| ApiError::InvalidSpec(e.to_string()))?;
    spec.validate().map_err(ApiError::InvalidSpec)?;
    let digest = spec.job_digest();
    let mut queue = server.queue.lock().unwrap();
    if let Some(existing) = server.store.get(&digest) {
        if matches!(existing.state, JobState::Failed { .. }) {
            // a failed job retries on resubmission
            if queue.len() >= server.config.queue_capacity {
                return Err(ApiError::QueueFull {
                    capacity: server.config.queue_capacity,
                });
            }
            let job = server.store.transition(&digest, JobState::Queued)?;
            queue.push_back(digest);
            server.queue_cv.notify_one();
            return Ok(Response::Submitted {
                job,
                deduped: false,
                queue_depth: queue.len(),
            });
        }
        // identical digest already queued, running or done: attach
        return Ok(Response::Submitted {
            job: existing,
            deduped: true,
            queue_depth: queue.len(),
        });
    }
    if queue.len() >= server.config.queue_capacity {
        return Err(ApiError::QueueFull {
            capacity: server.config.queue_capacity,
        });
    }
    let job = server.store.create(&spec)?;
    queue.push_back(digest);
    server.queue_cv.notify_one();
    Ok(Response::Submitted {
        job,
        deduped: false,
        queue_depth: queue.len(),
    })
}

/// Registers a subscription stream after validating the job. The
/// subscribers lock is held across the state re-read so a terminal
/// broadcast can't slip between "state is live" and "stream is
/// registered" — either the broadcaster sees the stream, or this
/// thread sees the terminal state and writes the closing line itself.
fn handle_subscribe(server: &Arc<Server>, stream: UnixStream, job: &str) {
    if server.store.get(job).is_none() {
        let _ = write_response(
            &mut &stream,
            &Response::Error {
                error: ApiError::NotFound(format!("job {job}")),
            },
        );
        return;
    }
    if write_ndjson_header(&mut &stream).is_err() {
        return;
    }
    let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
    let mut subscribers = server.subscribers.lock().unwrap();
    let info = server.store.get(job).expect("job cannot disappear");
    if info.state.is_terminal() {
        drop(subscribers);
        let _ = writeln!(&mut &stream, "{}", job_state_line(job, &info.state));
        return;
    }
    subscribers.entry(job.to_string()).or_default().push(stream);
}

/// Sends one line to every subscriber of `job`, dropping streams whose
/// peer went away.
fn send_line(server: &Server, job: &str, line: &str) {
    let mut subscribers = server.subscribers.lock().unwrap();
    if let Some(streams) = subscribers.get_mut(job) {
        streams.retain_mut(|stream| writeln!(&mut &*stream, "{line}").is_ok());
    }
}

/// Broadcasts a lifecycle transition; terminal states also close and
/// deregister every subscriber.
fn broadcast_state(server: &Server, job: &str, state: &JobState) {
    send_line(server, job, &job_state_line(job, state));
    if state.is_terminal() {
        server.subscribers.lock().unwrap().remove(job);
    }
}

/// The single executor: drains the FIFO until shutdown.
fn executor_loop(server: &Arc<Server>) {
    loop {
        let next = {
            let mut queue = server.queue.lock().unwrap();
            loop {
                if server.shutdown.load(Ordering::SeqCst) {
                    break None;
                }
                if let Some(digest) = queue.pop_front() {
                    break Some(digest);
                }
                queue = server.queue_cv.wait(queue).unwrap();
            }
        };
        let Some(digest) = next else { return };
        execute(server, &digest);
    }
}

/// Runs one job to a terminal state, broadcasting along the way.
fn execute(server: &Arc<Server>, digest: &str) {
    let outcome = run_job(server, digest);
    let terminal = match outcome {
        Ok(()) => JobState::Done,
        Err(e) => JobState::Failed {
            error: e.to_string(),
        },
    };
    match server.store.transition(digest, terminal) {
        Ok(info) => {
            if let JobState::Failed { error } = &info.state {
                eprintln!("serve: job {digest} failed: {error}");
            } else {
                eprintln!("serve: job {digest} done");
            }
            broadcast_state(server, digest, &info.state);
        }
        Err(e) => eprintln!("serve: job {digest}: cannot record terminal state: {e}"),
    }
}

/// Executes the batch behind job `digest`: lock the job directory,
/// resume from any checkpoint, stream progress, write artifacts.
fn run_job(server: &Arc<Server>, digest: &str) -> Result<(), ApiError> {
    let info = server.store.transition(digest, JobState::Running)?;
    broadcast_state(server, digest, &info.state);
    let dir = server.store.job_dir(digest);
    let spec_text = server.store.artifact(digest, "spec.toml")?;
    let spec = ScenarioSpec::from_toml_str(&spec_text)
        .map_err(|e| ApiError::Internal(format!("stored spec of {digest}: {e}")))?;
    let _lock = BatchLock::acquire(&dir)?;
    let prior = match std::fs::read_to_string(dir.join("batch.json")) {
        Ok(text) => Some(
            BatchFile::parse(&text)
                .map_err(|e| ApiError::Internal(format!("checkpoint of {digest}: {e}")))?,
        ),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
        Err(e) => return Err(ApiError::Io(format!("reading checkpoint of {digest}: {e}"))),
    };
    let mut config = RunConfig::new().profiling(server.config.profiling);
    if let Some(threads) = server.config.threads {
        config = config.threads(threads);
    }
    if server.config.checkpoint_every > 0 {
        config = config.checkpoint(dir.join("batch.json"), server.config.checkpoint_every);
    }
    let sink_server = Arc::clone(server);
    let sink_digest = digest.to_string();
    config = config.progress(ProgressSink::new(move |event| {
        match event {
            ProgressEvent::RunFinished { completed, .. } => {
                sink_server.store.note_progress(&sink_digest, *completed);
            }
            ProgressEvent::CheckpointWritten { runs, .. } => {
                // the durable mark doubles as the lifecycle transition
                let _ = sink_server
                    .store
                    .transition(&sink_digest, JobState::Checkpointed { runs: *runs });
            }
            _ => {}
        }
        send_line(
            &sink_server,
            &sink_digest,
            &job_event_line(&sink_digest, event),
        );
    }));
    let result = config
        .runner()
        .run_resuming(&spec, prior.as_ref())
        .map_err(|e| ApiError::Internal(e.to_string()))?;
    write_atomic(&dir.join("batch.json"), &result.to_json())?;
    write_atomic(&dir.join("batch.csv"), &result.to_csv())?;
    write_atomic(&dir.join("report.txt"), &result.report())?;
    if server.config.profiling {
        let record =
            ProfileRecord::from_batch(&result).map_err(|e| ApiError::Internal(e.to_string()))?;
        write_atomic(&dir.join("profile.json"), &record.to_json_string())?;
    }
    Ok(())
}
