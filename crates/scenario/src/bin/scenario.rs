//! The `scenario` CLI: a thin transport over [`msn_scenario`]'s typed
//! service API.
//!
//! Every subcommand builds a [`Response`] (or an [`ApiError`]) and
//! hands it to one `finish()` sink, which renders it either as the
//! traditional human output or — with the global `--json` flag — as
//! the exact same JSON document the `scenario serve` daemon frames
//! over its Unix socket. Exit codes are unified there too: `0` on
//! success, `1` when the response reports a failure (an error, or a
//! diff that differs), `2` on usage errors.
//!
//! Local execution (`run`, `diff`, `bench-diff`, `profile-*`, `list`,
//! `describe`) and daemon interaction (`serve`, `submit`, `job`,
//! `jobs`, `fetch`, `subscribe`, `diff --socket`, `profile-report
//! --socket`, `profile-diff --socket`, `ping`, `shutdown`) speak the
//! same Request/Response vocabulary; the daemon path goes through
//! [`msn_scenario::Client`], the local path calls the library
//! directly. `run` takes a pid-stamped lock next to
//! `batch.json` so two invocations can't interleave checkpoints, and
//! its output is byte-identical to what a served job stores for the
//! same spec.

use msn_scenario::{
    diff_batches, diff_bench, junit_xml, serve, ApiError, BatchFile, BatchLock, BenchRecord,
    Client, JobInfo, JobState, Json, ProfileRecord, ProgressEvent, ProgressSink, Request, Response,
    RunConfig, ScenarioSpec, ServeConfig,
};
use std::io::IsTerminal;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let json = take_flag(&mut args, "--json");
    let result = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("submit") => cmd_submit(&args[1..]),
        Some("job") => cmd_job(&args[1..]),
        Some("jobs") => cmd_jobs(&args[1..]),
        Some("fetch") => cmd_fetch(&args[1..]),
        Some("subscribe") => cmd_subscribe(&args[1..]),
        Some("ping") => cmd_ping(&args[1..]),
        Some("shutdown") => cmd_shutdown(&args[1..]),
        Some("diff") => cmd_diff(&args[1..]),
        Some("bench-diff") => cmd_bench_diff(&args[1..]),
        Some("profile-report") => cmd_profile_report(&args[1..]),
        Some("profile-diff") => cmd_profile_diff(&args[1..]),
        Some("list") => cmd_list(&args[1..]),
        Some("describe") => cmd_describe(&args[1..]),
        Some("--help" | "-h" | "help") | None => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Some(other) => Err(usage(format!("unknown command '{other}'"))),
    };
    finish(json, result)
}

/// The single output/exit-code sink every subcommand funnels through.
fn finish(json: bool, result: Result<Response, ApiError>) -> ExitCode {
    let response = match result {
        Ok(response) => response,
        Err(error) => Response::Error { error },
    };
    let usage_error = matches!(
        &response,
        Response::Error {
            error: ApiError::Usage(_)
        }
    );
    if json {
        print!("{}", response.to_json().pretty());
    } else {
        render_human(&response);
    }
    if usage_error {
        ExitCode::from(2)
    } else if response.indicates_failure() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Renders a response the way the pre-service CLI printed it.
fn render_human(response: &Response) {
    match response {
        Response::Pong { version } => println!("pong (api v{version})"),
        Response::Submitted {
            job,
            deduped,
            queue_depth,
        } => {
            println!(
                "{}{}",
                job_line(job),
                if *deduped { "  [deduped]" } else { "" }
            );
            println!("queue depth: {queue_depth}");
        }
        Response::Job { job } => {
            println!("{}", job_line(job));
            if let JobState::Failed { error } = &job.state {
                println!("  error: {error}");
            }
        }
        Response::Jobs { jobs } => {
            if jobs.is_empty() {
                println!("no jobs");
            }
            for job in jobs {
                println!("{}", job_line(job));
            }
        }
        Response::Artifact { contents, .. } => print!("{contents}"),
        Response::Diff {
            matches,
            tol,
            report,
        } => {
            print!("{report}");
            if *matches {
                println!("MATCH (tol {tol})");
            } else {
                println!("DIFFER (tol {tol})");
            }
        }
        Response::BenchDiff {
            matches,
            tol,
            baseline,
            current,
            report,
            annotations,
        } => {
            print!("{report}");
            if std::env::var_os("GITHUB_ACTIONS").is_some() {
                for note in annotations {
                    println!("{note}");
                }
            }
            if *matches {
                println!("PASS ({baseline} vs {current}, tol {tol})");
            } else {
                println!("FAIL ({baseline} vs {current}, tol {tol})");
            }
        }
        Response::Report { text } => print!("{text}"),
        Response::ShuttingDown => println!("daemon shutting down"),
        Response::RunFinished { report, .. } => println!("{report}"),
        Response::Specs { specs } => {
            if specs.is_empty() {
                println!("no .toml specs found");
            }
            for entry in specs {
                println!("{:<40} {}", entry.path, entry.summary);
            }
        }
        Response::Spec {
            digest,
            resume_digest,
            spec_toml,
            ..
        } => {
            // the canonical TOML round-trips, so the detailed view can
            // be rebuilt from the response alone
            match ScenarioSpec::from_toml_str(spec_toml) {
                Ok(spec) => print!("{}", describe_text(&spec)),
                Err(e) => println!("unrenderable spec: {e}"),
            }
            println!("job digest:    {digest}");
            println!("resume digest: {resume_digest}");
        }
        Response::Error { error } => eprintln!("error: {error}"),
    }
}

fn job_line(job: &JobInfo) -> String {
    format!(
        "{:<16}  {:<12}  {:>5}/{:<5}  {}",
        job.digest,
        job.state.kind(),
        job.completed_runs,
        job.total_runs,
        job.scenario
    )
}

const USAGE: &str = "\
scenario — declarative experiment batches for the MSN deployment schemes

USAGE (local):
    scenario run <spec.toml> [--out DIR] [--threads N] [--quick] [--resume]
                             [--checkpoint-every N] [--profile PATH]
                             [--progress ndjson]
    scenario diff <a/batch.json> <b/batch.json> [--tol T] [--junit PATH]
    scenario bench-diff <baseline.json> <current.json> [--tol T]
    scenario profile-report <profile.json>
    scenario profile-diff <a.json> <b.json> [--tol T]
    scenario list [DIR]           (default DIR: scenarios/)
    scenario describe <spec.toml>

USAGE (service):
    scenario serve [--socket PATH] [--jobs DIR] [--threads N] [--queue N]
                   [--checkpoint-every N] [--no-profile]
    scenario submit <spec.toml> [--socket PATH] [--quick] [--wait]
    scenario job <digest> [--socket PATH]
    scenario jobs [--socket PATH]
    scenario fetch <digest> <artifact> [--socket PATH]
    scenario subscribe <digest> [--socket PATH]
    scenario diff <digest-a> <digest-b> --socket PATH [--tol T]
    scenario profile-report <digest> --socket PATH
    scenario profile-diff <digest-a> <digest-b> --socket PATH [--tol T]
    scenario ping [--socket PATH]
    scenario shutdown [--socket PATH]

Every command accepts a global --json flag: the output becomes the
same Response JSON document the daemon serves over its socket, and
exit codes are 0 (success), 1 (failed operation or differing diff),
2 (usage error).

`run` writes batch.json, batch.csv and report.txt under --out
(default results/scenario/<name>/) and prints the report; it locks
the output directory (batch.json.lock) so two concurrent runs cannot
interleave checkpoint writes. `--quick` caps duration at 100 s,
repetitions at 2 and the coverage raster at >= 5 m. `--resume` skips
matrix cells already recorded in batch.json; `--checkpoint-every N`
flushes completed runs atomically every N runs (default 25, 0
disables). `--profile PATH` writes a per-cell profile record;
`--progress ndjson` streams schema-stable progress events to stderr,
which then carries nothing but JSON lines.

`serve` runs the job daemon: specs submitted over the Unix socket
(default results/serve/scenario.sock) queue into a bounded FIFO
(default 64) and execute one at a time on the batch runner's threads;
artifacts land in a content-addressed job store (default
results/serve/jobs/<digest>/). Identical specs dedup onto the same
job; a SIGKILL'd daemon recovers queued/running jobs on restart and
resumes from the last checkpoint. `submit --wait` streams progress
until the job finishes; `fetch` prints a stored artifact to stdout;
`subscribe` streams a job's NDJSON events.

`diff` compares two batch.json files (or, with --socket, two stored
jobs) cell-by-cell within relative tolerance T (default 0 = exact);
exit is nonzero on any difference. `--junit PATH` (local only) writes
one JUnit testcase per matrix cell. `bench-diff` gates a fresh
kernel record against a baseline such as BENCH.json (default tol 0.25);
`profile-report` renders a profile's self-time table; `profile-diff`
classifies per-span deltas with the bench-diff machinery.
";

fn usage(msg: impl Into<String>) -> ApiError {
    ApiError::Usage(format!("{}\n{USAGE}", msg.into()))
}

fn take_flag(args: &mut Vec<String>, flag: &str) -> bool {
    let before = args.len();
    args.retain(|a| a != flag);
    before != args.len()
}

fn default_socket() -> PathBuf {
    PathBuf::from("results/serve/scenario.sock")
}

fn load_spec(path: &str) -> Result<ScenarioSpec, ApiError> {
    let text = std::fs::read_to_string(path).map_err(|e| {
        if e.kind() == std::io::ErrorKind::NotFound {
            ApiError::NotFound(format!("spec file {path}"))
        } else {
            ApiError::Io(format!("cannot read {path}: {e}"))
        }
    })?;
    ScenarioSpec::from_toml_str(&text).map_err(|e| ApiError::InvalidSpec(format!("{path}: {e}")))
}

fn parse_count(v: &str, what: &str) -> Result<usize, ApiError> {
    v.parse::<usize>()
        .map_err(|_| ApiError::Usage(format!("invalid {what} '{v}'")))
}

fn parse_tol(v: &str) -> Result<f64, ApiError> {
    v.parse::<f64>()
        .ok()
        .filter(|t| t.is_finite() && *t >= 0.0)
        .ok_or_else(|| ApiError::Usage(format!("invalid tolerance '{v}'")))
}

// ---------------------------------------------------------------------------
// Local execution
// ---------------------------------------------------------------------------

fn cmd_run(args: &[String]) -> Result<Response, ApiError> {
    let mut spec_path: Option<&str> = None;
    let mut out_dir: Option<PathBuf> = None;
    let mut threads: Option<usize> = None;
    let mut quick = false;
    let mut resume = false;
    let mut checkpoint_every: usize = 25;
    let mut profile_path: Option<PathBuf> = None;
    let mut ndjson = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => {
                let v = it.next().ok_or_else(|| usage("--out needs a directory"))?;
                out_dir = Some(PathBuf::from(v));
            }
            "--profile" => {
                let v = it.next().ok_or_else(|| usage("--profile needs a path"))?;
                profile_path = Some(PathBuf::from(v));
            }
            "--progress" => {
                let v = it
                    .next()
                    .ok_or_else(|| usage("--progress needs a mode (ndjson)"))?;
                match v.as_str() {
                    "ndjson" => ndjson = true,
                    other => {
                        return Err(usage(format!("unknown progress mode '{other}' (ndjson)")))
                    }
                }
            }
            "--threads" => {
                let v = it.next().ok_or_else(|| usage("--threads needs a number"))?;
                threads = Some(
                    v.parse::<usize>()
                        .map_err(|_| ApiError::Usage(format!("invalid thread count '{v}'")))?
                        .max(1),
                );
            }
            "--checkpoint-every" => {
                let v = it
                    .next()
                    .ok_or_else(|| usage("--checkpoint-every needs a number"))?;
                checkpoint_every = parse_count(v, "checkpoint interval")?;
            }
            "--quick" => quick = true,
            "--resume" => resume = true,
            other if !other.starts_with('-') && spec_path.is_none() => {
                spec_path = Some(other);
            }
            other => return Err(usage(format!("unexpected argument '{other}'"))),
        }
    }
    let spec_path = spec_path.ok_or_else(|| usage("run needs a spec file"))?;
    let mut spec = load_spec(spec_path)?;
    if quick {
        spec = spec.quick();
    }
    let dir = out_dir.unwrap_or_else(|| Path::new("results/scenario").join(&spec.name));
    // refuse a second concurrent run against the same batch.json — a
    // double launch would silently interleave checkpoint writes
    let _lock = BatchLock::acquire(&dir)?;
    let mut config = RunConfig::new();
    if let Some(t) = threads {
        config = config.threads(t);
    }
    if profile_path.is_some() {
        config = config.profiling(true);
    }
    config = config.progress(if ndjson {
        // one schema-stable JSON object per line on stderr; stdout
        // stays reserved for the report
        ProgressSink::new(|event| eprintln!("{}", event.ndjson_line()))
    } else {
        human_progress_sink()
    });
    if checkpoint_every > 0 {
        // the checkpoint lands where the final batch.json will, so a
        // killed run resumes transparently with --resume
        config = config.checkpoint(dir.join("batch.json"), checkpoint_every);
    }
    // Human status notes; under --progress ndjson stderr carries JSON
    // events only, and the batch-started, checkpoint and
    // batch-finished events say the same.
    let note = |line: String| {
        if !ndjson {
            eprintln!("{line}");
        }
    };
    let prior = if resume {
        let path = dir.join("batch.json");
        match std::fs::read_to_string(&path) {
            Ok(text) => {
                let file = BatchFile::parse(&text).map_err(|e| {
                    ApiError::InvalidSpec(format!("cannot resume from {}: {e}", path.display()))
                })?;
                note(format!(
                    "resuming from {} ({} recorded run(s))",
                    path.display(),
                    file.run_count()
                ));
                Some(file)
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                note(format!("nothing to resume ({} not found)", path.display()));
                None
            }
            Err(e) => return Err(ApiError::Io(format!("cannot read {}: {e}", path.display()))),
        }
    } else {
        None
    };
    let matrix_size = spec.matrix().len();
    let cached = prior.as_ref().map_or(0, |p| {
        spec.matrix()
            .iter()
            .filter(|cell| {
                p.lookup(
                    cell.radio.rc,
                    cell.radio.rs,
                    cell.n,
                    cell.scheme.name(),
                    spec.variant_label(cell.variant),
                    cell.rep,
                )
                .is_some()
            })
            .count()
    });
    let runner = config.runner();
    note(format!(
        "running '{}': {} runs ({} radios x {} counts x {} reps x {} variants x {} schemes) \
         on {} thread(s){}{}",
        spec.name,
        matrix_size,
        spec.radios.len(),
        spec.sensor_counts.len(),
        spec.repetitions,
        spec.variant_count(),
        spec.schemes.len(),
        runner.effective_threads(),
        if cached > 0 {
            format!(" [{cached} cached]")
        } else {
            String::new()
        },
        if quick { " [quick]" } else { "" },
    ));
    let started = std::time::Instant::now();
    let result = runner
        .run_resuming(&spec, prior.as_ref())
        .map_err(|e| ApiError::Internal(e.to_string()))?;
    note(format!(
        "finished in {:.1} s",
        started.elapsed().as_secs_f64()
    ));

    std::fs::create_dir_all(&dir)
        .map_err(|e| ApiError::Io(format!("cannot create {dir:?}: {e}")))?;
    let report = result.report();
    for (name, contents) in [
        ("batch.json", result.to_json()),
        ("batch.csv", result.to_csv()),
        ("report.txt", report.clone()),
    ] {
        // Atomic write-then-rename, like the mid-run checkpoints: a
        // kill during the final write must not replace the last good
        // batch.json with a torn file.
        let path = dir.join(name);
        msn_scenario::write_atomic(&path, &contents)?;
        note(format!("wrote {}", path.display()));
    }
    if let Some(path) = profile_path {
        let record =
            ProfileRecord::from_batch(&result).map_err(|e| ApiError::Internal(e.to_string()))?;
        if let Some(parent) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(parent)
                .map_err(|e| ApiError::Io(format!("cannot create {parent:?}: {e}")))?;
        }
        msn_scenario::write_atomic(&path, &record.to_json_string())?;
        note(format!("wrote {}", path.display()));
    }
    Ok(Response::RunFinished {
        job: JobInfo {
            digest: spec.job_digest(),
            scenario: spec.name.clone(),
            state: JobState::Done,
            total_runs: matrix_size,
            completed_runs: matrix_size,
        },
        out_dir: dir.display().to_string(),
        report,
    })
}

/// The default progress reporter: a completed/total line with
/// elapsed and ETA (same derivation as the NDJSON payload,
/// `eta_seconds`) — rewritten in place on a terminal, printed at
/// ~10 % milestones otherwise so logs stay readable — plus one note
/// per checkpoint write.
fn human_progress_sink() -> ProgressSink {
    let tty = std::io::stderr().is_terminal();
    ProgressSink::new(move |event| {
        let &ProgressEvent::RunFinished {
            completed,
            total,
            elapsed_s,
            eta_s,
            ..
        } = &event
        else {
            if let ProgressEvent::CheckpointWritten { path, runs } = event {
                eprintln!("checkpoint: {runs} run(s) -> {path}");
            }
            return;
        };
        let eta = eta_s.map_or_else(|| "-".to_string(), |e| format!("{e:.1} s"));
        let line = format!("[{completed}/{total}] elapsed {elapsed_s:.1} s, eta {eta}");
        if tty {
            eprint!("\r{line}        ");
            if completed == total {
                eprintln!();
            }
        } else if completed == total || completed % (total / 10).max(1) == 0 {
            eprintln!("{line}");
        }
    })
}

fn cmd_diff(args: &[String]) -> Result<Response, ApiError> {
    let mut paths: Vec<&str> = Vec::new();
    let mut tol = 0.0f64;
    let mut junit: Option<&str> = None;
    let mut socket: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--tol" => {
                let v = it.next().ok_or_else(|| usage("--tol needs a number"))?;
                tol = parse_tol(v)?;
            }
            "--junit" => {
                junit = Some(it.next().ok_or_else(|| usage("--junit needs a path"))?);
            }
            "--socket" => {
                let v = it.next().ok_or_else(|| usage("--socket needs a path"))?;
                socket = Some(PathBuf::from(v));
            }
            other if !other.starts_with('-') => paths.push(other),
            other => return Err(usage(format!("unexpected argument '{other}'"))),
        }
    }
    let [a, b] = paths[..] else {
        return Err(usage(
            "diff needs exactly two batch.json files (or two job digests with --socket)",
        ));
    };
    if let Some(socket) = socket {
        if junit.is_some() {
            return Err(usage("--junit is not supported with --socket"));
        }
        return Client::new(socket).request(&Request::Diff {
            job_a: a.to_string(),
            job_b: b.to_string(),
            tol,
        });
    }
    let load = |path: &str| -> Result<BatchFile, ApiError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| ApiError::Io(format!("cannot read {path}: {e}")))?;
        BatchFile::parse(&text).map_err(|e| ApiError::InvalidSpec(format!("{path}: {e}")))
    };
    let file_a = load(a)?;
    let file_b = load(b)?;
    let report = diff_batches(&file_a, &file_b, tol);
    if let Some(path) = junit {
        let suite = format!("scenario-diff:{}", file_a.scenario);
        std::fs::write(path, junit_xml(&report, &suite))
            .map_err(|e| ApiError::Io(format!("cannot write {path}: {e}")))?;
        eprintln!("wrote {path}");
    }
    Ok(Response::Diff {
        matches: report.is_match(),
        tol,
        report: report.render(),
    })
}

fn cmd_bench_diff(args: &[String]) -> Result<Response, ApiError> {
    let mut paths: Vec<&str> = Vec::new();
    let mut tol = 0.25f64;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--tol" => {
                let v = it.next().ok_or_else(|| usage("--tol needs a number"))?;
                tol = parse_tol(v)?;
            }
            other if !other.starts_with('-') => paths.push(other),
            other => return Err(usage(format!("unexpected argument '{other}'"))),
        }
    }
    let [base_path, cur_path] = paths[..] else {
        return Err(usage("bench-diff needs exactly two perf record files"));
    };
    let load = |path: &str| -> Result<BenchRecord, ApiError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| ApiError::Io(format!("cannot read {path}: {e}")))?;
        BenchRecord::parse(&text).map_err(|e| ApiError::InvalidSpec(format!("{path}: {e}")))
    };
    let baseline = load(base_path)?;
    let current = load(cur_path)?;
    let report = diff_bench(&baseline, &current, tol);
    Ok(Response::BenchDiff {
        matches: report.is_match(),
        tol,
        baseline: baseline.record.clone(),
        current: current.record.clone(),
        report: report.render(),
        annotations: report.annotations(),
    })
}

fn load_profile(path: &str) -> Result<ProfileRecord, ApiError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| ApiError::Io(format!("cannot read {path}: {e}")))?;
    ProfileRecord::parse(&text).map_err(|e| ApiError::InvalidSpec(format!("{path}: {e}")))
}

fn cmd_profile_report(args: &[String]) -> Result<Response, ApiError> {
    let (positionals, socket, _tol) = service_args(args, "profile-report")?;
    let [target] = positionals[..] else {
        return Err(usage(
            "profile-report needs exactly one profile.json (or one job digest with --socket)",
        ));
    };
    if let Some(socket) = socket {
        return Client::new(socket).request(&Request::ProfileReport {
            job: target.to_string(),
        });
    }
    Ok(Response::Report {
        text: load_profile(target)?.render_report(),
    })
}

fn cmd_profile_diff(args: &[String]) -> Result<Response, ApiError> {
    let (positionals, socket, tol) = service_args(args, "profile-diff")?;
    let tol = tol.unwrap_or(0.25);
    let [base, cur] = positionals[..] else {
        return Err(usage(
            "profile-diff needs exactly two profile.json files (or two job digests with --socket)",
        ));
    };
    if let Some(socket) = socket {
        return Client::new(socket).request(&Request::ProfileDiff {
            job_a: base.to_string(),
            job_b: cur.to_string(),
            tol,
        });
    }
    let baseline = load_profile(base)?.to_bench_record(base);
    let current = load_profile(cur)?.to_bench_record(cur);
    let report = diff_bench(&baseline, &current, tol);
    Ok(Response::BenchDiff {
        matches: report.is_match(),
        tol,
        baseline: base.to_string(),
        current: cur.to_string(),
        report: report.render(),
        annotations: report.annotations(),
    })
}

/// Positionals plus the optional `--socket PATH` / `--tol T` shared
/// by the service-mode commands.
type ServiceArgs<'a> = (Vec<&'a str>, Option<PathBuf>, Option<f64>);

/// Shared parser for commands taking positionals plus optional
/// `--socket PATH` / `--tol T`.
fn service_args<'a>(args: &'a [String], cmd: &str) -> Result<ServiceArgs<'a>, ApiError> {
    let mut positionals = Vec::new();
    let mut socket = None;
    let mut tol = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--socket" => {
                let v = it.next().ok_or_else(|| usage("--socket needs a path"))?;
                socket = Some(PathBuf::from(v));
            }
            "--tol" => {
                let v = it.next().ok_or_else(|| usage("--tol needs a number"))?;
                tol = Some(parse_tol(v)?);
            }
            other if !other.starts_with('-') => positionals.push(other),
            other => return Err(usage(format!("unexpected {cmd} argument '{other}'"))),
        }
    }
    Ok((positionals, socket, tol))
}

fn cmd_list(args: &[String]) -> Result<Response, ApiError> {
    let dir = args.first().map(String::as_str).unwrap_or("scenarios");
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| ApiError::Io(format!("cannot read directory {dir}: {e}")))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "toml"))
        .collect();
    entries.sort();
    let specs = entries
        .iter()
        .map(|path| {
            let display = path.display().to_string();
            match load_spec(&display) {
                Ok(spec) => msn_scenario::SpecEntry {
                    path: display,
                    scenario: spec.name.clone(),
                    runs: spec.matrix().len(),
                    summary: format!(
                        "{:<18} {:>5} runs  {}",
                        spec.field.kind(),
                        spec.matrix().len(),
                        spec.description
                    ),
                },
                Err(e) => msn_scenario::SpecEntry {
                    path: display,
                    scenario: String::new(),
                    runs: 0,
                    summary: format!("INVALID: {e}"),
                },
            }
        })
        .collect();
    Ok(Response::Specs { specs })
}

/// The field-by-field spec rendering `describe` prints for humans.
fn describe_text(spec: &ScenarioSpec) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "name:          {}", spec.name);
    if !spec.description.is_empty() {
        let _ = writeln!(out, "description:   {}", spec.description);
    }
    let _ = writeln!(out, "field:         {}", spec.field.kind());
    let _ = writeln!(out, "scatter:       {}", spec.scatter.kind());
    let _ = writeln!(
        out,
        "schemes:       {}",
        spec.schemes
            .iter()
            .map(|s| s.name())
            .collect::<Vec<_>>()
            .join(", ")
    );
    let _ = writeln!(out, "sensor counts: {:?}", spec.sensor_counts);
    let _ = writeln!(
        out,
        "radios:        {}",
        spec.radios
            .iter()
            .map(|r| format!("({}, {})", r.rc, r.rs))
            .collect::<Vec<_>>()
            .join(", ")
    );
    let _ = writeln!(out, "duration:      {} s", spec.duration);
    let _ = writeln!(out, "coverage cell: {} m", spec.coverage_cell);
    let _ = writeln!(out, "repetitions:   {}", spec.repetitions);
    let _ = writeln!(out, "base seed:     {}", spec.seed);
    if !spec.params.is_default() {
        let _ = writeln!(out, "params:        scenario-wide overrides set");
    }
    if !spec.variants.is_empty() {
        let _ = writeln!(
            out,
            "variants:      {}",
            spec.variants
                .iter()
                .map(|v| v.label.as_str())
                .collect::<Vec<_>>()
                .join(", ")
        );
    }
    let _ = writeln!(out, "matrix:        {} runs", spec.matrix().len());
    let _ = writeln!(out, "randomized:    {}", spec.field.is_randomized());
    out
}

fn cmd_describe(args: &[String]) -> Result<Response, ApiError> {
    let path = args
        .first()
        .ok_or_else(|| usage("describe needs a spec file"))?;
    let spec = load_spec(path)?;
    Ok(Response::Spec {
        scenario: spec.name.clone(),
        digest: spec.job_digest(),
        resume_digest: spec.resume_digest(),
        total_runs: spec.matrix().len(),
        spec_toml: spec.to_toml_string(),
    })
}

// ---------------------------------------------------------------------------
// Service transport
// ---------------------------------------------------------------------------

fn cmd_serve(args: &[String]) -> Result<Response, ApiError> {
    let mut config = ServeConfig::new(default_socket(), "results/serve/jobs");
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--socket" => {
                let v = it.next().ok_or_else(|| usage("--socket needs a path"))?;
                config.socket = PathBuf::from(v);
            }
            "--jobs" => {
                let v = it.next().ok_or_else(|| usage("--jobs needs a directory"))?;
                config.jobs_root = PathBuf::from(v);
            }
            "--threads" => {
                let v = it.next().ok_or_else(|| usage("--threads needs a number"))?;
                config.threads = Some(
                    v.parse::<usize>()
                        .map_err(|_| ApiError::Usage(format!("invalid thread count '{v}'")))?
                        .max(1),
                );
            }
            "--queue" => {
                let v = it.next().ok_or_else(|| usage("--queue needs a number"))?;
                config.queue_capacity = parse_count(v, "queue capacity")?.max(1);
            }
            "--checkpoint-every" => {
                let v = it
                    .next()
                    .ok_or_else(|| usage("--checkpoint-every needs a number"))?;
                config.checkpoint_every = parse_count(v, "checkpoint interval")?;
            }
            "--no-profile" => config.profiling = false,
            other => return Err(usage(format!("unexpected serve argument '{other}'"))),
        }
    }
    serve(config)?;
    Ok(Response::ShuttingDown)
}

fn cmd_submit(args: &[String]) -> Result<Response, ApiError> {
    let mut spec_path: Option<&str> = None;
    let mut socket = default_socket();
    let mut quick = false;
    let mut wait = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--socket" => {
                socket = PathBuf::from(it.next().ok_or_else(|| usage("--socket needs a path"))?);
            }
            "--quick" => quick = true,
            "--wait" => wait = true,
            other if !other.starts_with('-') && spec_path.is_none() => spec_path = Some(other),
            other => return Err(usage(format!("unexpected submit argument '{other}'"))),
        }
    }
    let spec_path = spec_path.ok_or_else(|| usage("submit needs a spec file"))?;
    let mut spec = load_spec(spec_path)?;
    if quick {
        spec = spec.quick();
    }
    let client = Client::new(socket);
    let submitted = client.request(&Request::Submit {
        spec_toml: spec.to_toml_string(),
    })?;
    let Response::Submitted { job, .. } = &submitted else {
        return Ok(submitted); // an error response passes through
    };
    if !wait {
        return Ok(submitted);
    }
    let digest = job.digest.clone();
    if !job.state.is_terminal() {
        stream_events(&client, &digest)?;
    }
    client.request(&Request::Status { job: digest })
}

/// Streams a job's NDJSON events to stderr until a terminal
/// `job-state` line arrives or the daemon closes the stream.
fn stream_events(client: &Client, digest: &str) -> Result<(), ApiError> {
    for line in client.subscribe(digest)? {
        let line = line?;
        eprintln!("{line}");
        if let Ok(event) = Json::parse(&line) {
            let is_state = event.get("event").and_then(Json::as_str) == Some("job-state");
            let terminal = matches!(
                event.get("state").and_then(Json::as_str),
                Some("done" | "failed")
            );
            if is_state && terminal {
                break;
            }
        }
    }
    Ok(())
}

fn cmd_subscribe(args: &[String]) -> Result<Response, ApiError> {
    let (positionals, socket, _tol) = service_args(args, "subscribe")?;
    let [digest] = positionals[..] else {
        return Err(usage("subscribe needs exactly one job digest"));
    };
    let client = Client::new(socket.unwrap_or_else(default_socket));
    // events go to stdout — subscription *is* this command's output
    for line in client.subscribe(digest)? {
        println!("{}", line?);
    }
    client.request(&Request::Status {
        job: digest.to_string(),
    })
}

fn cmd_job(args: &[String]) -> Result<Response, ApiError> {
    let (positionals, socket, _tol) = service_args(args, "job")?;
    let [digest] = positionals[..] else {
        return Err(usage("job needs exactly one job digest"));
    };
    Client::new(socket.unwrap_or_else(default_socket)).request(&Request::Status {
        job: digest.to_string(),
    })
}

fn cmd_jobs(args: &[String]) -> Result<Response, ApiError> {
    let (positionals, socket, _tol) = service_args(args, "jobs")?;
    if !positionals.is_empty() {
        return Err(usage("jobs takes no positional arguments"));
    }
    Client::new(socket.unwrap_or_else(default_socket)).request(&Request::List)
}

fn cmd_fetch(args: &[String]) -> Result<Response, ApiError> {
    let (positionals, socket, _tol) = service_args(args, "fetch")?;
    let [digest, name] = positionals[..] else {
        return Err(usage(
            "fetch needs a job digest and an artifact name (e.g. batch.json)",
        ));
    };
    Client::new(socket.unwrap_or_else(default_socket)).request(&Request::Artifact {
        job: digest.to_string(),
        name: name.to_string(),
    })
}

fn cmd_ping(args: &[String]) -> Result<Response, ApiError> {
    let (positionals, socket, _tol) = service_args(args, "ping")?;
    if !positionals.is_empty() {
        return Err(usage("ping takes no positional arguments"));
    }
    Client::new(socket.unwrap_or_else(default_socket))
        .request_timeout(&Request::Ping, Duration::from_secs(5))
}

fn cmd_shutdown(args: &[String]) -> Result<Response, ApiError> {
    let (positionals, socket, _tol) = service_args(args, "shutdown")?;
    if !positionals.is_empty() {
        return Err(usage("shutdown takes no positional arguments"));
    }
    Client::new(socket.unwrap_or_else(default_socket)).request(&Request::Shutdown)
}
