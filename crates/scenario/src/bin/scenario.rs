//! The `scenario` CLI: runs experiment specs on [`msn_scenario`]'s
//! batch runner and compares what runs leave behind.
//!
//! `run`, `list` and `describe` work on spec files; `diff`,
//! `bench-diff`, `profile-report` and `profile-diff` on the
//! `batch.json`, perf-record and profile files runs write. Each
//! command prints its human output directly. Exit codes: `0` on
//! success, `1` when an operation fails or a diff differs, `2` on
//! usage errors. `run` takes a pid-stamped lock next to `batch.json`
//! so two invocations can't interleave checkpoints.

use msn_scenario::{
    diff_batches, diff_bench, junit_xml, write_atomic, BatchFile, BatchLock, BenchDiffReport,
    BenchRecord, ProfileRecord, ProgressEvent, ProgressSink, RunConfig, ScenarioSpec,
};
use std::io::IsTerminal;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Why a command did not succeed.
enum CliError {
    /// A malformed invocation (exit 2).
    Usage(String),
    /// A well-formed invocation whose operation failed (exit 1).
    Failed(String),
}

/// What a command returns: whether its comparison passed (`diff`,
/// `bench-diff` and `profile-diff` can differ; everything else passes
/// whenever it returns `Ok`).
type Outcome = Result<bool, CliError>;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
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
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(CliError::Usage(msg)) => {
            eprintln!("error: {msg}");
            ExitCode::from(2)
        }
        Err(CliError::Failed(msg)) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
scenario — declarative experiment batches for the MSN deployment schemes

USAGE:
    scenario run <spec.toml> [--out DIR] [--threads N] [--quick] [--resume]
                             [--checkpoint-every N] [--profile PATH]
                             [--progress ndjson]
    scenario diff <a/batch.json> <b/batch.json> [--tol T] [--junit PATH]
    scenario bench-diff <baseline.json> <current.json> [--tol T]
    scenario profile-report <profile.json>
    scenario profile-diff <a.json> <b.json> [--tol T]
    scenario list [DIR]           (default DIR: scenarios/)
    scenario describe <spec.toml>

Exit codes are 0 (success), 1 (failed operation or differing diff),
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

`diff` compares two batch.json files cell-by-cell within relative
tolerance T (default 0 = exact); exit is nonzero on any difference.
`--junit PATH` writes one JUnit testcase per matrix cell. `bench-diff`
gates a fresh kernel record against a baseline such as BENCH.json
(default tol 0.25); `profile-report` renders a profile's self-time
table; `profile-diff` classifies per-span deltas with the bench-diff
machinery.
";

fn usage(msg: impl Into<String>) -> CliError {
    CliError::Usage(format!("{}\n{USAGE}", msg.into()))
}

/// Reads a user-supplied file, naming it in the error.
fn read(path: &str) -> Result<String, CliError> {
    std::fs::read_to_string(path).map_err(|e| CliError::Failed(format!("cannot read {path}: {e}")))
}

/// Loads a spec file; the error is the message `list` prints inline
/// and the other commands fail with.
fn load_spec(path: &str) -> Result<ScenarioSpec, String> {
    let text = std::fs::read_to_string(path).map_err(|e| {
        if e.kind() == std::io::ErrorKind::NotFound {
            format!("spec file {path}")
        } else {
            format!("cannot read {path}: {e}")
        }
    })?;
    ScenarioSpec::from_toml_str(&text).map_err(|e| format!("{path}: {e}"))
}

fn parse_count(v: &str, what: &str) -> Result<usize, CliError> {
    v.parse::<usize>()
        .map_err(|_| CliError::Usage(format!("invalid {what} '{v}'")))
}

fn parse_tol(v: &str) -> Result<f64, CliError> {
    v.parse::<f64>()
        .ok()
        .filter(|t| t.is_finite() && *t >= 0.0)
        .ok_or_else(|| CliError::Usage(format!("invalid tolerance '{v}'")))
}

fn cmd_run(args: &[String]) -> Outcome {
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
                threads = Some(parse_count(v, "thread count")?.max(1));
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
    let mut spec = load_spec(spec_path).map_err(CliError::Failed)?;
    if quick {
        spec = spec.quick();
    }
    let dir = out_dir.unwrap_or_else(|| Path::new("results/scenario").join(&spec.name));
    // refuse a second concurrent run against the same batch.json — a
    // double launch would silently interleave checkpoint writes
    let _lock = BatchLock::acquire(&dir).map_err(|e| CliError::Failed(e.0))?;
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
                    CliError::Failed(format!("cannot resume from {}: {e}", path.display()))
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
            Err(e) => {
                return Err(CliError::Failed(format!(
                    "cannot read {}: {e}",
                    path.display()
                )))
            }
        }
    } else {
        None
    };
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
        spec.matrix().len(),
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
        .map_err(|e| CliError::Failed(e.to_string()))?;
    note(format!(
        "finished in {:.1} s",
        started.elapsed().as_secs_f64()
    ));

    // Atomic write-then-rename, like the mid-run checkpoints: a kill
    // during the final write must not replace the last good
    // batch.json with a torn file.
    let write = |path: &Path, contents: &str| {
        write_atomic(path, contents)
            .map_err(|e| CliError::Failed(format!("cannot write {}: {e}", path.display())))?;
        note(format!("wrote {}", path.display()));
        Ok(())
    };
    let report = result.report();
    write(&dir.join("batch.json"), &result.to_json())?;
    write(&dir.join("batch.csv"), &result.to_csv())?;
    write(&dir.join("report.txt"), &report)?;
    if let Some(path) = profile_path {
        let record =
            ProfileRecord::from_batch(&result).map_err(|e| CliError::Failed(e.to_string()))?;
        if let Some(parent) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(parent)
                .map_err(|e| CliError::Failed(format!("cannot create {parent:?}: {e}")))?;
        }
        write(&path, &record.to_json_string())?;
    }
    println!("{report}");
    Ok(true)
}

/// The default progress reporter: a completed/total line with
/// elapsed and ETA (same derivation as the NDJSON payload,
/// `eta_seconds`) — rewritten in place on a terminal, printed at
/// ~10 % milestones otherwise so logs stay readable — plus one note
/// per checkpoint write or failed write.
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
            match event {
                ProgressEvent::CheckpointWritten { path, runs } => {
                    eprintln!("checkpoint: {runs} run(s) -> {path}");
                }
                ProgressEvent::CheckpointFailed { path, error } => {
                    eprintln!("warning: cannot write checkpoint {path}: {error}");
                }
                _ => {}
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

fn cmd_diff(args: &[String]) -> Outcome {
    let mut paths: Vec<&str> = Vec::new();
    let mut tol = 0.0f64;
    let mut junit: Option<&str> = None;
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
            other if !other.starts_with('-') => paths.push(other),
            other => return Err(usage(format!("unexpected argument '{other}'"))),
        }
    }
    let [a, b] = paths[..] else {
        return Err(usage("diff needs exactly two batch.json files"));
    };
    let load = |path: &str| {
        BatchFile::parse(&read(path)?).map_err(|e| CliError::Failed(format!("{path}: {e}")))
    };
    let file_a = load(a)?;
    let file_b = load(b)?;
    let report = diff_batches(&file_a, &file_b, tol);
    if let Some(path) = junit {
        let suite = format!("scenario-diff:{}", file_a.scenario);
        std::fs::write(path, junit_xml(&report, &suite))
            .map_err(|e| CliError::Failed(format!("cannot write {path}: {e}")))?;
        eprintln!("wrote {path}");
    }
    print!("{}", report.render());
    let matches = report.is_match();
    println!("{} (tol {tol})", if matches { "MATCH" } else { "DIFFER" });
    Ok(matches)
}

/// Positionals plus an optional `--tol T` (default `tol`), the
/// arguments of `bench-diff` and `profile-diff`.
fn paths_and_tol(args: &[String], mut tol: f64) -> Result<(Vec<&str>, f64), CliError> {
    let mut paths = Vec::new();
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
    Ok((paths, tol))
}

/// Prints a bench-diff report with its PASS/FAIL verdict (plus
/// GitHub annotations under Actions) and returns whether it passed.
fn print_bench_diff(report: &BenchDiffReport, tol: f64, baseline: &str, current: &str) -> bool {
    print!("{}", report.render());
    if std::env::var_os("GITHUB_ACTIONS").is_some() {
        for note in report.annotations() {
            println!("{note}");
        }
    }
    let matches = report.is_match();
    let verdict = if matches { "PASS" } else { "FAIL" };
    println!("{verdict} ({baseline} vs {current}, tol {tol})");
    matches
}

fn cmd_bench_diff(args: &[String]) -> Outcome {
    let (paths, tol) = paths_and_tol(args, 0.25)?;
    let [base_path, cur_path] = paths[..] else {
        return Err(usage("bench-diff needs exactly two perf record files"));
    };
    let load = |path: &str| {
        BenchRecord::parse(&read(path)?).map_err(|e| CliError::Failed(format!("{path}: {e}")))
    };
    let baseline = load(base_path)?;
    let current = load(cur_path)?;
    let report = diff_bench(&baseline, &current, tol);
    Ok(print_bench_diff(
        &report,
        tol,
        &baseline.record,
        &current.record,
    ))
}

fn load_profile(path: &str) -> Result<ProfileRecord, CliError> {
    ProfileRecord::parse(&read(path)?).map_err(|e| CliError::Failed(format!("{path}: {e}")))
}

fn cmd_profile_report(args: &[String]) -> Outcome {
    let [path] = args else {
        return Err(usage("profile-report needs exactly one profile.json"));
    };
    if path.starts_with('-') {
        return Err(usage(format!("unexpected argument '{path}'")));
    }
    print!("{}", load_profile(path)?.render_report());
    Ok(true)
}

fn cmd_profile_diff(args: &[String]) -> Outcome {
    let (paths, tol) = paths_and_tol(args, 0.25)?;
    let [base, cur] = paths[..] else {
        return Err(usage("profile-diff needs exactly two profile.json files"));
    };
    let baseline = load_profile(base)?.to_bench_record(base);
    let current = load_profile(cur)?.to_bench_record(cur);
    let report = diff_bench(&baseline, &current, tol);
    Ok(print_bench_diff(&report, tol, base, cur))
}

fn cmd_list(args: &[String]) -> Outcome {
    let dir = args.first().map(String::as_str).unwrap_or("scenarios");
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| CliError::Failed(format!("cannot read directory {dir}: {e}")))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "toml"))
        .collect();
    entries.sort();
    if entries.is_empty() {
        println!("no .toml specs found");
    }
    for path in &entries {
        let display = path.display().to_string();
        let summary = match load_spec(&display) {
            Ok(spec) => format!(
                "{:<18} {:>5} runs  {}",
                spec.field.kind(),
                spec.matrix().len(),
                spec.description
            ),
            Err(e) => format!("INVALID: {e}"),
        };
        println!("{display:<40} {summary}");
    }
    Ok(true)
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

fn cmd_describe(args: &[String]) -> Outcome {
    let path = args
        .first()
        .ok_or_else(|| usage("describe needs a spec file"))?;
    let spec = load_spec(path).map_err(CliError::Failed)?;
    print!("{}", describe_text(&spec));
    println!("resume digest: {}", spec.resume_digest());
    Ok(true)
}
