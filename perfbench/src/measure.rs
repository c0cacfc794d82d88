//! The untraced run: end-to-end metrics.
//!
//! A run executes whole passes over the workload's seed panel while
//! another pass still fits in `--seconds` (at least one pass), probing
//! set-up before each batch of the first pass. Every batch goes through the path `scenario run`
//! takes: parse the generated spec, execute it with a [`RunConfig`]
//! runner on [`THREADS`] workers, render `batch.json`, the CSV and the
//! report and write them to `perfbench/out/<workload>/`.

use crate::check::{Checker, Reference};
use crate::metrics::{median, percentile, Outcome, Value};
use crate::sys;
use crate::workload::{repo_root, Workload, THREADS};
use msn_scenario::{
    write_atomic, BatchResult, ProgressEvent, ProgressSink, RunConfig, ScenarioSpec,
};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, Once, OnceLock};
use std::time::{Duration, Instant};

/// Set-up probes per run, at least (their median is `setup_s`).
const SETUP_PROBES: usize = 101;

/// What one benchmark invocation runs.
pub struct Options {
    /// The workload.
    pub workload: &'static Workload,
    /// Benchmark seed (instance 0's spec seed).
    pub seed: u64,
    /// Measuring time; at least one pass always runs.
    pub seconds: f64,
    /// Run the seconds-long smoke instance instead (tests).
    pub shrink: bool,
}

/// Where a workload's rendered outputs go.
fn out_dir(workload: &Workload) -> PathBuf {
    repo_root().join("perfbench/out").join(workload.name)
}

/// One executed batch.
pub struct Batch {
    /// The result, records in matrix order.
    pub result: BatchResult,
    /// Runs the spec's matrix expands to.
    pub expected: usize,
    /// Wall seconds from spec parse to written outputs.
    pub wall_s: f64,
    /// Process CPU seconds over the same interval.
    pub cpu_s: f64,
    /// Per-run RunStarted→RunFinished latencies, milliseconds.
    pub run_ms: Vec<f64>,
}

/// Parses `text` and executes it under `config` (plus a latency sink),
/// timing wall and CPU. With `out`, renders and writes the three output
/// files inside the timed interval, as `scenario run` does.
pub fn run_batch(text: &str, config: RunConfig, out: Option<&Path>) -> Result<Batch, String> {
    type Clock = (HashMap<usize, Instant>, Vec<f64>);
    let clock: Arc<Mutex<Clock>> = Arc::default();
    let sink_clock = Arc::clone(&clock);
    let sink = ProgressSink::new(move |event| {
        let now = Instant::now();
        let mut clock = sink_clock.lock().expect("latency sink never panics");
        match event {
            ProgressEvent::RunStarted { index, .. } => {
                clock.0.insert(*index, now);
            }
            ProgressEvent::RunFinished { index, .. } => {
                if let Some(start) = clock.0.remove(index) {
                    clock.1.push((now - start).as_secs_f64() * 1e3);
                }
            }
            _ => {}
        }
    });
    let cpu0 = sys::cpu_seconds();
    let t0 = Instant::now();
    let spec = ScenarioSpec::from_toml_str(text).map_err(|e| e.to_string())?;
    let result = config
        .progress(sink)
        .runner()
        .run(&spec)
        .map_err(|e| e.to_string())?;
    if let Some(dir) = out {
        let report = result.report();
        for (name, contents) in [
            ("batch.json", result.to_json()),
            ("batch.csv", result.to_csv()),
            ("report.txt", report),
        ] {
            write_atomic(&dir.join(name), &contents).map_err(|e| e.to_string())?;
        }
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = sys::cpu_seconds() - cpu0;
    let run_ms = std::mem::take(&mut clock.lock().expect("batch finished").1);
    Ok(Batch {
        expected: spec.matrix().len(),
        result,
        wall_s,
        cpu_s,
        run_ms,
    })
}

/// Panic payload a set-up probe's progress sink raises at the first
/// `RunStarted` event, aborting the batch once set-up is done.
struct SetupDone;

/// Silences [`SetupDone`] unwinds; every other panic still reports
/// through the previous hook.
fn quiet_setup_probes() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<SetupDone>().is_none() {
                previous(info);
            }
        }));
    });
}

/// One set-up probe: seconds from parsing `text` to the batch's first
/// `RunStarted` event. The sink unwinds out of the batch right there
/// (the runner holds no lock while it emits), so the probe pays the
/// runner's whole set-up — spec validation, matrix expansion, the
/// shared field build and raster of fixed layouts — and no run.
///
/// The probe runs on one thread: the first cell then starts inline on
/// the calling thread, so no worker-pool wake-up is timed, and the
/// unwind never crosses the pool. (Two pool participants that run out
/// of chunks at the same instant can deadlock stealing from each other,
/// and microsecond-long aborted chunks make that instant likely.)
pub fn setup_probe(text: &str) -> Result<f64, String> {
    quiet_setup_probes();
    let first: Arc<OnceLock<Instant>> = Arc::default();
    let sink_first = Arc::clone(&first);
    let sink = ProgressSink::new(move |event| {
        if let ProgressEvent::RunStarted { .. } = event {
            sink_first.get_or_init(Instant::now);
            std::panic::panic_any(SetupDone);
        }
    });
    let t0 = Instant::now();
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let spec = ScenarioSpec::from_toml_str(text).map_err(|e| e.to_string())?;
        RunConfig::new()
            .threads(1)
            .progress(sink)
            .runner()
            .run(&spec)
            .map(|_| ())
            .map_err(|e| e.to_string())
    }));
    match outcome {
        Err(payload) if payload.is::<SetupDone>() => {
            let at = first.get().expect("the probe unwinds only after stamping");
            Ok(at.duration_since(t0).as_secs_f64())
        }
        Err(payload) => std::panic::resume_unwind(payload),
        Ok(Err(e)) => Err(e),
        Ok(Ok(())) => Err("set-up probe: the batch finished without starting a run".into()),
    }
}

/// Whether another round as long as the one begun at `round_start`
/// still ends within `seconds` of `start`: a run measures whole rounds
/// and never overruns its time by more than its first round.
pub fn fits_another(start: Instant, round_start: Instant, seconds: f64) -> bool {
    start.elapsed() + round_start.elapsed() <= Duration::from_secs_f64(seconds)
}

/// The untraced run: every end-to-end metric.
pub fn run_untraced(opts: &Options, reference: &Reference) -> Result<Outcome, String> {
    let w = opts.workload;
    let texts = w.instance_texts(opts.seed, opts.shrink)?;
    let out = out_dir(w);
    std::fs::create_dir_all(&out).map_err(|e| format!("cannot create {}: {e}", out.display()))?;
    // Set-up probes run before each batch of the first pass, so their
    // median samples the machine across the run, not in one burst.
    let probes_each = if opts.shrink {
        1
    } else {
        SETUP_PROBES.div_ceil(texts.len())
    };
    let mut setups = Vec::new();
    let mut checker = Checker::new(w.name, reference);
    let mut walls: Vec<Vec<f64>> = vec![Vec::new(); texts.len()];
    let mut cpus: Vec<Vec<f64>> = vec![Vec::new(); texts.len()];
    let mut run_ms = Vec::new();
    let mut passes = 0;
    let start = Instant::now();
    let mut pass_start = start;
    while passes == 0 || fits_another(start, pass_start, opts.seconds) {
        pass_start = Instant::now();
        for (k, (seed, text)) in texts.iter().enumerate() {
            if passes == 0 {
                for _ in 0..probes_each {
                    setups.push(setup_probe(text)?);
                }
            }
            let batch = run_batch(text, RunConfig::new().threads(THREADS), Some(&out))?;
            checker.check(*seed, batch.expected, &batch.result.records);
            walls[k].push(batch.wall_s);
            cpus[k].push(batch.cpu_s);
            run_ms.extend(batch.run_ms);
        }
        passes += 1;
    }
    let panel_mean = |samples: &[Vec<f64>]| {
        samples.iter().map(|s| median(s)).sum::<f64>() / samples.len() as f64
    };
    let values = [
        ("wall_s", panel_mean(&walls)),
        ("cpu_s", panel_mean(&cpus)),
        ("setup_s", median(&setups)),
        ("run_p50_ms", percentile(&run_ms, 0.5)),
        ("run_p90_ms", percentile(&run_ms, 0.9)),
        ("peak_rss_mb", sys::peak_rss_mb()),
    ]
    .map(|(name, value)| Value { name, value })
    .to_vec();
    let notes = vec![
        format!(
            "{} seed {}: {} instance(s) x {} pass(es) = {} batch(es) on {THREADS} threads",
            w.name,
            opts.seed,
            texts.len(),
            passes,
            texts.len() * passes
        ),
        format!(
            "  samples: wall_s/cpu_s {} batches, setup_s {} probes, run latency {} runs",
            texts.len() * passes,
            setups.len(),
            run_ms.len()
        ),
        format!(
            "  checked {} runs, {} against the stored reference, {} failed",
            checker.attempted, checker.against_reference, checker.failed
        ),
    ];
    Ok(Outcome {
        correct: checker.failed == 0,
        attempted: checker.attempted,
        failed: checker.failed,
        values,
        notes,
    })
}

/// Regenerates the stored reference: panel instance 0 (the benchmark
/// seed itself) of every workload for each of
/// [`crate::check::reference_seeds`], reporting progress on stderr.
pub fn write_reference() -> Result<(), String> {
    let mut reference = Reference::default();
    for w in &crate::workload::WORKLOADS {
        for seed in crate::check::reference_seeds() {
            let (spec_seed, text) = &w.instance_texts(seed, false)?[0];
            let batch = run_batch(text, RunConfig::new().threads(THREADS), None)?;
            if batch.result.records.len() != batch.expected {
                return Err(format!("{} seed {spec_seed}: incomplete batch", w.name));
            }
            let digests = batch
                .result
                .records
                .iter()
                .map(crate::check::run_digest)
                .collect();
            reference.insert(w.name, *spec_seed, digests);
            eprintln!(
                "reference: {} seed {spec_seed} ({:.1} s)",
                w.name, batch.wall_s
            );
        }
    }
    let path = crate::check::reference_path();
    write_atomic(&path, &reference.to_json()).map_err(|e| e.to_string())
}
