//! Parallel batch execution of scenario specs.
//!
//! [`BatchRunner`] expands a [`ScenarioSpec`] into its run matrix and
//! executes every run — longest first, on participants that share one
//! work cursor (`rayon::run_indexed`), one per core by default —
//! collecting a [`BatchResult`] that aggregates per-cell statistics
//! and exports JSON, CSV and the ASCII report tables the older `figN`
//! harness prints.
//!
//! Determinism: every run's randomness derives from the spec's base
//! seed and the run's matrix coordinates (see
//! [`crate::spec::derive_seed`]), and every record is written back to
//! its matrix slot by index, so results — including the serialized
//! JSON — are byte-identical at any thread count.
//!
//! Environments are materialized once per consumer group: fixed field
//! layouts are rasterized a single time for the whole batch, and
//! randomized (`random-obstacles`) fields once per (radio, n, rep)
//! slice — every scheme and variant of the slice shares the drawn
//! field and its [`CoverageGrid`] instead of re-rasterizing it.
//!
//! With [`RunConfig::checkpoint`], completed runs are periodically
//! flushed to `batch.json` through an atomic write-then-rename, so
//! `--resume` can pick up after a hard kill mid-batch, not just after
//! a partial-repetition run.

use crate::diff::BatchFile;
use crate::json::Json;
use crate::persist::write_atomic;
use crate::progress::{eta_seconds, ProgressEvent, ProgressSink};
use crate::spec::{RunCell, ScenarioSpec};
use msn_deploy::{run_scheme_dynamic, run_scheme_with, SchemeKind};
use msn_field::{CoverageGrid, Field};
use msn_metrics::{recovery_stats, to_csv, RecoveryStat, Summary, Table};
use msn_obs::Report;
use msn_sim::SimConfig;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::fmt;
use std::path::PathBuf;
use std::sync::Mutex;

/// A scenario that failed validation before execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioError(pub String);

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "scenario error: {}", self.0)
    }
}

impl std::error::Error for ScenarioError {}

/// The metrics of one executed run of the matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// The matrix cell this run executed.
    pub cell: RunCell,
    /// Final coverage fraction of free area.
    pub coverage: f64,
    /// Average moving distance per sensor (m).
    pub avg_move: f64,
    /// Maximum moving distance over sensors (m).
    pub max_move: f64,
    /// Total moving distance (m).
    pub total_move: f64,
    /// Total message transmissions.
    pub messages: u64,
    /// Whether every sensor ended connected to the base.
    pub connected: bool,
    /// Time to reach 95 % of final coverage, if the run converged.
    pub convergence_time: Option<f64>,
    /// Annotations such as `Disconn.` / `Incorrect VD` (Figure 10).
    pub flags: Vec<String>,
    /// Number of movement actions (the `world.moves` aggregate).
    pub moves: u64,
    /// Commanded travel distance (m; the `world.move_dist`
    /// aggregate, excluding detour-accounting penalties).
    pub move_dist: f64,
    /// Per-event recovery statistics (dip depth, climb-back time,
    /// movement bill), one per fired event; empty for runs of a spec
    /// without a `[dynamics]` schedule.
    pub recovery: Vec<RecoveryStat>,
    /// Final sensor positions. Kept in memory for layout rendering
    /// and movement lower bounds; *not* serialized to `batch.json`,
    /// so records restored by batch resume carry an empty vector —
    /// consumers must go through [`RunRecord::require_positions`].
    pub positions: Vec<msn_geom::Point>,
}

impl RunRecord {
    /// The run's final sensor positions, or a descriptive error when
    /// the record was restored from a `batch.json` (resume does not
    /// serialize layouts, so restored records carry none).
    ///
    /// Layout rendering (fig3/fig8) and movement lower bounds (fig11)
    /// must use this instead of reading
    /// [`RunRecord::positions`] directly: an empty vector would
    /// otherwise render a blank field or degenerate the Hungarian
    /// bound to zero without any indication of what went wrong.
    pub fn require_positions(&self) -> Result<&[msn_geom::Point], ScenarioError> {
        if self.positions.len() == self.cell.n {
            Ok(&self.positions)
        } else {
            Err(ScenarioError(format!(
                "run (rc={} rs={} n={} {} rep {}) carries no final positions: it was \
                 restored from an existing batch.json, and resume does not serialize \
                 layouts; re-run the cell (delete the cached batch.json or run without \
                 --resume) to recompute them",
                self.cell.radio.rc,
                self.cell.radio.rs,
                self.cell.n,
                self.cell.scheme.name(),
                self.cell.rep,
            )))
        }
    }
}

/// Aggregated statistics of one (radio, n, scheme) cell over its
/// repetitions, borrowing the records it aggregates.
#[derive(Debug, Clone)]
pub struct CellStats<'a> {
    /// Radio combination.
    pub radio: crate::spec::RadioSpec,
    /// Sensor count.
    pub n: usize,
    /// Scheme.
    pub scheme: SchemeKind,
    /// Variant slot index (0 when the spec declares no variants).
    pub variant: usize,
    /// Variant label (empty when the spec declares no variants).
    pub variant_label: String,
    /// Union of run flags, in first-seen order (Figure 10's
    /// `Disconn.` / `Incorrect VD` annotations).
    pub flags: Vec<String>,
    /// Coverage over repetitions.
    pub coverage: Summary,
    /// Average moving distance over repetitions.
    pub avg_move: Summary,
    /// Total messages over repetitions.
    pub messages: Summary,
    /// Movement actions over repetitions (`world.moves`).
    pub moves: Summary,
    /// Commanded travel distance over repetitions (`world.move_dist`, m).
    pub move_dist: Summary,
    /// Recovery times over every *recovered* event of every
    /// repetition (s); unrecovered events are excluded (their time is
    /// unbounded), their count shows as the difference against
    /// [`CellStats::coverage_dip`]'s count. Empty when no event
    /// fired (every static run).
    pub recovery_time: Summary,
    /// Minimum coverage during each event's dip window, over every
    /// event of every repetition. Empty when no event fired.
    pub coverage_dip: Summary,
    /// Number of repetitions that ended fully connected.
    pub connected_runs: usize,
    /// The per-repetition records behind the aggregates.
    pub runs: Vec<&'a RunRecord>,
}

/// Periodic persistence of completed runs during a batch.
#[derive(Debug, Clone)]
struct CheckpointPolicy {
    /// Destination `batch.json` (written through [`write_atomic`]).
    path: PathBuf,
    /// Completed runs between writes.
    every: usize,
}

/// Everything a batch execution can be configured with, in one
/// builder: thread pinning, checkpointing, profiling and progress
/// streaming. The CLI, the figure binaries and the test suites all
/// assemble a `RunConfig` and turn it into a runner with
/// [`RunConfig::runner`].
#[derive(Debug, Clone, Default)]
pub struct RunConfig {
    threads: Option<usize>,
    checkpoint: Option<CheckpointPolicy>,
    profiling: bool,
    progress: Option<ProgressSink>,
}

impl RunConfig {
    /// The default configuration: one worker per core (or
    /// `RAYON_NUM_THREADS`), no checkpointing, no profiling, no
    /// progress sink.
    pub fn new() -> Self {
        RunConfig::default()
    }

    /// Pins execution to exactly `threads` workers; `1` forces fully
    /// sequential execution (used by the determinism tests as the
    /// reference). `0` clamps to `1`.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
    }

    /// Writes the completed runs to `path` after every `every`
    /// finished runs (atomic write-then-rename, so a hard kill leaves
    /// either the previous or the new checkpoint — never a torn
    /// file). A later [`BatchRunner::run_resuming`] on the parsed
    /// file skips everything the checkpoint recorded, making long
    /// batches survive SIGKILL mid-matrix. `every = 0` disables
    /// checkpointing (the CLI's `--checkpoint-every 0` convention).
    /// A failed write is not fatal — a missed checkpoint only costs
    /// resume granularity — and is reported to the progress sink as
    /// [`ProgressEvent::CheckpointFailed`].
    ///
    /// The final result is *not* implicitly written here — persist
    /// [`BatchResult::to_json`] as before; it is byte-identical to an
    /// uncheckpointed run.
    #[must_use]
    pub fn checkpoint(mut self, path: impl Into<PathBuf>, every: usize) -> Self {
        self.checkpoint = (every > 0).then(|| CheckpointPolicy {
            path: path.into(),
            every,
        });
        self
    }

    /// Installs an [`msn_obs`] collector around every executed run
    /// and aggregates the per-run reports into
    /// [`BatchResult::profiles`]. Strictly zero-perturbation: the
    /// batch output (JSON/CSV/report) is byte-identical with
    /// profiling on or off — the profile is a side artifact.
    #[must_use]
    pub fn profiling(mut self, enabled: bool) -> Self {
        self.profiling = enabled;
        self
    }

    /// Streams [`ProgressEvent`]s (batch/run lifecycle, checkpoint
    /// writes and failures) to `sink` during execution. Workers emit
    /// concurrently; the sink must be line-atomic (see
    /// [`ProgressSink`]).
    #[must_use]
    pub fn progress(mut self, sink: ProgressSink) -> Self {
        self.progress = Some(sink);
        self
    }

    /// A [`BatchRunner`] executing under this configuration.
    pub fn runner(self) -> BatchRunner {
        BatchRunner { cfg: self }
    }
}

/// Executes [`ScenarioSpec`]s under a [`RunConfig`].
#[derive(Debug, Clone, Default)]
pub struct BatchRunner {
    cfg: RunConfig,
}

impl BatchRunner {
    /// A runner under the default [`RunConfig`]: one worker per core
    /// (or `RAYON_NUM_THREADS`).
    pub fn new() -> Self {
        BatchRunner::default()
    }

    /// The number of workers a run will actually use.
    pub fn effective_threads(&self) -> usize {
        self.cfg
            .threads
            .unwrap_or_else(rayon::current_num_threads)
            .max(1)
    }

    /// Expands `spec` into its run matrix and executes every run.
    pub fn run(&self, spec: &ScenarioSpec) -> Result<BatchResult, ScenarioError> {
        self.run_resuming(spec, None)
    }

    /// Like [`BatchRunner::run`], but skips matrix cells whose
    /// records are already present in `prior` (a parsed `batch.json`
    /// from an earlier, possibly interrupted, run of the same spec).
    ///
    /// Skipped records are restored from the prior file; seed
    /// derivation is coordinate-based, so the merged result — and its
    /// serialized JSON — is byte-identical to an uninterrupted run.
    /// A prior run whose environment seeds disagree with the spec's
    /// matrix (different base seed or sweep axes) is rejected.
    pub fn run_resuming(
        &self,
        spec: &ScenarioSpec,
        prior: Option<&BatchFile>,
    ) -> Result<BatchResult, ScenarioError> {
        spec.validate().map_err(ScenarioError)?;
        if let Some(prior) = prior {
            // The digest covers everything but the repetition count
            // (duration, coverage cell, params, variant overrides,
            // axes, seed), so records computed under an edited spec
            // can never be silently merged into its output.
            if prior.spec_digest != spec.resume_digest() {
                return Err(ScenarioError(format!(
                    "prior batch was produced by a different spec (digest {}, \
                     this spec is {}): the edit would not take effect on restored \
                     records; delete the stale batch.json to run from scratch",
                    prior.spec_digest,
                    spec.resume_digest(),
                )));
            }
        }
        let cells = spec.matrix();
        let mut restored: Vec<Option<RunRecord>> = vec![None; cells.len()];
        let mut to_run = Vec::new();
        for cell in cells {
            match prior.and_then(|p| {
                p.lookup(
                    cell.radio.rc,
                    cell.radio.rs,
                    cell.n,
                    cell.scheme.name(),
                    spec.variant_label(cell.variant),
                    cell.rep,
                )
            }) {
                Some(run) => {
                    if run.env_seed != cell.env_seed {
                        return Err(ScenarioError(format!(
                            "prior batch does not match this spec: cell (rc={} rs={} n={} {} rep {}) \
                             recorded env_seed {} but the matrix derives {} — different base seed \
                             or sweep axes; delete the stale batch.json to run from scratch",
                            cell.radio.rc,
                            cell.radio.rs,
                            cell.n,
                            cell.scheme.name(),
                            cell.rep,
                            run.env_seed,
                            cell.env_seed,
                        )));
                    }
                    restored[cell.index] = Some(RunRecord {
                        cell,
                        coverage: run.coverage,
                        avg_move: run.avg_move,
                        max_move: run.max_move,
                        total_move: run.total_move,
                        messages: run.messages,
                        connected: run.connected,
                        convergence_time: run.convergence_time,
                        flags: run.flags.clone(),
                        moves: run.moves,
                        move_dist: run.move_dist,
                        recovery: run.recovery.clone(),
                        positions: Vec::new(),
                    });
                }
                None => to_run.push(cell),
            }
        }
        // Environment sharing: fixed field layouts are rasterized
        // once for the whole batch; randomized fields once per
        // (radio, n, rep) slice — every scheme and variant of a slice
        // shares the drawn field and raster (see `run_matrix`).
        let shared = (!spec.field.is_randomized() && !to_run.is_empty()).then(|| {
            let mut unused_rng = SmallRng::seed_from_u64(0);
            let field = spec.field.build(&mut unused_rng);
            let grid = CoverageGrid::new(&field, spec.coverage_cell);
            (field, grid)
        });
        let (records, profiles) = run_matrix(
            spec,
            to_run,
            self.effective_threads(),
            shared.as_ref(),
            restored,
            self.cfg.checkpoint.as_ref(),
            self.cfg.profiling,
            self.cfg.progress.as_ref(),
        );
        Ok(BatchResult {
            spec: spec.clone(),
            records,
            profiles,
        })
    }
}

/// One randomized slice's environment, built lazily by the first cell
/// that needs it and dropped by the last cell that finishes with it,
/// so memory stays bounded by the slices in flight rather than the
/// repetition count.
struct EnvSlot {
    env: std::sync::OnceLock<std::sync::Arc<(Field, CoverageGrid)>>,
    remaining: std::sync::atomic::AtomicUsize,
}

/// A worker's hold on one slice environment: the env itself plus the
/// slot it must release when the cell finishes.
type SliceEnv = (
    std::sync::Arc<(Field, CoverageGrid)>,
    std::sync::Arc<EnvSlot>,
);

/// Executes the matrix cells on up to `threads` participants (the
/// calling thread included) that claim cells one at a time from a
/// shared cursor (see the `rayon` shim). Cells are scheduled
/// individually (schemes and variants of one slice run concurrently);
/// cells sharing an env seed resolve the same lazily-built
/// [`EnvSlot`] unless a batch-wide `shared` env exists. `restored`
/// pre-fills the slots of resumed cells.
///
/// Dispatch order is longest first, by the key `(n descending, OPT
/// last)`: a run's cost grows with its sensor count, and OPT (one
/// assignment, no simulated ticks) is the cheapest scheme at any n.
/// Handing the heavy cells out first keeps every participant busy to
/// the end instead of leaving one to finish the largest runs alone.
/// The sort is stable, so ties keep matrix order, and a spec with one
/// sensor count and no OPT runs in plain matrix order. The order only
/// decides *when* a cell runs, never *what* it computes: every run's
/// seeds derive from its matrix coordinates, and every record is
/// written back to its slot by matrix index, so record order equals
/// matrix order and `batch.json` is byte-identical at any thread
/// count and across `--resume`. A randomized slice's environment
/// lives from its first to its last cell; all cells of a slice share
/// one `n`, so that window stays inside one sensor count's group.
#[allow(clippy::too_many_arguments)] // internal seam; the builder is the public surface
fn run_matrix(
    spec: &ScenarioSpec,
    mut cells: Vec<RunCell>,
    threads: usize,
    shared: Option<&(Field, CoverageGrid)>,
    restored: Vec<Option<RunRecord>>,
    checkpoint: Option<&CheckpointPolicy>,
    profiling: bool,
    progress: Option<&ProgressSink>,
) -> (Vec<RunRecord>, Vec<Option<Report>>) {
    use std::collections::HashMap;
    use std::sync::atomic::Ordering;
    use std::sync::Arc;
    let envs: Mutex<HashMap<u64, Arc<EnvSlot>>> = {
        let mut map: HashMap<u64, Arc<EnvSlot>> = HashMap::new();
        if shared.is_none() {
            for cell in &cells {
                map.entry(cell.env_seed)
                    .or_insert_with(|| {
                        Arc::new(EnvSlot {
                            env: std::sync::OnceLock::new(),
                            remaining: std::sync::atomic::AtomicUsize::new(0),
                        })
                    })
                    .remaining
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
        Mutex::new(map)
    };
    cells.sort_by_key(|cell| (std::cmp::Reverse(cell.n), cell.scheme == SchemeKind::Opt));
    let workers = threads.max(1).min(cells.len().max(1));
    let to_run_total = cells.len();
    let cached = restored.iter().flatten().count();
    let slots: Vec<Mutex<Option<RunRecord>>> = restored.into_iter().map(Mutex::new).collect();
    // Per-run observation reports land next to their records, by
    // matrix index (restored cells were never executed: no profile).
    let profile_slots: Vec<Mutex<Option<Report>>> =
        (0..slots.len()).map(|_| Mutex::new(None)).collect();
    let completed = Mutex::new(0usize);
    // Runs covered by the last checkpoint actually written; orders
    // concurrent checkpoint writers and drops stale snapshots.
    let last_written = Mutex::new(0usize);
    let started = std::time::Instant::now();
    if let Some(sink) = progress {
        sink.emit(&ProgressEvent::BatchStarted {
            scenario: spec.name.clone(),
            total: to_run_total,
            cached,
            threads: workers,
        });
    }
    rayon::run_indexed(
        cells,
        &|cell: RunCell| {
            let run_started = std::time::Instant::now();
            if let Some(sink) = progress {
                sink.emit(&ProgressEvent::RunStarted {
                    index: cell.index,
                    rc: cell.radio.rc,
                    rs: cell.radio.rs,
                    n: cell.n,
                    scheme: cell.scheme.name().to_string(),
                    variant: spec.variant_label(cell.variant).to_string(),
                    rep: cell.rep,
                    env_seed: cell.env_seed,
                });
            }
            // Resolve the cell's environment: the batch-wide one,
            // or its slice's slot (first user rasterizes it).
            let local: Option<SliceEnv> = match shared {
                Some(_) => None,
                None => {
                    let slot = envs
                        .lock()
                        .unwrap()
                        .get(&cell.env_seed)
                        .expect("slot prepared for every env seed")
                        .clone();
                    let env = slot
                        .env
                        .get_or_init(|| {
                            let field = cell.build_field(spec);
                            let grid = CoverageGrid::new(&field, spec.coverage_cell);
                            Arc::new((field, grid))
                        })
                        .clone();
                    Some((env, slot))
                }
            };
            let env: &(Field, CoverageGrid) = match &local {
                Some((env, _)) => env,
                None => shared.expect("either shared or per-slice env"),
            };
            let index = cell.index;
            let env_seed = cell.env_seed;
            // The run executes entirely on this worker thread, so
            // a thread-local collector observes exactly this run.
            // Profiling feeds only the side profile table — the
            // record (and batch.json) is untouched by it.
            if profiling {
                msn_obs::start();
            }
            let record = execute(spec, cell, env);
            if profiling {
                *profile_slots[index].lock().unwrap() = msn_obs::finish();
            }
            let coverage = record.coverage;
            *slots[index].lock().unwrap() = Some(record);
            if let Some((_, slot)) = &local {
                // last cell of the slice: drop the cached env
                if slot.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                    envs.lock().unwrap().remove(&env_seed);
                }
            }
            let done = {
                let mut done = completed.lock().unwrap();
                *done += 1;
                *done
            };
            if let Some(sink) = progress {
                let elapsed_s = started.elapsed().as_secs_f64();
                sink.emit(&ProgressEvent::RunFinished {
                    index,
                    rc: cell.radio.rc,
                    rs: cell.radio.rs,
                    n: cell.n,
                    scheme: cell.scheme.name().to_string(),
                    variant: spec.variant_label(cell.variant).to_string(),
                    rep: cell.rep,
                    env_seed,
                    coverage,
                    wall_s: run_started.elapsed().as_secs_f64(),
                    completed: done,
                    total: to_run_total,
                    elapsed_s,
                    eta_s: eta_seconds(done, to_run_total, elapsed_s),
                });
            }
            if let Some(policy) = checkpoint {
                if done.is_multiple_of(policy.every) {
                    // Snapshot, render and write outside the run
                    // counter so other workers keep finishing runs
                    // during checkpoint IO. Positions are never
                    // serialized, so the snapshot drops them
                    // instead of deep-cloning every layout.
                    let mut last = last_written.lock().unwrap();
                    let records: Vec<RunRecord> = slots
                        .iter()
                        .filter_map(|slot| {
                            slot.lock().unwrap().as_ref().map(|r| RunRecord {
                                flags: r.flags.clone(),
                                recovery: r.recovery.clone(),
                                positions: Vec::new(),
                                ..*r
                            })
                        })
                        .collect();
                    if records.len() > *last {
                        *last = records.len();
                        let written = write_atomic(&policy.path, &render_json(spec, &records));
                        if let Some(sink) = progress {
                            let path = policy.path.display().to_string();
                            sink.emit(&match written {
                                Ok(()) => ProgressEvent::CheckpointWritten {
                                    path,
                                    runs: records.len(),
                                },
                                Err(e) => ProgressEvent::CheckpointFailed {
                                    path,
                                    error: e.to_string(),
                                },
                            });
                        }
                    }
                }
            }
        },
        workers,
    );
    if let Some(sink) = progress {
        sink.emit(&ProgressEvent::BatchFinished {
            scenario: spec.name.clone(),
            total: to_run_total,
            elapsed_s: started.elapsed().as_secs_f64(),
        });
    }
    let records = slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap()
                .expect("every matrix slot filled")
        })
        .collect();
    let profiles = if profiling {
        profile_slots
            .into_iter()
            .map(|slot| slot.into_inner().unwrap())
            .collect()
    } else {
        Vec::new()
    };
    (records, profiles)
}

/// Executes one cell of the matrix on its group's environment,
/// dispatching to the dynamic engine when the spec carries a
/// `[dynamics]` schedule.
fn execute(spec: &ScenarioSpec, cell: RunCell, env: &(Field, CoverageGrid)) -> RunRecord {
    let (field, grid) = env;
    let cfg = SimConfig::paper(cell.radio.rc, cell.radio.rs)
        .with_duration(spec.duration)
        .with_coverage_cell(spec.coverage_cell)
        .with_seed(cell.sim_seed());
    let overrides = spec.effective_overrides(cell.variant);
    let initial = cell.build_scatter(spec, field);
    let (r, recovery) = match &spec.dynamics {
        None => (
            run_scheme_with(cell.scheme, field, &initial, &cfg, &overrides, Some(grid)),
            Vec::new(),
        ),
        Some(schedule) => {
            let outcome = run_scheme_dynamic(
                cell.scheme,
                field,
                &initial,
                &cfg,
                &overrides,
                Some(grid),
                schedule,
                cell.event_seed(),
            );
            let recovery = recovery_stats(
                &outcome.result.coverage_timeline,
                &outcome.events,
                schedule.recovery_frac,
            );
            (outcome.result, recovery)
        }
    };
    RunRecord {
        cell,
        coverage: r.coverage,
        avg_move: r.avg_move,
        max_move: r.max_move,
        total_move: r.total_move,
        messages: r.messages.total(),
        connected: r.connected,
        convergence_time: r.convergence_time,
        flags: r.flags,
        moves: r.moves,
        move_dist: r.move_dist,
        recovery,
        positions: r.positions,
    }
}

/// The outcome of a batch: the spec it ran plus every run record, in
/// matrix order.
#[derive(Debug, Clone)]
pub struct BatchResult {
    /// The executed spec.
    pub spec: ScenarioSpec,
    /// One record per matrix cell, in matrix order.
    pub records: Vec<RunRecord>,
    /// One observation report per matrix cell, in matrix order, when
    /// the batch ran with [`RunConfig::profiling`] — `None` for cells
    /// restored by resume (never executed). Empty when profiling was
    /// off. Not part of any serialized batch output; aggregate it with
    /// [`crate::ProfileRecord::from_batch`].
    pub profiles: Vec<Option<Report>>,
}

/// Groups `records` into per-(radio, n, variant, scheme) aggregates,
/// in matrix order. Free function so checkpoints can aggregate a
/// partial record set mid-batch.
fn cell_stats_of<'a>(spec: &ScenarioSpec, records: &'a [RunRecord]) -> Vec<CellStats<'a>> {
    let mut stats: Vec<CellStats> = Vec::new();
    for record in records {
        let cell = &record.cell;
        let existing = stats.iter_mut().find(|s| {
            s.radio == cell.radio
                && s.n == cell.n
                && s.scheme == cell.scheme
                && s.variant == cell.variant
        });
        let slot = match existing {
            Some(slot) => slot,
            None => {
                stats.push(CellStats {
                    radio: cell.radio,
                    n: cell.n,
                    scheme: cell.scheme,
                    variant: cell.variant,
                    variant_label: spec.variant_label(cell.variant).to_string(),
                    flags: Vec::new(),
                    coverage: Summary::new(),
                    avg_move: Summary::new(),
                    messages: Summary::new(),
                    moves: Summary::new(),
                    move_dist: Summary::new(),
                    recovery_time: Summary::new(),
                    coverage_dip: Summary::new(),
                    connected_runs: 0,
                    runs: Vec::new(),
                });
                stats.last_mut().expect("just pushed")
            }
        };
        slot.coverage.add(record.coverage);
        slot.avg_move.add(record.avg_move);
        slot.messages.add(record.messages as f64);
        slot.moves.add(record.moves as f64);
        slot.move_dist.add(record.move_dist);
        for stat in &record.recovery {
            slot.coverage_dip.add(stat.min_coverage);
            if let Some(t) = stat.recovery_time {
                slot.recovery_time.add(t);
            }
        }
        slot.connected_runs += usize::from(record.connected);
        for flag in &record.flags {
            if !slot.flags.contains(flag) {
                slot.flags.push(flag.clone());
            }
        }
        slot.runs.push(record);
    }
    stats
}

impl BatchResult {
    /// Groups records into per-(radio, n, variant, scheme)
    /// aggregates, in matrix order.
    pub fn cell_stats(&self) -> Vec<CellStats<'_>> {
        cell_stats_of(&self.spec, &self.records)
    }

    /// All records of one scheme, in matrix order (e.g. to build the
    /// CDFs of Figure 13).
    pub fn scheme_records(&self, scheme: SchemeKind) -> Vec<&RunRecord> {
        self.records
            .iter()
            .filter(|r| r.cell.scheme == scheme)
            .collect()
    }

    /// Serializes the batch as deterministic JSON: the spec header,
    /// per-cell aggregates and the raw per-run samples.
    pub fn to_json(&self) -> String {
        render_json(&self.spec, &self.records)
    }
}

/// Serializes `records` as the deterministic `batch.json` document.
/// Free function so mid-batch checkpoints and the final result share
/// one format (`total_runs` reflects the records actually present).
fn render_json(spec: &ScenarioSpec, records: &[RunRecord]) -> String {
    let cells: Vec<Json> = cell_stats_of(spec, records)
        .into_iter()
        .map(|s| {
            let runs: Vec<Json> = s
                .runs
                .iter()
                .map(|r| {
                    Json::obj()
                        .field("rep", r.cell.rep)
                        .field("env_seed", r.cell.env_seed)
                        .field("coverage", r.coverage)
                        .field("avg_move", r.avg_move)
                        .field("max_move", r.max_move)
                        .field("total_move", r.total_move)
                        .field("messages", r.messages)
                        .field("moves", r.moves)
                        .field("move_dist", r.move_dist)
                        .field("connected", r.connected)
                        .field(
                            "convergence_time",
                            r.convergence_time.filter(|t| t.is_finite()),
                        )
                        .field(
                            "recovery",
                            Json::Arr(
                                r.recovery
                                    .iter()
                                    .map(|s| {
                                        Json::obj()
                                            .field("time", s.event_time)
                                            .field("kind", s.kind.as_str())
                                            .field("pre_coverage", s.pre_coverage)
                                            .field("post_coverage", s.post_coverage)
                                            .field("min_coverage", s.min_coverage)
                                            .field("recovery_time", s.recovery_time)
                                            .field("post_move_dist", s.post_move_dist)
                                    })
                                    .collect(),
                            ),
                        )
                        .field(
                            "flags",
                            Json::Arr(r.flags.iter().map(|f| f.as_str().into()).collect()),
                        )
                })
                .collect();
            Json::obj()
                .field("rc", s.radio.rc)
                .field("rs", s.radio.rs)
                .field("n", s.n)
                .field("scheme", s.scheme.name())
                .field("variant", s.variant_label.as_str())
                .field("coverage", summary_json(&s.coverage))
                .field("avg_move", summary_json(&s.avg_move))
                .field("messages", summary_json(&s.messages))
                .field("moves", summary_json(&s.moves))
                .field("move_dist", summary_json(&s.move_dist))
                .field("recovery_time", summary_json(&s.recovery_time))
                .field("coverage_dip", summary_json(&s.coverage_dip))
                .field("connected_runs", s.connected_runs)
                .field("runs", Json::Arr(runs))
        })
        .collect();
    Json::obj()
        .field("scenario", spec.name.as_str())
        .field("description", spec.description.as_str())
        .field("field", spec.field.kind())
        .field("scatter", spec.scatter.kind())
        .field("seed", spec.seed)
        .field("spec_digest", spec.resume_digest())
        .field("repetitions", spec.repetitions)
        .field("duration", spec.duration)
        .field("coverage_cell", spec.coverage_cell)
        .field("total_runs", records.len())
        .field("cells", Json::Arr(cells))
        .pretty()
}

impl BatchResult {
    /// Serializes per-cell aggregates as CSV.
    pub fn to_csv(&self) -> String {
        let headers = [
            "scenario",
            "rc",
            "rs",
            "n",
            "scheme",
            "variant",
            "reps",
            "coverage_mean",
            "coverage_ci95",
            "coverage_min",
            "coverage_max",
            "avg_move_mean",
            "avg_move_ci95",
            "messages_mean",
            "moves_mean",
            "move_dist_mean",
            "recovery_time_mean",
            "recovered_events",
            "coverage_dip_mean",
            "connected_runs",
        ]
        .map(String::from);
        let rows: Vec<Vec<String>> = self
            .cell_stats()
            .into_iter()
            .map(|s| {
                vec![
                    self.spec.name.clone(),
                    format!("{:?}", s.radio.rc),
                    format!("{:?}", s.radio.rs),
                    s.n.to_string(),
                    s.scheme.name().to_string(),
                    s.variant_label.clone(),
                    s.coverage.count().to_string(),
                    format!("{:.6}", s.coverage.mean()),
                    format!("{:.6}", s.coverage.ci95_half_width()),
                    format!("{:.6}", s.coverage.min()),
                    format!("{:.6}", s.coverage.max()),
                    format!("{:.3}", s.avg_move.mean()),
                    format!("{:.3}", s.avg_move.ci95_half_width()),
                    format!("{:.1}", s.messages.mean()),
                    format!("{:.1}", s.moves.mean()),
                    format!("{:.3}", s.move_dist.mean()),
                    format!("{:.3}", s.recovery_time.mean()),
                    s.recovery_time.count().to_string(),
                    format!("{:.6}", s.coverage_dip.mean()),
                    s.connected_runs.to_string(),
                ]
            })
            .collect();
        to_csv(&headers, &rows)
    }

    /// Formats the ASCII report: one table per radio combination
    /// (rows: sensor count and variant; columns: coverage, moving
    /// distance, commanded distance and recovery time per scheme).
    pub fn report(&self) -> String {
        let spec = &self.spec;
        let mut out = format!(
            "Scenario '{}' — field: {}, scatter: {}, {} runs ({} reps)\n",
            spec.name,
            spec.field.kind(),
            spec.scatter.kind(),
            self.records.len(),
            spec.repetitions,
        );
        if !spec.description.is_empty() {
            out.push_str(&format!("{}\n", spec.description));
        }
        let stats = self.cell_stats();
        for radio in &spec.radios {
            out.push_str(&format!("\n{radio}\n"));
            let mut headers = vec!["n".to_string(), "variant".to_string()];
            for (column, _) in REPORT_COLUMNS {
                for scheme in &spec.schemes {
                    headers.push(format!("{scheme} {column}"));
                }
            }
            let mut table = Table::new(headers);
            for &n in &spec.sensor_counts {
                for variant in 0..spec.variant_count() {
                    let mut row = vec![n.to_string(), spec.variant_label(variant).to_string()];
                    let find = |scheme| {
                        stats.iter().find(|s| {
                            s.radio == *radio
                                && s.n == n
                                && s.scheme == scheme
                                && s.variant == variant
                        })
                    };
                    for (_, text) in REPORT_COLUMNS {
                        for &scheme in &spec.schemes {
                            row.push(find(scheme).map_or("-".into(), text));
                        }
                    }
                    table.row(row);
                }
            }
            out.push_str(&format!("{table}\n"));
        }
        out
    }
}

/// A report column: header suffix and the cell text of one scheme.
type ReportColumn = (&'static str, fn(&CellStats) -> String);

/// The report's per-scheme columns: header suffix and cell text —
/// coverage, moving distance, commanded distance and recovery time
/// (`-` where no event fired, `unrec` where none recovered).
const REPORT_COLUMNS: [ReportColumn; 4] = [
    ("cov", |s| fmt_pct(&s.coverage)),
    ("move (m)", |s| fmt_move(&s.avg_move)),
    ("cmd (m)", |s| fmt_move(&s.move_dist)),
    ("rec (s)", |s| {
        if s.coverage_dip.is_empty() {
            "-".into()
        } else if s.recovery_time.is_empty() {
            "unrec".into()
        } else {
            fmt_move(&s.recovery_time)
        }
    }),
];

fn summary_json(s: &Summary) -> Json {
    Json::obj()
        .field("mean", s.mean())
        .field("ci95", s.ci95_half_width())
        .field(
            "min",
            if s.is_empty() {
                Json::Null
            } else {
                s.min().into()
            },
        )
        .field(
            "max",
            if s.is_empty() {
                Json::Null
            } else {
                s.max().into()
            },
        )
        .field("count", s.count())
}

/// `"52.3%"`, with a `±` half-width when there are repetitions.
fn fmt_pct(s: &Summary) -> String {
    if s.count() > 1 {
        format!(
            "{:.1}%±{:.1}",
            s.mean() * 100.0,
            s.ci95_half_width() * 100.0
        )
    } else {
        format!("{:.1}%", s.mean() * 100.0)
    }
}

/// `"384"`, with a `±` half-width when there are repetitions.
fn fmt_move(s: &Summary) -> String {
    if s.count() > 1 {
        format!("{:.0}±{:.0}", s.mean(), s.ci95_half_width())
    } else {
        format!("{:.0}", s.mean())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{FieldSpec, ScenarioSpec};

    fn tiny_spec() -> ScenarioSpec {
        ScenarioSpec::new("tiny")
            .with_schemes(vec![SchemeKind::Cpvf, SchemeKind::Floor])
            .with_sensor_counts(vec![12, 20])
            .with_radios(vec![(60.0, 40.0)])
            .with_duration(30.0)
            .with_coverage_cell(20.0)
            .with_repetitions(2)
    }

    #[test]
    fn runs_and_aggregates() {
        let result = BatchRunner::new().run(&tiny_spec()).unwrap();
        assert_eq!(result.records.len(), 2 * 2 * 2);
        let stats = result.cell_stats();
        assert_eq!(stats.len(), 2 * 2, "one aggregate per (n, scheme)");
        for s in &stats {
            assert_eq!(s.coverage.count(), 2);
            assert!(s.coverage.mean() > 0.0, "{} covered nothing", s.scheme);
            assert_eq!(s.runs.len(), 2);
        }
        assert_eq!(result.scheme_records(SchemeKind::Cpvf).len(), 4);
    }

    #[test]
    fn outputs_are_well_formed() {
        let result = RunConfig::new()
            .threads(1)
            .runner()
            .run(&tiny_spec())
            .unwrap();
        let json = result.to_json();
        assert!(json.contains("\"scenario\": \"tiny\""));
        assert!(json.contains("\"scheme\": \"CPVF\""));
        assert!(json.contains("\"runs\""));
        let csv = result.to_csv();
        assert_eq!(csv.lines().count(), 1 + 4, "header + one row per cell");
        assert!(csv.starts_with("scenario,rc,rs,n,scheme"));
        let report = result.report();
        assert!(report.contains("Scenario 'tiny'"));
        assert!(report.contains("CPVF cov"));
        assert!(report.contains('%'));
    }

    #[test]
    fn pinned_thread_counts_match_sequential_output() {
        let spec = tiny_spec();
        let sequential = RunConfig::new().threads(1).runner().run(&spec).unwrap();
        let pinned = RunConfig::new().threads(3).runner().run(&spec).unwrap();
        assert_eq!(sequential.to_json(), pinned.to_json());
    }

    #[test]
    fn invalid_spec_is_rejected() {
        let bad = tiny_spec().with_schemes(vec![]);
        assert!(BatchRunner::new().run(&bad).is_err());
    }

    #[test]
    fn resume_reproduces_uninterrupted_output_byte_for_byte() {
        let full_spec = tiny_spec();
        let full = RunConfig::new()
            .threads(1)
            .runner()
            .run(&full_spec)
            .unwrap();
        // "interrupt" after the first repetition: run the same spec
        // with fewer reps, persist, then resume at the full rep count
        let partial_spec = full_spec.clone().with_repetitions(1);
        let partial = RunConfig::new()
            .threads(1)
            .runner()
            .run(&partial_spec)
            .unwrap();
        let prior = BatchFile::parse(&partial.to_json()).unwrap();
        let resumed = RunConfig::new()
            .threads(1)
            .runner()
            .run_resuming(&full_spec, Some(&prior))
            .unwrap();
        assert_eq!(resumed.to_json(), full.to_json());
        assert_eq!(resumed.to_csv(), full.to_csv());
    }

    #[test]
    fn resume_actually_skips_cached_cells() {
        let spec = tiny_spec();
        let full = RunConfig::new().threads(1).runner().run(&spec).unwrap();
        let mut prior = BatchFile::parse(&full.to_json()).unwrap();
        // poison one cached record; if resume re-executed the cell the
        // poisoned value could not survive into the merged output
        prior.cells[0].1.get_mut(&0).unwrap().coverage = 0.123456789;
        let resumed = RunConfig::new()
            .threads(1)
            .runner()
            .run_resuming(&spec, Some(&prior))
            .unwrap();
        assert!(
            resumed.to_json().contains("0.123456789"),
            "cached record was re-executed instead of restored"
        );
    }

    #[test]
    fn resume_rejects_mismatched_seed_policy() {
        let spec = tiny_spec();
        let full = RunConfig::new().threads(1).runner().run(&spec).unwrap();
        let prior = BatchFile::parse(&full.to_json()).unwrap();
        let reseeded = spec.with_seed(4242);
        let err = RunConfig::new()
            .threads(1)
            .runner()
            .run_resuming(&reseeded, Some(&prior))
            .unwrap_err();
        assert!(err.0.contains("different spec"), "{}", err.0);
    }

    #[test]
    fn resume_rejects_edited_durations_and_params() {
        use msn_deploy::{FloorOverrides, SchemeOverrides};
        let spec = tiny_spec();
        let full = RunConfig::new().threads(1).runner().run(&spec).unwrap();
        let prior = BatchFile::parse(&full.to_json()).unwrap();
        // env seeds are untouched by these edits, but the digest
        // catches them: restored records would not reflect the edit
        let quickened = spec.clone().with_duration(10.0);
        assert!(BatchRunner::new()
            .run_resuming(&quickened, Some(&prior))
            .is_err());
        let reparam = spec.clone().with_variant(
            "ttl-3",
            SchemeOverrides {
                floor: FloorOverrides {
                    ttl: Some(3),
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        assert!(BatchRunner::new()
            .run_resuming(&reparam, Some(&prior))
            .is_err());
        // extending repetitions stays allowed
        assert!(BatchRunner::new()
            .run_resuming(&spec.with_repetitions(3), Some(&prior))
            .is_ok());
    }

    #[test]
    fn variant_sweep_runs_and_labels_cells() {
        use msn_deploy::{FloorOverrides, SchemeOverrides};
        let spec = ScenarioSpec::new("ttl-sweep")
            .with_schemes(vec![SchemeKind::Floor])
            .with_sensor_counts(vec![12])
            .with_duration(30.0)
            .with_coverage_cell(20.0)
            .with_variant("ttl-1", {
                SchemeOverrides {
                    floor: FloorOverrides {
                        ttl: Some(1),
                        ..Default::default()
                    },
                    ..Default::default()
                }
            })
            .with_variant("ttl-frac", {
                SchemeOverrides {
                    floor: FloorOverrides {
                        ttl_frac: Some(0.5),
                        ..Default::default()
                    },
                    ..Default::default()
                }
            });
        let result = RunConfig::new().threads(1).runner().run(&spec).unwrap();
        assert_eq!(result.records.len(), 2);
        let stats = result.cell_stats();
        assert_eq!(stats.len(), 2);
        assert_eq!(stats[0].variant_label, "ttl-1");
        assert_eq!(stats[1].variant_label, "ttl-frac");
        let json = result.to_json();
        assert!(json.contains("\"variant\": \"ttl-1\""), "{json}");
        let csv = result.to_csv();
        assert!(csv.lines().next().unwrap().contains("variant"));
        let report = result.report();
        assert!(report.contains("ttl-1"), "{report}");
    }

    #[test]
    fn restored_records_fail_position_consumers_loudly() {
        let spec = tiny_spec();
        let full = RunConfig::new().threads(1).runner().run(&spec).unwrap();
        // fresh runs carry their final layouts
        for record in &full.records {
            assert_eq!(
                record.require_positions().unwrap().len(),
                record.cell.n,
                "fresh record must expose positions"
            );
        }
        // a fully-restored batch must refuse to hand out positions
        let prior = BatchFile::parse(&full.to_json()).unwrap();
        let resumed = RunConfig::new()
            .threads(1)
            .runner()
            .run_resuming(&spec, Some(&prior))
            .unwrap();
        let err = resumed.records[0].require_positions().unwrap_err();
        assert!(err.0.contains("no final positions"), "{}", err.0);
        assert!(err.0.contains("restored"), "{}", err.0);
    }

    #[test]
    fn resume_survives_mid_batch_holes_byte_identically() {
        // simulates resuming from a mid-batch checkpoint: records are
        // missing across schemes *within* a repetition, not only as
        // whole trailing repetitions
        let spec = tiny_spec();
        let full = RunConfig::new().threads(1).runner().run(&spec).unwrap();
        let mut prior = BatchFile::parse(&full.to_json()).unwrap();
        prior.cells[1].1.remove(&0);
        prior.cells[2].1.remove(&1);
        prior.cells.remove(3);
        let resumed = RunConfig::new()
            .threads(2)
            .runner()
            .run_resuming(&spec, Some(&prior))
            .unwrap();
        assert_eq!(resumed.to_json(), full.to_json());
    }

    #[test]
    fn randomized_specs_share_envs_and_stay_thread_invariant() {
        let spec = ScenarioSpec::new("rnd-groups")
            .with_field(FieldSpec::RandomObstacles(Default::default()))
            .with_schemes(vec![SchemeKind::Cpvf, SchemeKind::Opt])
            .with_sensor_counts(vec![12])
            .with_duration(20.0)
            .with_coverage_cell(25.0)
            .with_repetitions(3);
        let sequential = RunConfig::new().threads(1).runner().run(&spec).unwrap();
        let pooled = RunConfig::new().threads(3).runner().run(&spec).unwrap();
        assert_eq!(sequential.to_json(), pooled.to_json());
        // and resuming a partial randomized batch merges bit-exactly
        let partial = RunConfig::new()
            .threads(1)
            .runner()
            .run(&spec.clone().with_repetitions(1))
            .unwrap();
        let prior = BatchFile::parse(&partial.to_json()).unwrap();
        let resumed = RunConfig::new()
            .threads(2)
            .runner()
            .run_resuming(&spec, Some(&prior))
            .unwrap();
        assert_eq!(resumed.to_json(), sequential.to_json());
    }

    #[test]
    fn dispatch_runs_larger_fleets_first_and_opt_last() {
        // matrix order: n=10 {OPT, CPVF}, n=14 {OPT, CPVF}
        let spec = ScenarioSpec::new("dispatch")
            .with_schemes(vec![SchemeKind::Opt, SchemeKind::Cpvf])
            .with_sensor_counts(vec![10, 14])
            .with_duration(5.0)
            .with_coverage_cell(25.0);
        let started = std::sync::Arc::new(Mutex::new(Vec::new()));
        let sink_started = std::sync::Arc::clone(&started);
        let sink = ProgressSink::new(move |event| {
            if let ProgressEvent::RunStarted { index, .. } = event {
                sink_started.lock().unwrap().push(*index);
            }
        });
        let result = RunConfig::new()
            .threads(1)
            .progress(sink)
            .runner()
            .run(&spec)
            .unwrap();
        assert_eq!(*started.lock().unwrap(), vec![3, 2, 1, 0]);
        let indices: Vec<usize> = result.records.iter().map(|r| r.cell.index).collect();
        assert_eq!(indices, vec![0, 1, 2, 3], "records stay in matrix order");
    }

    #[test]
    fn fixed_field_grid_cache_matches_uncached_environments() {
        // the shared-field path must reproduce build_environment's
        // scatter exactly (independent RNG streams)
        let spec = tiny_spec();
        let cells = spec.matrix();
        let (field, initial) = cells[0].build_environment(&spec);
        let scatter_only = cells[0].build_scatter(&spec, &field);
        assert_eq!(initial, scatter_only);
    }

    #[test]
    fn randomized_fields_vary_per_rep_but_not_per_scheme() {
        let spec = ScenarioSpec::new("rnd")
            .with_field(FieldSpec::RandomObstacles(Default::default()))
            .with_schemes(vec![SchemeKind::Cpvf, SchemeKind::Floor])
            .with_sensor_counts(vec![10])
            .with_duration(10.0)
            .with_coverage_cell(25.0)
            .with_repetitions(2);
        let cells = spec.matrix();
        let (f0, i0) = cells[0].build_environment(&spec);
        let (f1, i1) = cells[1].build_environment(&spec);
        // same rep, different scheme: identical environment
        assert_eq!(f0.obstacles().len(), f1.obstacles().len());
        assert_eq!(i0, i1);
        // different rep: different environment
        let (_, i2) = cells[2].build_environment(&spec);
        assert_ne!(i0, i2);
    }
}
