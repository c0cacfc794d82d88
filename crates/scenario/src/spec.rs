//! Declarative scenario descriptions.
//!
//! A [`ScenarioSpec`] fully describes an experiment: field geometry,
//! initial scatter, sensor-count sweep, radio-range combinations,
//! scheme set, durations, repetitions and the seed policy. Specs are
//! built in code (builder methods) or loaded from TOML
//! ([`ScenarioSpec::from_toml_str`]); [`ScenarioSpec::matrix`]
//! expands a spec into the flat run matrix the batch runner executes.

use crate::toml::{TomlError, TomlValue};
use msn_deploy::cpvf::OscillationAvoidance;
use msn_deploy::{SchemeKind, SchemeOverrides, Slot};
use msn_field::{
    campus_grid_field, corridor_field, disaster_zone_field, paper_field, random_obstacle_field,
    scatter_clustered, scatter_uniform, two_obstacle_field, CampusGridParams, CorridorParams,
    Field, RandomObstacleParams,
};
use msn_geom::{Point, Rect};
use msn_sim::{DynEvent, EventSchedule};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::fmt;

/// A communication/sensing range combination (`rc`, `rs`), in meters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RadioSpec {
    /// Communication range `rc` (m).
    pub rc: f64,
    /// Sensing range `rs` (m).
    pub rs: f64,
}

impl RadioSpec {
    /// A new combination.
    pub fn new(rc: f64, rs: f64) -> Self {
        RadioSpec { rc, rs }
    }
}

impl fmt::Display for RadioSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rc={} rs={}", self.rc, self.rs)
    }
}

/// Field geometry of a scenario.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldSpec {
    /// The paper's 1 km × 1 km obstacle-free field.
    Paper,
    /// The two-obstacle field of Figures 3(c)/8(c).
    TwoObstacle,
    /// A block grid of buildings (see [`CampusGridParams`]).
    CampusGrid(CampusGridParams),
    /// A serpentine corridor of baffle walls (see [`CorridorParams`]).
    Corridor(CorridorParams),
    /// The debris field of the disaster-zone example.
    DisasterZone,
    /// Per-run random rectangular obstacles (§6.4 workload; see
    /// [`RandomObstacleParams`]).
    RandomObstacles(RandomObstacleParams),
}

impl FieldSpec {
    /// The spec's TOML `kind` tag.
    pub fn kind(&self) -> &'static str {
        match self {
            FieldSpec::Paper => "paper",
            FieldSpec::TwoObstacle => "two-obstacle",
            FieldSpec::CampusGrid(_) => "campus-grid",
            FieldSpec::Corridor(_) => "corridor",
            FieldSpec::DisasterZone => "disaster-zone",
            FieldSpec::RandomObstacles(_) => "random-obstacles",
        }
    }

    /// Whether the field differs run to run (drawn from the run's
    /// environment seed) rather than being fixed for the scenario.
    pub fn is_randomized(&self) -> bool {
        matches!(self, FieldSpec::RandomObstacles(_))
    }

    /// Materializes the field, drawing any randomness from `rng`.
    pub fn build<R: Rng>(&self, rng: &mut R) -> Field {
        match self {
            FieldSpec::Paper => paper_field(),
            FieldSpec::TwoObstacle => two_obstacle_field(),
            FieldSpec::CampusGrid(params) => campus_grid_field(params),
            FieldSpec::Corridor(params) => corridor_field(params),
            FieldSpec::DisasterZone => disaster_zone_field(),
            FieldSpec::RandomObstacles(params) => random_obstacle_field(params, rng),
        }
    }
}

/// Initial sensor distribution of a scenario.
#[derive(Debug, Clone, PartialEq)]
pub enum ScatterSpec {
    /// Uniform over the field's lower-left quarter (the paper's §6
    /// clustered start, scaled to the field).
    ClusteredQuarter,
    /// Uniform over an explicit sub-rectangle.
    Clustered {
        /// Sub-area min x (m).
        x0: f64,
        /// Sub-area min y (m).
        y0: f64,
        /// Sub-area max x (m).
        x1: f64,
        /// Sub-area max y (m).
        y1: f64,
    },
    /// Uniform over the whole free space.
    Uniform,
}

impl ScatterSpec {
    /// The spec's TOML `kind` tag.
    pub fn kind(&self) -> &'static str {
        match self {
            ScatterSpec::ClusteredQuarter => "clustered-quarter",
            ScatterSpec::Clustered { .. } => "clustered",
            ScatterSpec::Uniform => "uniform",
        }
    }

    /// Draws `n` initial positions on `field` from `rng`.
    pub fn place<R: Rng>(&self, field: &Field, n: usize, rng: &mut R) -> Vec<Point> {
        match self {
            ScatterSpec::ClusteredQuarter => {
                let b = field.bounds();
                let sub = Rect::new(
                    b.min.x,
                    b.min.y,
                    b.min.x + b.width() / 2.0,
                    b.min.y + b.height() / 2.0,
                );
                scatter_clustered(field, sub, n, rng)
            }
            ScatterSpec::Clustered { x0, y0, x1, y1 } => {
                scatter_clustered(field, Rect::new(*x0, *y0, *x1, *y1), n, rng)
            }
            ScatterSpec::Uniform => scatter_uniform(field, n, rng),
        }
    }
}

/// One labeled cell of a parameter sweep: a partial override set on
/// top of each scheme's defaults.
///
/// Variants form an extra matrix axis between repetitions and schemes,
/// so every variant competes on the same environments — Table 1's
/// `TTL = 0.1N ... 0.4N` columns and the BLG/IFLG ablation are
/// variant sweeps.
#[derive(Debug, Clone, PartialEq)]
pub struct ParamVariant {
    /// Display label (unique within a spec), e.g. `"TTL=0.2N"`.
    pub label: String,
    /// The overrides this variant applies to the scheme defaults.
    pub overrides: SchemeOverrides,
}

impl ParamVariant {
    /// A new labeled variant.
    pub fn new(label: impl Into<String>, overrides: SchemeOverrides) -> Self {
        ParamVariant {
            label: label.into(),
            overrides,
        }
    }
}

/// A declarative description of one experiment batch.
///
/// # Examples
///
/// ```
/// use msn_deploy::SchemeKind;
/// use msn_scenario::ScenarioSpec;
///
/// let spec = ScenarioSpec::new("demo")
///     .with_schemes(vec![SchemeKind::Cpvf, SchemeKind::Floor])
///     .with_sensor_counts(vec![40, 80])
///     .with_radios(vec![(60.0, 40.0)])
///     .with_duration(100.0)
///     .with_repetitions(2);
/// assert_eq!(spec.matrix().len(), 2 * 2 * 2);
/// let toml = spec.to_toml_string();
/// assert_eq!(ScenarioSpec::from_toml_str(&toml).unwrap(), spec);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Scenario name (used for output paths and reports).
    pub name: String,
    /// Free-form description.
    pub description: String,
    /// Field geometry.
    pub field: FieldSpec,
    /// Initial sensor distribution.
    pub scatter: ScatterSpec,
    /// Sensor-count sweep (one run matrix column per count).
    pub sensor_counts: Vec<usize>,
    /// Schemes to compare. Every scheme sees the same environments
    /// (field, initial positions, sim seed) within a matrix cell.
    pub schemes: Vec<SchemeKind>,
    /// Radio-range combinations to sweep.
    pub radios: Vec<RadioSpec>,
    /// Simulated duration per run (s).
    pub duration: f64,
    /// Coverage raster cell (m).
    pub coverage_cell: f64,
    /// Repetitions per (radio, n, scheme) cell with different seeds.
    pub repetitions: usize,
    /// Base seed; per-run seeds are derived deterministically from it
    /// and the run's matrix coordinates (never from thread timing).
    pub seed: u64,
    /// Parameter sweep cells (TOML `[[variants]]`). Empty means one
    /// unlabeled default variant.
    pub variants: Vec<ParamVariant>,
    /// Scheduled mid-run sensor failures plus the recovery threshold
    /// — the TOML `[dynamics]` section. `None` (the default) runs
    /// every cell statically; `Some` switches the runner to the
    /// restart-on-event engine, whose per-event statistics fill the
    /// batch outputs' recovery fields (empty for static runs).
    pub dynamics: Option<EventSchedule>,
}

impl ScenarioSpec {
    /// A spec with the paper's defaults: paper field, clustered
    /// quarter scatter, 240 sensors, all five schemes, rc 60 / rs 40,
    /// 750 s, 2.5 m raster, 1 repetition, seed 42.
    pub fn new(name: impl Into<String>) -> Self {
        ScenarioSpec {
            name: name.into(),
            description: String::new(),
            field: FieldSpec::Paper,
            scatter: ScatterSpec::ClusteredQuarter,
            sensor_counts: vec![240],
            schemes: SchemeKind::ALL.to_vec(),
            radios: vec![RadioSpec::new(60.0, 40.0)],
            duration: 750.0,
            coverage_cell: 2.5,
            repetitions: 1,
            seed: 42,
            variants: Vec::new(),
            dynamics: None,
        }
    }

    /// Sets the name.
    #[must_use]
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Sets the description.
    #[must_use]
    pub fn with_description(mut self, description: impl Into<String>) -> Self {
        self.description = description.into();
        self
    }

    /// Sets the field geometry.
    #[must_use]
    pub fn with_field(mut self, field: FieldSpec) -> Self {
        self.field = field;
        self
    }

    /// Sets the initial distribution.
    #[must_use]
    pub fn with_scatter(mut self, scatter: ScatterSpec) -> Self {
        self.scatter = scatter;
        self
    }

    /// Sets the sensor-count sweep.
    #[must_use]
    pub fn with_sensor_counts(mut self, counts: Vec<usize>) -> Self {
        self.sensor_counts = counts;
        self
    }

    /// Sets the scheme set.
    #[must_use]
    pub fn with_schemes(mut self, schemes: Vec<SchemeKind>) -> Self {
        self.schemes = schemes;
        self
    }

    /// Sets the radio combinations from `(rc, rs)` pairs.
    #[must_use]
    pub fn with_radios(mut self, radios: Vec<(f64, f64)>) -> Self {
        self.radios = radios
            .into_iter()
            .map(|(rc, rs)| RadioSpec::new(rc, rs))
            .collect();
        self
    }

    /// Sets the simulated duration (s).
    #[must_use]
    pub fn with_duration(mut self, duration: f64) -> Self {
        self.duration = duration;
        self
    }

    /// Sets the coverage raster cell (m).
    #[must_use]
    pub fn with_coverage_cell(mut self, cell: f64) -> Self {
        self.coverage_cell = cell;
        self
    }

    /// Sets the repetition count.
    #[must_use]
    pub fn with_repetitions(mut self, repetitions: usize) -> Self {
        self.repetitions = repetitions;
        self
    }

    /// Sets the base seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Appends a labeled parameter-sweep variant.
    #[must_use]
    pub fn with_variant(mut self, label: impl Into<String>, overrides: SchemeOverrides) -> Self {
        self.variants.push(ParamVariant::new(label, overrides));
        self
    }

    /// Sets the mid-run event schedule (the `[dynamics]` section),
    /// switching every run of the spec to the restart-on-event engine.
    #[must_use]
    pub fn with_dynamics(mut self, schedule: EventSchedule) -> Self {
        self.dynamics = Some(schedule);
        self
    }

    /// The `--quick` shrink for fast smoke passes: duration capped at
    /// 100 s, repetitions at 2 and the coverage raster coarsened to at
    /// least 5 m. Every other field — the sweep axes included — is
    /// kept, and an already-small spec comes back unchanged.
    #[must_use]
    pub fn quick(self) -> Self {
        let (duration, repetitions, cell) = (self.duration, self.repetitions, self.coverage_cell);
        self.with_duration(duration.min(100.0))
            .with_repetitions(repetitions.min(2))
            .with_coverage_cell(cell.max(5.0))
    }

    /// Number of variant slots in the matrix (at least 1: a spec
    /// without explicit variants has one unlabeled default).
    pub fn variant_count(&self) -> usize {
        self.variants.len().max(1)
    }

    /// The label of variant slot `idx` (empty for the implicit
    /// default variant).
    pub fn variant_label(&self, idx: usize) -> &str {
        self.variants.get(idx).map_or("", |v| v.label.as_str())
    }

    /// The overrides of variant slot `idx` (none for the implicit
    /// default variant).
    pub fn effective_overrides(&self, idx: usize) -> SchemeOverrides {
        self.variants
            .get(idx)
            .map_or_else(SchemeOverrides::default, |v| v.overrides.clone())
    }

    /// Checks the spec is executable, returning the first problem.
    pub fn validate(&self) -> Result<(), String> {
        if self.name.is_empty() {
            return Err("scenario name must not be empty".into());
        }
        if self.sensor_counts.is_empty() || self.sensor_counts.contains(&0) {
            return Err("sensor_counts must be non-empty and positive".into());
        }
        if self.schemes.is_empty() {
            return Err("schemes must be non-empty".into());
        }
        if self.radios.is_empty() {
            return Err("radios must be non-empty".into());
        }
        if self.radios.iter().any(|r| r.rc <= 0.0 || r.rs <= 0.0) {
            return Err("radio ranges must be positive".into());
        }
        if !(self.duration.is_finite() && self.duration > 0.0) {
            return Err("duration must be positive".into());
        }
        if !(self.coverage_cell.is_finite() && self.coverage_cell > 0.0) {
            return Err("coverage_cell must be positive".into());
        }
        if self.repetitions == 0 {
            return Err("repetitions must be at least 1".into());
        }
        if let ScatterSpec::Clustered { x0, y0, x1, y1 } = self.scatter {
            if ![x0, y0, x1, y1].iter().all(|v| v.is_finite()) || x1 <= x0 || y1 <= y0 {
                return Err(
                    "clustered scatter rect must be finite with x0 < x1 and y0 < y1".into(),
                );
            }
        }
        if let Some(d) = &self.dynamics {
            d.validate(self.duration)?;
        }
        for (i, v) in self.variants.iter().enumerate() {
            if v.label.is_empty() {
                return Err(format!("variant {i} has an empty label"));
            }
            if self.variants[..i].iter().any(|p| p.label == v.label) {
                return Err(format!("duplicate variant label '{}'", v.label));
            }
            v.overrides
                .validate()
                .map_err(|e| format!("variant '{}': {e}", v.label))?;
        }
        Ok(())
    }

    /// A stable fingerprint of everything that determines run results
    /// except the repetition count — field, scatter, sweep axes,
    /// durations, variants, schemes and the base seed.
    /// Recorded in `batch.json` and checked by batch resume, so
    /// records computed under an edited spec (changed duration,
    /// override values, ...) are never silently merged; repetitions
    /// are excluded because resume explicitly supports extending
    /// them.
    pub fn resume_digest(&self) -> String {
        fnv1a_hex(&self.clone().with_repetitions(1).to_toml_string())
    }

    /// Expands the spec into its flat run matrix, in deterministic
    /// order: radios × sensor counts × repetitions × variants ×
    /// schemes. Variants and schemes share the environment of their
    /// (radio, n, rep) slice, so parameter cells compete on identical
    /// fields and scatters.
    pub fn matrix(&self) -> Vec<RunCell> {
        let mut cells = Vec::with_capacity(
            self.radios.len()
                * self.sensor_counts.len()
                * self.repetitions
                * self.variant_count()
                * self.schemes.len(),
        );
        for (radio_idx, &radio) in self.radios.iter().enumerate() {
            for (n_idx, &n) in self.sensor_counts.iter().enumerate() {
                for rep in 0..self.repetitions {
                    let env_seed = derive_seed(self.seed, radio_idx, n_idx, rep);
                    for variant in 0..self.variant_count() {
                        for &scheme in &self.schemes {
                            cells.push(RunCell {
                                index: cells.len(),
                                radio,
                                n,
                                scheme,
                                variant,
                                rep,
                                env_seed,
                            });
                        }
                    }
                }
            }
        }
        cells
    }

    /// Serializes as a TOML document.
    pub fn to_toml_string(&self) -> String {
        // tables borrow their fields mutably (one list drives both
        // directions), so emit from a copy
        let mut spec = self.clone();
        TomlValue::Table(emit(root_table(&mut spec))).to_toml_string()
    }

    /// Parses a spec from a TOML document.
    pub fn from_toml_str(text: &str) -> Result<Self, TomlError> {
        let root = TomlValue::parse(text)?;
        let mut spec = ScenarioSpec::new(require_str(&root, "name")?);
        parse_table(&root, "", root_table(&mut spec), &[])?;
        spec.validate().map_err(TomlError)?;
        Ok(spec)
    }
}

/// One entry of the expanded run matrix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunCell {
    /// Flat matrix index (also the execution/collect order).
    pub index: usize,
    /// Radio combination.
    pub radio: RadioSpec,
    /// Sensor count.
    pub n: usize,
    /// Scheme under test.
    pub scheme: SchemeKind,
    /// Variant slot index (0 when the spec declares no variants); see
    /// [`ScenarioSpec::variant_label`] / [`ScenarioSpec::effective_overrides`].
    pub variant: usize,
    /// Repetition number within the cell.
    pub rep: usize,
    /// Environment seed shared by every scheme in this
    /// (radio, n, rep) slice: field, initial scatter and sim seed all
    /// derive from it, so schemes compete on identical environments.
    pub env_seed: u64,
}

impl RunCell {
    /// The run's environment, materialized deterministically from
    /// [`RunCell::env_seed`]: the field and the initial positions.
    pub fn build_environment(&self, spec: &ScenarioSpec) -> (Field, Vec<Point>) {
        let field = self.build_field(spec);
        let initial = self.build_scatter(spec, &field);
        (field, initial)
    }

    /// Just the field, drawn from the field stream of
    /// [`RunCell::env_seed`]. Every cell of a (radio, n, rep) slice
    /// derives the same field, so the batch runner materializes it
    /// once per slice and shares it across schemes and variants.
    pub fn build_field(&self, spec: &ScenarioSpec) -> Field {
        let mut field_rng = SmallRng::seed_from_u64(stream_seed(self.env_seed, 1));
        spec.field.build(&mut field_rng)
    }

    /// Just the initial positions, for a pre-built `field`. The
    /// scatter RNG stream is independent of the field stream, so this
    /// is byte-identical to [`RunCell::build_environment`] when the
    /// field is deterministic (the batch runner builds fixed fields
    /// once and re-scatters per cell).
    pub fn build_scatter(&self, spec: &ScenarioSpec, field: &Field) -> Vec<Point> {
        let mut scatter_rng = SmallRng::seed_from_u64(stream_seed(self.env_seed, 2));
        spec.scatter.place(field, self.n, &mut scatter_rng)
    }

    /// The seed for the in-run RNG (message backoff, random walks).
    pub fn sim_seed(&self) -> u64 {
        stream_seed(self.env_seed, 3)
    }

    /// The seed for the dynamics event streams (victim selection,
    /// restarted segment seeds). A fourth independent stream of
    /// [`RunCell::env_seed`], so adding a
    /// `[dynamics]` section never shifts the field, scatter or sim
    /// draws — and a dynamic run's event-free prefix reproduces the
    /// static trajectory exactly.
    pub fn event_seed(&self) -> u64 {
        stream_seed(self.env_seed, 4)
    }
}

/// FNV-1a, 64-bit, as lowercase hex: stable, dependency-free, good
/// enough for the resume consistency check (not a security
/// boundary).
fn fnv1a_hex(text: &str) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in text.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{hash:016x}")
}

/// Derives a run's environment seed from the base seed and its matrix
/// coordinates. Pure function of its arguments — results are
/// identical at any thread count and stable across runs.
pub fn derive_seed(base: u64, radio_idx: usize, n_idx: usize, rep: usize) -> u64 {
    let state = base
        ^ (radio_idx as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (n_idx as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
        ^ (rep as u64).wrapping_mul(0x1656_67B1_9E37_79F9);
    split_mix_64(state)
}

/// Splits an environment seed into independent streams (field /
/// scatter / sim) so consuming one stream never shifts another.
fn stream_seed(env_seed: u64, stream: u64) -> u64 {
    split_mix_64(env_seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
}

/// One SplitMix64 output step (finalizer-quality bit mixing).
fn split_mix_64(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One key of a TOML table, borrowed mutably from the struct field it
/// encodes. Each struct lists its keys once — [`root_table`],
/// [`field_table`], [`scatter_table`], and msn-deploy's override
/// `slots` — and that one list drives [`emit`], [`parse_table`] and
/// unknown-key rejection. Keys that are left out while unset keep the
/// serialization of specs that predate them, and so their resume
/// digests, byte-identical.
enum Val<'a> {
    F64(&'a mut f64),
    Usize(&'a mut usize),
    U64(&'a mut u64),
    Str(&'a mut String),
    /// An override knob, emitted only when set.
    Knob(Slot<'a>),
    Schemes(&'a mut Vec<SchemeKind>),
    Counts(&'a mut Vec<usize>),
    Radios(&'a mut Vec<RadioSpec>),
    Field(&'a mut FieldSpec),
    Scatter(&'a mut ScatterSpec),
    /// Emitted only when non-empty.
    Variants(&'a mut Vec<ParamVariant>),
    /// Emitted only when set.
    Dynamics(&'a mut Option<EventSchedule>),
}

type Table<'a> = Vec<(&'static str, Val<'a>)>;

impl Val<'_> {
    /// The key's TOML value, or `None` when it is left out.
    fn into_toml(self) -> Option<TomlValue> {
        Some(match self {
            Val::F64(v) => TomlValue::Float(*v),
            Val::Usize(v) => TomlValue::Int(*v as i64),
            Val::U64(v) => TomlValue::from_u64(*v),
            Val::Str(v) => TomlValue::Str(v.clone()),
            Val::Knob(Slot::F64(v)) => TomlValue::Float((*v)?),
            Val::Knob(Slot::Usize(v)) => TomlValue::Int((*v)? as i64),
            Val::Knob(Slot::Bool(v)) => TomlValue::Bool((*v)?),
            Val::Schemes(v) => {
                TomlValue::Array(v.iter().map(|k| TomlValue::Str(k.name().into())).collect())
            }
            Val::Counts(v) => {
                TomlValue::Array(v.iter().map(|&n| TomlValue::Int(n as i64)).collect())
            }
            Val::Radios(v) => TomlValue::Array(
                v.iter()
                    .map(|r| TomlValue::Array(vec![TomlValue::Float(r.rc), TomlValue::Float(r.rs)]))
                    .collect(),
            ),
            Val::Field(v) => kinded_to_toml(v.kind(), field_table(v)),
            Val::Scatter(v) => kinded_to_toml(v.kind(), scatter_table(v)),
            Val::Variants(v) if v.is_empty() => return None,
            Val::Variants(v) => TomlValue::Array(v.iter_mut().map(variant_to_toml).collect()),
            Val::Dynamics(v) => dynamics_to_toml(v.as_ref()?),
        })
    }

    /// Overwrites the field from the TOML value `v` found under `key`.
    fn set(self, key: &str, v: &TomlValue) -> Result<(), TomlError> {
        match self {
            Val::F64(slot) => *slot = num(v, key)?,
            Val::Usize(slot) => *slot = count(v, key)?,
            Val::U64(slot) => {
                *slot = v
                    .as_u64()
                    .ok_or_else(|| TomlError(format!("'{key}' must be a non-negative integer")))?;
            }
            Val::Str(slot) => {
                *slot = v
                    .as_str()
                    .ok_or_else(|| TomlError(format!("'{key}' must be a string")))?
                    .to_string();
            }
            Val::Knob(Slot::F64(slot)) => *slot = Some(num(v, key)?),
            Val::Knob(Slot::Usize(slot)) => *slot = Some(count(v, key)?),
            Val::Knob(Slot::Bool(slot)) => *slot = Some(flag(v, key)?),
            Val::Schemes(slot) => {
                let items = v
                    .as_array()
                    .ok_or_else(|| TomlError(format!("'{key}' must be an array")))?;
                *slot = items
                    .iter()
                    .map(|item| {
                        item.as_str()
                            .ok_or_else(|| TomlError(format!("'{key}' entries must be strings")))?
                            .parse::<SchemeKind>()
                            .map_err(TomlError)
                    })
                    .collect::<Result<_, _>>()?;
            }
            Val::Counts(slot) => {
                let items = v
                    .as_array()
                    .ok_or_else(|| TomlError(format!("'{key}' must be an array")))?;
                *slot = items
                    .iter()
                    .map(|i| {
                        i.as_usize().ok_or_else(|| {
                            TomlError(format!("'{key}' entries must be non-negative integers"))
                        })
                    })
                    .collect::<Result<_, _>>()?;
            }
            Val::Radios(slot) => {
                let items = v.as_array().ok_or_else(|| {
                    TomlError(format!("'{key}' must be an array of [rc, rs] pairs"))
                })?;
                *slot = items
                    .iter()
                    .map(|item| {
                        let pair = item.as_array().filter(|a| a.len() == 2).ok_or_else(|| {
                            TomlError("each radio must be an [rc, rs] pair".into())
                        })?;
                        let rc = pair[0]
                            .as_f64()
                            .ok_or_else(|| TomlError("radio rc must be numeric".into()))?;
                        let rs = pair[1]
                            .as_f64()
                            .ok_or_else(|| TomlError("radio rs must be numeric".into()))?;
                        Ok(RadioSpec::new(rc, rs))
                    })
                    .collect::<Result<_, _>>()?;
            }
            Val::Field(slot) => {
                *slot = kinded_from_toml(v, "field", field_kinds(), FieldSpec::kind, field_table)?;
            }
            Val::Scatter(slot) => {
                *slot = kinded_from_toml(
                    v,
                    "scatter",
                    scatter_kinds(),
                    ScatterSpec::kind,
                    scatter_table,
                )?;
            }
            Val::Variants(slot) => {
                let items = v
                    .as_array()
                    .ok_or_else(|| TomlError(format!("'{key}' must be an array of tables")))?;
                *slot = items
                    .iter()
                    .map(variant_from_toml)
                    .collect::<Result<_, _>>()?;
            }
            Val::Dynamics(slot) => *slot = Some(dynamics_from_toml(v)?),
        }
        Ok(())
    }
}

/// The top-level keys, in parse order.
fn root_table(s: &mut ScenarioSpec) -> Table<'_> {
    vec![
        ("name", Val::Str(&mut s.name)),
        ("description", Val::Str(&mut s.description)),
        ("schemes", Val::Schemes(&mut s.schemes)),
        ("sensor_counts", Val::Counts(&mut s.sensor_counts)),
        ("radios", Val::Radios(&mut s.radios)),
        ("duration", Val::F64(&mut s.duration)),
        ("coverage_cell", Val::F64(&mut s.coverage_cell)),
        ("repetitions", Val::Usize(&mut s.repetitions)),
        ("seed", Val::U64(&mut s.seed)),
        ("dynamics", Val::Dynamics(&mut s.dynamics)),
        ("field", Val::Field(&mut s.field)),
        ("scatter", Val::Scatter(&mut s.scatter)),
        ("variants", Val::Variants(&mut s.variants)),
    ]
}

/// Every `[field]` kind, with the defaults its omitted keys take.
fn field_kinds() -> [FieldSpec; 6] {
    [
        FieldSpec::Paper,
        FieldSpec::TwoObstacle,
        FieldSpec::CampusGrid(CampusGridParams::default()),
        FieldSpec::Corridor(CorridorParams::default()),
        FieldSpec::DisasterZone,
        FieldSpec::RandomObstacles(RandomObstacleParams::default()),
    ]
}

/// The `[field]` keys of one kind (besides `kind`).
fn field_table(field: &mut FieldSpec) -> Table<'_> {
    match field {
        FieldSpec::Paper | FieldSpec::TwoObstacle | FieldSpec::DisasterZone => Vec::new(),
        FieldSpec::CampusGrid(p) => vec![
            ("width", Val::F64(&mut p.width)),
            ("height", Val::F64(&mut p.height)),
            ("blocks_x", Val::Usize(&mut p.blocks_x)),
            ("blocks_y", Val::Usize(&mut p.blocks_y)),
            ("building", Val::F64(&mut p.building)),
            ("street", Val::F64(&mut p.street)),
            ("margin", Val::F64(&mut p.margin)),
        ],
        FieldSpec::Corridor(p) => vec![
            ("width", Val::F64(&mut p.width)),
            ("height", Val::F64(&mut p.height)),
            ("baffles", Val::Usize(&mut p.baffles)),
            ("gap", Val::F64(&mut p.gap)),
            ("thickness", Val::F64(&mut p.thickness)),
        ],
        FieldSpec::RandomObstacles(p) => vec![
            ("width", Val::F64(&mut p.width)),
            ("height", Val::F64(&mut p.height)),
            ("count_min", Val::Usize(&mut p.count.0)),
            ("count_max", Val::Usize(&mut p.count.1)),
            ("side_min", Val::F64(&mut p.side.0)),
            ("side_max", Val::F64(&mut p.side.1)),
            ("base_clearance", Val::F64(&mut p.base_clearance)),
            ("connectivity_cell", Val::F64(&mut p.connectivity_cell)),
        ],
    }
}

/// Every `[scatter]` kind, with the defaults its omitted keys take.
fn scatter_kinds() -> [ScatterSpec; 3] {
    [
        ScatterSpec::ClusteredQuarter,
        ScatterSpec::Clustered {
            x0: 0.0,
            y0: 0.0,
            x1: 0.0,
            y1: 0.0,
        },
        ScatterSpec::Uniform,
    ]
}

/// The `[scatter]` keys of one kind (besides `kind`).
fn scatter_table(scatter: &mut ScatterSpec) -> Table<'_> {
    match scatter {
        ScatterSpec::ClusteredQuarter | ScatterSpec::Uniform => Vec::new(),
        ScatterSpec::Clustered { x0, y0, x1, y1 } => vec![
            ("x0", Val::F64(x0)),
            ("y0", Val::F64(y0)),
            ("x1", Val::F64(x1)),
            ("y1", Val::F64(y1)),
        ],
    }
}

/// A table of every key `table` emits.
fn emit(table: Table<'_>) -> BTreeMap<String, TomlValue> {
    table
        .into_iter()
        .filter_map(|(key, val)| Some((key.to_string(), val.into_toml()?)))
        .collect()
}

/// Parses each key of `table` present in `v` over its current value,
/// after rejecting any key of `v` that is neither in `table` nor in
/// `extra`. `section` names the table in errors (`""` is the top
/// level).
fn parse_table(
    v: &TomlValue,
    section: &str,
    table: Table<'_>,
    extra: &[&str],
) -> Result<(), TomlError> {
    let keys: Vec<&str> = extra
        .iter()
        .copied()
        .chain(table.iter().map(|(key, _)| *key))
        .collect();
    check_keys(v, section, &keys)?;
    for (key, val) in table {
        if let Some(item) = v.get(key) {
            val.set(key, item)?;
        }
    }
    Ok(())
}

/// A `kind`-tagged table (`[field]`, `[scatter]`).
fn kinded_to_toml(kind: &str, table: Table<'_>) -> TomlValue {
    let mut t = emit(table);
    t.insert("kind".into(), TomlValue::Str(kind.into()));
    TomlValue::Table(t)
}

/// Parses a `kind`-tagged table: the named kind's defaults from
/// `kinds`, overwritten by the keys present.
fn kinded_from_toml<T>(
    v: &TomlValue,
    section: &str,
    kinds: impl IntoIterator<Item = T>,
    kind_of: fn(&T) -> &'static str,
    table: fn(&mut T) -> Table<'_>,
) -> Result<T, TomlError> {
    let kind = require_str(v, "kind")?;
    let mut names = Vec::new();
    for mut spec in kinds {
        if kind_of(&spec) == kind {
            parse_table(v, section, table(&mut spec), &["kind"])?;
            return Ok(spec);
        }
        names.push(kind_of(&spec));
    }
    let (last, rest) = names.split_last().expect("at least one kind");
    Err(TomlError(format!(
        "unknown {section} kind '{kind}' (expected {} or {last})",
        rest.join(", ")
    )))
}

fn num(v: &TomlValue, key: &str) -> Result<f64, TomlError> {
    v.as_f64()
        .ok_or_else(|| TomlError(format!("'{key}' must be numeric")))
}

fn count(v: &TomlValue, key: &str) -> Result<usize, TomlError> {
    v.as_usize()
        .ok_or_else(|| TomlError(format!("'{key}' must be a non-negative integer")))
}

fn flag(v: &TomlValue, key: &str) -> Result<bool, TomlError> {
    v.as_bool()
        .ok_or_else(|| TomlError(format!("'{key}' must be a boolean")))
}

/// `t[key]` through `get`, or `None` when the key is absent.
fn opt<T>(
    t: &TomlValue,
    key: &str,
    get: fn(&TomlValue, &str) -> Result<T, TomlError>,
) -> Result<Option<T>, TomlError> {
    t.get(key).map(|v| get(v, key)).transpose()
}

/// Rejects unknown keys so a typo in a spec fails loudly instead of
/// silently running with defaults.
fn check_keys(t: &TomlValue, section: &str, allowed: &[&str]) -> Result<(), TomlError> {
    let TomlValue::Table(map) = t else {
        return Err(TomlError(format!("'{section}' must be a table")));
    };
    for key in map.keys() {
        if !allowed.contains(&key.as_str()) {
            let place = if section.is_empty() {
                "at the top level".to_string()
            } else {
                format!("in [{section}]")
            };
            return Err(TomlError(format!(
                "unknown key '{key}' {place} (expected one of {})",
                allowed.join(", ")
            )));
        }
    }
    Ok(())
}

/// CPVF's `oscillation` kind and its `delta`, the one override written
/// by hand: two keys for one knob.
const OSCILLATION_KEYS: [&str; 2] = ["oscillation", "delta"];

/// Lifts override slots into table values.
fn knob_table<'a>(knobs: Vec<(&'static str, Slot<'a>)>) -> Table<'a> {
    knobs
        .into_iter()
        .map(|(key, slot)| (key, Val::Knob(slot)))
        .collect()
}

/// Serializes an override set as a `[[variants]]` entry's tables: one
/// sub-table per scheme with anything set.
fn overrides_to_toml(o: &mut SchemeOverrides) -> BTreeMap<String, TomlValue> {
    let mut oscillation = o.cpvf.oscillation.map(|osc| {
        let (name, delta) = match osc {
            OscillationAvoidance::Off => ("off", None),
            OscillationAvoidance::OneStep { delta } => ("one-step", Some(delta)),
            OscillationAvoidance::TwoStep { delta } => ("two-step", Some(delta)),
        };
        let mut keys = vec![("oscillation".to_string(), TomlValue::Str(name.into()))];
        keys.extend(delta.map(|d| ("delta".to_string(), TomlValue::Float(d))));
        keys
    });
    let mut root = BTreeMap::new();
    for (scheme, knobs) in o.knob_tables() {
        let mut t = emit(knob_table(knobs));
        if scheme == "cpvf" {
            t.extend(oscillation.take().into_iter().flatten());
        }
        if !t.is_empty() {
            root.insert(scheme.to_string(), TomlValue::Table(t));
        }
    }
    root
}

fn oscillation_from_toml(t: &TomlValue) -> Result<Option<OscillationAvoidance>, TomlError> {
    let delta = opt(t, "delta", num)?;
    let Some(kind) = t.get("oscillation") else {
        if delta.is_some() {
            return Err(TomlError("'delta' requires 'oscillation' to be set".into()));
        }
        return Ok(None);
    };
    let kind = kind
        .as_str()
        .ok_or_else(|| TomlError("'oscillation' must be a string".into()))?;
    Ok(Some(match (kind, delta) {
        ("off", None) => OscillationAvoidance::Off,
        ("off", Some(_)) => return Err(TomlError("oscillation 'off' takes no delta".into())),
        ("one-step", Some(delta)) => OscillationAvoidance::OneStep { delta },
        ("two-step", Some(delta)) => OscillationAvoidance::TwoStep { delta },
        ("one-step" | "two-step", None) => {
            return Err(TomlError(format!("oscillation '{kind}' needs a 'delta'")))
        }
        (other, _) => {
            return Err(TomlError(format!(
                "unknown oscillation '{other}' (expected off, one-step or two-step)"
            )))
        }
    }))
}

fn variant_to_toml(v: &mut ParamVariant) -> TomlValue {
    let mut t = overrides_to_toml(&mut v.overrides);
    t.insert("label".into(), TomlValue::Str(v.label.clone()));
    TomlValue::Table(t)
}

fn variant_from_toml(v: &TomlValue) -> Result<ParamVariant, TomlError> {
    let label = require_str(v, "label")
        .map_err(|_| TomlError("each [[variants]] entry needs a string 'label'".into()))?;
    let mut o = SchemeOverrides::default();
    let tables = o.knob_tables();
    let keys: Vec<&str> = std::iter::once("label")
        .chain(tables.iter().map(|(scheme, _)| *scheme))
        .collect();
    check_keys(v, "variants", &keys)?;
    for (scheme, knobs) in tables {
        if let Some(t) = v.get(scheme) {
            let extra: &[&str] = if scheme == "cpvf" {
                &OSCILLATION_KEYS
            } else {
                &[]
            };
            parse_table(t, &format!("variants.{scheme}"), knob_table(knobs), extra)?;
        }
    }
    if let Some(t) = v.get("cpvf") {
        o.cpvf.oscillation = oscillation_from_toml(t)?;
    }
    Ok(ParamVariant::new(label, o))
}

fn dynamics_to_toml(d: &EventSchedule) -> TomlValue {
    let mut root = BTreeMap::new();
    root.insert("recovery_frac".into(), TomlValue::Float(d.recovery_frac));
    if !d.events.is_empty() {
        let events = d
            .events
            .iter()
            .map(|e| {
                TomlValue::Table(BTreeMap::from([
                    ("time".to_string(), TomlValue::Float(e.time)),
                    ("kind".to_string(), TomlValue::Str(DynEvent::KIND.into())),
                    ("frac".to_string(), TomlValue::Float(e.frac)),
                ]))
            })
            .collect();
        root.insert("events".into(), TomlValue::Array(events));
    }
    TomlValue::Table(root)
}

fn dyn_event_from_toml(v: &TomlValue) -> Result<DynEvent, TomlError> {
    let kind = require_str(v, "kind")?;
    if kind != DynEvent::KIND {
        return Err(TomlError(format!(
            "unknown dynamics event kind '{kind}' (expected {})",
            DynEvent::KIND
        )));
    }
    check_keys(v, "dynamics.events", &["kind", "time", "frac"])?;
    let time = opt(v, "time", num)?
        .ok_or_else(|| TomlError("each [[dynamics.events]] entry needs a numeric 'time'".into()))?;
    let frac =
        opt(v, "frac", num)?.ok_or_else(|| TomlError("a fail event needs a 'frac'".into()))?;
    Ok(DynEvent { time, frac })
}

fn dynamics_from_toml(v: &TomlValue) -> Result<EventSchedule, TomlError> {
    check_keys(v, "dynamics", &["recovery_frac", "events"])?;
    let mut schedule = EventSchedule::new(Vec::new());
    schedule.recovery_frac =
        opt(v, "recovery_frac", num)?.unwrap_or(EventSchedule::DEFAULT_RECOVERY_FRAC);
    if let Some(items) = v.get("events") {
        let items = items
            .as_array()
            .ok_or_else(|| TomlError("'dynamics.events' must be an array of tables".into()))?;
        schedule.events = items
            .iter()
            .map(dyn_event_from_toml)
            .collect::<Result<_, _>>()?;
    }
    Ok(schedule)
}

fn require_str(table: &TomlValue, key: &str) -> Result<String, TomlError> {
    table
        .get(key)
        .and_then(TomlValue::as_str)
        .map(str::to_string)
        .ok_or_else(|| TomlError(format!("missing required string '{key}'")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_shares_env_seed_across_schemes() {
        let spec = ScenarioSpec::new("t")
            .with_schemes(vec![SchemeKind::Cpvf, SchemeKind::Floor])
            .with_sensor_counts(vec![10, 20])
            .with_radios(vec![(60.0, 40.0), (30.0, 40.0)])
            .with_repetitions(3);
        let cells = spec.matrix();
        assert_eq!(cells.len(), 2 * 2 * 3 * 2);
        for (i, cell) in cells.iter().enumerate() {
            assert_eq!(cell.index, i);
        }
        // schemes within one (radio, n, rep) slice share the environment
        for pair in cells.chunks(2) {
            assert_eq!(pair[0].env_seed, pair[1].env_seed);
            assert_ne!(pair[0].scheme, pair[1].scheme);
        }
        // different reps get different environments
        assert_ne!(cells[0].env_seed, cells[2].env_seed);
    }

    #[test]
    fn quick_caps_duration_reps_and_raster_only() {
        let full = ScenarioSpec::new("t")
            .with_sensor_counts(vec![120, 240])
            .with_radios(vec![(60.0, 40.0), (30.0, 40.0)])
            .with_repetitions(300)
            .with_variant("v", SchemeOverrides::default());
        let quick = full.clone().quick();
        assert_eq!(quick.duration, 100.0);
        assert_eq!(quick.repetitions, 2);
        assert_eq!(quick.coverage_cell, 5.0);
        let restored = quick
            .clone()
            .with_duration(full.duration)
            .with_repetitions(full.repetitions)
            .with_coverage_cell(full.coverage_cell);
        assert_eq!(restored, full, "quick touches nothing else");
        let small = full
            .with_duration(40.0)
            .with_repetitions(1)
            .with_coverage_cell(10.0);
        assert_eq!(small.clone().quick(), small, "no-op on a small spec");
    }

    #[test]
    fn derived_seeds_are_stable_and_spread() {
        assert_eq!(derive_seed(42, 0, 1, 2), derive_seed(42, 0, 1, 2));
        assert_ne!(derive_seed(42, 0, 0, 0), derive_seed(42, 1, 0, 0));
        assert_ne!(derive_seed(42, 0, 0, 0), derive_seed(42, 0, 1, 0));
        assert_ne!(derive_seed(42, 0, 0, 0), derive_seed(42, 0, 0, 1));
        assert_ne!(derive_seed(42, 0, 0, 0), derive_seed(43, 0, 0, 0));
    }

    #[test]
    fn environment_is_deterministic() {
        let spec = ScenarioSpec::new("t")
            .with_field(FieldSpec::RandomObstacles(RandomObstacleParams::default()))
            .with_sensor_counts(vec![15]);
        let cell = spec.matrix()[0];
        let (f1, i1) = cell.build_environment(&spec);
        let (f2, i2) = cell.build_environment(&spec);
        assert_eq!(f1.obstacles().len(), f2.obstacles().len());
        assert_eq!(i1, i2);
        assert_eq!(i1.len(), 15);
    }

    #[test]
    fn toml_roundtrip_all_field_kinds() {
        let fields = [
            FieldSpec::Paper,
            FieldSpec::TwoObstacle,
            FieldSpec::CampusGrid(CampusGridParams::default()),
            FieldSpec::Corridor(CorridorParams::default()),
            FieldSpec::DisasterZone,
            FieldSpec::RandomObstacles(RandomObstacleParams::default()),
        ];
        let scatters = [
            ScatterSpec::ClusteredQuarter,
            ScatterSpec::Uniform,
            ScatterSpec::Clustered {
                x0: 0.0,
                y0: 10.0,
                x1: 200.0,
                y1: 300.0,
            },
        ];
        for field in fields {
            for scatter in scatters.iter().cloned() {
                let spec = ScenarioSpec::new("roundtrip")
                    .with_description("all kinds")
                    .with_field(field.clone())
                    .with_scatter(scatter)
                    .with_schemes(vec![SchemeKind::Floor, SchemeKind::Minimax])
                    .with_sensor_counts(vec![30, 60])
                    .with_radios(vec![(20.0, 60.0), (60.0, 60.0)])
                    .with_duration(120.0)
                    .with_coverage_cell(5.0)
                    .with_repetitions(4)
                    .with_seed(7);
                let text = spec.to_toml_string();
                let parsed = ScenarioSpec::from_toml_str(&text).unwrap();
                assert_eq!(parsed, spec, "round-trip failed for:\n{text}");
            }
        }
    }

    #[test]
    fn validation_rejects_bad_specs() {
        assert!(ScenarioSpec::new("x").validate().is_ok());
        assert!(ScenarioSpec::new("").validate().is_err());
        assert!(ScenarioSpec::new("x")
            .with_sensor_counts(vec![])
            .validate()
            .is_err());
        assert!(ScenarioSpec::new("x")
            .with_schemes(vec![])
            .validate()
            .is_err());
        assert!(ScenarioSpec::new("x")
            .with_radios(vec![(0.0, 40.0)])
            .validate()
            .is_err());
        assert!(ScenarioSpec::new("x")
            .with_duration(0.0)
            .validate()
            .is_err());
        assert!(ScenarioSpec::new("x")
            .with_repetitions(0)
            .validate()
            .is_err());
        // degenerate, inverted and non-finite clustered rects
        for (x0, y0, x1, y1) in [
            (0.0, 0.0, 0.0, 0.0),
            (100.0, 0.0, 50.0, 50.0),
            (0.0, f64::NAN, 50.0, 50.0),
        ] {
            assert!(ScenarioSpec::new("x")
                .with_scatter(ScatterSpec::Clustered { x0, y0, x1, y1 })
                .validate()
                .is_err());
        }
    }

    #[test]
    fn variants_extend_the_matrix_and_share_environments() {
        let no_blg = SchemeOverrides {
            floor: msn_deploy::FloorOverrides {
                enable_blg: Some(false),
                ..Default::default()
            },
            ..Default::default()
        };
        let spec = ScenarioSpec::new("v")
            .with_schemes(vec![SchemeKind::Floor])
            .with_sensor_counts(vec![10])
            .with_repetitions(2)
            .with_variant("full", SchemeOverrides::default())
            .with_variant("no-blg", no_blg.clone());
        let cells = spec.matrix();
        assert_eq!(cells.len(), 2 * 2, "reps x variants");
        // variants within one rep share the environment
        assert_eq!(cells[0].env_seed, cells[1].env_seed);
        assert_eq!(cells[0].variant, 0);
        assert_eq!(cells[1].variant, 1);
        assert_eq!(spec.variant_label(1), "no-blg");
        assert_eq!(spec.effective_overrides(1), no_blg);
        // a spec without variants has exactly one slot with no overrides
        let plain = ScenarioSpec::new("p");
        assert_eq!(plain.variant_count(), 1);
        assert_eq!(plain.variant_label(0), "");
        assert_eq!(plain.effective_overrides(0), SchemeOverrides::default());
    }

    #[test]
    fn params_and_variants_roundtrip_toml() {
        let spec = ScenarioSpec::new("sweep")
            .with_schemes(vec![SchemeKind::Cpvf, SchemeKind::Floor])
            .with_variant(
                "both",
                SchemeOverrides {
                    floor: msn_deploy::FloorOverrides {
                        ttl: Some(6),
                        enable_iflg: Some(true),
                        ..Default::default()
                    },
                    cpvf: msn_deploy::CpvfOverrides {
                        oscillation: Some(OscillationAvoidance::Off),
                    },
                },
            )
            .with_variant("off", SchemeOverrides::default())
            .with_variant(
                "two-step-4",
                SchemeOverrides {
                    cpvf: msn_deploy::CpvfOverrides {
                        oscillation: Some(OscillationAvoidance::TwoStep { delta: 4.0 }),
                    },
                    ..Default::default()
                },
            )
            .with_variant(
                "ttl-frac",
                SchemeOverrides {
                    floor: msn_deploy::FloorOverrides {
                        ttl_frac: Some(0.2),
                        ..Default::default()
                    },
                    ..Default::default()
                },
            );
        let text = spec.to_toml_string();
        let parsed = ScenarioSpec::from_toml_str(&text).unwrap();
        assert_eq!(parsed, spec, "round-trip failed for:\n{text}");
        assert!(text.contains("[[variants]]"), "{text}");
        assert!(text.contains("[variants.floor]"), "{text}");
        assert!(text.contains("[variants.cpvf]"), "{text}");
    }

    #[test]
    fn bad_params_are_rejected_with_context() {
        let variant = |section: &str, body: &str| {
            ScenarioSpec::from_toml_str(&format!(
                "name = \"x\"\n[[variants]]\nlabel = \"v\"\n[variants.{section}]\n{body}\n"
            ))
            .unwrap_err()
        };
        let e = variant("floor", "ttl = 5\nttl_frac = 0.2");
        assert!(e.0.contains("mutually exclusive"), "{}", e.0);
        let e = variant("floor", "ttll = 5");
        assert!(e.0.contains("unknown key 'ttll'"), "{}", e.0);
        let e = variant("cpvf", "delta = 2.0");
        assert!(e.0.contains("oscillation"), "{}", e.0);
        let e = ScenarioSpec::from_toml_str(
            "name = \"x\"\n[[variants]]\nlabel = \"a\"\n[[variants]]\nlabel = \"a\"\n",
        )
        .unwrap_err();
        assert!(e.0.contains("duplicate variant label"), "{}", e.0);
        let e = ScenarioSpec::from_toml_str("name = \"x\"\n[[variants]]\nfloor = 1\n").unwrap_err();
        assert!(e.0.contains("label"), "{}", e.0);
        // knobs the bundled workloads never set are scheme constants,
        // and the spec reader treats them like any typo
        for (section, key, value) in [
            ("floor", "quorum", "2"),
            ("floor", "patience", "3"),
            ("floor", "movable_threshold", "0.3"),
            ("floor", "phase1_timeout_frac", "0.3"),
            ("floor", "max_invites_per_ep", "40"),
            ("floor", "max_concurrent_eps", "3"),
            ("floor", "idle_stop_periods", "8"),
            ("cpvf", "backoff_max", "10.0"),
            ("cpvf", "allow_parent_change", "true"),
            ("cpvf", "neighbor_threshold", "60.0"),
            ("cpvf", "neighbor_gain", "1.0"),
            ("cpvf", "obstacle_range", "40.0"),
            ("cpvf", "obstacle_gain", "1.0"),
            ("cpvf", "boundary_range", "20.0"),
            ("cpvf", "boundary_gain", "1.0"),
            ("cpvf", "min_force", "0.02"),
        ] {
            let e = variant(section, &format!("{key} = {value}"));
            let want = format!("unknown key '{key}' in [variants.{section}]");
            assert!(e.0.contains(&want), "{section}.{key}: {e}");
        }
        for (section, key, value) in [
            ("vd", "rounds", "10"),
            ("vd", "step_cap_frac", "0.5"),
            ("vd", "explode", "true"),
            ("opt", "connector_slack", "0.95"),
        ] {
            let e = variant(section, &format!("{key} = {value}"));
            let want = format!("unknown key '{section}' in [variants]");
            assert!(e.0.contains(&want), "{section}.{key}: {e}");
        }
    }

    #[test]
    fn digest_tracks_content_but_not_repetitions() {
        let spec = ScenarioSpec::new("d");
        let base = spec.resume_digest();
        assert_eq!(spec.clone().with_repetitions(5).resume_digest(), base);
        assert_ne!(spec.clone().with_seed(7).resume_digest(), base);
        assert_ne!(spec.clone().with_duration(10.0).resume_digest(), base);
        assert_ne!(
            spec.clone()
                .with_variant("v", SchemeOverrides::default())
                .resume_digest(),
            base
        );
    }

    #[test]
    fn bundled_spec_digests_are_pinned() {
        // `--resume` refuses a batch.json whose spec digest differs, so
        // a reader or writer change that moves any bundled spec's
        // digest would silently invalidate every saved run of it
        let pinned = [
            ("ablation-obstacle", "379b3b7784545a0c"),
            ("ablation-open", "71487ea6b6f14ae6"),
            ("campus-grid", "26a61fe3039585a1"),
            ("campus-ttl-sweep", "0a4bc2a85bf5679b"),
            ("corridor", "c6fbe0868f6431d6"),
            ("disaster-zone", "0a66fe5f329eea88"),
            ("failure-recovery", "67d589a4b6a62354"),
            ("fig10", "9e761ccad27ea0aa"),
            ("fig11", "09d178a6df56331a"),
            ("fig12", "519e7881ea320523"),
            ("fig38-obstacle", "32d09ef29fdd1ff4"),
            ("fig38-open", "ef77fb22e649d9df"),
            ("paper-field", "ab727cc334a2b3c6"),
            ("random-obstacle-sweep", "6207f26326c49b15"),
            ("scale-10k", "db49d407b7ff11a0"),
            ("scale-50k", "be59c7e06621c6b5"),
            ("smoke", "f98bdff773ad995f"),
            ("table1-obstacle", "cfe0d1913e657943"),
            ("table1-open", "1b282bb395659939"),
            ("uniform-init", "354eb6435c0cc012"),
        ];
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios");
        let mut bundled: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .filter_map(|e| {
                let name = e.unwrap().file_name().into_string().unwrap();
                name.strip_suffix(".toml").map(str::to_string)
            })
            .collect();
        bundled.sort();
        let names: Vec<&str> = pinned.iter().map(|(name, _)| *name).collect();
        assert_eq!(bundled, names, "every bundled spec is pinned");
        for (name, digest) in pinned {
            let text = std::fs::read_to_string(format!("{dir}/{name}.toml")).unwrap();
            let spec = ScenarioSpec::from_toml_str(&text).unwrap();
            assert_eq!(spec.resume_digest(), digest, "{name}");
        }
    }

    #[test]
    fn seeds_above_i64_max_roundtrip() {
        let spec = ScenarioSpec::new("big-seed").with_seed(u64::MAX);
        let text = spec.to_toml_string();
        assert!(text.contains("seed = 18446744073709551615"), "{text}");
        assert_eq!(ScenarioSpec::from_toml_str(&text).unwrap(), spec);
    }

    #[test]
    fn parse_errors_name_the_problem() {
        let e = ScenarioSpec::from_toml_str("x = 1").unwrap_err();
        assert!(e.0.contains("name"));
        let e = ScenarioSpec::from_toml_str("name = \"x\"\nschemes = [\"NOPE\"]").unwrap_err();
        assert!(e.0.contains("NOPE"));
        let e = ScenarioSpec::from_toml_str("name = \"x\"\n[field]\nkind = \"moon\"").unwrap_err();
        assert!(e.0.contains("moon"));
    }

    #[test]
    fn unknown_top_level_keys_are_rejected() {
        let smoke = include_str!("../../../scenarios/smoke.toml");
        assert!(ScenarioSpec::from_toml_str(smoke).is_ok());
        let e = ScenarioSpec::from_toml_str(&format!("sensor_count = [5]\n{smoke}")).unwrap_err();
        assert!(
            e.0.contains("unknown key 'sensor_count' at the top level"),
            "{e}"
        );
        // the retired output switch is a typo like any other
        let e =
            ScenarioSpec::from_toml_str(&format!("movement_summary = true\n{smoke}")).unwrap_err();
        assert!(
            e.0.contains("unknown key 'movement_summary' at the top level"),
            "{e}"
        );
        // so is the retired scenario-wide [params] section
        let e = ScenarioSpec::from_toml_str("name = \"x\"\n[params.floor]\nttl = 5\n").unwrap_err();
        assert!(e.0.contains("unknown key 'params' at the top level"), "{e}");
    }

    #[test]
    fn unknown_field_keys_are_rejected() {
        let e = ScenarioSpec::from_toml_str(
            "name = \"x\"\n[field]\nkind = \"corridor\"\nwidht = 10.0\n",
        )
        .unwrap_err();
        assert!(e.0.contains("unknown key 'widht' in [field]"), "{e}");
        // parameterless kinds take no keys at all
        let e =
            ScenarioSpec::from_toml_str("name = \"x\"\n[field]\nkind = \"paper\"\nwidth = 10.0\n")
                .unwrap_err();
        assert!(e.0.contains("unknown key 'width' in [field]"), "{e}");
        // and a key of one kind is unknown under another
        let e = ScenarioSpec::from_toml_str(
            "name = \"x\"\n[field]\nkind = \"campus-grid\"\nbaffles = 3\n",
        )
        .unwrap_err();
        assert!(e.0.contains("unknown key 'baffles' in [field]"), "{e}");
    }

    #[test]
    fn unknown_scatter_keys_are_rejected() {
        let e =
            ScenarioSpec::from_toml_str("name = \"x\"\n[scatter]\nkind = \"uniform\"\nx9 = 1.0\n")
                .unwrap_err();
        assert!(e.0.contains("unknown key 'x9' in [scatter]"), "{e}");
        let e = ScenarioSpec::from_toml_str(
            "name = \"x\"\n[scatter]\nkind = \"clustered\"\nx0 = 0.0\ny0 = 0.0\nx1 = 9.0\ny1 = 9.0\nx2 = 1.0\n",
        )
        .unwrap_err();
        assert!(e.0.contains("unknown key 'x2' in [scatter]"), "{e}");
    }

    fn every_kind_schedule() -> EventSchedule {
        let mut s = EventSchedule::new(vec![
            DynEvent {
                time: 100.0,
                frac: 0.25,
            },
            DynEvent {
                time: 200.0,
                frac: 1.0,
            },
        ]);
        s.recovery_frac = 0.9;
        s
    }

    #[test]
    fn dynamics_roundtrip_every_event_kind() {
        let spec = ScenarioSpec::new("dyn").with_dynamics(every_kind_schedule());
        let text = spec.to_toml_string();
        assert!(text.contains("[dynamics]"), "{text}");
        assert!(text.contains("[[dynamics.events]]"), "{text}");
        assert_eq!(ScenarioSpec::from_toml_str(&text).unwrap(), spec);
    }

    #[test]
    fn dynamics_absent_leaves_serialization_untouched() {
        let spec = ScenarioSpec::new("plain");
        let text = spec.to_toml_string();
        assert!(!text.contains("dynamics"), "{text}");
        // adding a schedule changes the resume digest, so resume never
        // merges static records into a dynamic batch
        let base = spec.resume_digest();
        assert_ne!(
            spec.clone()
                .with_dynamics(every_kind_schedule())
                .resume_digest(),
            base
        );
    }

    #[test]
    fn dynamics_validation_runs_against_the_spec_duration() {
        // 800.0 exceeds the default 750 s duration
        let mut late = every_kind_schedule();
        late.events[0].time = 800.0;
        late.events.truncate(1);
        let spec = ScenarioSpec::new("late").with_dynamics(late);
        let err = spec.validate().unwrap_err();
        assert!(err.contains("750"), "{err}");
        let text = spec.to_toml_string();
        assert!(ScenarioSpec::from_toml_str(&text).is_err());
    }

    #[test]
    fn dynamics_parse_errors_name_the_problem() {
        let base = "name = \"x\"\n[dynamics]\n";
        for (body, needle) in [
            ("[[dynamics.events]]\nkind = \"melt\"\ntime = 5.0", "melt"),
            ("[[dynamics.events]]\nkind = \"fail\"\ntime = 5.0", "'frac'"),
            (
                "[[dynamics.events]]\nkind = \"fail\"\ntime = 5.0\nfrac = 1.5",
                "frac 1.5",
            ),
            ("[[dynamics.events]]\nkind = \"fail\"\nfrac = 0.5", "time"),
            // event forms the bundled workloads never use are unknown
            // kinds and keys
            (
                "[[dynamics.events]]\nkind = \"reinforce\"\ntime = 5.0\ncount = 2\nrect = [0.0, 0.0, 9.0, 9.0]",
                "unknown dynamics event kind 'reinforce'",
            ),
            (
                "[[dynamics.events]]\nkind = \"obstacle-add\"\ntime = 5.0\nrect = [0.0, 0.0, 9.0, 9.0]",
                "unknown dynamics event kind 'obstacle-add'",
            ),
            (
                "[[dynamics.events]]\nkind = \"obstacle-remove\"\ntime = 5.0\nindex = 0",
                "unknown dynamics event kind 'obstacle-remove'",
            ),
            (
                "[[dynamics.events]]\nkind = \"relocate-base\"\ntime = 5.0\nto = [1.0, 2.0]",
                "unknown dynamics event kind 'relocate-base'",
            ),
            (
                "[[dynamics.events]]\nkind = \"fail\"\ntime = 5.0\ncount = 2",
                "unknown key 'count' in [dynamics.events]",
            ),
            (
                "[[dynamics.events]]\nkind = \"fail\"\ntime = 5.0\nfrac = 0.5\nmode = \"drained\"",
                "unknown key 'mode' in [dynamics.events]",
            ),
            (
                "[[dynamics.events]]\nkind = \"fail\"\ntime = 5.0\nfrac = 0.5\nmode = \"region\"\nregion = [0.0, 0.0, 9.0, 9.0]",
                "unknown key '",
            ),
            (
                "[[dynamics.events]]\nkind = \"fail\"\ntime = 5.0\nfrac = 0.5\nregion = [0.0, 0.0, 9.0, 9.0]",
                "unknown key 'region' in [dynamics.events]",
            ),
            ("recovery_frac = 2.0", "recovery_frac"),
            ("typo = 1", "typo"),
        ] {
            let e = ScenarioSpec::from_toml_str(&format!("{base}{body}")).unwrap_err();
            assert!(e.0.contains(needle), "body {body:?} gave {e}");
        }
    }

    #[test]
    fn event_seed_is_a_distinct_stream() {
        let spec = ScenarioSpec::new("s");
        let cell = spec.matrix()[0];
        let others = [
            cell.sim_seed(),
            stream_seed(cell.env_seed, 1),
            stream_seed(cell.env_seed, 2),
        ];
        assert!(!others.contains(&cell.event_seed()));
        assert_eq!(cell.event_seed(), spec.matrix()[0].event_seed());
    }
}
