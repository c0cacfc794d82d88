//! The benchmark's workloads: bundled scenario specs, reshaped where
//! the workload calls for it, re-seeded from the benchmark's `--seed`.
//!
//! The program under test only ever sees the generated spec text
//! ([`Workload::instance_texts`]); the bundled TOML is read once, before
//! any timing starts.

use msn_deploy::SchemeKind;
use msn_scenario::ScenarioSpec;
use std::path::{Path, PathBuf};

/// Worker threads every measured batch runs on, fixed so figures
/// compare across machines with different core counts.
pub const THREADS: usize = 2;

/// Seed used when `--seed` is not given: the bundled specs' own seed,
/// so instance 0 of every workload reproduces the bundled batch.
pub const DEFAULT_SEED: u64 = 42;

/// A seed kept out of tuning and out of the stored reference, for
/// re-checking a later performance claim (choosing-metrics §6.3). On
/// it the traced run's serial-replay equality stands in for the
/// reference.
pub const HELD_OUT_SEED: u64 = 20_080_617;

/// One named workload.
pub struct Workload {
    /// Workload name (`--workload`).
    pub name: &'static str,
    /// Why the workload is in the benchmark (one line).
    pub why: &'static str,
    /// Bundled spec it derives from, relative to the repository root.
    pub spec_file: &'static str,
    /// Seeded instances per measured pass. Each instance is the same
    /// spec under its own seed (see [`instance_seed`]); averaging over
    /// them keeps one scatter from setting a run's figures.
    pub panel: usize,
    /// Edits applied to the bundled spec (the identity for unchanged
    /// specs).
    reshape: fn(&mut ScenarioSpec),
}

fn unchanged(_: &mut ScenarioSpec) {}

/// Ten fresh scatters per batch, so a batch lasts a few seconds and no
/// single cell sets its wall, and the OPT reference beside CPVF and
/// FLOOR (the scheme set of Fig. 9): with three schemes the per-run
/// latency median falls inside one scheme's runs instead of on the gap
/// between two equally large groups, where it jumps between them.
fn obstacle_field(spec: &mut ScenarioSpec) {
    spec.repetitions = 10;
    spec.schemes = vec![SchemeKind::Cpvf, SchemeKind::Floor, SchemeKind::Opt];
}

/// Every workload, in reporting order.
///
/// Every workload runs on a fixed field layout, where the seed moves
/// only the scatter and the in-run randomness. Random-obstacle fields
/// (`random-obstacle-sweep`, `scale-10k`) were measured and left out:
/// one field draw changes a run's cost by about half, so even fifty
/// fields per run left a 15% seed-to-seed spread, and their 15 µs
/// set-up reads 12 or 21 µs depending on the process.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "paper-fig9",
        why: "the paper's headline figure: CPVF/FLOOR/OPT on the fixed open field, raster built once in setup, the only rc=20 slow-walker cells",
        spec_file: "scenarios/paper-field.toml",
        panel: 8,
        reshape: unchanged,
    },
    Workload {
        name: "obstacle-field",
        why: "the paper's two-obstacle field (Fig. 3/8c), CPVF/FLOOR/OPT at n=240 over ten scatters: BUG2 navigation and wall-aware motion every run",
        spec_file: "scenarios/fig38-obstacle.toml",
        panel: 5,
        reshape: obstacle_field,
    },
    Workload {
        name: "fig11-baselines",
        why: "all five schemes: the only workload running VOR/Minimax (voronoi) and the place to weigh Hungarian OPT",
        spec_file: "scenarios/fig11.toml",
        panel: 14,
        reshape: unchanged,
    },
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The repository root (the benchmark package's parent directory).
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package lives inside the repository")
        .to_path_buf()
}

/// Seed of panel instance `k` under benchmark seed `seed`: instance 0
/// uses the seed itself, later ones a SplitMix64 scramble of it.
pub fn instance_seed(seed: u64, k: usize) -> u64 {
    if k == 0 {
        return seed;
    }
    let mut z = seed ^ (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Workload {
    /// The workload's spec before seeding: the bundled file, reshaped.
    /// `shrink` cuts it to a seconds-long smoke instance (few sensors,
    /// short duration, coarse raster, one radio and repetition) that
    /// keeps every scheme and the field.
    pub fn base_spec(&self, shrink: bool) -> Result<ScenarioSpec, String> {
        let path = repo_root().join(self.spec_file);
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let mut spec =
            ScenarioSpec::from_toml_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        (self.reshape)(&mut spec);
        if shrink {
            spec.sensor_counts = vec![12];
            spec.radios.truncate(1);
            spec.repetitions = 1;
            spec.duration = 20.0;
            spec.coverage_cell = spec.coverage_cell.max(20.0);
        }
        Ok(spec)
    }

    /// Instances per pass (1 for a shrunken run).
    pub fn panel_len(&self, shrink: bool) -> usize {
        if shrink {
            1
        } else {
            self.panel
        }
    }

    /// The generated spec of every panel instance as `(spec seed, TOML
    /// text)`: what the program under test parses.
    pub fn instance_texts(&self, seed: u64, shrink: bool) -> Result<Vec<(u64, String)>, String> {
        let base = self.base_spec(shrink)?;
        Ok((0..self.panel_len(shrink))
            .map(|k| {
                let s = instance_seed(seed, k);
                (s, base.clone().with_seed(s).to_toml_string())
            })
            .collect())
    }
}
