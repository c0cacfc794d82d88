//! Output checks behind `failed` / `run_error_rate`.
//!
//! Every run's result fields are compared bit-exactly against the
//! stored reference (`perfbench/reference.json`) when the reference
//! holds the run's spec seed. The comparison is on values, not on
//! `batch.json` bytes, so an output-schema change does not count as a
//! failure. Each run is reduced to a 64-bit FNV-1a digest of the bit
//! patterns of its result fields ([`run_digest`]).
//!
//! For a seed the reference does not hold, a run passes when its
//! fields are well-formed and — from the second pass on — identical to
//! the first pass's run of the same instance (batches are deterministic
//! at any thread count). The traced run adds the stronger check: a
//! serial replay through the crates' public calls must reproduce every
//! record bit-for-bit (see `trace`).

use msn_scenario::{Json, RunRecord};
use std::collections::BTreeMap;
use std::path::PathBuf;

/// The fields a run is checked on, in digest order.
const CHECKED_FIELDS: &str =
    "coverage avg_move max_move total_move messages connected convergence_time moves move_dist";

/// Benchmark seeds whose panel instance 0 the stored reference covers:
/// the default seed plus 0..=10. The held-out seed is deliberately
/// absent.
pub fn reference_seeds() -> Vec<u64> {
    let mut seeds = vec![crate::workload::DEFAULT_SEED];
    seeds.extend(0..=10);
    seeds
}

/// Location of the stored reference.
pub fn reference_path() -> PathBuf {
    crate::workload::repo_root().join("perfbench/reference.json")
}

/// FNV-1a (64-bit) over the little-endian bit patterns of the checked
/// fields, as 16 hex digits.
pub fn run_digest(r: &RunRecord) -> String {
    let convergence = r.convergence_time.map_or(u64::MAX, f64::to_bits);
    let words = [
        r.coverage.to_bits(),
        r.avg_move.to_bits(),
        r.max_move.to_bits(),
        r.total_move.to_bits(),
        r.messages,
        u64::from(r.connected),
        convergence,
        r.moves,
        r.move_dist.to_bits(),
    ];
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in words.iter().flat_map(|w| w.to_le_bytes()) {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{hash:016x}")
}

/// Whether a record's fields are well-formed (finite, in range).
pub fn well_formed(r: &RunRecord) -> bool {
    (0.0..=1.0).contains(&r.coverage)
        && [r.avg_move, r.max_move, r.total_move, r.move_dist]
            .iter()
            .all(|v| v.is_finite() && *v >= 0.0)
        && r.avg_move <= r.max_move
        && r.convergence_time.is_none_or(|t| t.is_finite() && t >= 0.0)
}

/// Stored per-run digests: workload → spec seed → digests in matrix
/// order.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Reference {
    runs: BTreeMap<String, BTreeMap<u64, Vec<String>>>,
}

impl Reference {
    /// Loads the stored reference; a missing file is an empty reference.
    pub fn load() -> Result<Reference, String> {
        let path = reference_path();
        match std::fs::read_to_string(&path) {
            Ok(text) => Reference::parse(&text).map_err(|e| format!("{}: {e}", path.display())),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Reference::default()),
            Err(e) => Err(format!("cannot read {}: {e}", path.display())),
        }
    }

    /// Parses the reference document.
    pub fn parse(text: &str) -> Result<Reference, String> {
        let root = Json::parse(text).map_err(|e| e.to_string())?;
        let mut reference = Reference::default();
        let Some(Json::Obj(workloads)) = root.get("workloads") else {
            return Err("missing 'workloads' object".into());
        };
        for (workload, seeds) in workloads {
            let Json::Obj(seeds) = seeds else {
                return Err(format!("'{workload}' must map seeds to digest lists"));
            };
            for (seed, digests) in seeds {
                let seed: u64 = seed
                    .parse()
                    .map_err(|_| format!("'{workload}': bad seed key '{seed}'"))?;
                let digests = digests
                    .as_array()
                    .ok_or_else(|| format!("'{workload}' seed {seed}: expected an array"))?
                    .iter()
                    .map(|d| d.as_str().map(str::to_string))
                    .collect::<Option<Vec<_>>>()
                    .ok_or_else(|| format!("'{workload}' seed {seed}: digests must be strings"))?;
                reference.insert(workload, seed, digests);
            }
        }
        Ok(reference)
    }

    /// Records the digests of one batch.
    pub fn insert(&mut self, workload: &str, seed: u64, digests: Vec<String>) {
        self.runs
            .entry(workload.to_string())
            .or_default()
            .insert(seed, digests);
    }

    /// The stored digests of one batch, if the reference holds it.
    pub fn get(&self, workload: &str, seed: u64) -> Option<&[String]> {
        self.runs.get(workload)?.get(&seed).map(Vec::as_slice)
    }

    /// The reference document.
    pub fn to_json(&self) -> String {
        let workloads = self
            .runs
            .iter()
            .map(|(name, seeds)| {
                let seeds = seeds
                    .iter()
                    .map(|(seed, digests)| {
                        let list = digests.iter().map(|d| Json::from(d.as_str())).collect();
                        (seed.to_string(), Json::Arr(list))
                    })
                    .collect();
                (name.clone(), Json::Obj(seeds))
            })
            .collect();
        Json::obj()
            .field("schema", 1u64)
            .field(
                "digest",
                format!("fnv1a-64 of the bit patterns of: {CHECKED_FIELDS}"),
            )
            .field("workloads", Json::Obj(workloads))
            .pretty()
    }
}

/// Checks the batches of one measured run.
pub struct Checker<'a> {
    workload: &'static str,
    reference: &'a Reference,
    /// First-pass digests per spec seed, for seeds without reference.
    seen: BTreeMap<u64, Vec<String>>,
    /// Runs checked.
    pub attempted: u64,
    /// Runs missing or differing from their reference.
    pub failed: u64,
    /// Runs compared against the stored reference.
    pub against_reference: u64,
}

impl<'a> Checker<'a> {
    /// A checker for `workload`'s batches.
    pub fn new(workload: &'static str, reference: &'a Reference) -> Self {
        Checker {
            workload,
            reference,
            seen: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            against_reference: 0,
        }
    }

    /// Checks one batch of spec seed `seed` that should hold `expected`
    /// runs; returns how many of them failed.
    pub fn check(&mut self, seed: u64, expected: usize, records: &[RunRecord]) -> u64 {
        let digests: Vec<String> = records.iter().map(run_digest).collect();
        let stored = self.reference.get(self.workload, seed);
        let first = self.seen.get(&seed);
        let mut failed = expected.saturating_sub(records.len()) as u64;
        for (i, (record, digest)) in records.iter().zip(&digests).enumerate().take(expected) {
            let ok = match (stored, first) {
                (Some(stored), _) => stored.get(i) == Some(digest),
                (None, Some(first)) => first.get(i) == Some(digest) && well_formed(record),
                (None, None) => well_formed(record),
            };
            failed += u64::from(!ok);
        }
        if stored.is_some() {
            self.against_reference += expected as u64;
        }
        self.seen.entry(seed).or_insert(digests);
        self.attempted += expected as u64;
        self.failed += failed;
        failed
    }
}
