//! Property-based tests for the scenario engine: specs round-trip
//! through TOML, the run matrix respects its invariants, and the
//! hand-rolled parsers (TOML, JSON and the batch, perf-record and
//! profile readers built on them) never panic on hostile input.

use msn_deploy::cpvf::OscillationAvoidance;
use msn_deploy::{CpvfOverrides, FloorOverrides, SchemeKind, SchemeOverrides};
use msn_field::{CampusGridParams, CorridorParams, RandomObstacleParams};
use msn_scenario::{
    BatchFile, BenchRecord, FieldSpec, Json, ProfileRecord, RunConfig, ScatterSpec, ScenarioSpec,
    TomlValue,
};
use msn_sim::{DynEvent, EventSchedule};
use proptest::prelude::*;

/// A strategy over all field kinds with plausible parameters.
fn field_strategy() -> impl Strategy<Value = FieldSpec> {
    (0usize..6, 500.0..1500.0f64, 1usize..4, 60.0..200.0f64).prop_map(
        |(kind, size, blocks, gap)| match kind {
            0 => FieldSpec::Paper,
            1 => FieldSpec::TwoObstacle,
            2 => FieldSpec::CampusGrid(CampusGridParams {
                width: 2.0 * size,
                height: 2.0 * size,
                blocks_x: blocks,
                blocks_y: blocks,
                building: 160.0,
                street: 80.0,
                margin: 140.0,
            }),
            3 => FieldSpec::Corridor(CorridorParams {
                width: size,
                height: 600.0,
                baffles: blocks,
                gap,
                thickness: 30.0,
            }),
            4 => FieldSpec::DisasterZone,
            _ => FieldSpec::RandomObstacles(RandomObstacleParams {
                width: size,
                height: size,
                count: (1, blocks),
                side: (gap, 2.0 * gap),
                base_clearance: 60.0,
                connectivity_cell: 10.0,
            }),
        },
    )
}

fn scatter_strategy() -> impl Strategy<Value = ScatterSpec> {
    (0usize..3, 0.0..200.0f64, 200.0..500.0f64).prop_map(|(kind, lo, hi)| match kind {
        0 => ScatterSpec::ClusteredQuarter,
        1 => ScatterSpec::Uniform,
        _ => ScatterSpec::Clustered {
            x0: lo,
            y0: lo,
            x1: hi,
            y1: hi,
        },
    })
}

fn schemes_strategy() -> impl Strategy<Value = Vec<SchemeKind>> {
    (1usize..=5, 0usize..5).prop_map(|(len, start)| {
        (0..len)
            .map(|i| SchemeKind::ALL[(start + i) % SchemeKind::ALL.len()])
            .collect()
    })
}

/// `Some(value)` or `None`, each half the time.
fn maybe<S: Strategy>(s: S) -> impl Strategy<Value = Option<S::Value>> {
    (prop::bool::ANY, s).prop_map(|(on, v)| on.then_some(v))
}

/// FLOOR overrides with every knob independently set or unset (the TTL
/// pair as one choice: unset, absolute or fractional).
fn floor_strategy() -> impl Strategy<Value = FloorOverrides> {
    (
        (0usize..3, 1usize..100, 0.01..1.0f64),
        maybe(prop::bool::ANY),
        maybe(prop::bool::ANY),
    )
        .prop_map(|((ttl_kind, ttl, frac), blg, iflg)| FloorOverrides {
            ttl: (ttl_kind == 1).then_some(ttl),
            ttl_frac: (ttl_kind == 2).then_some(frac),
            enable_blg: blg,
            enable_iflg: iflg,
        })
}

/// Unset, or one of the three oscillation forms.
fn oscillation_strategy() -> impl Strategy<Value = Option<OscillationAvoidance>> {
    (0usize..4, 0.1..10.0f64).prop_map(|(kind, delta)| match kind {
        0 => None,
        1 => Some(OscillationAvoidance::Off),
        2 => Some(OscillationAvoidance::OneStep { delta }),
        _ => Some(OscillationAvoidance::TwoStep { delta }),
    })
}

fn overrides_strategy() -> impl Strategy<Value = SchemeOverrides> {
    (floor_strategy(), oscillation_strategy()).prop_map(|(floor, oscillation)| SchemeOverrides {
        floor,
        cpvf: CpvfOverrides { oscillation },
    })
}

/// One failure at a time drawn as a fraction of the run.
fn event_strategy() -> impl Strategy<Value = (f64, f64)> {
    (0.01..0.99f64, 0.01..1.0f64)
}

/// Unset, or a schedule of up to six events with a recovery threshold.
fn dynamics_strategy() -> impl Strategy<Value = Option<(f64, Vec<(f64, f64)>)>> {
    maybe((0.05..1.0f64, prop::collection::vec(event_strategy(), 0..7)))
}

/// Materializes a drawn schedule for a run of `duration` seconds.
fn schedule(drawn: Option<(f64, Vec<(f64, f64)>)>, duration: f64) -> Option<EventSchedule> {
    let (recovery_frac, mut events) = drawn?;
    events.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut s = EventSchedule::new(
        events
            .into_iter()
            .map(|(at, frac)| DynEvent {
                time: at * duration,
                frac,
            })
            .collect(),
    );
    s.recovery_frac = recovery_frac;
    Some(s)
}

/// Bytes biased toward TOML/JSON structure: brackets, braces, `=`,
/// quotes, separators, escapes, digits and line breaks.
fn hostile_text() -> impl Strategy<Value = String> {
    const BIASED: &[u8] = b"[]{}=\".,\\:#-+eE0123456789 \n\ttruefalsnamekind";
    let byte = prop_oneof![
        2 => 0u8..=255,
        5 => (0usize..BIASED.len()).prop_map(|i| BIASED[i]),
    ];
    prop::collection::vec(byte, 0..400)
        .prop_map(|bytes| String::from_utf8_lossy(&bytes).into_owned())
}

/// A valid document with a random slice of `noise` spliced in.
fn spliced(doc: &str, noise: &str, at: f64, cut: usize) -> String {
    let mut at = (doc.len() as f64 * at) as usize;
    while !doc.is_char_boundary(at) {
        at -= 1;
    }
    let mut end = (at + cut).min(doc.len());
    while !doc.is_char_boundary(end) {
        end -= 1;
    }
    format!("{}{noise}{}", &doc[..at], &doc[end..])
}

const SPEC_DOC: &str = include_str!("../../../scenarios/ablation-obstacle.toml");
const DYNAMICS_DOC: &str = include_str!("../../../scenarios/failure-recovery.toml");
const BATCH_DOC: &str = include_str!("../../../tests/fixtures/smoke-batch.json");
const BENCH_DOC: &str = include_str!("../../../BENCH.json");
const SMOKE_SPEC: &str = include_str!("../../../scenarios/smoke.toml");

/// The profile record of one profiled run of the smoke spec (the run
/// behind `smoke-batch.json`), rendered once per test binary.
fn profile_doc() -> &'static str {
    static DOC: std::sync::OnceLock<String> = std::sync::OnceLock::new();
    DOC.get_or_init(|| {
        let spec = ScenarioSpec::from_toml_str(SMOKE_SPEC).expect("smoke spec parses");
        let result = RunConfig::new()
            .profiling(true)
            .runner()
            .run(&spec)
            .expect("smoke spec runs");
        ProfileRecord::from_batch(&result)
            .expect("profiled batch")
            .to_json_string()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn spec_roundtrips_through_toml(
        field in field_strategy(),
        scatter in scatter_strategy(),
        schemes in schemes_strategy(),
        counts in prop::collection::vec(1usize..500, 1..5),
        radios in prop::collection::vec((10.0..100.0f64, 10.0..100.0f64), 1..4),
        duration in 1.0..1000.0f64,
        coverage_cell in 1.0..25.0f64,
        repetitions in 1usize..10,
        seed in 0u64..u64::MAX,
        variants in prop::collection::vec(overrides_strategy(), 0..4),
        dynamics in dynamics_strategy(),
    ) {
        let mut spec = ScenarioSpec::new("prop-roundtrip")
            .with_description("generated by proptest")
            .with_field(field)
            .with_scatter(scatter)
            .with_schemes(schemes)
            .with_sensor_counts(counts)
            .with_radios(radios)
            .with_duration(duration)
            .with_coverage_cell(coverage_cell)
            .with_repetitions(repetitions)
            .with_seed(seed);
        for (i, overrides) in variants.into_iter().enumerate() {
            spec = spec.with_variant(format!("v{i}"), overrides);
        }
        spec.dynamics = schedule(dynamics, duration);
        prop_assert!(spec.validate().is_ok(), "generated an invalid spec: {:?}", spec.validate());
        let text = spec.to_toml_string();
        let parsed = ScenarioSpec::from_toml_str(&text)
            .expect("serialized spec must parse back");
        prop_assert_eq!(&parsed, &spec, "round-trip changed the spec:\n{}", text);
        // serialization is a fixed point
        prop_assert_eq!(parsed.to_toml_string(), text);
    }

    #[test]
    fn matrix_size_and_env_seed_sharing(
        schemes in schemes_strategy(),
        counts in prop::collection::vec(1usize..300, 1..4),
        n_radios in 1usize..4,
        repetitions in 1usize..6,
        seed in 0u64..10_000,
    ) {
        let radios: Vec<(f64, f64)> =
            (0..n_radios).map(|i| (20.0 + 10.0 * i as f64, 40.0)).collect();
        let spec = ScenarioSpec::new("prop-matrix")
            .with_schemes(schemes.clone())
            .with_sensor_counts(counts.clone())
            .with_radios(radios)
            .with_repetitions(repetitions)
            .with_seed(seed);
        let cells = spec.matrix();
        prop_assert_eq!(
            cells.len(),
            n_radios * counts.len() * repetitions * schemes.len()
        );
        for (i, cell) in cells.iter().enumerate() {
            prop_assert_eq!(cell.index, i, "indices must be the collect order");
        }
        // within one (radio, n, rep) slice every scheme shares env_seed
        for slice in cells.chunks(schemes.len()) {
            for cell in slice {
                prop_assert_eq!(cell.env_seed, slice[0].env_seed);
                prop_assert_eq!(cell.n, slice[0].n);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn parsers_never_panic_on_hostile_bytes(text in hostile_text()) {
        let _ = TomlValue::parse(&text);
        let _ = ScenarioSpec::from_toml_str(&text);
        let _ = Json::parse(&text);
        let _ = BatchFile::parse(&text);
        let _ = BenchRecord::parse(&text);
        let _ = ProfileRecord::parse(&text);
    }

    #[test]
    fn parsers_never_panic_on_corrupted_documents(
        noise in hostile_text(),
        at in 0.0..1.0f64,
        cut in 0usize..40,
    ) {
        for doc in [SPEC_DOC, DYNAMICS_DOC] {
            let text = spliced(doc, &noise, at, cut);
            let _ = TomlValue::parse(&text);
            let _ = ScenarioSpec::from_toml_str(&text);
        }
        let text = spliced(BATCH_DOC, &noise, at, cut);
        let _ = Json::parse(&text);
        let _ = BatchFile::parse(&text);
        let text = spliced(BENCH_DOC, &noise, at, cut);
        let _ = Json::parse(&text);
        let _ = BenchRecord::parse(&text);
        let text = spliced(profile_doc(), &noise, at, cut);
        let _ = Json::parse(&text);
        let _ = ProfileRecord::parse(&text);
    }
}
