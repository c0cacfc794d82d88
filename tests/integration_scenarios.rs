//! The bundled scenario specs must parse, validate and (shrunken)
//! execute end to end through the batch runner.

use msn_scenario::{BatchRunner, ScenarioSpec};
use std::path::PathBuf;

fn scenarios_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("scenarios")
}

fn bundled_specs() -> Vec<(PathBuf, ScenarioSpec)> {
    let mut specs = Vec::new();
    for entry in std::fs::read_dir(scenarios_dir()).expect("scenarios/ exists") {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|x| x == "toml") {
            let text = std::fs::read_to_string(&path).unwrap();
            let spec = ScenarioSpec::from_toml_str(&text)
                .unwrap_or_else(|e| panic!("{} must parse: {e}", path.display()));
            specs.push((path, spec));
        }
    }
    specs.sort_by(|a, b| a.0.cmp(&b.0));
    specs
}

#[test]
fn all_bundled_specs_parse_and_validate() {
    let specs = bundled_specs();
    assert!(
        specs.len() >= 4,
        "at least four bundled scenarios expected, found {}",
        specs.len()
    );
    for (path, spec) in &specs {
        assert!(
            spec.validate().is_ok(),
            "{} failed validation",
            path.display()
        );
        assert!(!spec.matrix().is_empty());
        assert_eq!(
            path.file_stem().unwrap().to_string_lossy(),
            spec.name,
            "file name and scenario name must agree"
        );
    }
}

#[test]
fn bundled_specs_cover_the_advertised_field_kinds() {
    let kinds: Vec<String> = bundled_specs()
        .iter()
        .map(|(_, s)| s.field.kind().to_string())
        .collect();
    for expected in [
        "paper",
        "campus-grid",
        "corridor",
        "disaster-zone",
        "random-obstacles",
    ] {
        assert!(
            kinds.iter().any(|k| k == expected),
            "no bundled scenario uses field kind '{expected}' (got {kinds:?})"
        );
    }
}

#[test]
fn a_shrunken_bundled_spec_executes_end_to_end() {
    let (_, spec) = bundled_specs()
        .into_iter()
        .find(|(_, s)| s.name == "disaster-zone")
        .expect("disaster-zone is bundled");
    let quick = spec
        .with_sensor_counts(vec![15])
        .with_duration(15.0)
        .with_coverage_cell(25.0)
        .with_repetitions(1);
    let result = BatchRunner::new().run(&quick).unwrap();
    assert_eq!(result.records.len(), quick.schemes.len());
    for record in &result.records {
        assert!(record.coverage > 0.0);
        assert!(record.avg_move >= 0.0);
    }
    assert!(result.to_json().contains("\"scenario\": \"disaster-zone\""));
    assert!(result.to_csv().lines().count() > 1);
}
