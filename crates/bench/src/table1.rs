//! Table 1: total (and per-node) number of FLOOR protocol messages for
//! varying network size N and invitation TTL, in the obstacle-free and
//! two-obstacle environments.
//!
//! The sweeps are the bundled `scenarios/table1-open.toml` and
//! `table1-obstacle.toml`: the TTL columns are their parameter
//! variants, using the `floor.ttl_frac` override so the TTL scales
//! with each run's sensor count exactly as the paper's
//! `TTL = 0.1N ... 0.4N`; this module only formats the tables.
//!
//! The paper reports totals on the order of 200–1250 thousand messages
//! over the 750 s deployment — a few messages per node per second —
//! growing roughly linearly in the TTL.

use msn_metrics::Table;
use msn_scenario::{BatchResult, ScenarioSpec};

/// The bundled Table 1 specs: the obstacle-free half, then the
/// two-obstacle half.
pub fn specs() -> Vec<ScenarioSpec> {
    vec![
        crate::bundled(include_str!("../../../scenarios/table1-open.toml")),
        crate::bundled(include_str!("../../../scenarios/table1-obstacle.toml")),
    ]
}

/// Renders Table 1 from the `table1-open` and `table1-obstacle`
/// results.
pub fn report(open: &BatchResult, obstacle: &BatchResult) -> String {
    let mut out = String::from(
        "Table 1 — total (and per-node) FLOOR protocol messages x1000 during deployment\n",
    );
    for (env_name, result) in [
        ("non-obstacle environment", open),
        ("two-obstacle environment", obstacle),
    ] {
        out.push_str(&format!("\n{env_name}\n"));
        out.push_str(&env_table(result).to_string());
        out.push('\n');
    }
    out
}

/// One environment's table: a row per sensor count, a column per TTL
/// variant.
fn env_table(result: &BatchResult) -> Table {
    let spec = &result.spec;
    let stats = result.cell_stats();
    let mut header = vec!["N".to_string()];
    header.extend(spec.variants.iter().map(|v| v.label.clone()));
    let mut table = Table::new(header);
    for &n in &spec.sensor_counts {
        let mut row = vec![n.to_string()];
        for variant in &spec.variants {
            let cell = stats
                .iter()
                .find(|s| s.n == n && s.variant_label == variant.label)
                .expect("matrix covers every (n, TTL)");
            let total_k = cell.messages.mean() / 1000.0;
            let per_node_k = total_k / n as f64;
            row.push(format!("{total_k:.0} ({per_node_k:.1})"));
        }
        table.row(row);
    }
    table
}
