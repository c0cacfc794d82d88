//! Runs the paper's figures and tables from their bundled specs,
//! printing each report in order and saving it under
//! `results/<name>.txt`.
//!
//! Usage: `all_experiments [--quick] [--only NAME,...]`. Without
//! flags every figure runs at full scale (a few minutes on a 2-core
//! machine); `--quick` shrinks every spec with
//! `ScenarioSpec::quick`. Each spec runs at most once, so fig3 and
//! fig8 render from the same `fig38-*` batches.

use msn_scenario::{BatchResult, BatchRunner};
use std::collections::HashMap;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let selection = match msn_bench::select(&args) {
        Ok(selection) => selection,
        Err(e) => {
            eprintln!("error: {e}\nusage: all_experiments [--quick] [--only NAME,...]");
            return ExitCode::from(2);
        }
    };
    let mut done: HashMap<String, BatchResult> = HashMap::new();
    for figure in selection.figures {
        eprintln!(">>> running {}...", figure.name);
        let mut names = Vec::new();
        for spec in (figure.specs)() {
            let spec = if selection.quick { spec.quick() } else { spec };
            if !done.contains_key(&spec.name) {
                let result = BatchRunner::new()
                    .run(&spec)
                    .unwrap_or_else(|e| panic!("bundled spec {} failed: {e}", spec.name));
                done.insert(spec.name.clone(), result);
            }
            names.push(spec.name);
        }
        let results: Vec<&BatchResult> = names.iter().map(|name| &done[name]).collect();
        let report = (figure.render)(&results);
        println!("{report}");
        msn_bench::save_report(figure.name, &report);
    }
    ExitCode::SUCCESS
}
