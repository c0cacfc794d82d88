//! `perfbench`: run one workload of the benchmark and print its result.
//!
//! ```text
//! perfbench --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]
//! perfbench --write-manifest     # regenerate BENCHMARK.json + predictions.json
//! perfbench --write-reference    # regenerate perfbench/reference.json
//! ```
//!
//! Prints the metric table (names, values, units, sample counts) and,
//! as the last line of standard output, one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. `--trace 0` reports
//! the end-to-end metrics, `--trace 1` the per-layer ones. Exits 1 on
//! any error, 2 on bad arguments.

use msn_perfbench::check::Reference;
use msn_perfbench::manifest::{write_manifests, RUN_SECONDS};
use msn_perfbench::measure::{run_untraced, write_reference, Options};
use msn_perfbench::trace::run_traced;
use msn_perfbench::workload::{by_name, Workload, DEFAULT_SEED, WORKLOADS};
use std::process::ExitCode;

struct Args {
    workloads: Vec<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

enum Command {
    Run(Args),
    WriteManifest,
    WriteReference,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Command, String> {
    let mut workloads = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = RUN_SECONDS as f64;
    let mut trace = false;
    while let Some(flag) = argv.next() {
        if flag == "--write-manifest" {
            return Ok(Command::WriteManifest);
        }
        if flag == "--write-reference" {
            return Ok(Command::WriteReference);
        }
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if value == "all" => workloads = Some(WORKLOADS.iter().collect()),
            "--workload" => {
                let w = by_name(&value).ok_or_else(|| {
                    let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload '{value}' (expected all or one of {names:?})")
                })?;
                workloads = Some(vec![w]);
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed '{value}'"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad --seconds '{value}'"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace '{value}' (expected 0 or 1)")),
                }
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    Ok(Command::Run(Args {
        workloads: workloads.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    }))
}

fn run(args: &Args) -> Result<(), String> {
    let reference = Reference::load()?;
    for &workload in &args.workloads {
        let opts = Options {
            workload,
            seed: args.seed,
            seconds: args.seconds,
            shrink: false,
        };
        let outcome = if args.trace {
            run_traced(&opts, &reference)?
        } else {
            run_untraced(&opts, &reference)?
        };
        for line in outcome.table() {
            println!("{line}");
        }
        println!("{}", outcome.result_line());
    }
    Ok(())
}

fn main() -> ExitCode {
    let command = match parse(std::env::args().skip(1)) {
        Ok(command) => command,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match command {
        Command::Run(args) => run(&args),
        Command::WriteManifest => write_manifests(),
        Command::WriteReference => write_reference(),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
