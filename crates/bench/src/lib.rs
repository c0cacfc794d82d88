//! Experiment harness regenerating every table and figure of the
//! paper's evaluation (§4.3, §5.6 and §6).
//!
//! The bundled TOML specs under `scenarios/` are the only definition
//! of each experiment. Every `figN`/`table1`/`ablation`/`uniform_init`
//! module loads its spec(s) from those files and is otherwise a
//! renderer: `report` formats the paper's table from the executed
//! [`BatchResult`]s, taking every axis (radios, sensor counts,
//! repetitions, variants) from `result.spec`. [`FIGURES`] pairs each
//! figure with its specs and renderer; the `all_experiments` binary
//! runs a [`select`]ion of it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use msn_scenario::{BatchResult, ScenarioSpec};

pub mod ablation;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig3;
pub mod fig8;
pub mod fig9;
pub mod table1;
pub mod uniform_init;

/// One figure or table of the evaluation.
#[derive(Debug, Clone, Copy)]
pub struct Figure {
    /// Name accepted by `all_experiments --only` and used for the
    /// saved report `results/<name>.txt`.
    pub name: &'static str,
    /// The specs the figure runs, in the order `render` takes their
    /// results.
    pub specs: fn() -> Vec<ScenarioSpec>,
    /// Formats the report from one result per spec.
    pub render: fn(&[&BatchResult]) -> String,
}

/// Every figure and table, in report order. fig3 and fig8 share the
/// `fig38-*` specs (each renders one scheme of the same runs).
pub const FIGURES: &[Figure] = &[
    Figure {
        name: "fig3",
        specs: fig3::specs,
        render: |r| fig3::report(r[0], r[1]),
    },
    Figure {
        name: "fig8",
        specs: fig3::specs,
        render: |r| fig8::report(r[0], r[1]),
    },
    Figure {
        name: "fig9",
        specs: || vec![fig9::spec()],
        render: |r| fig9::report(r[0]),
    },
    Figure {
        name: "fig10",
        specs: || vec![fig10::spec()],
        render: |r| fig10::report(r[0]),
    },
    Figure {
        name: "fig11",
        specs: || vec![fig11::spec()],
        render: |r| fig11::report(r[0]),
    },
    Figure {
        name: "fig12",
        specs: || vec![fig12::spec()],
        render: |r| fig12::report(r[0]),
    },
    Figure {
        name: "fig13",
        specs: || vec![fig13::spec()],
        render: |r| fig13::report(r[0]),
    },
    Figure {
        name: "table1",
        specs: table1::specs,
        render: |r| table1::report(r[0], r[1]),
    },
    Figure {
        name: "ablation",
        specs: ablation::specs,
        render: |r| ablation::report(r[0], r[1]),
    },
    Figure {
        name: "uniform_init",
        specs: uniform_init::specs,
        render: |r| uniform_init::report(r[0], r[1]),
    },
];

/// What `all_experiments` was asked to run.
#[derive(Debug, Clone)]
pub struct Selection {
    /// Shrink every spec with [`ScenarioSpec::quick`].
    pub quick: bool,
    /// The selected figures, in [`FIGURES`] order.
    pub figures: Vec<&'static Figure>,
}

/// Parses `all_experiments [--quick] [--only NAME,...]`. Without
/// `--only` every figure runs; an unknown flag or figure name is an
/// error naming the valid figures.
pub fn select(args: &[String]) -> Result<Selection, String> {
    let mut quick = false;
    let mut only: Option<Vec<&str>> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--only" => {
                let list = it.next().ok_or("--only needs a comma-separated list")?;
                only = Some(list.split(',').collect());
            }
            other => return Err(format!("unexpected argument '{other}'")),
        }
    }
    if let Some(names) = &only {
        for name in names {
            if !FIGURES.iter().any(|f| f.name == *name) {
                let valid: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
                return Err(format!(
                    "unknown figure '{name}' (valid: {})",
                    valid.join(", ")
                ));
            }
        }
    }
    let figures = FIGURES
        .iter()
        .filter(|f| only.as_ref().is_none_or(|names| names.contains(&f.name)))
        .collect();
    Ok(Selection { quick, figures })
}

/// Parses a bundled spec embedded with `include_str!`.
fn bundled(toml: &str) -> ScenarioSpec {
    ScenarioSpec::from_toml_str(toml).expect("bundled spec parses")
}

/// Formats a coverage fraction as the paper prints them.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Saves an experiment report under `results/<name>.txt` (creating the
/// directory if needed) and returns the path. Errors are reported, not
/// fatal — the report was already printed.
pub fn save_report(name: &str, contents: &str) -> Option<std::path::PathBuf> {
    let dir = std::path::Path::new("results");
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("warning: cannot create {dir:?}: {e}");
        return None;
    }
    let path = dir.join(format!("{name}.txt"));
    match std::fs::write(&path, contents) {
        Ok(()) => Some(path),
        Err(e) => {
            eprintln!("warning: cannot write {path:?}: {e}");
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    fn names(selection: &Selection) -> Vec<&'static str> {
        selection.figures.iter().map(|f| f.name).collect()
    }

    #[test]
    fn select_defaults_to_every_figure_at_full_scale() {
        let all = select(&[]).unwrap();
        assert!(!all.quick);
        assert_eq!(
            names(&all),
            FIGURES.iter().map(|f| f.name).collect::<Vec<_>>()
        );
        assert!(select(&args(&["--quick"])).unwrap().quick);
    }

    #[test]
    fn select_only_picks_exactly_the_named_figures() {
        let picked = select(&args(&["--only", "fig9,fig11"])).unwrap();
        assert_eq!(names(&picked), ["fig9", "fig11"]);
    }

    #[test]
    fn select_rejects_unknown_names_listing_the_valid_ones() {
        let err = select(&args(&["--only", "fig9,fig99"])).unwrap_err();
        assert!(err.contains("fig99"), "{err}");
        for figure in FIGURES {
            assert!(err.contains(figure.name), "{err} lists {}", figure.name);
        }
        assert!(select(&args(&["--only"])).is_err());
        assert!(select(&args(&["fig9"])).is_err());
    }

    #[test]
    fn every_figure_loads_valid_specs() {
        for figure in FIGURES {
            for spec in (figure.specs)() {
                assert!(spec.validate().is_ok(), "{}: {}", figure.name, spec.name);
            }
        }
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.788), "78.8%");
    }
}
