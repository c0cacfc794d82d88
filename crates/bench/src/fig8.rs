//! Figure 8: FLOOR layouts and coverage in the same three settings as
//! Figure 3.
//!
//! (a) rc = 60 m, rs = 40 m, obstacle-free — paper: 78.8 % coverage;
//! (b) rc = 30 m, rs = 40 m, obstacle-free — paper: 46.2 %;
//! (c) rc = 60 m, rs = 40 m, two obstacles — paper: 72.5 %.
//!
//! Renders the FLOOR runs of the shared `fig38-*` bundled specs (see
//! [`crate::fig3`]).

use crate::fig3;
use msn_deploy::SchemeKind;
use msn_scenario::BatchResult;

/// Paper-reported coverages for Figure 8's three panels.
pub const PAPER: [f64; 3] = [0.788, 0.462, 0.725];

/// Renders Figure 8 from the `fig38-open` and `fig38-obstacle` results.
pub fn report(open: &BatchResult, obstacle: &BatchResult) -> String {
    fig3::layout_report(
        "Figure 8 — FLOOR sensor layouts and coverage",
        open,
        obstacle,
        SchemeKind::Floor,
        &PAPER,
    )
}
