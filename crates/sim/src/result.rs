//! Per-run metrics.

use msn_geom::Point;
use msn_net::MessageCounter;
use std::fmt;

/// Everything one simulation run reports — the quantities behind every
/// figure and table of the paper's evaluation.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Scheme name ("CPVF", "FLOOR", "VOR", "Minimax", "OPT").
    pub scheme: String,
    /// Final coverage fraction of free area.
    pub coverage: f64,
    /// Average moving distance per sensor (m).
    pub avg_move: f64,
    /// Maximum moving distance over sensors (m).
    pub max_move: f64,
    /// Total moving distance (m).
    pub total_move: f64,
    /// Message transmissions by kind.
    pub messages: MessageCounter,
    /// Whether every sensor ended connected (multi-hop) to the base.
    pub connected: bool,
    /// `(time, coverage)` samples over the run.
    pub coverage_timeline: Vec<(f64, f64)>,
    /// Time to reach 95 % of final coverage, if the run converged.
    pub convergence_time: Option<f64>,
    /// Final sensor positions.
    pub positions: Vec<Point>,
    /// Annotations such as `Disconn.` or `Incorrect VD` (Figure 10).
    pub flags: Vec<String>,
    /// Number of movement actions performed (the `world.moves`
    /// aggregate): how many times a sensor was commanded to a new
    /// position, as opposed to how far it travelled.
    pub moves: u64,
    /// Total commanded travel distance (m; the `world.move_dist`
    /// aggregate). Unlike [`RunResult::total_move`] this excludes
    /// bookkeeping penalties charged via detour accounting, so it is
    /// the movement-energy headline metric of the scale tier.
    pub move_dist: f64,
    /// Per-sensor travelled distance (m), in slot order — the raw
    /// vector behind [`RunResult::avg_move`]/[`RunResult::max_move`].
    /// The dynamic-run engine stitches restarted segments together by
    /// adding each segment's per-sensor distances onto its per-slot
    /// ledger, which needs the vector, not just the aggregates. A
    /// dynamic run's vector holds every slot, failed ones included.
    pub per_move: Vec<f64>,
}

impl RunResult {
    /// Convenience constructor filling derived fields from raw data.
    pub fn from_run(
        scheme: impl Into<String>,
        coverage: f64,
        moved: &[f64],
        messages: MessageCounter,
        connected: bool,
        coverage_timeline: Vec<(f64, f64)>,
        positions: Vec<Point>,
    ) -> Self {
        let total_move: f64 = moved.iter().sum();
        let avg_move = if moved.is_empty() {
            0.0
        } else {
            total_move / moved.len() as f64
        };
        let max_move = moved.iter().copied().fold(0.0, f64::max);
        let convergence_time = convergence_time(&coverage_timeline, coverage, 0.95);
        RunResult {
            scheme: scheme.into(),
            coverage,
            avg_move,
            max_move,
            total_move,
            messages,
            connected,
            coverage_timeline,
            convergence_time,
            positions,
            flags: Vec::new(),
            moves: 0,
            move_dist: 0.0,
            per_move: moved.to_vec(),
        }
    }

    /// Adds an annotation flag (builder style).
    #[must_use]
    pub fn with_flag(mut self, flag: impl Into<String>) -> Self {
        self.flags.push(flag.into());
        self
    }

    /// Records the movement-cost aggregates (builder style): the
    /// schemes pass their [`crate::World`]'s `world.move_count()` /
    /// `world.move_dist()` (VD then adds its uncounted explosion to
    /// `move_dist`), and the dynamic engine their sums over segments.
    #[must_use]
    pub fn with_movement(mut self, moves: u64, move_dist: f64) -> Self {
        self.moves = moves;
        self.move_dist = move_dist;
        self
    }
}

impl fmt::Display for RunResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: coverage {:.1}%, avg move {:.1} m, {} msgs{}{}",
            self.scheme,
            self.coverage * 100.0,
            self.avg_move,
            self.messages.total(),
            if self.connected {
                ""
            } else {
                " [disconnected]"
            },
            if self.flags.is_empty() {
                String::new()
            } else {
                format!(" [{}]", self.flags.join(", "))
            }
        )
    }
}

/// The first time the coverage timeline reaches `frac` of the final
/// coverage (`None` for an empty timeline or zero final coverage).
pub fn convergence_time(timeline: &[(f64, f64)], final_coverage: f64, frac: f64) -> Option<f64> {
    if final_coverage <= 0.0 {
        return None;
    }
    let threshold = final_coverage * frac;
    timeline
        .iter()
        .find(|&&(_, c)| c >= threshold)
        .map(|&(t, _)| t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_fields() {
        let r = RunResult::from_run(
            "TEST",
            0.5,
            &[1.0, 3.0],
            MessageCounter::new(),
            true,
            vec![(0.0, 0.1), (10.0, 0.48), (20.0, 0.5)],
            vec![],
        );
        assert_eq!(r.total_move, 4.0);
        assert_eq!(r.avg_move, 2.0);
        assert_eq!(r.max_move, 3.0);
        assert_eq!(r.convergence_time, Some(10.0), "0.48 >= 0.95 * 0.5");
        assert!(r.flags.is_empty());
        let flagged = r.with_flag("Disconn.");
        assert_eq!(flagged.flags, vec!["Disconn.".to_string()]);
    }

    #[test]
    fn convergence_edge_cases() {
        assert_eq!(convergence_time(&[], 0.5, 0.95), None);
        assert_eq!(convergence_time(&[(0.0, 0.1)], 0.0, 0.95), None);
        assert_eq!(
            convergence_time(&[(0.0, 0.6)], 0.5, 0.95),
            Some(0.0),
            "already above threshold at t=0"
        );
        assert_eq!(convergence_time(&[(0.0, 0.1), (5.0, 0.2)], 0.5, 0.95), None);
    }

    #[test]
    fn display_contains_key_metrics() {
        let r = RunResult::from_run(
            "CPVF",
            0.745,
            &[2.0],
            MessageCounter::new(),
            false,
            vec![],
            vec![],
        );
        let s = format!("{r}");
        assert!(s.contains("CPVF"));
        assert!(s.contains("74.5%"));
        assert!(s.contains("disconnected"));
    }
}
