//! Oscillation avoidance (§6.3).

use msn_geom::Point;

/// The oscillation-avoidance techniques evaluated in Figure 12.
///
/// Both cancel a planned step when it looks like an unproductive
/// perturbation; δ (the *oscillation avoidance factor*) sets the
/// threshold `V·T/δ` — smaller δ cancels more aggressively.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum OscillationAvoidance {
    /// No filtering (CPVF's default).
    #[default]
    Off,
    /// Cancel steps shorter than `V·T/δ`.
    OneStep {
        /// The oscillation avoidance factor δ.
        delta: f64,
    },
    /// Cancel a step whose endpoint lies within `V·T/δ` of the
    /// sensor's position at the end of the *previous* step (detects
    /// back-and-forth motion).
    TwoStep {
        /// The oscillation avoidance factor δ.
        delta: f64,
    },
}

impl OscillationAvoidance {
    /// Applies the filter: returns the (possibly zeroed) step size.
    ///
    /// `pos` is the current position, `planned_step` the chosen step
    /// size along `dir`, `max_step` is `V·T`, and `prev_end` the
    /// position at the end of the previous period (for
    /// [`OscillationAvoidance::TwoStep`]).
    pub fn filter(
        self,
        pos: Point,
        dir: Point,
        planned_step: f64,
        max_step: f64,
        prev_end: Option<Point>,
    ) -> f64 {
        match self {
            OscillationAvoidance::Off => planned_step,
            OscillationAvoidance::OneStep { delta } => {
                if planned_step < max_step / delta {
                    0.0
                } else {
                    planned_step
                }
            }
            OscillationAvoidance::TwoStep { delta } => {
                let end = pos + dir * planned_step;
                match prev_end {
                    Some(prev) if end.dist(prev) < max_step / delta => 0.0,
                    _ => planned_step,
                }
            }
        }
    }
}

impl std::fmt::Display for OscillationAvoidance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OscillationAvoidance::Off => write!(f, "off"),
            OscillationAvoidance::OneStep { delta } => write!(f, "one-step(δ={delta})"),
            OscillationAvoidance::TwoStep { delta } => write!(f, "two-step(δ={delta})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DIR: Point = Point { x: 1.0, y: 0.0 };

    #[test]
    fn off_passes_through() {
        let s = OscillationAvoidance::Off.filter(Point::ORIGIN, DIR, 0.01, 2.0, None);
        assert_eq!(s, 0.01);
    }

    #[test]
    fn one_step_cancels_small_steps() {
        let osc = OscillationAvoidance::OneStep { delta: 4.0 }; // threshold 0.5
        assert_eq!(osc.filter(Point::ORIGIN, DIR, 0.4, 2.0, None), 0.0);
        assert_eq!(osc.filter(Point::ORIGIN, DIR, 0.6, 2.0, None), 0.6);
    }

    #[test]
    fn two_step_cancels_returns_to_previous_spot() {
        let osc = OscillationAvoidance::TwoStep { delta: 4.0 }; // threshold 0.5
        let pos = Point::new(10.0, 0.0);
        // previous period ended at x=10.3; planned end is x=10.2: within 0.5
        let s = osc.filter(pos, DIR, 0.2, 2.0, Some(Point::new(10.3, 0.0)));
        assert_eq!(s, 0.0);
        // previous end far away: passes
        let s2 = osc.filter(pos, DIR, 0.2, 2.0, Some(Point::new(20.0, 0.0)));
        assert_eq!(s2, 0.2);
        // no history: passes
        assert_eq!(osc.filter(pos, DIR, 0.2, 2.0, None), 0.2);
    }

    #[test]
    fn smaller_delta_cancels_more() {
        let strict = OscillationAvoidance::OneStep { delta: 1.0 }; // threshold = VT
        assert_eq!(strict.filter(Point::ORIGIN, DIR, 1.9, 2.0, None), 0.0);
        let lax = OscillationAvoidance::OneStep { delta: 16.0 };
        assert_eq!(lax.filter(Point::ORIGIN, DIR, 1.9, 2.0, None), 1.9);
    }
}
