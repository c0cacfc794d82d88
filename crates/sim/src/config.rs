//! Simulation configuration.

use msn_geom::Point;
use std::fmt;

/// Time constants, radio/sensing ranges and measurement resolution of
/// one simulation run.
///
/// # Examples
///
/// ```
/// use msn_sim::SimConfig;
///
/// let cfg = SimConfig::paper(60.0, 40.0).with_seed(7).with_duration(100.0);
/// assert_eq!(cfg.rc, 60.0);
/// assert_eq!(cfg.max_step(), 2.0); // V·T
/// assert_eq!(cfg.dt(), 0.2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Communication range `rc` (m).
    pub rc: f64,
    /// Sensing range `rs` (m).
    pub rs: f64,
    /// Total simulated time (s); paper: 750 s.
    pub duration: f64,
    /// RNG seed; every run is deterministic given the seed.
    pub seed: u64,
    /// Raster cell (m) for coverage measurement.
    pub coverage_cell: f64,
    /// Base-station reference point `O`; paper: the origin.
    pub base: Point,
}

impl SimConfig {
    /// Maximum moving speed `V` (m/s), the paper's 2 m/s.
    pub const SPEED: f64 = 2.0;
    /// Period length `T` (s) between movement decisions, the paper's
    /// 1 s.
    pub const PERIOD: f64 = 1.0;
    /// Micro-ticks per period for motion integration and phase
    /// offsets.
    pub const TICKS_PER_PERIOD: u32 = 5;

    /// The paper's evaluation defaults for given ranges: 750 s
    /// duration, 2.5 m coverage raster, base at the origin, seed 42
    /// (V, T and the tick count are the constants above).
    ///
    /// # Panics
    ///
    /// Panics if a range is not strictly positive.
    pub fn paper(rc: f64, rs: f64) -> Self {
        assert!(rc > 0.0 && rs > 0.0, "ranges must be positive");
        SimConfig {
            rc,
            rs,
            duration: 750.0,
            seed: 42,
            coverage_cell: 2.5,
            base: Point::ORIGIN,
        }
    }

    /// Returns the config with a different seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns the config with a different duration (s).
    #[must_use]
    pub fn with_duration(mut self, duration: f64) -> Self {
        self.duration = duration;
        self
    }

    /// Returns the config with a different coverage raster cell (m).
    #[must_use]
    pub fn with_coverage_cell(mut self, cell: f64) -> Self {
        self.coverage_cell = cell;
        self
    }

    /// Returns the config with a different base-station point `O`.
    #[must_use]
    pub fn with_base(mut self, base: Point) -> Self {
        self.base = base;
        self
    }

    /// Maximum distance a sensor can cover in one period (`V·T`).
    #[inline]
    pub fn max_step(&self) -> f64 {
        Self::SPEED * Self::PERIOD
    }

    /// Micro-tick length (s).
    #[inline]
    pub fn dt(&self) -> f64 {
        Self::PERIOD / Self::TICKS_PER_PERIOD as f64
    }

    /// Total number of micro-ticks in the run.
    pub fn total_ticks(&self) -> u64 {
        (self.duration / self.dt()).round() as u64
    }
}

impl fmt::Display for SimConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "sim(rc={} rs={} V={} T={} dur={}s seed={})",
            self.rc,
            self.rs,
            Self::SPEED,
            Self::PERIOD,
            self.duration,
            self.seed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let cfg = SimConfig::paper(60.0, 40.0);
        assert_eq!(cfg.duration, 750.0);
        assert_eq!(cfg.max_step(), 2.0);
        assert_eq!(cfg.total_ticks(), 3750);
        assert_eq!(cfg.base, Point::ORIGIN);
    }

    #[test]
    fn builder_methods() {
        let cfg = SimConfig::paper(30.0, 40.0)
            .with_seed(9)
            .with_duration(10.0)
            .with_coverage_cell(5.0)
            .with_base(Point::new(3.0, 4.0));
        assert_eq!(cfg.seed, 9);
        assert_eq!(cfg.duration, 10.0);
        assert_eq!(cfg.coverage_cell, 5.0);
        assert_eq!(cfg.base, Point::new(3.0, 4.0));
        assert_eq!(cfg.total_ticks(), 50);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_range_rejected() {
        SimConfig::paper(0.0, 40.0);
    }
}
