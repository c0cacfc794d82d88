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
    /// Maximum moving speed `V` (m/s); paper: 2 m/s.
    pub speed: f64,
    /// Period length `T` (s) between movement decisions; paper: 1 s.
    pub period: f64,
    /// Total simulated time (s); paper: 750 s.
    pub duration: f64,
    /// Micro-ticks per period for motion integration and phase offsets.
    pub ticks_per_period: u32,
    /// RNG seed; every run is deterministic given the seed.
    pub seed: u64,
    /// Raster cell (m) for coverage measurement.
    pub coverage_cell: f64,
    /// Base-station reference point `O`; paper: the origin.
    pub base: Point,
}

impl SimConfig {
    /// The paper's evaluation defaults for given ranges: V = 2 m/s,
    /// T = 1 s, 750 s duration, 5 ticks per period, 2.5 m coverage
    /// raster, base at the origin, seed 42.
    ///
    /// # Panics
    ///
    /// Panics if a range is not strictly positive.
    pub fn paper(rc: f64, rs: f64) -> Self {
        assert!(rc > 0.0 && rs > 0.0, "ranges must be positive");
        SimConfig {
            rc,
            rs,
            speed: 2.0,
            period: 1.0,
            duration: 750.0,
            ticks_per_period: 5,
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
        self.speed * self.period
    }

    /// Micro-tick length (s).
    #[inline]
    pub fn dt(&self) -> f64 {
        self.period / self.ticks_per_period as f64
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
            self.rc, self.rs, self.speed, self.period, self.duration, self.seed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let cfg = SimConfig::paper(60.0, 40.0);
        assert_eq!(cfg.speed, 2.0);
        assert_eq!(cfg.period, 1.0);
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
