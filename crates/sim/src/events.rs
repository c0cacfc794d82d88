//! Seeded, deterministic mid-run sensor failures.
//!
//! A dynamic run is a static run interrupted at scheduled instants
//! where a fraction of the alive fleet fails (battery death, damage).
//! The schedule lives in the scenario spec; execution draws every
//! random choice (which sensors fail, restarted segment seeds) from
//! [`event_stream_seed`] over a dedicated per-run event seed, so
//! batches stay byte-identical at any thread count and across
//! `--resume`.

/// One scheduled failure: a uniformly random `frac` of the alive
/// fleet dies at `time`.
#[derive(Debug, Clone, PartialEq)]
pub struct DynEvent {
    /// Simulation time (s) at which the failure fires; strictly inside
    /// `(0, duration)`.
    pub time: f64,
    /// Fraction of the alive fleet that fails, in `(0, 1]`.
    pub frac: f64,
}

impl DynEvent {
    /// The event kind tag (the TOML `kind` value and the recovery
    /// records' `kind`): failure is the one kind.
    pub const KIND: &'static str = "fail";

    /// How many of `alive` sensors fail: `frac` of them rounded down,
    /// but at least one when anything is alive.
    pub fn fail_count(&self, alive: usize) -> usize {
        let k = (self.frac * alive as f64).floor() as usize;
        if k == 0 && self.frac > 0.0 && alive > 0 {
            1
        } else {
            k.min(alive)
        }
    }
}

/// A complete event schedule plus the recovery threshold used by the
/// recovery metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct EventSchedule {
    /// Events in non-decreasing time order.
    pub events: Vec<DynEvent>,
    /// A dip counts as recovered once coverage returns to this
    /// fraction of its pre-event value (default 0.95).
    pub recovery_frac: f64,
}

impl EventSchedule {
    /// The default recovery threshold: 95 % of pre-event coverage.
    pub const DEFAULT_RECOVERY_FRAC: f64 = 0.95;

    /// A schedule over the given events with the default threshold.
    pub fn new(events: Vec<DynEvent>) -> Self {
        EventSchedule {
            events,
            recovery_frac: Self::DEFAULT_RECOVERY_FRAC,
        }
    }

    /// Validates times (finite, strictly increasing¹ within
    /// `(0, duration)`) and the recovery fraction. ¹Non-decreasing:
    /// several events may share an instant and fire in schedule order.
    pub fn validate(&self, duration: f64) -> Result<(), String> {
        if !(self.recovery_frac > 0.0 && self.recovery_frac <= 1.0) {
            return Err(format!(
                "dynamics.recovery_frac must be in (0, 1], got {}",
                self.recovery_frac
            ));
        }
        let mut prev = 0.0;
        for (i, e) in self.events.iter().enumerate() {
            if !e.time.is_finite() || e.time <= 0.0 || e.time >= duration {
                return Err(format!(
                    "dynamics event {i} time {} must lie strictly inside (0, {duration})",
                    e.time
                ));
            }
            if e.time < prev {
                return Err(format!(
                    "dynamics event {i} time {} is earlier than its predecessor {prev}",
                    e.time
                ));
            }
            prev = e.time;
            if !(e.frac > 0.0 && e.frac <= 1.0) {
                return Err(format!(
                    "dynamics event {i} frac {} must be in (0, 1]",
                    e.frac
                ));
            }
        }
        Ok(())
    }
}

/// SplitMix64 step — the same generator the scenario layer uses for
/// matrix-coordinate seed derivation.
fn split_mix_64(state: &mut u64) {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    *state = z ^ (z >> 31);
}

/// Derives the `k`-th independent stream from a per-run event seed.
/// Stream 0 seeds the victim-selection RNG of event index 0,
/// stream 1 event index 1, and so on; stream `1_000_000 + k` seeds
/// the restarted scheme segment that begins after event index `k`. The
/// derivation is pure, so any thread (or a resumed process) computing
/// the same `(event_seed, k)` gets the same stream.
pub fn event_stream_seed(event_seed: u64, k: u64) -> u64 {
    let mut s = event_seed ^ 0xd1b5_4a32_d192_ed03;
    split_mix_64(&mut s);
    let mut s = s ^ k.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    split_mix_64(&mut s);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fail_at(t: f64) -> DynEvent {
        DynEvent { time: t, frac: 0.2 }
    }

    #[test]
    fn fail_count_resolution() {
        let fail = |frac| DynEvent { time: 1.0, frac };
        assert_eq!(fail(0.25).fail_count(10), 2);
        assert_eq!(fail(1.0).fail_count(10), 10);
        assert_eq!(
            fail(0.01).fail_count(10),
            1,
            "positive frac kills at least one"
        );
        assert_eq!(fail(0.5).fail_count(0), 0);
    }

    #[test]
    fn validation_rejects_bad_schedules() {
        let dur = 100.0;
        assert!(EventSchedule::new(vec![fail_at(10.0)])
            .validate(dur)
            .is_ok());
        assert!(EventSchedule::new(vec![fail_at(0.0)])
            .validate(dur)
            .is_err());
        assert!(EventSchedule::new(vec![fail_at(100.0)])
            .validate(dur)
            .is_err());
        assert!(EventSchedule::new(vec![fail_at(20.0), fail_at(10.0)])
            .validate(dur)
            .is_err());
        let mut s = EventSchedule::new(vec![fail_at(10.0)]);
        s.recovery_frac = 0.0;
        assert!(s.validate(dur).is_err());
        for frac in [0.0, 1.5, f64::NAN] {
            let bad_frac = EventSchedule::new(vec![DynEvent { time: 5.0, frac }]);
            assert!(bad_frac.validate(dur).is_err(), "frac {frac}");
        }
    }

    #[test]
    fn stream_seeds_are_distinct_and_stable() {
        let a = event_stream_seed(42, 0);
        let b = event_stream_seed(42, 1);
        let c = event_stream_seed(43, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, event_stream_seed(42, 0), "pure function of (seed, k)");
    }
}
