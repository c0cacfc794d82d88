//! Recovery metrics for dynamic runs.
//!
//! When a scheduled failure perturbs a run, coverage dips and the
//! scheme heals it. Three numbers characterize each dip: how deep it
//! went, how long it took to climb back to a fraction of the
//! pre-event coverage, and how much movement the healing cost. This
//! module computes them from the stitched coverage timeline and the
//! event records a dynamic run produces — it depends on nothing but
//! plain timelines, so the crate stays dependency-free.

/// What recovery analysis needs to know about one fired event — the
/// record a dynamic run produces per event.
#[derive(Debug, Clone, PartialEq)]
pub struct EventMark {
    /// Simulation time (s) at which the event fired.
    pub time: f64,
    /// Machine-readable event kind (`"fail"`).
    pub kind: String,
    /// Coverage fraction sampled immediately before the event.
    pub pre_coverage: f64,
    /// Coverage fraction sampled immediately after the event.
    pub post_coverage: f64,
    /// Commanded travel distance (m) accumulated from this event to
    /// the end of the run — the movement the recovery cost.
    pub post_move_dist: f64,
}

/// The recovery story of one event: the dip depth, the climb-back
/// time and the movement bill.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryStat {
    /// Simulation time (s) at which the event fired.
    pub event_time: f64,
    /// Machine-readable event kind.
    pub kind: String,
    /// Coverage immediately before the event.
    pub pre_coverage: f64,
    /// Coverage immediately after the event.
    pub post_coverage: f64,
    /// Minimum coverage between this event and the next (or the end
    /// of the run) — the bottom of the dip.
    pub min_coverage: f64,
    /// Seconds from the event until coverage first returns to
    /// `recovery_frac · pre_coverage`, searching to the end of the
    /// run; `None` if it never does.
    pub recovery_time: Option<f64>,
    /// Commanded travel distance (m) spent after the event.
    pub post_move_dist: f64,
}

/// Computes per-event recovery statistics from a `(time, coverage)`
/// timeline and the events that fired during it.
///
/// For each event, `min_coverage` is taken over the window from the
/// event to the next event (exclusive) or the end of the run — a
/// later event's dip is its own story. `recovery_time` searches past
/// later events to the end of the run: recovery interrupted by a
/// second failure and completed afterwards still counts, with the
/// waiting time included. Samples at exactly the event instant count
/// toward the window (the runner pushes a post-event sample there).
pub fn recovery_stats(
    timeline: &[(f64, f64)],
    events: &[EventMark],
    recovery_frac: f64,
) -> Vec<RecoveryStat> {
    events
        .iter()
        .enumerate()
        .map(|(k, e)| {
            // The runner pushes a pre-event sample and a post-event
            // sample at the same instant; analysis starts at the
            // post-event one (the last sample at exactly the event
            // time), so the pre-event sample can neither count as
            // instant recovery nor leak into the dip window.
            let mut start = timeline.partition_point(|&(t, _)| t < e.time);
            while start + 1 < timeline.len() && timeline[start + 1].0 == e.time {
                start += 1;
            }
            let window_end = events.get(k + 1).map(|n| n.time);
            let min_coverage = timeline[start.min(timeline.len())..]
                .iter()
                .take_while(|&&(t, _)| window_end.is_none_or(|w| t < w))
                .map(|&(_, c)| c)
                .fold(e.post_coverage, f64::min);
            let threshold = recovery_frac * e.pre_coverage;
            let recovery_time = timeline[start.min(timeline.len())..]
                .iter()
                .find(|&&(_, c)| c >= threshold)
                .map(|&(t, _)| t - e.time);
            RecoveryStat {
                event_time: e.time,
                kind: e.kind.clone(),
                pre_coverage: e.pre_coverage,
                post_coverage: e.post_coverage,
                min_coverage,
                recovery_time,
                post_move_dist: e.post_move_dist,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mark(time: f64, pre: f64, post: f64) -> EventMark {
        EventMark {
            time,
            kind: "fail".to_string(),
            pre_coverage: pre,
            post_coverage: post,
            post_move_dist: 10.0,
        }
    }

    #[test]
    fn single_dip_recovers() {
        let timeline = vec![
            (0.0, 0.2),
            (10.0, 0.8),
            (10.0, 0.5), // post-event sample
            (15.0, 0.45),
            (20.0, 0.7),
            (25.0, 0.78),
        ];
        let stats = recovery_stats(&timeline, &[mark(10.0, 0.8, 0.5)], 0.95);
        assert_eq!(stats.len(), 1);
        let s = &stats[0];
        assert_eq!(s.min_coverage, 0.45);
        // threshold 0.76: first reached at t=25
        assert_eq!(s.recovery_time, Some(15.0));
        assert_eq!(s.post_move_dist, 10.0);
    }

    #[test]
    fn unrecovered_dip_has_no_time() {
        let timeline = vec![(0.0, 0.9), (10.0, 0.9), (10.0, 0.4), (20.0, 0.6)];
        let stats = recovery_stats(&timeline, &[mark(10.0, 0.9, 0.4)], 0.95);
        assert_eq!(stats[0].recovery_time, None);
        assert_eq!(stats[0].min_coverage, 0.4);
    }

    #[test]
    fn windows_split_at_the_next_event_but_recovery_searches_past_it() {
        let timeline = vec![
            (0.0, 0.8),
            (10.0, 0.8),
            (10.0, 0.5),
            (15.0, 0.6),
            (20.0, 0.6),
            (20.0, 0.3), // second failure
            (30.0, 0.85),
        ];
        let events = vec![mark(10.0, 0.8, 0.5), mark(20.0, 0.6, 0.3)];
        let stats = recovery_stats(&timeline, &events, 0.95);
        // first dip bottoms at 0.5 inside its own window, not 0.3
        assert_eq!(stats[0].min_coverage, 0.5);
        // but its recovery (threshold 0.76) happens after event 2
        assert_eq!(stats[0].recovery_time, Some(20.0));
        assert_eq!(stats[1].min_coverage, 0.3);
        // second dip: threshold 0.57, reached at t=30
        assert_eq!(stats[1].recovery_time, Some(10.0));
    }

    #[test]
    fn instant_recovery_when_dip_stays_above_threshold() {
        // a tiny event that never drops below the threshold recovers
        // at the post-event sample itself
        let timeline = vec![(0.0, 0.8), (10.0, 0.8), (10.0, 0.79)];
        let stats = recovery_stats(&timeline, &[mark(10.0, 0.8, 0.79)], 0.95);
        assert_eq!(stats[0].recovery_time, Some(0.0));
    }

    #[test]
    fn empty_events_empty_stats() {
        assert!(recovery_stats(&[(0.0, 0.5)], &[], 0.95).is_empty());
    }
}
