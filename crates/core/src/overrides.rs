//! Declarative, partial parameter overrides for every scheme.
//!
//! The scenario engine sweeps *parameters* as well as schemes: a
//! [`SchemeOverrides`] names only the knobs a spec wants to change
//! (FLOOR's invitation TTL, CPVF's backoff and force constants, the
//! Voronoi round budget, ...) and resolves against each scheme's
//! defaults at run time. Overrides merge — a sweep-cell variant wins
//! over a scenario-wide base — and FLOOR's TTL can be given as an
//! absolute hop count or as a fraction of the network size (Table 1
//! sweeps `TTL = 0.1N ... 0.4N`).

use crate::cpvf::{CpvfParams, ForceParams, OscillationAvoidance};
use crate::floor::FloorParams;
use crate::opt::OptParams;
use crate::vd::VdParams;
use msn_sim::SimConfig;

/// A typed view of one override knob, as handed out by each override
/// table's `slots`. Codecs (the scenario TOML reader and writer) walk
/// these `(key, slot)` pairs instead of naming fields, so a knob is
/// declared once, in its table beside the structs, and nowhere else.
#[derive(Debug)]
pub enum Slot<'a> {
    /// A real-valued knob.
    F64(&'a mut Option<f64>),
    /// A count knob.
    Usize(&'a mut Option<usize>),
    /// A 32-bit count knob.
    U32(&'a mut Option<u32>),
    /// A switch.
    Bool(&'a mut Option<bool>),
}

macro_rules! slot_from {
    ($($variant:ident($ty:ty)),*) => {$(
        impl<'a> From<&'a mut Option<$ty>> for Slot<'a> {
            fn from(slot: &'a mut Option<$ty>) -> Self {
                Slot::$variant(slot)
            }
        }
    )*};
}
slot_from!(F64(f64), Usize(usize), U32(u32), Bool(bool));

/// Declares an override table: the struct (every field an `Option`,
/// unset = scheme default), its field-wise `merged_over` and its
/// `slots` view. Knobs before the optional `by_hand` block are plain
/// [`Slot`]s; `by_hand` fields merge like the others but are left out
/// of `slots`, so their codec is written by hand.
macro_rules! overrides {
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $($(#[$kmeta:meta])* $knob:ident: $kty:ty,)*
        }
        $(by_hand { $($(#[$xmeta:meta])* $extra:ident: $xty:ty,)* })?
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, PartialEq, Default)]
        pub struct $name {
            $($(#[$kmeta])* pub $knob: Option<$kty>,)*
            $($($(#[$xmeta])* pub $extra: Option<$xty>,)*)?
        }

        impl $name {
            /// Field-wise merge: fields set in `self` win.
            fn merged_over(&self, base: &$name) -> $name {
                $name {
                    $($knob: self.$knob.or(base.$knob),)*
                    $($($extra: self.$extra.or(base.$extra),)*)?
                }
            }

            /// Every plain knob as `(key, slot)`, in declaration order.
            pub fn slots(&mut self) -> Vec<(&'static str, Slot<'_>)> {
                vec![$((stringify!($knob), Slot::from(&mut self.$knob)),)*]
            }
        }
    };
}

overrides! {
    /// FLOOR knob overrides (see [`FloorParams`] for semantics).
    pub struct FloorOverrides {
        /// Absolute invitation TTL (hops). Mutually exclusive with
        /// [`FloorOverrides::ttl_frac`].
        ttl: usize,
        /// Invitation TTL as a fraction of the sensor count: the run uses
        /// `max(1, round(frac * n))` (Table 1's `TTL = 0.1N ... 0.4N`).
        ttl_frac: f64,
        /// Invitations a movable sensor collects before committing.
        quorum: usize,
        /// Periods a movable waits with a non-empty inbox.
        patience: u32,
        /// Movable-classification exclusive-coverage threshold.
        movable_threshold: f64,
        /// Phase 2 start as a fraction of the run duration.
        phase1_timeout_frac: f64,
        /// Unanswered invitations per EP before giving up.
        max_invites_per_ep: u32,
        /// Concurrent expansion points per fixed node.
        max_concurrent_eps: usize,
        /// Consecutive idle periods before a fixed node stops checking.
        idle_stop_periods: u32,
        /// Boundary-guided expansion (ablation switch).
        enable_blg: bool,
        /// Inter-floor-line-guided expansion (ablation switch).
        enable_iflg: bool,
    }
}

overrides! {
    /// CPVF knob overrides (see [`CpvfParams`] / [`ForceParams`]).
    pub struct CpvfOverrides {
        /// Upper bound of the random start delay (s).
        backoff_max: f64,
        /// Allow parent switching when a sensor cannot move.
        allow_parent_change: bool,
        /// Neighbor repulsion threshold (m); default `min(rc, 2·rs)`.
        neighbor_threshold: f64,
        /// Gain of neighbor repulsion.
        neighbor_gain: f64,
        /// Obstacle repulsion range (m); default `min(rs, rc)`.
        obstacle_range: f64,
        /// Gain of obstacle repulsion.
        obstacle_gain: f64,
        /// Boundary repulsion range (m).
        boundary_range: f64,
        /// Gain of boundary repulsion.
        boundary_gain: f64,
        /// Equilibrium force threshold.
        min_force: f64,
    }
    by_hand {
        /// Oscillation-avoidance technique (§6.3); in TOML a kind plus
        /// its `delta`.
        oscillation: OscillationAvoidance,
    }
}

impl CpvfOverrides {
    fn touches_force(&self) -> bool {
        self.neighbor_threshold.is_some()
            || self.neighbor_gain.is_some()
            || self.obstacle_range.is_some()
            || self.obstacle_gain.is_some()
            || self.boundary_range.is_some()
            || self.boundary_gain.is_some()
            || self.min_force.is_some()
    }
}

overrides! {
    /// VOR/Minimax knob overrides (see [`VdParams`]).
    pub struct VdOverrides {
        /// Movement rounds after the explosion.
        rounds: usize,
        /// VOR's per-round movement cap as a fraction of `rc`.
        step_cap_frac: f64,
        /// Run the explosion phase.
        explode: bool,
    }
}

overrides! {
    /// OPT knob overrides (see [`OptParams`]).
    pub struct OptOverrides {
        /// Safety factor applied to connector spacing.
        connector_slack: f64,
    }
}

/// A partial override set across all schemes. Unset fields resolve to
/// each scheme's defaults; [`SchemeOverrides::merged_over`] stacks a
/// sweep-cell variant on a scenario-wide base.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SchemeOverrides {
    /// FLOOR overrides.
    pub floor: FloorOverrides,
    /// CPVF overrides.
    pub cpvf: CpvfOverrides,
    /// VOR/Minimax overrides.
    pub vd: VdOverrides,
    /// OPT overrides.
    pub opt: OptOverrides,
}

impl SchemeOverrides {
    /// Returns `self` stacked over `base`: fields set in `self` win,
    /// fields unset in `self` fall through to `base`.
    #[must_use]
    pub fn merged_over(&self, base: &SchemeOverrides) -> SchemeOverrides {
        let mut floor = self.floor.merged_over(&base.floor);
        // ttl and ttl_frac are one logical knob: a variant that sets
        // either supersedes the base's TTL choice entirely, so a base
        // `ttl = 8` cannot shadow a variant's `ttl_frac` sweep.
        if self.floor.ttl.is_some() || self.floor.ttl_frac.is_some() {
            (floor.ttl, floor.ttl_frac) = (self.floor.ttl, self.floor.ttl_frac);
        }
        SchemeOverrides {
            floor,
            cpvf: self.cpvf.merged_over(&base.cpvf),
            vd: self.vd.merged_over(&base.vd),
            opt: self.opt.merged_over(&base.opt),
        }
    }

    /// The plain knobs of every scheme's table, keyed by the table's
    /// name (`floor`, `cpvf`, `vd`, `opt` — the `[params.*]` sections).
    pub fn knob_tables(&mut self) -> [(&'static str, Vec<(&'static str, Slot<'_>)>); 4] {
        [
            ("floor", self.floor.slots()),
            ("cpvf", self.cpvf.slots()),
            ("vd", self.vd.slots()),
            ("opt", self.opt.slots()),
        ]
    }

    /// Whether no field is overridden.
    pub fn is_default(&self) -> bool {
        *self == SchemeOverrides::default()
    }

    /// Checks internal consistency, returning the first problem.
    pub fn validate(&self) -> Result<(), String> {
        if self.floor.ttl.is_some() && self.floor.ttl_frac.is_some() {
            return Err("floor.ttl and floor.ttl_frac are mutually exclusive".into());
        }
        if let Some(f) = self.floor.ttl_frac {
            if !(f.is_finite() && f > 0.0) {
                return Err("floor.ttl_frac must be positive".into());
            }
        }
        if self.floor.ttl == Some(0) {
            return Err("floor.ttl must be at least 1".into());
        }
        if self.floor.quorum == Some(0) {
            return Err("floor.quorum must be at least 1".into());
        }
        // every real-valued knob is a range, gain, time or fraction
        for (table, knobs) in self.clone().knob_tables() {
            for (key, slot) in knobs {
                if let Slot::F64(Some(v)) = slot {
                    if !(v.is_finite() && *v >= 0.0) {
                        return Err(format!("{table}.{key} must be finite and non-negative"));
                    }
                }
            }
        }
        if let Some(
            OscillationAvoidance::OneStep { delta } | OscillationAvoidance::TwoStep { delta },
        ) = self.cpvf.oscillation
        {
            if !(delta.is_finite() && delta > 0.0) {
                return Err("cpvf oscillation delta must be positive".into());
            }
        }
        Ok(())
    }

    /// Resolved FLOOR parameters for a run of `n` sensors.
    pub fn floor_params(&self, n: usize) -> FloorParams {
        let d = FloorParams::default();
        let o = &self.floor;
        let invitation_ttl = match (o.ttl, o.ttl_frac) {
            (Some(ttl), _) => Some(ttl.max(1)),
            (None, Some(frac)) => Some(((n as f64 * frac).round() as usize).max(1)),
            (None, None) => d.invitation_ttl,
        };
        FloorParams {
            invitation_ttl,
            quorum: o.quorum.unwrap_or(d.quorum),
            patience: o.patience.unwrap_or(d.patience),
            movable_threshold: o.movable_threshold.unwrap_or(d.movable_threshold),
            phase1_timeout_frac: o.phase1_timeout_frac.unwrap_or(d.phase1_timeout_frac),
            max_invites_per_ep: o.max_invites_per_ep.unwrap_or(d.max_invites_per_ep),
            max_concurrent_eps: o.max_concurrent_eps.unwrap_or(d.max_concurrent_eps),
            idle_stop_periods: o.idle_stop_periods.unwrap_or(d.idle_stop_periods),
            snapshot_every: d.snapshot_every,
            enable_blg: o.enable_blg.unwrap_or(d.enable_blg),
            enable_iflg: o.enable_iflg.unwrap_or(d.enable_iflg),
        }
    }

    /// Resolved CPVF parameters under `cfg`'s radio ranges.
    pub fn cpvf_params(&self, cfg: &SimConfig) -> CpvfParams {
        let d = CpvfParams::default();
        let o = &self.cpvf;
        let force = if o.touches_force() {
            let f = ForceParams::for_ranges(cfg.rc, cfg.rs);
            Some(ForceParams {
                neighbor_threshold: o.neighbor_threshold.unwrap_or(f.neighbor_threshold),
                neighbor_gain: o.neighbor_gain.unwrap_or(f.neighbor_gain),
                obstacle_range: o.obstacle_range.unwrap_or(f.obstacle_range),
                obstacle_gain: o.obstacle_gain.unwrap_or(f.obstacle_gain),
                boundary_range: o.boundary_range.unwrap_or(f.boundary_range),
                boundary_gain: o.boundary_gain.unwrap_or(f.boundary_gain),
                min_force: o.min_force.unwrap_or(f.min_force),
            })
        } else {
            d.force.clone()
        };
        CpvfParams {
            force,
            oscillation: o.oscillation.unwrap_or(d.oscillation),
            backoff_max: o.backoff_max.unwrap_or(d.backoff_max),
            allow_parent_change: o.allow_parent_change.unwrap_or(d.allow_parent_change),
            snapshot_every: d.snapshot_every,
        }
    }

    /// Resolved VOR/Minimax parameters.
    pub fn vd_params(&self) -> VdParams {
        let d = VdParams::default();
        let o = &self.vd;
        VdParams {
            rounds: o.rounds.unwrap_or(d.rounds),
            step_cap_frac: o.step_cap_frac.unwrap_or(d.step_cap_frac),
            explode: o.explode.unwrap_or(d.explode),
        }
    }

    /// Resolved OPT parameters.
    pub fn opt_params(&self) -> OptParams {
        let d = OptParams::default();
        OptParams {
            connector_slack: self.opt.connector_slack.unwrap_or(d.connector_slack),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_overrides_resolve_to_scheme_defaults() {
        let o = SchemeOverrides::default();
        assert!(o.is_default());
        assert!(o.validate().is_ok());
        assert_eq!(o.floor_params(240), FloorParams::default());
        assert_eq!(o.vd_params(), VdParams::default());
        assert_eq!(o.opt_params(), OptParams::default());
        let cfg = SimConfig::paper(60.0, 40.0);
        let cpvf = o.cpvf_params(&cfg);
        assert_eq!(cpvf.force, None);
        assert_eq!(cpvf.backoff_max, CpvfParams::default().backoff_max);
    }

    #[test]
    fn negative_real_knobs_are_rejected_by_name() {
        let mut probe = SchemeOverrides::default();
        let names: Vec<String> = probe
            .knob_tables()
            .into_iter()
            .flat_map(|(table, knobs)| {
                knobs
                    .into_iter()
                    .filter(|(_, slot)| matches!(slot, Slot::F64(_)))
                    .map(move |(key, _)| format!("{table}.{key}"))
            })
            .collect();
        assert_eq!(names.len(), 13, "{names:?}");
        for name in names {
            let mut o = SchemeOverrides::default();
            for (table, knobs) in o.knob_tables() {
                for (key, slot) in knobs {
                    if let Slot::F64(v) = slot {
                        if format!("{table}.{key}") == name {
                            *v = Some(-1.0);
                        }
                    }
                }
            }
            let e = o.validate().unwrap_err();
            assert!(e.contains(&name), "{name}: {e}");
        }
    }

    #[test]
    fn ttl_frac_scales_with_n() {
        let o = SchemeOverrides {
            floor: FloorOverrides {
                ttl_frac: Some(0.2),
                ..Default::default()
            },
            ..Default::default()
        };
        assert_eq!(o.floor_params(240).invitation_ttl, Some(48));
        assert_eq!(o.floor_params(3).invitation_ttl, Some(1), "floors at 1");
    }

    #[test]
    fn ttl_and_ttl_frac_conflict_is_rejected() {
        let o = SchemeOverrides {
            floor: FloorOverrides {
                ttl: Some(10),
                ttl_frac: Some(0.2),
                ..Default::default()
            },
            ..Default::default()
        };
        assert!(o.validate().is_err());
    }

    #[test]
    fn variant_ttl_choice_supersedes_base_ttl() {
        // a base absolute TTL must not shadow a variant's fractional
        // sweep (the ttl/ttl_frac pair is one logical knob)
        let base = SchemeOverrides {
            floor: FloorOverrides {
                ttl: Some(8),
                ..Default::default()
            },
            ..Default::default()
        };
        let variant = SchemeOverrides {
            floor: FloorOverrides {
                ttl_frac: Some(0.1),
                ..Default::default()
            },
            ..Default::default()
        };
        let merged = variant.merged_over(&base);
        assert_eq!(merged.floor.ttl, None);
        assert_eq!(merged.floor.ttl_frac, Some(0.1));
        assert!(merged.validate().is_ok());
        assert_eq!(merged.floor_params(240).invitation_ttl, Some(24));
        // and a variant without a TTL choice inherits the base's
        let plain = SchemeOverrides::default().merged_over(&base);
        assert_eq!(plain.floor.ttl, Some(8));
        assert_eq!(plain.floor.ttl_frac, None);
    }

    #[test]
    fn variant_merges_over_base() {
        let base = SchemeOverrides {
            floor: FloorOverrides {
                quorum: Some(3),
                enable_blg: Some(false),
                ..Default::default()
            },
            ..Default::default()
        };
        let variant = SchemeOverrides {
            floor: FloorOverrides {
                enable_blg: Some(true),
                ttl: Some(12),
                ..Default::default()
            },
            ..Default::default()
        };
        let merged = variant.merged_over(&base);
        assert_eq!(merged.floor.quorum, Some(3), "base survives");
        assert_eq!(merged.floor.enable_blg, Some(true), "variant wins");
        assert_eq!(merged.floor.ttl, Some(12));
    }

    #[test]
    fn force_overrides_materialize_force_params() {
        let o = SchemeOverrides {
            cpvf: CpvfOverrides {
                obstacle_gain: Some(3.0),
                ..Default::default()
            },
            ..Default::default()
        };
        let cfg = SimConfig::paper(60.0, 40.0);
        let p = o.cpvf_params(&cfg);
        let f = p.force.expect("force materialized");
        assert_eq!(f.obstacle_gain, 3.0);
        // untouched constants keep their rc/rs-derived defaults
        let d = ForceParams::for_ranges(60.0, 40.0);
        assert_eq!(f.neighbor_threshold, d.neighbor_threshold);
    }

    #[test]
    fn oscillation_override_applies() {
        let o = SchemeOverrides {
            cpvf: CpvfOverrides {
                oscillation: Some(OscillationAvoidance::TwoStep { delta: 4.0 }),
                ..Default::default()
            },
            ..Default::default()
        };
        let p = o.cpvf_params(&SimConfig::paper(60.0, 40.0));
        assert_eq!(p.oscillation, OscillationAvoidance::TwoStep { delta: 4.0 });
        let bad = SchemeOverrides {
            cpvf: CpvfOverrides {
                oscillation: Some(OscillationAvoidance::OneStep { delta: 0.0 }),
                ..Default::default()
            },
            ..Default::default()
        };
        assert!(bad.validate().is_err());
    }
}
