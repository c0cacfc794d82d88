//! Declarative, partial parameter overrides for the swept schemes.
//!
//! The scenario engine sweeps *parameters* as well as schemes: a
//! [`SchemeOverrides`] names only the knobs a spec wants to change and
//! resolves against each scheme's defaults at run time. The knobs are
//! the ones the paper's §6 experiments sweep: FLOOR's invitation TTL
//! (Table 1, as an absolute hop count or as a fraction of the network
//! size, `TTL = 0.1N ... 0.4N`), FLOOR's BLG/IFLG guides (the
//! ablation) and CPVF's oscillation avoidance (Fig. 12). Overrides
//! merge — a sweep-cell variant wins over a scenario-wide base.

use crate::cpvf::{CpvfParams, OscillationAvoidance};
use crate::floor::FloorParams;
use crate::opt::OptParams;

/// A typed view of one override knob, as handed out by
/// [`FloorOverrides::slots`]. Codecs (the scenario TOML reader and
/// writer) walk these `(key, slot)` pairs instead of naming fields, so
/// a knob is declared once, beside the struct, and nowhere else.
#[derive(Debug)]
pub enum Slot<'a> {
    /// A real-valued knob.
    F64(&'a mut Option<f64>),
    /// A count knob.
    Usize(&'a mut Option<usize>),
    /// A switch.
    Bool(&'a mut Option<bool>),
}

/// FLOOR knob overrides (see [`FloorParams`] for semantics); every
/// field unset means the scheme default.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FloorOverrides {
    /// Absolute invitation TTL (hops). Mutually exclusive with
    /// [`FloorOverrides::ttl_frac`].
    pub ttl: Option<usize>,
    /// Invitation TTL as a fraction of the sensor count: the run uses
    /// `max(1, round(frac * n))` (Table 1's `TTL = 0.1N ... 0.4N`).
    pub ttl_frac: Option<f64>,
    /// Boundary-guided expansion (ablation switch).
    pub enable_blg: Option<bool>,
    /// Inter-floor-line-guided expansion (ablation switch).
    pub enable_iflg: Option<bool>,
}

impl FloorOverrides {
    /// Every knob as `(key, slot)`, in declaration order.
    pub fn slots(&mut self) -> Vec<(&'static str, Slot<'_>)> {
        vec![
            ("ttl", Slot::Usize(&mut self.ttl)),
            ("ttl_frac", Slot::F64(&mut self.ttl_frac)),
            ("enable_blg", Slot::Bool(&mut self.enable_blg)),
            ("enable_iflg", Slot::Bool(&mut self.enable_iflg)),
        ]
    }
}

/// CPVF knob overrides (see [`CpvfParams`]).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CpvfOverrides {
    /// Oscillation-avoidance technique (§6.3); in TOML a kind plus
    /// its `delta`.
    pub oscillation: Option<OscillationAvoidance>,
}

/// A partial override set across the swept schemes. Unset fields
/// resolve to each scheme's defaults; [`SchemeOverrides::merged_over`]
/// stacks a sweep-cell variant on a scenario-wide base.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SchemeOverrides {
    /// FLOOR overrides.
    pub floor: FloorOverrides,
    /// CPVF overrides.
    pub cpvf: CpvfOverrides,
}

impl SchemeOverrides {
    /// Returns `self` stacked over `base`: fields set in `self` win,
    /// fields unset in `self` fall through to `base`.
    #[must_use]
    pub fn merged_over(&self, base: &SchemeOverrides) -> SchemeOverrides {
        let (o, b) = (&self.floor, &base.floor);
        // ttl and ttl_frac are one logical knob: a variant that sets
        // either supersedes the base's TTL choice entirely, so a base
        // `ttl = 8` cannot shadow a variant's `ttl_frac` sweep.
        let (ttl, ttl_frac) = if o.ttl.is_some() || o.ttl_frac.is_some() {
            (o.ttl, o.ttl_frac)
        } else {
            (b.ttl, b.ttl_frac)
        };
        SchemeOverrides {
            floor: FloorOverrides {
                ttl,
                ttl_frac,
                enable_blg: o.enable_blg.or(b.enable_blg),
                enable_iflg: o.enable_iflg.or(b.enable_iflg),
            },
            cpvf: CpvfOverrides {
                oscillation: self.cpvf.oscillation.or(base.cpvf.oscillation),
            },
        }
    }

    /// The plain knobs of every scheme's table, keyed by the table's
    /// name (`floor`, `cpvf` — the `[params.*]` sections). CPVF's one
    /// knob, `oscillation`, is two TOML keys and its codec is written
    /// by hand, so its table lists no plain knobs.
    pub fn knob_tables(&mut self) -> [(&'static str, Vec<(&'static str, Slot<'_>)>); 2] {
        [("floor", self.floor.slots()), ("cpvf", Vec::new())]
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
            enable_blg: o.enable_blg.unwrap_or(d.enable_blg),
            enable_iflg: o.enable_iflg.unwrap_or(d.enable_iflg),
            ..d
        }
    }

    /// Resolved CPVF parameters.
    pub fn cpvf_params(&self) -> CpvfParams {
        let d = CpvfParams::default();
        CpvfParams {
            oscillation: self.cpvf.oscillation.unwrap_or(d.oscillation),
            ..d
        }
    }

    /// Resolved OPT parameters: OPT has no spec knobs, so always its
    /// defaults.
    pub fn opt_params(&self) -> OptParams {
        OptParams::default()
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
        assert_eq!(o.cpvf_params(), CpvfParams::default());
        assert_eq!(o.opt_params(), OptParams::default());
    }

    #[test]
    fn negative_real_knobs_are_rejected_by_name() {
        // the two real-valued knobs: FLOOR's fractional TTL and the
        // oscillation delta
        let frac = SchemeOverrides {
            floor: FloorOverrides {
                ttl_frac: Some(-1.0),
                ..Default::default()
            },
            ..Default::default()
        };
        let e = frac.validate().unwrap_err();
        assert!(e.contains("floor.ttl_frac"), "{e}");
        let delta = SchemeOverrides {
            cpvf: CpvfOverrides {
                oscillation: Some(OscillationAvoidance::TwoStep { delta: -1.0 }),
            },
            ..Default::default()
        };
        let e = delta.validate().unwrap_err();
        assert!(e.contains("delta"), "{e}");
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
                enable_iflg: Some(false),
                enable_blg: Some(false),
                ..Default::default()
            },
            cpvf: CpvfOverrides {
                oscillation: Some(OscillationAvoidance::Off),
            },
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
        assert_eq!(merged.floor.enable_iflg, Some(false), "base survives");
        assert_eq!(merged.cpvf.oscillation, Some(OscillationAvoidance::Off));
        assert_eq!(merged.floor.enable_blg, Some(true), "variant wins");
        assert_eq!(merged.floor.ttl, Some(12));
    }

    #[test]
    fn oscillation_override_applies() {
        let o = SchemeOverrides {
            cpvf: CpvfOverrides {
                oscillation: Some(OscillationAvoidance::TwoStep { delta: 4.0 }),
            },
            ..Default::default()
        };
        let p = o.cpvf_params();
        assert_eq!(p.oscillation, OscillationAvoidance::TwoStep { delta: 4.0 });
        let bad = SchemeOverrides {
            cpvf: CpvfOverrides {
                oscillation: Some(OscillationAvoidance::OneStep { delta: 0.0 }),
            },
            ..Default::default()
        };
        assert!(bad.validate().is_err());
    }
}
