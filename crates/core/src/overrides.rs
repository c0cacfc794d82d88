//! Declarative, partial parameter overrides for the swept schemes.
//!
//! The scenario engine sweeps *parameters* as well as schemes: a
//! [`SchemeOverrides`] names only the knobs a spec wants to change and
//! resolves against each scheme's defaults at run time. The knobs are
//! the ones the paper's §6 experiments sweep: FLOOR's invitation TTL
//! (Table 1, as an absolute hop count or as a fraction of the network
//! size, `TTL = 0.1N ... 0.4N`), FLOOR's BLG/IFLG guides (the
//! ablation) and CPVF's oscillation avoidance (Fig. 12).

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
/// resolve to each scheme's defaults.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SchemeOverrides {
    /// FLOOR overrides.
    pub floor: FloorOverrides,
    /// CPVF overrides.
    pub cpvf: CpvfOverrides,
}

impl SchemeOverrides {
    /// The plain knobs of every scheme's table, keyed by the table's
    /// name (`floor`, `cpvf` — the `[variants.*]` sections). CPVF's one
    /// knob, `oscillation`, is two TOML keys and its codec is written
    /// by hand, so its table lists no plain knobs.
    pub fn knob_tables(&mut self) -> [(&'static str, Vec<(&'static str, Slot<'_>)>); 2] {
        [("floor", self.floor.slots()), ("cpvf", Vec::new())]
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
        }
    }

    /// Resolved CPVF parameters.
    pub fn cpvf_params(&self) -> CpvfParams {
        CpvfParams {
            oscillation: self.cpvf.oscillation.unwrap_or_default(),
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
