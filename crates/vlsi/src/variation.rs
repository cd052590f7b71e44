//! Process-variation corners and per-device deviation draws.
//!
//! The paper (§3.1) models two sources of variation:
//!
//! * **Gate length (L)** — systematic across the die, handled with a 3-level
//!   quad-tree correlation model ([`crate::quadtree`]), plus a die-to-die
//!   Gaussian shift. σ(L)/L = 5 % within-die for the *typical* corner, 7 %
//!   for the *severe* corner; σ(L)/L = 5 % die-to-die for both.
//! * **Threshold voltage (Vth)** — random dopant fluctuation, independent
//!   per device. σ(Vth)/Vth = 10 % (typical) or 15 % (severe).
//!
//! Gate-length deviation also shifts Vth through the short-channel effect;
//! [`DeviceDeviation::vth_total`] folds that in.
//!
//! # Examples
//!
//! ```
//! use vlsi::variation::VariationCorner;
//!
//! let typical = VariationCorner::Typical.params();
//! assert_eq!(typical.sigma_l_wid_frac, 0.05);
//! assert_eq!(typical.sigma_vth_frac, 0.10);
//! ```

use crate::tech::TechNode;
use crate::units::Voltage;
use std::fmt;

/// Short-channel coupling: ΔVth per unit fractional gate-length deviation.
///
/// A 1 % shorter channel lowers Vth by roughly 1.5 mV-per-percent·Vth-scale
/// in aggressively scaled nodes; expressed here as a dimensionless factor on
/// `Vth_nominal`: `ΔVth_sce = -SCE_COUPLING * (ΔL/L) * Vth_nominal`.
pub const SCE_COUPLING: f64 = 0.5;

/// σ scaling when a transistor's width *and* length are both doubled (the
/// "2X 6T" cell): random dopant σ(Vth) scales as `1/sqrt(W·L)` (Pelgrom's
/// law), so quadrupled area halves it.
pub const AREA_SIGMA_SCALE_2X: f64 = 0.5;

/// The standard-deviation fractions describing one variation scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VariationParams {
    /// Within-die gate-length σ as a fraction of nominal L.
    pub sigma_l_wid_frac: f64,
    /// Die-to-die gate-length σ as a fraction of nominal L.
    pub sigma_l_d2d_frac: f64,
    /// Random-dopant threshold-voltage σ as a fraction of nominal Vth.
    pub sigma_vth_frac: f64,
}

impl VariationParams {
    /// A scenario with no variation at all (the "ideal"/golden corner).
    pub const NONE: VariationParams = VariationParams {
        sigma_l_wid_frac: 0.0,
        sigma_l_d2d_frac: 0.0,
        sigma_vth_frac: 0.0,
    };

    /// Typical corner: σL/L = 5 % within-die, σVth/Vth = 10 %.
    pub const TYPICAL: VariationParams = VariationParams {
        sigma_l_wid_frac: 0.05,
        sigma_l_d2d_frac: 0.05,
        sigma_vth_frac: 0.10,
    };

    /// Severe corner: σL/L = 7 % within-die, σVth/Vth = 15 %.
    pub const SEVERE: VariationParams = VariationParams {
        sigma_l_wid_frac: 0.07,
        sigma_l_d2d_frac: 0.05,
        sigma_vth_frac: 0.15,
    };

    /// Absolute random-dopant σ(Vth) for a node.
    pub fn sigma_vth(&self, node: TechNode) -> Voltage {
        node.vth_nominal() * self.sigma_vth_frac
    }

    /// Returns a copy with every σ scaled by `factor` (used by the
    /// sensitivity sweep in §5 and by the 2X-cell area law).
    pub fn scaled(&self, factor: f64) -> VariationParams {
        assert!(factor >= 0.0, "scale factor must be non-negative");
        VariationParams {
            sigma_l_wid_frac: self.sigma_l_wid_frac * factor,
            sigma_l_d2d_frac: self.sigma_l_d2d_frac * factor,
            sigma_vth_frac: self.sigma_vth_frac * factor,
        }
    }
}

/// Named variation scenarios from the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum VariationCorner {
    /// No variation (golden design).
    None,
    /// Typical variation (§3.1): 5 % L, 10 % Vth.
    #[default]
    Typical,
    /// Severe variation (§3.1): 7 % L, 15 % Vth.
    Severe,
}

impl VariationCorner {
    /// The σ parameters for this corner.
    pub fn params(self) -> VariationParams {
        match self {
            VariationCorner::None => VariationParams::NONE,
            VariationCorner::Typical => VariationParams::TYPICAL,
            VariationCorner::Severe => VariationParams::SEVERE,
        }
    }
}

impl fmt::Display for VariationCorner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            VariationCorner::None => "none",
            VariationCorner::Typical => "typical",
            VariationCorner::Severe => "severe",
        };
        f.write_str(s)
    }
}

impl std::str::FromStr for VariationCorner {
    type Err = String;

    /// Parses the [`fmt::Display`] form (`none`/`typical`/`severe`) —
    /// scenario stage params round-trip through this.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "none" => Ok(VariationCorner::None),
            "typical" => Ok(VariationCorner::Typical),
            "severe" => Ok(VariationCorner::Severe),
            other => Err(format!("unknown variation corner {other:?}")),
        }
    }
}

/// The deviation of a single transistor from nominal.
///
/// `dl_frac` is the *total* fractional gate-length deviation (die-to-die +
/// correlated within-die), and `dvth_random` the random-dopant threshold
/// shift. The short-channel coupling from `dl_frac` into Vth is applied on
/// read via [`DeviceDeviation::vth_total`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DeviceDeviation {
    /// Fractional gate-length deviation ΔL/L (positive = longer channel).
    pub dl_frac: f64,
    /// Random-dopant threshold deviation.
    pub dvth_random: Voltage,
}

impl DeviceDeviation {
    /// A device exactly at nominal.
    pub const NOMINAL: DeviceDeviation = DeviceDeviation {
        dl_frac: 0.0,
        dvth_random: Voltage::ZERO,
    };

    /// Total threshold-voltage deviation: random dopant component plus the
    /// short-channel shift induced by the gate-length deviation (shorter
    /// channel → lower Vth).
    pub fn vth_total(&self, node: TechNode) -> Voltage {
        // Longer channel → less barrier lowering → higher Vth, and
        // vice versa (the short-channel effect).
        self.dvth_random + node.vth_nominal() * (SCE_COUPLING * self.dl_frac)
    }

    /// Effective gate length deviation as an absolute multiplier on L
    /// (1.0 = nominal).
    pub fn length_multiplier(&self) -> f64 {
        1.0 + self.dl_frac
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corner_params_match_paper() {
        let t = VariationCorner::Typical.params();
        assert_eq!(t.sigma_l_wid_frac, 0.05);
        assert_eq!(t.sigma_l_d2d_frac, 0.05);
        assert_eq!(t.sigma_vth_frac, 0.10);
        let s = VariationCorner::Severe.params();
        assert_eq!(s.sigma_l_wid_frac, 0.07);
        assert_eq!(s.sigma_l_d2d_frac, 0.05);
        assert_eq!(s.sigma_vth_frac, 0.15);
        let n = VariationCorner::None.params();
        assert_eq!(n.sigma_vth_frac, 0.0);
    }

    #[test]
    fn sigma_vth_absolute_value() {
        let p = VariationCorner::Typical.params();
        let s = p.sigma_vth(TechNode::N32);
        assert!((s.volts() - 0.026).abs() < 1e-12);
    }

    #[test]
    fn scaled_multiplies_all_sigmas() {
        let p = VariationParams::TYPICAL.scaled(2.0);
        assert_eq!(p.sigma_l_wid_frac, 0.10);
        assert_eq!(p.sigma_l_d2d_frac, 0.10);
        assert_eq!(p.sigma_vth_frac, 0.20);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn scaled_rejects_negative() {
        let _ = VariationParams::TYPICAL.scaled(-1.0);
    }

    #[test]
    fn shorter_channel_lowers_vth() {
        // dl_frac < 0 (shorter channel) must lower total Vth.
        let dev = DeviceDeviation {
            dl_frac: -0.10,
            dvth_random: Voltage::ZERO,
        };
        assert!(dev.vth_total(TechNode::N32).volts() < 0.0);
        // dl_frac > 0 (longer channel) raises Vth.
        let dev = DeviceDeviation {
            dl_frac: 0.10,
            dvth_random: Voltage::ZERO,
        };
        assert!(dev.vth_total(TechNode::N32).volts() > 0.0);
    }

    #[test]
    fn vth_total_adds_random_component() {
        let dev = DeviceDeviation {
            dl_frac: 0.0,
            dvth_random: Voltage::from_mv(30.0),
        };
        assert!((dev.vth_total(TechNode::N32).mv() - 30.0).abs() < 1e-9);
    }

    #[test]
    fn nominal_is_identity() {
        assert_eq!(DeviceDeviation::NOMINAL.length_multiplier(), 1.0);
        assert_eq!(DeviceDeviation::NOMINAL.vth_total(TechNode::N45), Voltage::ZERO);
    }

    #[test]
    fn corner_display() {
        assert_eq!(VariationCorner::Severe.to_string(), "severe");
        for c in [
            VariationCorner::None,
            VariationCorner::Typical,
            VariationCorner::Severe,
        ] {
            assert_eq!(c.to_string().parse::<VariationCorner>(), Ok(c));
        }
        assert!("apocalyptic".parse::<VariationCorner>().is_err());
    }
}
