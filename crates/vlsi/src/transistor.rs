//! Transistor-level electrical models.
//!
//! Two analytic models stand in for the paper's Hspice device cards:
//!
//! * **Alpha-power-law saturation current** (Sakurai–Newton) for access and
//!   drive transistors: `I_dsat ∝ (W/L)·(V_gs − V_th)^α` with `α = 1.3`
//!   for short-channel devices.
//! * **Subthreshold leakage** with DIBL-style channel-length sensitivity:
//!   `I_off ∝ (W/L)·exp(−ΔV_th/(n·v_T))·exp(−λ·ΔL/L)`.
//!
//! Both return currents normalized against the nominal device of the same
//! node (via the `*_ratio` functions) as well as absolute values anchored on
//! the calibration constants in [`crate::calib`].

use crate::calib;
use crate::tech::{OperatingPoint, TechNode};
use crate::units::Voltage;
use crate::variation::DeviceDeviation;

/// Velocity-saturation exponent of the alpha-power law for these nodes.
pub const ALPHA_SAT: f64 = 1.3;

/// Subthreshold slope ideality factor.
pub const N_SUBTHRESHOLD: f64 = 1.5;

/// The gate overdrive `V_gs − V_th` of a device, clamped at zero.
pub fn overdrive(node: TechNode, vgs: Voltage, dev: DeviceDeviation) -> Voltage {
    let vth = node.vth_nominal() + dev.vth_total(node);
    Voltage::new((vgs - vth).volts().max(0.0))
}

/// Saturation drive current of a device relative to the nominal device of
/// the same node driven at `V_gs = V_dd` (1.0 = nominal).
///
/// Returns 0 when the device cannot turn on (overdrive ≤ 0).
pub fn drive_ratio(node: TechNode, dev: DeviceDeviation) -> f64 {
    drive_ratio_at(node, node.vdd(), dev)
}

/// Like [`drive_ratio`] but with an explicit gate voltage (used for the
/// boosted 3T1D read transistor).
pub fn drive_ratio_at(node: TechNode, vgs: Voltage, dev: DeviceDeviation) -> f64 {
    let ovd = overdrive(node, vgs, dev);
    if ovd.volts() <= 0.0 {
        return 0.0;
    }
    let ovd_nom = (node.vdd() - node.vth_nominal()).volts();
    let ratio = (ovd.volts() / ovd_nom).powf(ALPHA_SAT);
    // Drive scales inversely with channel length.
    ratio / dev.length_multiplier()
}

/// Subthreshold leakage of one off transistor relative to the nominal
/// device of the same node (1.0 = nominal).
///
/// Combines the exponential `V_th` dependence of subthreshold conduction
/// with a DIBL-style exponential channel-length sensitivity
/// (`λ =` [`calib::lambda_dibl`]): shorter channels leak exponentially more.
pub fn leakage_ratio(node: TechNode, dev: DeviceDeviation) -> f64 {
    let nvt = N_SUBTHRESHOLD * OperatingPoint::nominal(node).thermal_voltage().volts();
    let dvth = dev.vth_total(node).volts();
    let x = -dvth / nvt - calib::lambda_dibl(node) * dev.dl_frac;
    x.clamp(-30.0, 30.0).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::variation::DeviceDeviation;

    fn dev(dl: f64, dvth_mv: f64) -> DeviceDeviation {
        DeviceDeviation {
            dl_frac: dl,
            dvth_random: Voltage::from_mv(dvth_mv),
        }
    }

    #[test]
    fn nominal_device_has_unity_ratios() {
        for node in TechNode::ALL {
            assert!((drive_ratio(node, DeviceDeviation::NOMINAL) - 1.0).abs() < 1e-12);
            assert!((leakage_ratio(node, DeviceDeviation::NOMINAL) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn higher_vth_weakens_drive() {
        let weak = drive_ratio(TechNode::N32, dev(0.0, 50.0));
        let strong = drive_ratio(TechNode::N32, dev(0.0, -50.0));
        assert!(weak < 1.0);
        assert!(strong > 1.0);
        assert!(strong > weak);
    }

    #[test]
    fn longer_channel_weakens_drive() {
        // Longer L both divides W/L and raises Vth via the (reverse) SCE.
        let long = drive_ratio(TechNode::N32, dev(0.10, 0.0));
        let short = drive_ratio(TechNode::N32, dev(-0.10, 0.0));
        assert!(long < 1.0, "long={long}");
        assert!(short > 1.0, "short={short}");
    }

    #[test]
    fn device_that_cannot_turn_on_has_zero_drive() {
        // Vth pushed above Vdd.
        let r = drive_ratio(TechNode::N32, dev(0.0, 1000.0));
        assert_eq!(r, 0.0);
    }

    #[test]
    fn boosted_gate_increases_drive() {
        let nom = drive_ratio(TechNode::N32, DeviceDeviation::NOMINAL);
        let boosted = drive_ratio_at(
            TechNode::N32,
            Voltage::new(1.3),
            DeviceDeviation::NOMINAL,
        );
        assert!(boosted > nom);
    }

    #[test]
    fn leakage_is_exponential_in_vth() {
        let nvt_mv =
            N_SUBTHRESHOLD * OperatingPoint::nominal(TechNode::N32).thermal_voltage().mv();
        let r = leakage_ratio(TechNode::N32, dev(0.0, -nvt_mv));
        // One n·vT lower Vth → e× more leakage.
        assert!((r - std::f64::consts::E).abs() < 0.01, "r={r}");
    }

    #[test]
    fn shorter_channel_leaks_more() {
        let short = leakage_ratio(TechNode::N32, dev(-0.05, 0.0));
        let long = leakage_ratio(TechNode::N32, dev(0.05, 0.0));
        assert!(short > 1.0);
        assert!(long < 1.0);
        assert!(short * long > 0.5 && short * long < 2.0, "roughly symmetric in log space");
    }

    #[test]
    fn leakage_ratio_is_clamped() {
        let r = leakage_ratio(TechNode::N32, dev(-10.0, -10_000.0));
        assert!(r.is_finite());
        assert!(r <= 30.0f64.exp());
    }

    #[test]
    fn alpha_power_exponent_visible() {
        // Doubling overdrive should multiply drive by 2^1.3.
        let node = TechNode::N32;
        let ovd_nom = (node.vdd() - node.vth_nominal()).volts();
        let vgs2 = Voltage::new(node.vth_nominal().volts() + 2.0 * ovd_nom);
        let r = drive_ratio_at(node, vgs2, DeviceDeviation::NOMINAL);
        assert!((r - 2f64.powf(ALPHA_SAT)).abs() < 1e-9);
    }

    #[test]
    fn absolute_currents_positive_and_scaling() {
        for node in TechNode::ALL {
            assert!(calib::leakage_per_path(node).value() > 0.0);
        }
        // Leakage per path grows as nodes shrink (the scaling crisis).
        assert!(
            calib::leakage_per_path(TechNode::N32).value()
                > calib::leakage_per_path(TechNode::N65).value()
        );
    }
}
