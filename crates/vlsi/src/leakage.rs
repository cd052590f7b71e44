//! Leakage-power models for 6T and 3T1D cells and whole cache arrays.
//!
//! §2.1/§2.2 of the paper: a 6T cell has **three strong leakage paths**
//! (one off transistor each); a 3T1D cell has at most one weak-to-slightly-
//! strong path, which is what produces the Fig. 7 distributions and the
//! Table 3 leakage columns. Variation enters exponentially through Vth
//! (random dopant) and channel length (DIBL), making chip leakage a heavy-
//! tailed lognormal.

use crate::calib;
use crate::tech::{OperatingPoint, TechNode};
use crate::transistor::N_SUBTHRESHOLD;
use crate::units::Power;
use crate::variation::DeviceDeviation;

/// Leakage multiplier of one path relative to nominal, with a scalable
/// DIBL exponent (`lambda_scale` < 1 models stacked/decayed 3T1D paths
/// whose drain bias responds less steeply to channel length). Evaluated at
/// the paper's nominal operating point.
pub fn path_leakage_ratio(node: TechNode, dev: DeviceDeviation, lambda_scale: f64) -> f64 {
    assert!(lambda_scale >= 0.0, "lambda_scale must be non-negative");
    let nvt = N_SUBTHRESHOLD * OperatingPoint::nominal(node).thermal_voltage().volts();
    let x = -dev.vth_total(node).volts() / nvt
        - calib::lambda_dibl(node) * lambda_scale * dev.dl_frac;
    x.clamp(-30.0, 30.0).exp()
}

/// Static power of one 6T cell: three strong paths at the cell's deviation.
pub fn cell_leakage_6t(node: TechNode, dev: DeviceDeviation) -> Power {
    let per_path = calib::leakage_per_path(node).value() * node.vdd().volts();
    Power::new(3.0 * per_path * path_leakage_ratio(node, dev, 1.0))
}

/// Static power of one 3T1D cell: the state-averaged effective path count
/// (`T3_EFFECTIVE_PATHS`) with the damped DIBL response.
pub fn cell_leakage_3t1d(node: TechNode, dev: DeviceDeviation) -> Power {
    let per_path = calib::leakage_per_path(node).value() * node.vdd().volts();
    Power::new(
        calib::T3_EFFECTIVE_PATHS
            * per_path
            * path_leakage_ratio(node, dev, calib::T3_LEAK_LAMBDA_SCALE),
    )
}

/// The golden (no-variation) leakage of a whole cache with `cells` 6T bits,
/// including the periphery share. This is the "leakage power for golden 6T"
/// reference line in Fig. 7.
pub fn golden_cache_leakage_6t(node: TechNode, cells: u64) -> Power {
    let cell_total = cell_leakage_6t(node, DeviceDeviation::NOMINAL) * cells as f64;
    with_periphery(node, cell_total)
}

/// Adds the periphery leakage share on top of a cell-array total.
pub fn with_periphery(node: TechNode, cell_total: Power) -> Power {
    let frac = calib::periphery_leak_fraction(node);
    // cell_total = (1 - frac) × full ⇒ full = cell_total / (1 - frac).
    Power::new(cell_total.value() / (1.0 - frac))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::Voltage;

    /// 64 KiB data + ~7 % tag overhead, as used in the calibration.
    const CACHE_CELLS: u64 = (64 * 1024 * 8) as u64 * 107 / 100;

    /// The golden (no-variation) leakage of a 3T1D cache with `cells` bits.
    fn golden_cache_leakage_3t1d(node: TechNode, cells: u64) -> Power {
        let cell_total = cell_leakage_3t1d(node, DeviceDeviation::NOMINAL) * cells as f64;
        // Periphery is organization-independent: same absolute power as the
        // 6T periphery for the same array geometry.
        let periphery = golden_cache_leakage_6t(node, cells) * calib::periphery_leak_fraction(node);
        cell_total + periphery
    }

    #[test]
    fn golden_6t_leakage_matches_table3() {
        for (node, mw) in [
            (TechNode::N65, 15.8),
            (TechNode::N45, 36.0),
            (TechNode::N32, 78.2),
        ] {
            let p = golden_cache_leakage_6t(node, CACHE_CELLS);
            assert!(
                (p.mw() - mw).abs() / mw < 0.06,
                "{node}: {:.1} mW vs {mw} mW",
                p.mw()
            );
        }
    }

    #[test]
    fn golden_3t1d_leakage_matches_table3() {
        for (node, mw) in [
            (TechNode::N65, 3.36),
            (TechNode::N45, 5.68),
            (TechNode::N32, 24.4),
        ] {
            let p = golden_cache_leakage_3t1d(node, CACHE_CELLS);
            assert!(
                (p.mw() - mw).abs() / mw < 0.25,
                "{node}: {:.2} mW vs {mw} mW",
                p.mw()
            );
        }
    }

    #[test]
    fn t3_cell_leaks_far_less_than_6t() {
        for node in TechNode::ALL {
            let r = cell_leakage_3t1d(node, DeviceDeviation::NOMINAL).value()
                / cell_leakage_6t(node, DeviceDeviation::NOMINAL).value();
            assert!(r > 0.05 && r < 0.35, "{node}: ratio {r}");
        }
    }

    #[test]
    fn leakage_rises_exponentially_for_low_vth() {
        let dev = DeviceDeviation {
            dl_frac: 0.0,
            dvth_random: Voltage::from_mv(-50.0),
        };
        let hot = cell_leakage_6t(TechNode::N32, dev);
        let nom = cell_leakage_6t(TechNode::N32, DeviceDeviation::NOMINAL);
        assert!(hot.value() / nom.value() > 2.0);
    }

    #[test]
    fn short_channel_chip_leaks_much_more() {
        // A −2σ die-to-die gate length (−10 %) should multiply leakage
        // severalfold through DIBL — the Fig. 7 tail mechanism.
        let dev = DeviceDeviation {
            dl_frac: -0.10,
            dvth_random: Voltage::ZERO,
        };
        let r6 = path_leakage_ratio(TechNode::N32, dev, 1.0);
        assert!(r6 > 4.0, "r6={r6}");
        // The 3T1D path responds less steeply.
        let r3 = path_leakage_ratio(TechNode::N32, dev, calib::T3_LEAK_LAMBDA_SCALE);
        assert!(r3 < r6);
        assert!(r3 > 1.5);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_lambda_scale_rejected() {
        let _ = path_leakage_ratio(TechNode::N32, DeviceDeviation::NOMINAL, -1.0);
    }
}
