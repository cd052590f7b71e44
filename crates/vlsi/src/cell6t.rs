//! 6T SRAM cell model: read-path delay and cell stability (§2.1).
//!
//! The paper's 6T cell (actually an 8-transistor 2R1W variant it keeps
//! calling "6T", Fig. 2) is modeled by:
//!
//! * a **read-path delay** split into a fixed periphery share and a cell
//!   share that scales inversely with the access-path drive current — the
//!   worst cell of the array sets the array access time and hence the chip
//!   frequency;
//! * a **stability model**: read flips occur when the Vth mismatch of the
//!   cross-coupled pair exceeds the static noise margin, giving the ≈0.4 %
//!   bit-flip rate the paper quotes at 32 nm.
//!
//! # Examples
//!
//! ```
//! use vlsi::cell6t::{access_time, CellSize};
//! use vlsi::tech::TechNode;
//! use vlsi::variation::DeviceDeviation;
//!
//! let t = access_time(TechNode::N32, CellSize::X1, DeviceDeviation::NOMINAL);
//! assert!((t.ps() - 208.0).abs() < 1e-6); // Table 3 anchor
//! ```

use crate::calib::{CELL_2X_SPEEDUP, CELL_DELAY_FRACTION};
use crate::math::normal_cdf;
use crate::tech::TechNode;
use crate::transistor::drive_ratio;
use crate::units::Time;
use crate::variation::{DeviceDeviation, VariationParams, AREA_SIGMA_SCALE_2X};
use std::fmt;

/// The two 6T sizings the paper compares (§3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CellSize {
    /// Minimum-size cell ("1X 6T").
    #[default]
    X1,
    /// Cell with every transistor's W and L doubled ("2X 6T"); 4× area,
    /// halved random-dopant σ (Pelgrom), slightly faster read nominally.
    X2,
}

impl CellSize {
    /// Multiplier on the random-dopant σ(Vth) for this sizing.
    pub fn sigma_scale(self) -> f64 {
        match self {
            CellSize::X1 => 1.0,
            CellSize::X2 => AREA_SIGMA_SCALE_2X,
        }
    }

    /// Multiplier on the *relative* gate-length σ (doubled drawn length
    /// halves ΔL/L for the same absolute lithographic deviation).
    pub fn length_sigma_scale(self) -> f64 {
        match self {
            CellSize::X1 => 1.0,
            CellSize::X2 => 0.5,
        }
    }

    /// Nominal read-path speedup relative to 1X.
    pub fn nominal_speedup(self) -> f64 {
        match self {
            CellSize::X1 => 1.0,
            CellSize::X2 => CELL_2X_SPEEDUP,
        }
    }
}

impl fmt::Display for CellSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CellSize::X1 => f.write_str("1X 6T"),
            CellSize::X2 => f.write_str("2X 6T"),
        }
    }
}

/// Array access time through one 6T cell with the given read-path device
/// deviation. The nominal 1X cell reproduces the Table 3 access times.
///
/// Returns `Time::from_us(1.0)` (effectively unusable) if the read path
/// cannot conduct at all.
pub fn access_time(node: TechNode, size: CellSize, dev: DeviceDeviation) -> Time {
    let nominal = node.sram_access_nominal();
    let periphery = nominal * (1.0 - CELL_DELAY_FRACTION);
    let cell_nominal = nominal * CELL_DELAY_FRACTION * size.nominal_speedup();
    let ratio = drive_ratio(node, dev);
    if ratio <= 1e-6 {
        return Time::from_us(1.0);
    }
    periphery + cell_nominal / ratio
}

/// The frequency multiplier (≤ some small headroom above 1.0) a chip built
/// with this worst-case array access time can run at, relative to the
/// node's nominal frequency. The L1 is latency-critical (§2.1), so the chip
/// clock tracks the cache access time directly.
pub fn frequency_multiplier(node: TechNode, worst_access: Time) -> f64 {
    node.sram_access_nominal() / worst_access
}

/// Probability that a single 6T bit flips during a read, given the
/// variation scenario: the cross-coupled pair's Vth mismatch
/// (σ_pair = √2·σ_Vth·size_scale) exceeding the static noise margin.
///
/// The margin is anchored so the 1X cell at 32 nm under typical variation
/// flips ≈0.4 % of bits (§2.1).
pub fn bit_flip_probability(node: TechNode, size: CellSize, params: &VariationParams) -> f64 {
    let sigma_typical_pair =
        std::f64::consts::SQRT_2 * VariationParams::TYPICAL.sigma_vth(node).volts();
    let margin_volts = crate::calib::stability_margin_sigmas(node) * sigma_typical_pair;
    let sigma_actual_pair =
        std::f64::consts::SQRT_2 * params.sigma_vth(node).volts() * size.sigma_scale();
    if sigma_actual_pair <= 0.0 {
        return 0.0;
    }
    2.0 * (1.0 - normal_cdf(margin_volts / sigma_actual_pair))
}

/// Probability that a line of `bits` cells contains at least one unstable
/// bit: `1 − (1 − p)^bits`. The paper's example: p = 0.4 %, 256 bits ⇒ 64 %.
pub fn line_failure_probability(bit_flip_prob: f64, bits: u32) -> f64 {
    assert!(
        (0.0..=1.0).contains(&bit_flip_prob),
        "probability out of range: {bit_flip_prob}"
    );
    1.0 - (1.0 - bit_flip_prob).powi(bits as i32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::Voltage;
    use crate::variation::VariationCorner;

    #[test]
    fn nominal_access_matches_table3() {
        for (node, ps) in [
            (TechNode::N65, 285.0),
            (TechNode::N45, 251.0),
            (TechNode::N32, 208.0),
        ] {
            let t = access_time(node, CellSize::X1, DeviceDeviation::NOMINAL);
            assert!((t.ps() - ps).abs() < 1e-6, "{node}: {} ps", t.ps());
        }
    }

    #[test]
    fn weak_cell_is_slower() {
        let weak = DeviceDeviation {
            dl_frac: 0.05,
            dvth_random: Voltage::from_mv(50.0),
        };
        let t_weak = access_time(TechNode::N32, CellSize::X1, weak);
        let t_nom = access_time(TechNode::N32, CellSize::X1, DeviceDeviation::NOMINAL);
        assert!(t_weak > t_nom);
        // Only the cell share degrades; periphery is fixed.
        let cell_part = t_nom * CELL_DELAY_FRACTION;
        assert!(t_weak - t_nom < cell_part * 3.0, "degradation bounded");
    }

    #[test]
    fn x2_cell_is_nominally_faster() {
        let t1 = access_time(TechNode::N32, CellSize::X1, DeviceDeviation::NOMINAL);
        let t2 = access_time(TechNode::N32, CellSize::X2, DeviceDeviation::NOMINAL);
        assert!(t2 < t1);
    }

    #[test]
    fn dead_read_path_yields_huge_delay() {
        let dead = DeviceDeviation {
            dl_frac: 0.0,
            dvth_random: Voltage::new(2.0),
        };
        let t = access_time(TechNode::N32, CellSize::X1, dead);
        assert!(t >= Time::from_us(1.0));
    }

    #[test]
    fn frequency_multiplier_inverse_of_slowdown() {
        let nominal = TechNode::N32.sram_access_nominal();
        assert!((frequency_multiplier(TechNode::N32, nominal) - 1.0).abs() < 1e-12);
        let m = frequency_multiplier(TechNode::N32, nominal * 1.25);
        assert!((m - 0.8).abs() < 1e-12);
    }

    #[test]
    fn flip_rate_anchor_at_32nm() {
        let p = bit_flip_probability(
            TechNode::N32,
            CellSize::X1,
            &VariationCorner::Typical.params(),
        );
        assert!((p - 0.004).abs() < 0.0008, "p={p}");
    }

    #[test]
    fn line_failure_matches_paper_example() {
        let p = line_failure_probability(0.004, 256);
        assert!((p - 0.64).abs() < 0.015, "p={p}");
    }

    #[test]
    fn x2_cell_is_far_more_stable() {
        let p1 = bit_flip_probability(
            TechNode::N32,
            CellSize::X1,
            &VariationCorner::Typical.params(),
        );
        let p2 = bit_flip_probability(
            TechNode::N32,
            CellSize::X2,
            &VariationCorner::Typical.params(),
        );
        assert!(p2 < p1 / 50.0, "p1={p1} p2={p2}");
    }

    #[test]
    fn older_nodes_are_stable() {
        let p = bit_flip_probability(
            TechNode::N65,
            CellSize::X1,
            &VariationCorner::Typical.params(),
        );
        assert!(p < 5e-5, "p={p}");
    }

    #[test]
    fn no_variation_never_flips() {
        let p = bit_flip_probability(TechNode::N32, CellSize::X1, &VariationParams::NONE);
        assert_eq!(p, 0.0);
    }

    #[test]
    fn severe_variation_flips_more() {
        let pt = bit_flip_probability(
            TechNode::N32,
            CellSize::X1,
            &VariationCorner::Typical.params(),
        );
        let ps = bit_flip_probability(
            TechNode::N32,
            CellSize::X1,
            &VariationCorner::Severe.params(),
        );
        assert!(ps > pt * 3.0, "pt={pt} ps={ps}");
    }

    #[test]
    fn size_display() {
        assert_eq!(CellSize::X1.to_string(), "1X 6T");
        assert_eq!(CellSize::X2.to_string(), "2X 6T");
    }
}
