//! Technology-node parameters (Table 1 of the paper).
//!
//! Three predictive technology nodes are modeled — 65 nm, 45 nm and 32 nm —
//! with the circuit parameters the paper lists in Table 1 plus the derived
//! electrical quantities the cell models need (supply voltage, nominal
//! threshold voltage, thermal voltage at the 80 °C simulation temperature).
//!
//! # Examples
//!
//! ```
//! use vlsi::tech::TechNode;
//!
//! let node = TechNode::N32;
//! assert_eq!(node.feature_nm(), 32.0);
//! assert!((node.chip_frequency().ghz() - 4.3).abs() < 1e-9);
//! ```

use crate::units::{Frequency, Length, Time, Voltage};
use std::fmt;

/// Boltzmann constant over electron charge, volts per kelvin.
const K_OVER_Q: f64 = 8.617_333e-5;

/// The simulation temperature used throughout the paper (80 °C).
pub const SIM_TEMPERATURE_KELVIN: f64 = 353.15;

/// The paper's simulation temperature in Celsius. `SIM_TEMPERATURE_C +
/// 273.15` equals [`SIM_TEMPERATURE_KELVIN`] bit-exactly, so operating
/// points built at this temperature reproduce the historical pinned
/// thermal voltage to the last bit.
pub const SIM_TEMPERATURE_C: f64 = 80.0;

/// Thermal voltage `kT/q` at an arbitrary junction temperature.
///
/// # Panics
///
/// Panics if `temp_c` is below absolute zero.
pub fn thermal_voltage_at(temp_c: f64) -> Voltage {
    let kelvin = temp_c + 273.15;
    assert!(kelvin > 0.0, "temperature below absolute zero");
    Voltage::new(K_OVER_Q * kelvin)
}

/// An operating point: the (supply, clock, temperature) triple the
/// electrical models are evaluated at. The paper evaluates a single
/// corner — each node's nominal rail and frequency at 80 °C — which
/// [`OperatingPoint::nominal`] builds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OperatingPoint {
    /// Supply voltage the array and periphery run at.
    pub vdd: Voltage,
    /// Core clock frequency (sets the cycle that retention counters and
    /// IPC→BIPS conversions use).
    pub freq: Frequency,
    /// Junction temperature in Celsius.
    pub temp_c: f64,
}

impl OperatingPoint {
    /// The paper's corner for a node: nominal rail, nominal chip frequency,
    /// 80 °C. All historical results are pinned at this point.
    pub fn nominal(node: TechNode) -> Self {
        OperatingPoint {
            vdd: node.vdd(),
            freq: node.chip_frequency(),
            temp_c: SIM_TEMPERATURE_C,
        }
    }

    /// Thermal voltage `kT/q` at this point's junction temperature
    /// (≈30.4 mV at the 80 °C paper corner).
    ///
    /// # Panics
    ///
    /// Panics if the temperature is below absolute zero.
    pub fn thermal_voltage(&self) -> Voltage {
        thermal_voltage_at(self.temp_c)
    }

    /// One clock period at this point's frequency.
    pub fn clock_period(&self) -> Time {
        self.freq.period()
    }
}

/// A predictive technology node from Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TechNode {
    /// 65 nm node, 3.0 GHz nominal chip frequency.
    N65,
    /// 45 nm node, 3.5 GHz nominal chip frequency.
    N45,
    /// 32 nm node, 4.3 GHz nominal chip frequency.
    N32,
}

impl TechNode {
    /// All modeled nodes, in scaling order (largest feature first).
    pub const ALL: [TechNode; 3] = [TechNode::N65, TechNode::N45, TechNode::N32];

    /// Feature size (drawn gate length) in nanometers.
    pub fn feature_nm(self) -> f64 {
        match self {
            TechNode::N65 => 65.0,
            TechNode::N45 => 45.0,
            TechNode::N32 => 32.0,
        }
    }

    /// Minimum-size cell area used for the cache (Table 1).
    pub fn cell_area_um2(self) -> f64 {
        match self {
            TechNode::N65 => 0.90,
            TechNode::N45 => 0.45,
            TechNode::N32 => 0.23,
        }
    }

    /// Wire width (Table 1).
    pub fn wire_width(self) -> Length {
        match self {
            TechNode::N65 => Length::from_um(0.10),
            TechNode::N45 => Length::from_um(0.07),
            TechNode::N32 => Length::from_um(0.05),
        }
    }

    /// Wire thickness (Table 1).
    pub fn wire_thickness(self) -> Length {
        match self {
            TechNode::N65 => Length::from_um(0.20),
            TechNode::N45 => Length::from_um(0.14),
            TechNode::N32 => Length::from_um(0.10),
        }
    }

    /// Gate-oxide thickness (Table 1).
    pub fn oxide_thickness(self) -> Length {
        match self {
            TechNode::N65 => Length::from_nm(1.2),
            TechNode::N45 => Length::from_nm(1.1),
            TechNode::N32 => Length::from_nm(1.0),
        }
    }

    /// Nominal chip frequency (Table 1).
    pub fn chip_frequency(self) -> Frequency {
        match self {
            TechNode::N65 => Frequency::from_ghz(3.0),
            TechNode::N45 => Frequency::from_ghz(3.5),
            TechNode::N32 => Frequency::from_ghz(4.3),
        }
    }

    /// One clock period at the nominal chip frequency.
    pub fn clock_period(self) -> Time {
        self.chip_frequency().period()
    }

    /// Nominal supply voltage (PTM-style scaling).
    pub fn vdd(self) -> Voltage {
        match self {
            TechNode::N65 => Voltage::new(1.2),
            TechNode::N45 => Voltage::new(1.1),
            TechNode::N32 => Voltage::new(1.0),
        }
    }

    /// Nominal NMOS threshold voltage.
    ///
    /// PTM high-performance devices sit near 0.22–0.30 V across these nodes;
    /// the exact value only matters through the sensitivity ratios used by
    /// the variation models.
    pub fn vth_nominal(self) -> Voltage {
        match self {
            TechNode::N65 => Voltage::new(0.30),
            TechNode::N45 => Voltage::new(0.28),
            TechNode::N32 => Voltage::new(0.26),
        }
    }

    /// Nominal ideal-6T SRAM *array* access time reported by the paper
    /// (Table 3, "ideal 6T, no variation"). This anchors the delay models.
    pub fn sram_access_nominal(self) -> Time {
        match self {
            TechNode::N65 => Time::from_ps(285.0),
            TechNode::N45 => Time::from_ps(251.0),
            TechNode::N32 => Time::from_ps(208.0),
        }
    }

    /// The next (smaller) node, if any. Useful for "one generation of
    /// performance loss" comparisons.
    pub fn next(self) -> Option<TechNode> {
        match self {
            TechNode::N65 => Some(TechNode::N45),
            TechNode::N45 => Some(TechNode::N32),
            TechNode::N32 => None,
        }
    }
}

impl fmt::Display for TechNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}nm", self.feature_nm() as u32)
    }
}

impl std::str::FromStr for TechNode {
    type Err = String;

    /// Parses the [`fmt::Display`] form (`"32nm"`), with or without the
    /// `nm` suffix — run manifests and CLI flags round-trip through this.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().trim_end_matches("nm") {
            "65" => Ok(TechNode::N65),
            "45" => Ok(TechNode::N45),
            "32" => Ok(TechNode::N32),
            other => Err(format!("unknown tech node {other:?} (expected 65/45/32[nm])")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_values() {
        assert_eq!(TechNode::N65.cell_area_um2(), 0.90);
        assert_eq!(TechNode::N45.cell_area_um2(), 0.45);
        assert_eq!(TechNode::N32.cell_area_um2(), 0.23);
        assert!((TechNode::N32.wire_width().um() - 0.05).abs() < 1e-12);
        assert!((TechNode::N45.wire_thickness().um() - 0.14).abs() < 1e-12);
        assert!((TechNode::N65.oxide_thickness().nm() - 1.2).abs() < 1e-12);
    }

    #[test]
    fn display_round_trips_through_from_str() {
        for node in TechNode::ALL {
            assert_eq!(node.to_string().parse::<TechNode>().unwrap(), node);
        }
        assert_eq!("32".parse::<TechNode>().unwrap(), TechNode::N32);
        assert!("28nm".parse::<TechNode>().is_err());
    }

    #[test]
    fn frequencies_scale_up_with_node() {
        let f: Vec<f64> = TechNode::ALL.iter().map(|n| n.chip_frequency().ghz()).collect();
        for (got, want) in f.iter().zip([3.0, 3.5, 4.3]) {
            assert!((got - want).abs() < 1e-9, "{got} vs {want}");
        }
        // Periods shrink correspondingly.
        assert!(TechNode::N32.clock_period() < TechNode::N65.clock_period());
    }

    #[test]
    fn thermal_voltage_at_80c() {
        // The 80 °C paper anchor: ≈30.43 mV, and the Celsius path must
        // reproduce the pinned Kelvin constant bit-for-bit so operating-
        // point-threaded models stay golden at the nominal corner.
        let vt = thermal_voltage_at(SIM_TEMPERATURE_C);
        assert!((vt.mv() - 30.43).abs() < 0.05, "got {} mV", vt.mv());
        assert_eq!(SIM_TEMPERATURE_C + 273.15, SIM_TEMPERATURE_KELVIN);
        assert_eq!(vt.volts(), K_OVER_Q * SIM_TEMPERATURE_KELVIN);
        assert_eq!(
            OperatingPoint::nominal(TechNode::N32).thermal_voltage().volts(),
            vt.volts()
        );
        assert!(thermal_voltage_at(25.0).mv() < vt.mv());
    }

    #[test]
    fn nominal_operating_point_matches_the_node() {
        for node in TechNode::ALL {
            let op = OperatingPoint::nominal(node);
            assert_eq!(op.vdd, node.vdd());
            assert_eq!(op.freq.value(), node.chip_frequency().value());
            assert_eq!(op.temp_c, SIM_TEMPERATURE_C);
            assert_eq!(op.clock_period().value(), node.clock_period().value());
        }
    }

    #[test]
    fn scaling_is_monotone() {
        // Areas, supply, access time all shrink monotonically with the node.
        let mut prev_area = f64::INFINITY;
        let mut prev_vdd = f64::INFINITY;
        let mut prev_acc = Time::from_us(1.0);
        for n in TechNode::ALL {
            assert!(n.cell_area_um2() < prev_area);
            assert!(n.vdd().volts() <= prev_vdd);
            assert!(n.sram_access_nominal() < prev_acc);
            prev_area = n.cell_area_um2();
            prev_vdd = n.vdd().volts();
            prev_acc = n.sram_access_nominal();
        }
    }

    #[test]
    fn next_walks_the_roadmap() {
        assert_eq!(TechNode::N65.next(), Some(TechNode::N45));
        assert_eq!(TechNode::N45.next(), Some(TechNode::N32));
        assert_eq!(TechNode::N32.next(), None);
    }

    #[test]
    fn display_formatting() {
        assert_eq!(TechNode::N32.to_string(), "32nm");
        assert_eq!(TechNode::N65.to_string(), "65nm");
    }
}
