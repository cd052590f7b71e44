//! On-chip wire models: copper RC with distributed-π delay (§3.1).
//!
//! The paper scales all wires with technology and cell area and simulates
//! them with distributed-π models. We model a wire by its geometric
//! resistance (copper resistivity over the Table 1 cross-section) and a
//! per-length capacitance, and evaluate delay with the Elmore constant for
//! a distributed RC line (0.38·R·C).
//!
//! # Examples
//!
//! ```
//! use vlsi::tech::TechNode;
//! use vlsi::units::Length;
//! use vlsi::wire::Wire;
//!
//! let bitline = Wire::new(TechNode::N32, Length::from_um(123.0));
//! assert!(bitline.delay().ps() > 0.0);
//! ```

use crate::tech::TechNode;
use crate::units::{Capacitance, Length, Resistance, Time};

/// Effective copper resistivity at these geometries (Ω·m), including
/// barrier-layer and surface-scattering degradation versus bulk copper.
pub const COPPER_RESISTIVITY: f64 = 3.0e-8;

/// Wire capacitance per meter (≈0.2 fF/µm, roughly constant across nodes
/// as sidewall coupling compensates for narrower lines).
pub const CAP_PER_METER: f64 = 0.2e-9;

/// Elmore delay coefficient for a distributed RC line.
pub const DISTRIBUTED_RC_COEFF: f64 = 0.38;

/// A wire segment in a given technology.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Wire {
    node: TechNode,
    length: Length,
}

impl Wire {
    /// Creates a wire of `length` using the node's Table 1 cross-section.
    ///
    /// # Panics
    ///
    /// Panics if `length` is not positive.
    pub fn new(node: TechNode, length: Length) -> Self {
        assert!(length.value() > 0.0, "wire length must be positive");
        Self { node, length }
    }

    /// The wire's technology node.
    pub fn node(&self) -> TechNode {
        self.node
    }

    /// The wire's length.
    pub fn length(&self) -> Length {
        self.length
    }

    /// Total wire resistance from the copper cross-section.
    pub fn resistance(&self) -> Resistance {
        let area = self.node.wire_width().value() * self.node.wire_thickness().value();
        Resistance::new(COPPER_RESISTIVITY * self.length.value() / area)
    }

    /// Total wire capacitance.
    pub fn capacitance(&self) -> Capacitance {
        Capacitance::new(CAP_PER_METER * self.length.value())
    }

    /// Distributed-π (Elmore) propagation delay of the unloaded wire.
    pub fn delay(&self) -> Time {
        Time::new(
            DISTRIBUTED_RC_COEFF * self.resistance().value() * self.capacitance().value(),
        )
    }
}

/// The bitline of a sub-array with `rows` cells, whose pitch follows the
/// node's cell area (square-cell assumption).
pub fn bitline(node: TechNode, rows: u32) -> Wire {
    assert!(rows > 0, "sub-array must have rows");
    let cell_pitch_um = node.cell_area_um2().sqrt();
    Wire::new(node, Length::from_um(cell_pitch_um * rows as f64))
}

/// Per-cell drain capacitance loading the bitline (diffusion), scaled with
/// the cell footprint.
pub fn cell_drain_capacitance(node: TechNode) -> Capacitance {
    // ≈0.05 fF at 32 nm, scaling with feature size.
    Capacitance::from_af(50.0 * node.feature_nm() / 32.0)
}

/// Total bitline capacitance of a sub-array column: wire plus `rows` drains.
pub fn bitline_capacitance(node: TechNode, rows: u32) -> Capacitance {
    bitline(node, rows).capacitance() + cell_drain_capacitance(node) * rows as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resistance_scales_with_length_and_node() {
        let short = Wire::new(TechNode::N32, Length::from_um(50.0));
        let long = Wire::new(TechNode::N32, Length::from_um(100.0));
        assert!((long.resistance().value() / short.resistance().value() - 2.0).abs() < 1e-9);
        // Narrower wires at smaller nodes are more resistive per length.
        let w65 = Wire::new(TechNode::N65, Length::from_um(100.0));
        let w32 = Wire::new(TechNode::N32, Length::from_um(100.0));
        assert!(w32.resistance().value() > w65.resistance().value());
    }

    #[test]
    fn wire_delay_is_quadratic_in_length() {
        let w1 = Wire::new(TechNode::N32, Length::from_um(100.0));
        let w2 = Wire::new(TechNode::N32, Length::from_um(200.0));
        assert!((w2.delay().value() / w1.delay().value() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn bitline_geometry_follows_cell_pitch() {
        let bl = bitline(TechNode::N32, 256);
        // 256 × √0.23 µm ≈ 122.8 µm.
        assert!((bl.length().um() - 122.8).abs() < 1.0, "len={}", bl.length().um());
        // The 65 nm bitline is physically longer (bigger cells).
        assert!(bitline(TechNode::N65, 256).length() > bl.length());
    }

    #[test]
    fn bitline_delay_is_small_vs_access_time() {
        // The wire RC alone must stay well under the array access time.
        for node in TechNode::ALL {
            let d = bitline(node, 256).delay();
            assert!(
                d < node.sram_access_nominal() * 0.5,
                "{node}: wire delay {} ps",
                d.ps()
            );
        }
    }

    #[test]
    fn bitline_capacitance_includes_drains() {
        let c_total = bitline_capacitance(TechNode::N32, 256);
        let c_wire = bitline(TechNode::N32, 256).capacitance();
        assert!(c_total > c_wire);
        // Order of magnitude: tens of fF.
        assert!(c_total.ff() > 10.0 && c_total.ff() < 100.0, "c={} fF", c_total.ff());
    }

    #[test]
    #[should_panic(expected = "length must be positive")]
    fn zero_length_rejected() {
        let _ = Wire::new(TechNode::N32, Length::ZERO);
    }
}
