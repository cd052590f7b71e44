//! Dynamic-energy accounting for cache activity.
//!
//! Ties the per-event energies in [`crate::calib`] to architectural event
//! counts, producing the "mean dynamic power" / "full dynamic power"
//! numbers of Table 3 and the power overheads of Figs. 6b and 10.

use crate::calib;
use crate::tech::TechNode;
use crate::units::{Energy, Power};

/// Which memory organization an access energy is charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MemKind {
    /// 6T SRAM array.
    #[default]
    Sram6t,
    /// 3T1D DRAM array (slightly higher per-access energy: diode boost).
    Dram3t1d,
}

/// Energy of one port access (read or write of one line's worth of bits).
pub fn access_energy(node: TechNode, kind: MemKind) -> Energy {
    let base = calib::access_energy(node);
    match kind {
        MemKind::Sram6t => base,
        MemKind::Dram3t1d => base * calib::T3_ACCESS_ENERGY_FACTOR,
    }
}

/// Energy to refresh one line (pipelined read + write back, §4.1).
pub fn refresh_energy(node: TechNode) -> Energy {
    calib::refresh_energy_per_line(node)
}

/// Energy to move one line between ways (an RSP-FIFO/RSP-LRU shuffle):
/// electrically the same read+write through the shared sense amps.
pub fn line_move_energy(node: TechNode) -> Energy {
    calib::refresh_energy_per_line(node)
}

/// Tallies dynamic-energy events for one simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyCounter {
    /// Normal-port read/write accesses.
    pub accesses: u64,
    /// Lines refreshed.
    pub line_refreshes: u64,
    /// Lines moved between ways (RSP schemes).
    pub line_moves: u64,
    /// Extra L2 accesses caused by retention expiry (each costs roughly an
    /// L2 read at ≈4× the L1 line energy given the 2 MB array).
    pub extra_l2_accesses: u64,
}

/// Relative energy cost of one L2 access versus one L1 access.
pub const L2_ACCESS_ENERGY_FACTOR: f64 = 4.0;

impl EnergyCounter {
    /// Creates a zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total dynamic energy for these events in the given organization.
    pub fn total_energy(&self, node: TechNode, kind: MemKind) -> Energy {
        let e_access = access_energy(node, kind);
        let e_l1_equiv = access_energy(node, MemKind::Sram6t);
        e_access * self.accesses as f64
            + refresh_energy(node) * self.line_refreshes as f64
            + line_move_energy(node) * self.line_moves as f64
            + e_l1_equiv * (L2_ACCESS_ENERGY_FACTOR * self.extra_l2_accesses as f64)
    }

    /// Merges another counter's events into this one.
    pub fn merge(&mut self, other: &EnergyCounter) {
        self.accesses += other.accesses;
        self.line_refreshes += other.line_refreshes;
        self.line_moves += other.line_moves;
        self.extra_l2_accesses += other.extra_l2_accesses;
    }
}

/// The Table 3 "full dynamic power" bound: all three ports active every
/// cycle at the nominal frequency.
pub fn full_dynamic_power(node: TechNode, kind: MemKind) -> Power {
    let per_cycle = access_energy(node, kind) * 3.0;
    Power::new(per_cycle.value() * node.chip_frequency().value())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_dynamic_power_matches_table3_6t() {
        for (node, mw) in [
            (TechNode::N65, 31.97),
            (TechNode::N45, 25.96),
            (TechNode::N32, 20.75),
        ] {
            let p = full_dynamic_power(node, MemKind::Sram6t);
            assert!((p.mw() - mw).abs() / mw < 0.02, "{node}: {} mW", p.mw());
        }
    }

    #[test]
    fn t3_access_costs_more_than_6t() {
        for node in TechNode::ALL {
            assert!(
                access_energy(node, MemKind::Dram3t1d) > access_energy(node, MemKind::Sram6t)
            );
        }
    }

    #[test]
    fn counter_energy_accumulates_linearly() {
        let node = TechNode::N32;
        let c = EnergyCounter {
            accesses: 100,
            line_refreshes: 10,
            line_moves: 5,
            extra_l2_accesses: 2,
        };
        let expected = access_energy(node, MemKind::Dram3t1d).value() * 100.0
            + refresh_energy(node).value() * 10.0
            + line_move_energy(node).value() * 5.0
            + access_energy(node, MemKind::Sram6t).value() * 8.0;
        assert!(
            (c.total_energy(node, MemKind::Dram3t1d).value() - expected).abs() < 1e-18
        );
    }

    #[test]
    fn merge_adds_fields() {
        let mut a = EnergyCounter {
            accesses: 1,
            line_refreshes: 2,
            line_moves: 3,
            extra_l2_accesses: 4,
        };
        a.merge(&a.clone());
        assert_eq!(a.accesses, 2);
        assert_eq!(a.line_refreshes, 4);
        assert_eq!(a.line_moves, 6);
        assert_eq!(a.extra_l2_accesses, 8);
    }

    #[test]
    fn global_refresh_overhead_band() {
        // §4.2: global refresh adds 0.3–1.25× of the ideal-6T mean dynamic
        // power. Sanity-check the refresh energy constant against that: a
        // 1024-line cache refreshed every ~1900 ns at 32 nm.
        let node = TechNode::N32;
        let refresh_per_sec = 1024.0 / 1.9e-6;
        let p_refresh = refresh_energy(node).value() * refresh_per_sec;
        // Ideal mean dynamic power ≈ 2.78 mW (Table 3).
        let ratio = p_refresh / 2.78e-3;
        assert!(ratio > 0.3 && ratio < 1.3, "refresh overhead ratio {ratio}");
    }
}
