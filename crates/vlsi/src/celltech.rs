//! Pluggable cell technologies evaluated at explicit operating points.
//!
//! The paper's pipeline hard-wires the 3T1D cell at the nominal corner of
//! each node. This module lifts the cell into a [`CellTechnology`] trait so
//! the same Monte-Carlo machinery (deviation planes, SoA batch kernels,
//! per-line min-folds) can sweep alternative memories across a DVFS grid:
//!
//! * [`T3t1dTech`] — the paper's 3T1D cell, delegating to the calibrated
//!   [`RetentionSolver`] and scaled by [`op_retention_scale`]. At the
//!   nominal operating point the scale is **exactly 1.0**, so every pinned
//!   golden (Table 3, fig06b/fig09 statistics) is reproduced bit-for-bit.
//! * [`SttArcTech`] — an asymmetric-retention STT-RAM in the style of ARC:
//!   per-cell retention follows the thermal-stability law
//!   `t ∝ τ_a·exp(Δ)` with `Δ ∝ 1/T`, and banks nearer the write drivers
//!   trade retention for write latency via [`CellTechnology::line_scale`].
//! * [`Lv6tTech`] — the 6T baseline at scaled supply with TS-Cache-style
//!   timing-speculation reads: cells whose cross-coupled mismatch fits the
//!   (speculation-widened, Vdd-dependent) noise margin are stable "forever";
//!   the rest are dead lines, exactly like short-retention 3T1D lines.
//!
//! Every implementation must keep its slice kernel bit-identical to its
//! scalar solve (the batch-path determinism contract), and must be
//! monotone: retention non-increasing in temperature, access time
//! non-increasing in supply voltage. Both are pinned by the workspace
//! property tests.

use crate::calib;
use crate::cell3t1d::{op_retention_scale, RetentionSolver};
use crate::leakage::{cell_leakage_3t1d, cell_leakage_6t};
use crate::tech::{OperatingPoint, TechNode, SIM_TEMPERATURE_KELVIN};
use crate::transistor::ALPHA_SAT;
use crate::units::{Energy, Power, Time, Voltage};
use crate::variation::{DeviceDeviation, VariationParams};
use std::fmt;
use std::str::FromStr;

/// STT-RAM: most-retentive bank's retention relative to the node's nominal
/// 3T1D retention (the densest bank is provisioned well past DRAM-class).
pub const STT_BASE_RETENTION_FACTOR: f64 = 4.0;
/// STT-RAM: attempt period τ_a of the thermal-stability law, in ns.
pub const STT_ATTEMPT_PERIOD_NS: f64 = 1.0;
/// STT-RAM: free-layer volume sensitivity of Δ to correlated ΔL/L.
pub const STT_SIZE_SENS: f64 = 2.0;
/// STT-RAM: Δ penalty per normalized MTJ parameter deviation.
pub const STT_MTJ_SENS: f64 = 4.0;
/// STT-RAM: number of asymmetric-retention banks (ARC's write-speed tiers).
pub const STT_BANKS: u32 = 4;
/// STT-RAM: per-bank retention relaxation (each faster bank keeps this
/// fraction of the previous bank's retention).
pub const STT_BANK_RETENTION_RELAX: f64 = 0.25;
/// STT-RAM: read path delay relative to the 6T array access.
pub const STT_READ_FACTOR: f64 = 1.1;
/// STT-RAM: cell (non-periphery) leakage relative to a 6T cell — the MTJ
/// itself is non-volatile; only the access transistor leaks.
pub const STT_LEAK_FRACTION: f64 = 0.05;
/// STT-RAM: scrub cost per line relative to the 3T1D refresh energy.
pub const STT_SCRUB_ENERGY_FACTOR: f64 = 1.4;

/// 6T-LV: noise-margin widening bought by timing-speculation reads
/// (marginal cells are re-read at relaxed timing instead of failing).
pub const TS_SPECULATION_WIDENING: f64 = 1.25;
/// 6T-LV: fractional margin loss per 100 °C above the 80 °C anchor.
pub const TS_MARGIN_TEMP_SLOPE: f64 = 0.3;
/// 6T-LV: retention assigned to a stable cell (1 s — "forever" next to the
/// µs-scale refresh machinery, but finite so min-folds stay ordinary).
pub const TS_STABLE_RETENTION_US: f64 = 1.0e6;
/// 6T-LV: speculative read's speedup over the committed 6T access.
pub const TS_SPECULATION_SPEEDUP: f64 = 0.85;
/// 6T-LV: misspeculation replay cost per line, as a fraction of the read
/// access energy.
pub const TS_REPLAY_ENERGY_FRACTION: f64 = 0.08;

/// The cell technologies the sweep machinery can instantiate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CellTechKind {
    /// The paper's 3T1D dynamic cell (the calibrated baseline).
    #[default]
    T3t1d,
    /// Asymmetric-retention STT-RAM banks (ARC-style).
    SttArc,
    /// Low-voltage 6T with timing-speculation reads (TS-Cache-style).
    Lv6t,
}

impl CellTechKind {
    /// Every supported technology, in canonical order.
    pub const ALL: [CellTechKind; 3] = [CellTechKind::T3t1d, CellTechKind::SttArc, CellTechKind::Lv6t];

    /// The stable identifier used in scenario specs, stage ids, and cache
    /// keys. Uses only `[a-z0-9-]`, safe for stage-id suffixes and paths.
    pub fn slug(self) -> &'static str {
        match self {
            CellTechKind::T3t1d => "3t1d",
            CellTechKind::SttArc => "stt-arc",
            CellTechKind::Lv6t => "6t-lv",
        }
    }

    /// Instantiates the technology model for a node at an operating point.
    pub fn build(self, node: TechNode, op: OperatingPoint) -> Box<dyn CellTechnology> {
        match self {
            CellTechKind::T3t1d => Box::new(T3t1dTech::new(node, op)),
            CellTechKind::SttArc => Box::new(SttArcTech::new(node, op)),
            CellTechKind::Lv6t => Box::new(Lv6tTech::new(node, op)),
        }
    }
}

impl fmt::Display for CellTechKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.slug())
    }
}

impl FromStr for CellTechKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "3t1d" => Ok(CellTechKind::T3t1d),
            "stt-arc" => Ok(CellTechKind::SttArc),
            "6t-lv" => Ok(CellTechKind::Lv6t),
            other => Err(format!(
                "unknown cell technology {other:?} (expected one of: 3t1d, stt-arc, 6t-lv)"
            )),
        }
    }
}

/// A memory cell technology evaluated at one `(node, operating point)`.
///
/// The contract the Monte-Carlo machinery depends on:
///
/// * [`retention_slice`](CellTechnology::retention_slice) must be
///   bit-identical element-wise to [`retention`](CellTechnology::retention)
///   — the batch kernels lean on this for their golden equivalence;
/// * a dead cell is exactly [`Time::ZERO`] (the line fold early-breaks on
///   it, and the batch kernels then leave the line's remaining pairs
///   unread, per the batch module's determinism contract);
/// * retention is non-increasing in `temp_c` and
///   [`access_time`](CellTechnology::access_time) is non-increasing in
///   `vdd`, cell-by-cell (pinned by the workspace property tests).
pub trait CellTechnology: fmt::Debug + Send + Sync {
    /// Which technology this is.
    fn kind(&self) -> CellTechKind;

    /// The technology node the model is built for.
    fn node(&self) -> TechNode;

    /// The operating point the model is evaluated at.
    fn operating_point(&self) -> OperatingPoint;

    /// Retention time of one cell from its raw deviation components: the
    /// correlated ΔL/L at the cell position and the two random-dopant Vth
    /// draws (in volts). Dead cells return exactly [`Time::ZERO`].
    fn retention(&self, dl: f64, dvth1_volts: f64, dvth2_volts: f64) -> Time;

    /// Batched [`retention`](CellTechnology::retention) over SoA deviation
    /// planes — must stay bit-identical element-wise to the scalar solve.
    ///
    /// # Panics
    ///
    /// Panics if the input slices have different lengths.
    fn retention_slice(
        &self,
        dl: &[f64],
        dvth1_volts: &[f64],
        dvth2_volts: &[f64],
        out: &mut Vec<Time>,
    ) {
        assert_eq!(dl.len(), dvth1_volts.len(), "retention_slice length mismatch");
        assert_eq!(dl.len(), dvth2_volts.len(), "retention_slice length mismatch");
        out.clear();
        out.reserve(dl.len());
        for i in 0..dl.len() {
            out.push(self.retention(dl[i], dvth1_volts[i], dvth2_volts[i]));
        }
    }

    /// Position-dependent retention multiplier applied *after* the
    /// per-line min-fold (e.g. ARC's per-bank relaxation). The default is
    /// exactly 1.0, which IEEE multiplication leaves bit-identical.
    fn line_scale(&self, _line: u32, _lines: u32) -> f64 {
        1.0
    }

    /// Nominal (deviation-free) array read access time at the operating
    /// point. Non-increasing in `vdd`.
    fn access_time(&self) -> Time;

    /// Static power of one nominal cell at the operating point.
    fn cell_leakage(&self) -> Power;

    /// Per-line refresh / scrub / replay energy at the operating point —
    /// whatever periodic maintenance the technology needs to keep a line
    /// readable.
    fn refresh_energy_per_line(&self) -> Energy;

    /// Whether lines decay and need periodic refresh at all (drives the
    /// counter machinery; 6T-LV lines are either stable or dead).
    fn needs_refresh(&self) -> bool {
        true
    }
}

/// Read-path slowdown of running the array at `vdd` instead of the node's
/// rail: the alpha-power-law drive loss `(V_ov_nom / V_ov)^α`.
///
/// Exactly 1.0 at the nominal rail; `+∞` when the gate can no longer turn
/// on. Strictly decreasing in `vdd` above threshold, which is what makes
/// every technology's access time non-increasing in supply.
pub fn drive_slowdown(node: TechNode, vdd: Voltage) -> f64 {
    let ovd = (vdd - node.vth_nominal()).volts();
    if ovd <= 0.0 {
        return f64::INFINITY;
    }
    let ovd_nom = (node.vdd() - node.vth_nominal()).volts();
    (ovd_nom / ovd).powf(ALPHA_SAT)
}

/// The paper's 3T1D cell as a [`CellTechnology`]: the calibrated
/// [`RetentionSolver`] scaled by [`op_retention_scale`] (exactly 1.0 at
/// the nominal operating point, so the baseline pipeline is bit-identical).
#[derive(Debug, Clone, Copy)]
pub struct T3t1dTech {
    node: TechNode,
    op: OperatingPoint,
    solver: RetentionSolver,
    scale: f64,
}

impl T3t1dTech {
    /// Builds the 3T1D model for `node` at `op`.
    pub fn new(node: TechNode, op: OperatingPoint) -> Self {
        Self {
            node,
            op,
            solver: RetentionSolver::new(node),
            scale: op_retention_scale(node, op),
        }
    }
}

impl CellTechnology for T3t1dTech {
    fn kind(&self) -> CellTechKind {
        CellTechKind::T3t1d
    }

    fn node(&self) -> TechNode {
        self.node
    }

    fn operating_point(&self) -> OperatingPoint {
        self.op
    }

    fn retention(&self, dl: f64, dvth1_volts: f64, dvth2_volts: f64) -> Time {
        self.solver.retention(dl, dvth1_volts, dvth2_volts) * self.scale
    }

    fn retention_slice(
        &self,
        dl: &[f64],
        dvth1_volts: &[f64],
        dvth2_volts: &[f64],
        out: &mut Vec<Time>,
    ) {
        self.solver.retention_slice(dl, dvth1_volts, dvth2_volts, out);
        for t in out.iter_mut() {
            *t = *t * self.scale;
        }
    }

    fn access_time(&self) -> Time {
        // Fresh ("1" just written) 3T1D read, slowed by the supply's drive loss.
        let fresh = crate::cell3t1d::access_time(
            self.node,
            DeviceDeviation::NOMINAL,
            DeviceDeviation::NOMINAL,
            Time::ZERO,
        );
        fresh * drive_slowdown(self.node, self.op.vdd)
    }

    fn cell_leakage(&self) -> Power {
        // Rail current scales with the supply; subthreshold leakage follows
        // the same Arrhenius law whose inverse lengthens retention.
        let vdd_ratio = self.op.vdd.volts() / self.node.vdd().volts();
        let temp = crate::cell3t1d::retention_temperature_factor(self.op.temp_c);
        cell_leakage_3t1d(self.node, DeviceDeviation::NOMINAL) * (vdd_ratio / temp)
    }

    fn refresh_energy_per_line(&self) -> Energy {
        let vdd_ratio = self.op.vdd.volts() / self.node.vdd().volts();
        calib::refresh_energy_per_line(self.node) * (vdd_ratio * vdd_ratio)
    }
}

/// ARC-style asymmetric-retention STT-RAM: thermal-stability retention
/// `τ_a·exp(Δ)` with `Δ ∝ 1/T`, per-cell Δ varied by free-layer size
/// (via ΔL/L) and MTJ parameter deviations (via the Vth draws), and
/// per-bank retention relaxation through [`CellTechnology::line_scale`].
#[derive(Debug, Clone, Copy)]
pub struct SttArcTech {
    node: TechNode,
    op: OperatingPoint,
    /// Δ of the nominal cell at the operating temperature.
    delta_nom: f64,
    inv_vth_nom: f64,
}

impl SttArcTech {
    /// Builds the STT-RAM model for `node` at `op`.
    pub fn new(node: TechNode, op: OperatingPoint) -> Self {
        // Anchor: the nominal cell of the densest bank retains
        // STT_BASE_RETENTION_FACTOR × the node's nominal 3T1D retention at
        // the 80 °C test temperature; Δ scales as 1/T away from it.
        let base_ns = STT_BASE_RETENTION_FACTOR * calib::nominal_retention(node).ns();
        let delta_80c = (base_ns / STT_ATTEMPT_PERIOD_NS).ln();
        let t_kelvin = op.temp_c + 273.15;
        assert!(t_kelvin > 0.0, "temperature below absolute zero");
        Self {
            node,
            op,
            delta_nom: delta_80c * (SIM_TEMPERATURE_KELVIN / t_kelvin),
            inv_vth_nom: 1.0 / node.vth_nominal().volts(),
        }
    }
}

impl CellTechnology for SttArcTech {
    fn kind(&self) -> CellTechKind {
        CellTechKind::SttArc
    }

    fn node(&self) -> TechNode {
        self.node
    }

    fn operating_point(&self) -> OperatingPoint {
        self.op
    }

    fn retention(&self, dl: f64, dvth1_volts: f64, dvth2_volts: f64) -> Time {
        // Free-layer volume tracks the lithographic deviation (bigger cell
        // ⇒ higher barrier); MTJ parameter spread erodes the barrier. The
        // size bracket is clamped positive so Δ keeps its 1/T shape.
        let size = (1.0 + STT_SIZE_SENS * dl).max(0.05);
        let mtj = STT_MTJ_SENS * 0.5 * (dvth1_volts + dvth2_volts) * self.inv_vth_nom;
        let delta = self.delta_nom * size - self.delta_nom * mtj.max(0.0);
        if delta <= 0.0 {
            return Time::ZERO;
        }
        Time::from_ns(STT_ATTEMPT_PERIOD_NS * delta.min(60.0).exp())
    }

    fn line_scale(&self, line: u32, lines: u32) -> f64 {
        // ARC's write-speed tiers: bank 0 is the retentive/slow-write tier,
        // each later bank keeps STT_BANK_RETENTION_RELAX of the previous.
        let bank = (line as u64 * STT_BANKS as u64 / lines.max(1) as u64) as i32;
        STT_BANK_RETENTION_RELAX.powi(bank.min(STT_BANKS as i32 - 1))
    }

    fn access_time(&self) -> Time {
        self.node.sram_access_nominal() * STT_READ_FACTOR * drive_slowdown(self.node, self.op.vdd)
    }

    fn cell_leakage(&self) -> Power {
        // The MTJ is non-volatile; only the access transistor leaks.
        let vdd_ratio = self.op.vdd.volts() / self.node.vdd().volts();
        cell_leakage_6t(self.node, DeviceDeviation::NOMINAL) * (STT_LEAK_FRACTION * vdd_ratio)
    }

    fn refresh_energy_per_line(&self) -> Energy {
        // Relaxed banks are scrubbed; STT writes cost more than a 3T1D
        // restore.
        let vdd_ratio = self.op.vdd.volts() / self.node.vdd().volts();
        calib::refresh_energy_per_line(self.node)
            * (STT_SCRUB_ENERGY_FACTOR * vdd_ratio * vdd_ratio)
    }
}

/// TS-Cache-style low-voltage 6T: cells whose cross-coupled Vth mismatch
/// fits the speculation-widened noise margin are stable (retention
/// [`TS_STABLE_RETENTION_US`]); the rest are dead lines. The margin shrinks
/// with the supply and with temperature, so dropping Vdd converts lines to
/// dead exactly the way short retention does for 3T1D.
#[derive(Debug, Clone, Copy)]
pub struct Lv6tTech {
    node: TechNode,
    op: OperatingPoint,
    /// Mismatch budget in volts at this operating point.
    margin_volts: f64,
}

impl Lv6tTech {
    /// Builds the low-voltage 6T model for `node` at `op`.
    pub fn new(node: TechNode, op: OperatingPoint) -> Self {
        // Nominal margin: the calibrated k·σ budget of the typical-corner
        // cross-coupled pair (same anchor as `cell6t::bit_flip_probability`).
        let sigma_pair =
            std::f64::consts::SQRT_2 * VariationParams::TYPICAL.sigma_vth(node).volts();
        let nominal = calib::stability_margin_sigmas(node) * sigma_pair;
        // The margin collapses linearly as the rail approaches Vth, softens
        // with temperature, and is widened by the speculative re-read.
        let ovd_nom = (node.vdd() - node.vth_nominal()).volts();
        let vdd_frac = ((op.vdd - node.vth_nominal()).volts() / ovd_nom).clamp(0.0, 2.0);
        let temp_frac =
            (1.0 - TS_MARGIN_TEMP_SLOPE * (op.temp_c - crate::tech::SIM_TEMPERATURE_C) / 100.0)
                .max(0.0);
        Self {
            node,
            op,
            margin_volts: nominal * vdd_frac * temp_frac * TS_SPECULATION_WIDENING,
        }
    }
}

impl CellTechnology for Lv6tTech {
    fn kind(&self) -> CellTechKind {
        CellTechKind::Lv6t
    }

    fn node(&self) -> TechNode {
        self.node
    }

    fn operating_point(&self) -> OperatingPoint {
        self.op
    }

    fn retention(&self, _dl: f64, dvth1_volts: f64, dvth2_volts: f64) -> Time {
        // The two independent draws stand in for the cross-coupled pair's
        // mismatch (difference of two N(0,σ) draws has the pair's √2·σ).
        let mismatch = (dvth1_volts - dvth2_volts).abs();
        if mismatch >= self.margin_volts {
            Time::ZERO
        } else {
            Time::from_us(TS_STABLE_RETENTION_US)
        }
    }

    fn access_time(&self) -> Time {
        self.node.sram_access_nominal()
            * TS_SPECULATION_SPEEDUP
            * drive_slowdown(self.node, self.op.vdd)
    }

    fn cell_leakage(&self) -> Power {
        // Subthreshold rail current drops roughly quadratically with Vdd
        // (rail × DIBL headroom).
        let vdd_ratio = self.op.vdd.volts() / self.node.vdd().volts();
        cell_leakage_6t(self.node, DeviceDeviation::NOMINAL) * (vdd_ratio * vdd_ratio)
    }

    fn refresh_energy_per_line(&self) -> Energy {
        // No decay to refresh; the periodic cost is the misspeculation
        // replay share of ordinary reads.
        let vdd_ratio = self.op.vdd.volts() / self.node.vdd().volts();
        calib::access_energy(self.node) * (TS_REPLAY_ENERGY_FRACTION * vdd_ratio * vdd_ratio)
    }

    fn needs_refresh(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nominal(kind: CellTechKind) -> Box<dyn CellTechnology> {
        kind.build(TechNode::N32, OperatingPoint::nominal(TechNode::N32))
    }

    #[test]
    fn slugs_round_trip() {
        for kind in CellTechKind::ALL {
            assert_eq!(kind.slug().parse::<CellTechKind>().unwrap(), kind);
            assert_eq!(kind.to_string(), kind.slug());
        }
        assert!("sram".parse::<CellTechKind>().is_err());
    }

    #[test]
    fn t3t1d_is_bit_identical_to_the_solver_at_nominal() {
        let node = TechNode::N32;
        let tech = T3t1dTech::new(node, OperatingPoint::nominal(node));
        let solver = RetentionSolver::new(node);
        for (dl, d1, d2) in [
            (0.0, 0.0, 0.0),
            (0.03, -0.02, 0.015),
            (-0.05, 0.04, -0.03),
            (0.08, 0.12, 0.10), // dead
        ] {
            assert_eq!(tech.retention(dl, d1, d2), solver.retention(dl, d1, d2));
        }
    }

    #[test]
    fn t3t1d_scaled_op_shrinks_retention() {
        let node = TechNode::N32;
        let nom = T3t1dTech::new(node, OperatingPoint::nominal(node));
        let scaled = T3t1dTech::new(
            node,
            OperatingPoint::nominal(node)
                .with_vdd(Voltage::new(0.9))
                .with_temp_c(95.0),
        );
        let r_nom = nom.retention(0.0, 0.0, 0.0);
        let r_scaled = scaled.retention(0.0, 0.0, 0.0);
        assert!(r_scaled < r_nom, "{} vs {}", r_scaled.ns(), r_nom.ns());
        assert!(r_scaled > Time::ZERO);
    }

    #[test]
    fn every_slice_kernel_matches_its_scalar() {
        let dl = [0.0, 0.02, -0.04, 0.08, -0.01];
        let d1 = [0.0, -0.03, 0.05, 0.11, 0.002];
        let d2 = [0.0, 0.01, -0.02, 0.09, -0.004];
        for kind in CellTechKind::ALL {
            let tech = nominal(kind);
            let mut out = Vec::new();
            tech.retention_slice(&dl, &d1, &d2, &mut out);
            for i in 0..dl.len() {
                assert_eq!(out[i], tech.retention(dl[i], d1[i], d2[i]), "{kind} cell {i}");
            }
        }
    }

    #[test]
    fn stt_retention_exceeds_3t1d_at_nominal() {
        let stt = nominal(CellTechKind::SttArc);
        let t3 = nominal(CellTechKind::T3t1d);
        assert!(stt.retention(0.0, 0.0, 0.0) > t3.retention(0.0, 0.0, 0.0));
    }

    #[test]
    fn stt_bank_scales_are_relaxing() {
        let stt = nominal(CellTechKind::SttArc);
        let lines = 2048;
        let first = stt.line_scale(0, lines);
        let last = stt.line_scale(lines - 1, lines);
        assert_eq!(first, 1.0);
        assert!(last < first);
        // Monotone non-increasing across the whole array.
        let mut prev = f64::INFINITY;
        for line in (0..lines).step_by(64) {
            let s = stt.line_scale(line, lines);
            assert!(s <= prev, "line {line}");
            prev = s;
        }
    }

    #[test]
    fn lv6t_margin_shrinks_with_vdd() {
        let node = TechNode::N32;
        let nom = Lv6tTech::new(node, OperatingPoint::nominal(node));
        let low = Lv6tTech::new(node, OperatingPoint::nominal(node).with_vdd(Voltage::new(0.7)));
        // A mismatch that fits the nominal margin but not the scaled one.
        let m = (nom.margin_volts + low.margin_volts) / 2.0;
        assert_eq!(nom.retention(0.0, m / 2.0, -m / 2.0).us(), TS_STABLE_RETENTION_US);
        assert_eq!(low.retention(0.0, m / 2.0, -m / 2.0), Time::ZERO);
    }

    #[test]
    fn access_times_slow_down_at_low_vdd() {
        let node = TechNode::N32;
        for kind in CellTechKind::ALL {
            let nom = kind.build(node, OperatingPoint::nominal(node));
            let low = kind.build(
                node,
                OperatingPoint::nominal(node).with_vdd(Voltage::new(0.8)),
            );
            assert!(low.access_time() > nom.access_time(), "{kind}");
        }
    }

    #[test]
    fn drive_slowdown_shape() {
        let node = TechNode::N32;
        assert_eq!(drive_slowdown(node, node.vdd()), 1.0);
        assert!(drive_slowdown(node, Voltage::new(0.8)) > 1.0);
        assert!(drive_slowdown(node, Voltage::new(1.2)) < 1.0);
        assert_eq!(drive_slowdown(node, Voltage::new(0.2)), f64::INFINITY);
    }

    #[test]
    fn refresh_and_leakage_are_positive_everywhere() {
        for kind in CellTechKind::ALL {
            for node in TechNode::ALL {
                let tech = kind.build(node, OperatingPoint::nominal(node));
                assert!(tech.cell_leakage().value() > 0.0, "{kind} {node}");
                assert!(tech.refresh_energy_per_line().value() > 0.0, "{kind} {node}");
                assert!(tech.access_time() > Time::ZERO, "{kind} {node}");
            }
        }
        assert!(nominal(CellTechKind::T3t1d).needs_refresh());
        assert!(nominal(CellTechKind::SttArc).needs_refresh());
        assert!(!nominal(CellTechKind::Lv6t).needs_refresh());
    }
}
