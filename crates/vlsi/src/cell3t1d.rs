//! 3T1D DRAM cell model: storage decay, access time, and retention (§2.2).
//!
//! The cell (Fig. 3) stores a degraded "1" of `V₀ = V_dd − k·V_th` on the
//! gated-diode node. On a read, the diode boosts T2's gate to
//! `BOOST_GAIN·V(t)`; the read is as fast as a 6T cell for as long as the
//! boosted overdrive stays above a threshold. The stored charge decays
//! exponentially with time constant τ set by the storage-node leakage, so
//! the access time rises over time (Fig. 4) and the **retention time** —
//! redefined by the paper as *the period during which the access speed
//! matches a 6T cell* — is:
//!
//! ```text
//! t_ret = τ · ln(V₀ / V_min),          dead if V₀ ≤ V_min
//! ```
//!
//! Process variation enters through every term: Vth(T1) sets both `V₀` and
//! (exponentially) τ; Vth(T2) and the gate lengths set `V_min`. This is the
//! paper's central observation — *all* device variation lumps into a single
//! per-cell retention time, while the access speed at the nominal clock is
//! preserved.
//!
//! # Examples
//!
//! ```
//! use vlsi::cell3t1d::retention_time;
//! use vlsi::tech::TechNode;
//! use vlsi::variation::DeviceDeviation;
//!
//! let t = retention_time(TechNode::N32, DeviceDeviation::NOMINAL, DeviceDeviation::NOMINAL);
//! assert!((t.us() - 6.0).abs() < 0.01); // §4.1: ≈6000 ns at 32 nm
//! ```

use crate::calib::{
    self, BOOST_GAIN, LAMBDA_RETENTION, RETENTION_LEAK_INSENSITIVE_FRAC, RETENTION_LOG_MARGIN,
    WRITE_BODY_FACTOR,
};
use crate::tech::{OperatingPoint, TechNode};
use crate::units::{Time, Voltage};
use crate::variation::DeviceDeviation;
use std::sync::LazyLock;

/// The voltage initially stored for a "1" through write transistor T1
/// (degraded by the body-affected threshold drop; the boosted write
/// wordline damps the *deviation* part — [`calib::V0_WRITE_VTH_COUPLING`]).
pub fn stored_one_voltage(node: TechNode, dev_t1: DeviceDeviation) -> Voltage {
    let v0 = node.vdd().volts()
        - WRITE_BODY_FACTOR * node.vth_nominal().volts()
        - calib::V0_WRITE_VTH_COUPLING * dev_t1.vth_total(node).volts();
    Voltage::new(v0.max(0.0))
}

/// The exponential decay time constant of the storage node.
///
/// A fraction [`RETENTION_LEAK_INSENSITIVE_FRAC`] of the leakage is
/// junction/gate leakage (variation-insensitive); the rest is subthreshold
/// conduction through T1 with exponential Vth and channel-length (DIBL)
/// sensitivity.
pub fn decay_tau(node: TechNode, dev_t1: DeviceDeviation) -> Time {
    let tau0 = Time::new(calib::nominal_retention(node).value() / RETENTION_LOG_MARGIN);
    // The slope is calibrated at the paper's worst-case test temperature;
    // operating temperature enters retention only through the Arrhenius
    // factor ([`retention_temperature_factor`]), never the slope.
    let nvt = calib::RETENTION_SLOPE_IDEALITY
        * OperatingPoint::nominal(node).thermal_voltage().volts();
    let x = -dev_t1.vth_total(node).volts() / nvt - LAMBDA_RETENTION * dev_t1.dl_frac;
    let subthreshold_mult = x.clamp(-30.0, 30.0).exp();
    let rho = RETENTION_LEAK_INSENSITIVE_FRAC;
    Time::new(tau0.value() / (rho + (1.0 - rho) * subthreshold_mult))
}

/// The minimum storage voltage at which a read through T2 still meets the
/// 6T timing, for a cell with read-path deviation `dev_t2`.
///
/// `V_min = V_min_nom · exp(A·x̂ + B·max(x̂,0)² + C·ΔL/L)` with
/// `x̂ = ΔVth₂(random)/Vth_nom` — see the derivation notes on the
/// [`calib::VMIN_LIN_SENS`] constants. The quadratic weak-side term models
/// the gated-diode boost collapsing for high-Vth read devices; it is the
/// mechanism that produces outright *dead* cells under severe variation.
/// Correlated channel-length deviation couples only weakly (`C`): it slows
/// the reference 6T timing together with the 3T1D read path, so most of it
/// cancels out of the retention criterion.
pub fn min_storage_voltage(node: TechNode, dev_t2: DeviceDeviation) -> Voltage {
    let vmin_nom =
        stored_one_voltage(node, DeviceDeviation::NOMINAL).volts() * (-RETENTION_LOG_MARGIN).exp();
    let x_hat = dev_t2.dvth_random.volts() / node.vth_nominal().volts();
    let exponent = calib::VMIN_LIN_SENS * x_hat
        + calib::VMIN_QUAD_SENS * x_hat.max(0.0).powi(2)
        + calib::VMIN_DL_SENS * dev_t2.dl_frac;
    Voltage::new(vmin_nom * exponent.clamp(-20.0, 20.0).exp())
}

/// The retention time of a single 3T1D cell: the period after a write
/// during which its access speed matches the nominal 6T array.
///
/// Returns [`Time::ZERO`] for a *dead* cell (one whose fresh stored level
/// already fails the timing).
pub fn retention_time(node: TechNode, dev_t1: DeviceDeviation, dev_t2: DeviceDeviation) -> Time {
    let v0 = stored_one_voltage(node, dev_t1).volts();
    let vmin = min_storage_voltage(node, dev_t2).volts();
    if v0 <= vmin || vmin <= 0.0 {
        return Time::ZERO;
    }
    let tau = decay_tau(node, dev_t1);
    Time::new(tau.value() * (v0 / vmin).ln())
}

// --- Fast per-node retention solver ---------------------------------------
//
// `retention_time` is called once per cell in the Monte-Carlo sampling loops
// (1024 lines × 544 cells ≈ 557 k solves per chip product). Most of its work
// is node-constant: the nominal stored level, `V_min_nom`, `τ₀`, and the
// subthreshold slope never change within a chip. `RetentionSolver` hoists
// all of those out of the loop and replaces the remaining transcendental
// solve with one `ln` plus one table-interpolated `exp`.
//
// Accuracy contract (pinned by tests below): the solver classifies
// dead/alive cells by the sign of the *log-domain margin*
// `ln V₀ − (ln V_min_nom + exponent)`, which is algebraically identical to
// `V₀ ≤ V_min`, and reproduces `retention_time` to ≤1e-9 relative error on
// alive cells (the only approximation is the τ exponential, interpolated to
// ~2e-12 relative error). Dead cells return exactly `Time::ZERO` on both
// paths.

/// Number of intervals in the shared `exp` interpolation table.
const EXP_TABLE_N: usize = 4096;
/// Domain covered by the table — callers clamp harder (±30 for τ, ±20 for
/// the V_min exponent), so this range is never exceeded.
const EXP_TABLE_MIN: f64 = -30.0;
const EXP_TABLE_MAX: f64 = 30.0;
const EXP_TABLE_STEP: f64 = (EXP_TABLE_MAX - EXP_TABLE_MIN) / EXP_TABLE_N as f64;

/// `exp` at each table node, shared process-wide (built once, ~32 KiB).
static EXP_TABLE: LazyLock<Vec<f64>> = LazyLock::new(|| {
    (0..=EXP_TABLE_N)
        .map(|i| (EXP_TABLE_MIN + i as f64 * EXP_TABLE_STEP).exp())
        .collect()
});

/// Interpolated `exp(x)` for `x` within the table domain: anchor at the
/// table node below `x`, then a cubic Taylor correction for the sub-step
/// offset. Max relative error ≈ step⁴/24 ≈ 2e-12.
#[inline]
fn exp_interp(x: f64) -> f64 {
    debug_assert!((EXP_TABLE_MIN..=EXP_TABLE_MAX).contains(&x));
    let t = (x - EXP_TABLE_MIN) / EXP_TABLE_STEP;
    let i = (t as usize).min(EXP_TABLE_N - 1);
    let dx = x - (EXP_TABLE_MIN + i as f64 * EXP_TABLE_STEP);
    // Quartic Taylor correction: with dx < step ≈ 0.0147, the remainder
    // step⁵/120 bounds the relative error below 6e-12.
    EXP_TABLE[i] * (1.0 + dx * (1.0 + dx * (0.5 + dx * (1.0 / 6.0 + dx * (1.0 / 24.0)))))
}

/// Precomputed per-node retention solve: everything in [`retention_time`]
/// that does not depend on the individual cell's deviations, hoisted out of
/// the 557 k-cell Monte-Carlo inner loop.
#[derive(Debug, Clone, Copy)]
pub struct RetentionSolver {
    /// `V_dd − k·V_th_nom` — the deviation-free part of the stored "1".
    v0_base: f64,
    /// `V_th_nom · SCE_COUPLING`: ΔL→ΔVth coupling slope.
    sce_vth: f64,
    /// `1 / V_th_nom` (normalizes the read-path random deviation).
    inv_vth_nom: f64,
    /// `ln V_min_nom` — the log-domain anchor of the timing floor.
    ln_vmin_nom: f64,
    /// `τ₀ = t_ret_nom / ln(V₀/V_min)_nom`.
    tau0: f64,
    /// `n·v_T` of the subthreshold slope.
    nvt: f64,
    /// Variation-insensitive leakage fraction ρ.
    rho: f64,
}

impl RetentionSolver {
    /// Precompute the node-wide constants of the retention model so that
    /// [`RetentionSolver::retention`] only does per-cell arithmetic.
    pub fn new(node: TechNode) -> Self {
        let vth_nom = node.vth_nominal().volts();
        let v0_nom = stored_one_voltage(node, DeviceDeviation::NOMINAL).volts();
        let vmin_nom = v0_nom * (-RETENTION_LOG_MARGIN).exp();
        assert!(vmin_nom > 0.0, "node {node} stores no usable level");
        RetentionSolver {
            v0_base: node.vdd().volts() - WRITE_BODY_FACTOR * vth_nom,
            sce_vth: vth_nom * crate::variation::SCE_COUPLING,
            inv_vth_nom: 1.0 / vth_nom,
            ln_vmin_nom: vmin_nom.ln(),
            tau0: calib::nominal_retention(node).value() / RETENTION_LOG_MARGIN,
            // Pinned at the 80 °C calibration anchor (see `decay_tau`).
            nvt: calib::RETENTION_SLOPE_IDEALITY
                * OperatingPoint::nominal(node).thermal_voltage().volts(),
            rho: RETENTION_LEAK_INSENSITIVE_FRAC,
        }
    }

    /// Retention time from raw deviation components: the shared correlated
    /// ΔL/L at the cell position plus the two random-dopant Vth draws (in
    /// volts) of the write (T1) and read (T2) transistors.
    ///
    /// Equivalent to [`retention_time`] with
    /// `DeviceDeviation { dl_frac: dl, dvth_random: dvth1/dvth2 }` — see the
    /// accuracy contract above.
    #[inline]
    pub fn retention(&self, dl: f64, dvth1_volts: f64, dvth2_volts: f64) -> Time {
        // V₀ through the write path.
        let vth_total1 = dvth1_volts + self.sce_vth * dl;
        let v0 = self.v0_base - calib::V0_WRITE_VTH_COUPLING * vth_total1;
        if v0 <= 0.0 {
            return Time::ZERO;
        }
        let margin = v0.ln() - self.ln_floor(dl, dvth2_volts);
        if margin <= 0.0 {
            return Time::ZERO;
        }
        Time::new(self.tau(vth_total1, dl) * margin)
    }

    /// The log-domain timing floor `ln V_min` of a cell's read path:
    /// `ln V_min_nom` plus the clamped ΔVth₂/ΔL exponent. A cell is alive
    /// while `ln V₀` exceeds it, and its retention is `τ · (ln V₀ − floor)`.
    #[inline]
    pub(crate) fn ln_floor(&self, dl: f64, dvth2_volts: f64) -> f64 {
        let x_hat = dvth2_volts * self.inv_vth_nom;
        let exponent = (calib::VMIN_LIN_SENS * x_hat
            + calib::VMIN_QUAD_SENS * x_hat.max(0.0).powi(2)
            + calib::VMIN_DL_SENS * dl)
            .clamp(-20.0, 20.0);
        self.ln_vmin_nom + exponent
    }

    /// Decay constant through the write path's subthreshold leakage, for a
    /// total T1 threshold shift `vth_total1` at ΔL/L `dl`.
    #[inline]
    fn tau(&self, vth_total1: f64, dl: f64) -> f64 {
        let x = (-vth_total1 / self.nvt - LAMBDA_RETENTION * dl).clamp(-30.0, 30.0);
        self.tau0 / (self.rho + (1.0 - self.rho) * exp_interp(x))
    }

    /// Lower bounds on the write-path factors of every cell at ΔL/L `dl`
    /// whose T1 random deviation lies in `[lo, hi]` volts: `(τ, ln V₀)`.
    ///
    /// τ rises with ΔVth₁ (less subthreshold leakage), so its bound is its
    /// value at `lo`; `ln V₀` falls with ΔVth₁, so its bound is its value
    /// at `hi`, or −∞ when `V₀ ≤ 0` there. Every step of both expressions
    /// is monotone in floating point, except the interpolated `exp`, whose
    /// segment seams can step by about 1e-11 relative. So for any such
    /// cell with `ln V₀_lo > floor`, its [`retention`] is at least
    /// `τ_lo · (ln V₀_lo − floor) · (1 − 2e-11)`.
    ///
    /// [`retention`]: RetentionSolver::retention
    pub(crate) fn write_path_bounds(&self, dl: f64, lo: f64, hi: f64) -> (f64, f64) {
        let tau_lo = self.tau(lo + self.sce_vth * dl, dl);
        let v0_hi = self.v0_base - calib::V0_WRITE_VTH_COUPLING * (hi + self.sce_vth * dl);
        let ln_v0_lo = if v0_hi <= 0.0 {
            f64::NEG_INFINITY
        } else {
            v0_hi.ln()
        };
        (tau_lo, ln_v0_lo)
    }

    /// Batched [`RetentionSolver::retention`] over SoA deviation planes:
    /// `out[i] = retention(dl[i], dvth1[i], dvth2[i])`, one tight loop over
    /// contiguous slices. Bit-identical to the scalar solve element-wise —
    /// the Monte-Carlo batch path leans on this for its golden equivalence.
    ///
    /// # Panics
    ///
    /// Panics if the input slices have different lengths.
    pub fn retention_slice(
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
}

/// Batched [`stored_one_voltage`] over SoA deviation planes: element `i`
/// equals the scalar call with
/// `DeviceDeviation { dl_frac: dl[i], dvth_random: dvth1_volts[i] }`
/// bit-for-bit (the same expression evaluated in the same order).
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn stored_one_voltage_slice(
    node: TechNode,
    dl: &[f64],
    dvth1_volts: &[f64],
    out: &mut Vec<Voltage>,
) {
    assert_eq!(dl.len(), dvth1_volts.len(), "stored_one_voltage_slice length mismatch");
    out.clear();
    out.reserve(dl.len());
    for i in 0..dl.len() {
        let dev = DeviceDeviation {
            dl_frac: dl[i],
            dvth_random: Voltage::new(dvth1_volts[i]),
        };
        out.push(stored_one_voltage(node, dev));
    }
}

/// Batched [`decay_tau`] over SoA deviation planes, bit-identical to the
/// scalar call element-wise.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn decay_tau_slice(node: TechNode, dl: &[f64], dvth1_volts: &[f64], out: &mut Vec<Time>) {
    assert_eq!(dl.len(), dvth1_volts.len(), "decay_tau_slice length mismatch");
    out.clear();
    out.reserve(dl.len());
    for i in 0..dl.len() {
        let dev = DeviceDeviation {
            dl_frac: dl[i],
            dvth_random: Voltage::new(dvth1_volts[i]),
        };
        out.push(decay_tau(node, dev));
    }
}

/// Multiplier on retention time when the die runs at `temp_c` instead of
/// the 80 °C worst-case test temperature: leakage follows an Arrhenius law
/// with activation energy [`calib::RETENTION_ACTIVATION_EV`], so cooler
/// dies retain substantially longer (the §4.3.1 margin left on the table
/// by worst-case-temperature counter programming).
///
/// # Panics
///
/// Panics if `temp_c` is below absolute zero.
pub fn retention_temperature_factor(temp_c: f64) -> f64 {
    let t = temp_c + 273.15;
    assert!(t > 0.0, "temperature below absolute zero");
    let t0 = crate::tech::SIM_TEMPERATURE_KELVIN;
    const K_EV: f64 = 8.617_333e-5; // Boltzmann constant in eV/K
    // Leakage ∝ exp(−Ea/kT): retention ∝ 1/leakage.
    (calib::RETENTION_ACTIVATION_EV / K_EV * (1.0 / t - 1.0 / t0)).exp()
}

/// Multiplier on retention time when the cache runs at supply `vdd`
/// instead of the node's nominal: a lower rail stores a lower "1"
/// (`V₀ = V_dd − k·V_th`), shrinking the usable decay margin
/// `ln(V₀/V_min)` — §5's "scaling voltage to lower levels also impacts
/// retention times" (design points 3 and 5 of Fig. 12).
///
/// Returns 0 when the supply can no longer store a usable level.
pub fn retention_vdd_factor(node: TechNode, vdd: Voltage) -> f64 {
    let v0_nom = stored_one_voltage(node, DeviceDeviation::NOMINAL).volts();
    let vmin_nom = v0_nom * (-RETENTION_LOG_MARGIN).exp();
    let v0 = vdd.volts() - WRITE_BODY_FACTOR * node.vth_nominal().volts();
    if v0 <= vmin_nom {
        return 0.0;
    }
    (v0 / vmin_nom).ln() / RETENTION_LOG_MARGIN
}

/// The storage-node voltage `elapsed` after a write of "1".
pub fn storage_voltage_at(node: TechNode, dev_t1: DeviceDeviation, elapsed: Time) -> Voltage {
    assert!(elapsed.value() >= 0.0, "elapsed time cannot be negative");
    let v0 = stored_one_voltage(node, dev_t1);
    let tau = decay_tau(node, dev_t1);
    Voltage::new(v0.volts() * (-elapsed.value() / tau.value()).exp())
}

/// The boosted T2 gate voltage during a read, `elapsed` after a write
/// (the Fig. 3 waveform: a fresh 0.6 V "1" is boosted to ≈1.13 V at 32 nm).
pub fn boosted_read_voltage(node: TechNode, dev_t1: DeviceDeviation, elapsed: Time) -> Voltage {
    storage_voltage_at(node, dev_t1, elapsed) * BOOST_GAIN
}

/// Array access time through a 3T1D cell `elapsed` after its last write
/// (the Fig. 4 curve). While the stored level exceeds the cell's minimum
/// usable voltage the cell is *faster* than 6T; past the retention time it
/// is slower; once the headroom is gone the access never completes within
/// any useful window (represented as 1 µs).
///
/// The curve crosses the nominal 6T access time exactly at the cell's
/// [`retention_time`], for any device deviation.
pub fn access_time(
    node: TechNode,
    dev_t1: DeviceDeviation,
    dev_t2: DeviceDeviation,
    elapsed: Time,
) -> Time {
    let nominal = node.sram_access_nominal();
    let periphery = nominal * (1.0 - calib::CELL_DELAY_FRACTION);
    let cell_nominal = nominal * calib::CELL_DELAY_FRACTION;

    let v = storage_voltage_at(node, dev_t1, elapsed).volts();
    let vmin = min_storage_voltage(node, dev_t2).volts();
    if v <= 0.05 * vmin {
        return Time::from_us(1.0);
    }
    // delay ∝ (V_min / V)^γ relative to the 6T cell share: unity headroom
    // (V = V_min) reads exactly at 6T speed.
    let mult = (vmin / v).powf(calib::DELAY_HEADROOM_EXPONENT);
    periphery + cell_nominal * mult.min(1e3)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev(dl: f64, dvth_mv: f64) -> DeviceDeviation {
        DeviceDeviation {
            dl_frac: dl,
            dvth_random: Voltage::from_mv(dvth_mv),
        }
    }

    #[test]
    fn nominal_retention_anchors() {
        for (node, ns) in [
            (TechNode::N65, 12_600.0),
            (TechNode::N45, 9_200.0),
            (TechNode::N32, 6_000.0),
        ] {
            let t = retention_time(node, DeviceDeviation::NOMINAL, DeviceDeviation::NOMINAL);
            assert!((t.ns() - ns).abs() < 1.0, "{node}: {} ns", t.ns());
        }
    }

    #[test]
    fn stored_one_level_at_32nm() {
        let v0 = stored_one_voltage(TechNode::N32, DeviceDeviation::NOMINAL);
        assert!((v0.volts() - 0.5996).abs() < 0.01, "v0={}", v0.volts());
    }

    #[test]
    fn leaky_t1_shortens_retention() {
        // Lower Vth on T1 → exponentially more subthreshold leakage.
        let leaky = retention_time(TechNode::N32, dev(0.0, -40.0), DeviceDeviation::NOMINAL);
        let tight = retention_time(TechNode::N32, dev(0.0, 40.0), DeviceDeviation::NOMINAL);
        let nom = retention_time(TechNode::N32, DeviceDeviation::NOMINAL, DeviceDeviation::NOMINAL);
        assert!(leaky < nom, "leaky {} vs nom {}", leaky.ns(), nom.ns());
        // On the high-Vth side the leakage gain is offset by the lower
        // stored level, so retention stays near nominal rather than rising.
        assert!(
            (tight.ns() - nom.ns()).abs() / nom.ns() < 0.15,
            "tight {} vs nom {}",
            tight.ns(),
            nom.ns()
        );
    }

    #[test]
    fn weak_read_path_shortens_retention() {
        // Higher Vth on T2 raises V_min → earlier timing failure.
        let weak = retention_time(TechNode::N32, DeviceDeviation::NOMINAL, dev(0.05, 40.0));
        let strong = retention_time(TechNode::N32, DeviceDeviation::NOMINAL, dev(-0.05, -40.0));
        let nom = retention_time(TechNode::N32, DeviceDeviation::NOMINAL, DeviceDeviation::NOMINAL);
        assert!(weak < nom);
        assert!(strong > nom);
    }

    #[test]
    fn extreme_cell_is_dead() {
        let t = retention_time(TechNode::N32, dev(0.0, 400.0), dev(0.3, 400.0));
        assert_eq!(t, Time::ZERO);
    }

    #[test]
    fn storage_decays_exponentially() {
        let node = TechNode::N32;
        let tau = decay_tau(node, DeviceDeviation::NOMINAL);
        let v0 = storage_voltage_at(node, DeviceDeviation::NOMINAL, Time::ZERO);
        let v_tau = storage_voltage_at(node, DeviceDeviation::NOMINAL, tau);
        assert!((v_tau.volts() / v0.volts() - (-1.0f64).exp()).abs() < 1e-9);
    }

    #[test]
    fn fresh_cell_is_faster_than_6t() {
        let node = TechNode::N32;
        let t_fresh = access_time(node, DeviceDeviation::NOMINAL, DeviceDeviation::NOMINAL, Time::ZERO);
        assert!(t_fresh < node.sram_access_nominal());
    }

    #[test]
    fn access_time_crosses_6t_exactly_at_retention() {
        let node = TechNode::N32;
        let ret = retention_time(node, DeviceDeviation::NOMINAL, DeviceDeviation::NOMINAL);
        let at_limit = access_time(node, DeviceDeviation::NOMINAL, DeviceDeviation::NOMINAL, ret);
        assert!(
            (at_limit.ps() - node.sram_access_nominal().ps()).abs() < 0.5,
            "at_limit={} ps",
            at_limit.ps()
        );
        // Just past the limit it must be slower.
        let past = access_time(
            node,
            DeviceDeviation::NOMINAL,
            DeviceDeviation::NOMINAL,
            ret * 1.2,
        );
        assert!(past > node.sram_access_nominal());
    }

    #[test]
    fn access_time_is_monotone_in_elapsed_time() {
        let node = TechNode::N32;
        let mut prev = Time::ZERO;
        for i in 0..20 {
            let t = access_time(
                node,
                DeviceDeviation::NOMINAL,
                DeviceDeviation::NOMINAL,
                Time::from_ns(500.0 * i as f64),
            );
            assert!(t >= prev, "non-monotone at step {i}");
            prev = t;
        }
    }

    #[test]
    fn fully_decayed_cell_never_reads() {
        let node = TechNode::N32;
        let t = access_time(
            node,
            DeviceDeviation::NOMINAL,
            DeviceDeviation::NOMINAL,
            Time::from_us(100.0),
        );
        assert!(t >= Time::from_us(1.0));
    }

    #[test]
    fn fig4_weak_cell_retention_drops() {
        // Fig. 4: a weak (leaky) cell drops from ≈5.8–6 µs to ≈4 µs. A
        // deeply leaky Vth(T1) corner models that cell.
        let leaky_t1 = dev(0.0, -150.0);
        let t = retention_time(TechNode::N32, leaky_t1, DeviceDeviation::NOMINAL);
        assert!(
            t.ns() > 3_500.0 && t.ns() < 4_800.0,
            "weak retention {} ns",
            t.ns()
        );
    }

    #[test]
    fn temperature_factor_anchors() {
        // Unity at the 80 °C test condition.
        assert!((retention_temperature_factor(80.0) - 1.0).abs() < 1e-12);
        // Cooler dies retain longer; hotter shorter.
        assert!(retention_temperature_factor(50.0) > 1.5);
        assert!(retention_temperature_factor(100.0) < 1.0);
        // Roughly 2x per ~12 degrees near the anchor.
        let f = retention_temperature_factor(68.0);
        assert!(f > 1.6 && f < 2.6, "f={f}");
    }

    #[test]
    fn vdd_factor_anchors() {
        let node = TechNode::N32;
        // Unity at the nominal rail.
        assert!((retention_vdd_factor(node, node.vdd()) - 1.0).abs() < 1e-9);
        // A 10% lower rail costs a large retention slice; a higher rail helps.
        let low = retention_vdd_factor(node, Voltage::new(0.9));
        assert!(low > 0.3 && low < 0.9, "low={low}");
        assert!(retention_vdd_factor(node, Voltage::new(1.1)) > 1.0);
        // Below the usable floor, retention collapses to zero.
        assert_eq!(retention_vdd_factor(node, Voltage::new(0.70)), 0.0);
    }

    #[test]
    fn retention_at_temperature_scales() {
        // 80 °C is the worst-case test condition counters are set for.
        let nominal = retention_time(
            TechNode::N32,
            DeviceDeviation::NOMINAL,
            DeviceDeviation::NOMINAL,
        );
        let at = |temp_c: f64| nominal * retention_temperature_factor(temp_c);
        let (hot, test, cool) = (at(100.0), at(80.0), at(50.0));
        assert!(hot < test && test < cool);
        assert!((test.ns() - 6_000.0).abs() < 1.0);
    }

    #[test]
    fn exp_interp_is_accurate_over_full_domain() {
        // 40 001 points across [-30, 30], off-node on purpose.
        for i in 0..=40_000 {
            let x = EXP_TABLE_MIN + (EXP_TABLE_MAX - EXP_TABLE_MIN) * i as f64 / 40_000.0;
            let exact = x.exp();
            let approx = exp_interp(x);
            assert!(
                (approx - exact).abs() <= 1e-11 * exact,
                "x={x}: approx {approx} vs exact {exact}"
            );
        }
    }

    #[test]
    fn solver_matches_exact_retention_time() {
        for node in [TechNode::N65, TechNode::N45, TechNode::N32] {
            let solver = RetentionSolver::new(node);
            // Deterministic grid spanning ±5σ-ish deviations, including the
            // dead-cell regime.
            for i in 0..25 {
                let dl = -0.18 + 0.015 * i as f64;
                for j in 0..31 {
                    let mv1 = -225.0 + 15.0 * j as f64;
                    for k in 0..31 {
                        let mv2 = -225.0 + 15.0 * k as f64;
                        let t1 = dev(dl, mv1);
                        let t2 = dev(dl, mv2);
                        let exact = retention_time(node, t1, t2);
                        let fast = solver.retention(
                            dl,
                            Voltage::from_mv(mv1).volts(),
                            Voltage::from_mv(mv2).volts(),
                        );
                        if exact == Time::ZERO {
                            assert_eq!(fast, Time::ZERO, "{node} dl={dl} mv1={mv1} mv2={mv2}");
                        } else {
                            let tol = (1e-9 * exact.value()).max(Time::from_ns(1e-6).value());
                            assert!(
                                (fast.value() - exact.value()).abs() <= tol,
                                "{node} dl={dl} mv1={mv1} mv2={mv2}: fast {} vs exact {} ns",
                                fast.ns(),
                                exact.ns()
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn retention_monotone_in_t1_vth_on_leaky_side() {
        // As Vth(T1) falls below nominal, subthreshold leakage rises
        // (exponentially) faster than the stored level V0 grows: retention
        // drops monotonically on that side.
        let mut prev = Time::ZERO;
        for mv in [-120.0, -80.0, -40.0, 0.0] {
            let t = retention_time(TechNode::N32, dev(0.0, mv), DeviceDeviation::NOMINAL);
            assert!(t > prev, "retention not monotone at {mv} mV");
            prev = t;
        }
    }
}
