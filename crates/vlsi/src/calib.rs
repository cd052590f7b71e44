//! Calibration constants anchoring the analytic models to the paper.
//!
//! The paper derives its numbers from Hspice on Predictive Technology
//! Models; we use closed-form device models instead (see DESIGN.md,
//! substitution #1). The constants below pin those models to the anchor
//! values the paper reports:
//!
//! | Anchor | Paper value | Where used |
//! |---|---|---|
//! | Ideal 6T array access time | 285/251/208 ps @ 65/45/32 nm (Table 3) | [`crate::tech::TechNode::sram_access_nominal`] |
//! | Nominal cell retention | ≈5.8–6 µs @ 32 nm (Fig. 4, §4.1) | [`nominal_retention`] |
//! | Median-chip cache retention | 4000/2900/1900 ns (Table 3) | emerges from min-statistics |
//! | 6T cache leakage | 15.8/36.0/78.2 mW (Table 3) | [`leakage_per_path`] |
//! | 3T1D cache leakage | 3.36/5.68/24.4 mW (Table 3) | [`t3_leak_path_weight`], [`periphery_leak_fraction`] |
//! | Full dynamic power | 31.97/25.96/20.75 mW (Table 3) | [`access_energy`] |
//! | 6T bit-flip rate | ≈0.4 % @ 32 nm (§2.1) | [`stability_margin_sigmas`] |
//! | Stored "1" level / boost | 0.6 V stored, 1.13 V boosted (Fig. 3) | [`WRITE_BODY_FACTOR`], [`BOOST_GAIN`] |
//!
//! Derivations for the variation-sensitivity constants are given inline;
//! the integration tests in `t3cache` check that the emergent statistics
//! (retention histograms, dead-line fractions, leakage distributions) land
//! in the paper's bands.

use crate::tech::TechNode;
use crate::units::{Current, Energy, Time};

// ---------------------------------------------------------------------------
// 3T1D storage-cell constants (Fig. 3 / Fig. 4 anchors)
// ---------------------------------------------------------------------------

/// Body-effect multiplier on Vth during a write through T1: the stored "1"
/// is `V_dd − WRITE_BODY_FACTOR · V_th`. Chosen so the 32 nm stored level is
/// the 0.6 V the paper's Fig. 3 shows (1.0 − 1.54·0.26 ≈ 0.60 V).
pub const WRITE_BODY_FACTOR: f64 = 1.54;

/// Gated-diode voltage gain during a read: the boosted T2 gate voltage is
/// `BOOST_GAIN ×` the stored voltage. Fig. 3 reports 0.6 V boosted to
/// 1.13 V, i.e. ≈1.88×.
pub const BOOST_GAIN: f64 = 1.88;

/// Fraction of storage-node leakage that is *not* subthreshold conduction
/// through T1 (junction + gate leakage, largely Vth-insensitive). Damps the
/// otherwise exponential retention sensitivity so the emergent per-cell
/// retention spread matches the paper's chip-level histograms
/// (σ_ln(t_ret) ≈ 0.27 under typical variation — see DESIGN.md).
pub const RETENTION_LEAK_INSENSITIVE_FRAC: f64 = 0.62;

/// Subthreshold-slope ideality of the storage-node leakage path. The
/// storage node sits at a degraded level with reverse body bias and most of
/// its leakage crossing weakly-biased junctions, so its effective slope is
/// much softer than a logic transistor's (n ≈ 4 vs 1.5). Together with
/// [`RETENTION_LEAK_INSENSITIVE_FRAC`] this sets the worst-cell retention
/// shrink over ~5×10⁵ cells to the ≈3× the Table 3 median chips show
/// (6000 → ≈1900 ns at 32 nm).
pub const RETENTION_SLOPE_IDEALITY: f64 = 4.0;

/// Coupling of the write transistor's (T1) threshold *deviation* into the
/// stored "1" level. The nominal degradation uses the full
/// [`WRITE_BODY_FACTOR`], but the write wordline is boosted, which absorbs
/// part of a device's threshold deviation; damping this keeps the stored-
/// level axis from producing dead cells in combined-corner coincidences
/// (the paper sees none under typical variation).
pub const V0_WRITE_VTH_COUPLING: f64 = 0.8;

// The minimum usable storage voltage responds to the read path's (T2)
// random-dopant mismatch `x̂ = ΔVth₂/Vth_nom` and to the correlated
// channel-length deviation `ΔL/L` as
//
//   V_min = V_min_nom · exp(A·x̂ + B·max(x̂,0)² + C·ΔL/L)
//
// The quadratic term models the collapse of the gated-diode boost for
// weak read devices; it is the mechanism behind the paper's *dead cells*.
// A and B are fixed by two anchors (σ(Vth)/Vth = 10 % typical / 15 %
// severe, margin r0 = 0.55), then nudged for the convexity inflation that
// the other variation axes (T1, ΔL field, die-to-die) add on top:
//
//   * the ≈4.6σ worst cell of a ~5×10⁵-cell cache under typical variation
//     retains ≈1/3 of nominal — reproducing the Table 3 median-chip
//     retentions (4000/2900/1900 ns), and
//   * cells die at ≈4.3σ of the severe corner — ≈3–4 % median dead-line
//     fraction (Fig. 8) while typical-variation chips are essentially
//     dead-free (boundary beyond 6σ there).
//
// C is set so a +2.3σ die-to-die long-channel chip loses ≈20 % of its
// lines (the paper's "bad chip") while the within-die field inflates the
// median chip's dead rate by only ≈2×.

/// Linear sensitivity `A` of `ln(V_min)` to the relative T2 mismatch.
pub const VMIN_LIN_SENS: f64 = 0.145;

/// Quadratic sensitivity `B` of `ln(V_min)` to weak-side T2 mismatch.
pub const VMIN_QUAD_SENS: f64 = 1.197;

/// Sensitivity `C` of `ln(V_min)` to the correlated gate-length deviation.
pub const VMIN_DL_SENS: f64 = 0.79;

/// Exponent mapping the storage-voltage headroom `V(t)/V_min` to read
/// delay relative to the 6T cell share: `delay ∝ (V_min/V(t))^γ`. Fit to
/// the Fig. 4 curve shape (fresh cells read ≈0.4× the 6T cell delay,
/// crossing 1× exactly at the retention limit).
pub const DELAY_HEADROOM_EXPONENT: f64 = 1.6;

/// DIBL-style channel-length sensitivity of the storage leakage
/// (`exp(−λ·ΔL/L)` multiplier on the subthreshold component).
pub const LAMBDA_RETENTION: f64 = 8.0;

/// Arrhenius activation energy (eV) of the storage-node leakage. Sets the
/// temperature dependence of retention: junction/subthreshold leakage
/// roughly doubles every ~12 °C near 80 °C with Ea ≈ 0.55 eV, which is
/// why §4.3.1 programs the line counters at worst-case temperature.
pub const RETENTION_ACTIVATION_EV: f64 = 0.55;

/// Nominal log retention margin `ln(V₀ / V_min)`. Together with
/// [`nominal_retention`] this sets the storage decay constant
/// `τ₀ = t_ret / margin` and, critically, the ratio of margin to the
/// per-cell σ — which controls the dead-cell tail probability. 0.55 puts a
/// median severe-variation chip at ≈3.9σ (≈3 % dead lines per the paper's
/// Fig. 8) while leaving the typical corner dead-free.
pub const RETENTION_LOG_MARGIN: f64 = 0.55;

/// Nominal (variation-free) retention time of a single 3T1D cell.
///
/// §4.1 reports ≈6000 ns at 32 nm for the whole cache when no variation is
/// considered (so every cell sits at nominal); the 65/45 nm values are back-
/// computed from the Table 3 median-chip retentions (4000/2900 ns) by
/// undoing the ≈e^(0.25·4.6) min-statistics shrink over ~5×10⁵ cells.
pub fn nominal_retention(node: TechNode) -> Time {
    match node {
        TechNode::N65 => Time::from_ns(12_600.0),
        TechNode::N45 => Time::from_ns(9_200.0),
        TechNode::N32 => Time::from_ns(6_000.0),
    }
}

// ---------------------------------------------------------------------------
// Delay-model constants (Table 3 / Fig. 6a anchors)
// ---------------------------------------------------------------------------

/// Fraction of the 6T array access time attributable to the cell read path
/// (bitline discharge through T1/T2); the rest is periphery (decoder, wire,
/// sense amp) treated as variation-absorbed. 0.5 makes the worst-cell
/// statistics land the Fig. 6a result: 1X 6T chips lose 10–20 % frequency
/// under typical variation (Table 3 median ≈ 0.84×).
pub const CELL_DELAY_FRACTION: f64 = 0.5;

/// Nominal speedup of the 2X-sized 6T cell's read path relative to 1X
/// (doubled drive width against mostly-wire bitline load). Places the 2X
/// distribution in Fig. 6a just above 1.0 with its slow tail at ≈0.975.
pub const CELL_2X_SPEEDUP: f64 = 0.85;

// ---------------------------------------------------------------------------
// Leakage constants (Table 3 / Fig. 7 anchors)
// ---------------------------------------------------------------------------

/// Nominal subthreshold leakage of one strong leakage path (a single off
/// transistor with its full drain bias). A 6T cell has three such paths
/// (§2.1, Fig. 2a); 64 KB of cells at three paths each must total the
/// Table 3 6T cache leakage minus the periphery share.
pub fn leakage_per_path(node: TechNode) -> Current {
    // cells = 64 KiB data + ~7% tag/valid overhead ≈ 561 k cells.
    // path = (table3_total × (1 − periphery_frac)) / (cells × 3 paths).
    match node {
        TechNode::N65 => Current::from_na(7.2),
        TechNode::N45 => Current::from_na(19.3),
        TechNode::N32 => Current::from_na(37.6),
    }
}

/// Fraction of total cache leakage contributed by periphery (decoders,
/// drivers, sense amps) that is identical for 6T and 3T1D organizations.
/// Back-computed from the Table 3 6T-vs-3T1D leakage pairs (see DESIGN.md).
pub fn periphery_leak_fraction(node: TechNode) -> f64 {
    match node {
        TechNode::N65 => 0.076,
        TechNode::N45 => 0.010,
        TechNode::N32 => 0.190,
    }
}

/// Effective number of strong leakage paths in a 3T1D cell, averaged over
/// stored states (§2.2: one weak stacked path for "0", one slightly strong
/// path for a fresh "1", weakening as the charge decays). 6T has 3.
pub const T3_EFFECTIVE_PATHS: f64 = 0.45;

/// Weight applied to [`lambda_dibl`] for the 3T1D cell's leakage
/// variability: its stacked/decayed paths respond less steeply to channel-
/// length variation than a 6T cell's fully-biased paths, which is what caps
/// the Fig. 7b distribution below ≈4× while 6T tails past 10×.
pub const T3_LEAK_LAMBDA_SCALE: f64 = 0.75;

/// Returns the same quantity as [`T3_EFFECTIVE_PATHS`] but as a ratio of
/// 3T1D cell leakage to 6T cell leakage (3 paths).
pub fn t3_leak_path_weight() -> f64 {
    T3_EFFECTIVE_PATHS / 3.0
}

/// DIBL exponent λ in the leakage model `I_off ∝ exp(−λ·ΔL/L)`. Grows as
/// nodes scale (worsening drain control), and is the dominant source of the
/// chip-to-chip leakage spread in Fig. 7: with σ(L)_d2d = 5 %, λ = 20 gives
/// a chip-level lognormal with σ ≈ 1.0 — ≈40 % of chips above 1.5× and a
/// ≈1–2 % tail beyond 10×, matching the 1X-6T histogram.
pub fn lambda_dibl(node: TechNode) -> f64 {
    match node {
        TechNode::N65 => 12.0,
        TechNode::N45 => 16.0,
        TechNode::N32 => 20.0,
    }
}

// ---------------------------------------------------------------------------
// Drive / dynamic-energy constants
// ---------------------------------------------------------------------------

/// Dynamic energy of one port access touching one 512-bit line (decode,
/// wordline, bitline swing, sense). Anchored on Table 3's "full dynamic
/// power" = energy × 3 ports × chip frequency.
pub fn access_energy(node: TechNode) -> Energy {
    // E = full_dyn / (3 × f): 31.97 mW/(3×3.0 GHz), 25.96/(3×3.5), 20.75/(3×4.3).
    match node {
        TechNode::N65 => Energy::from_pj(3.55),
        TechNode::N45 => Energy::from_pj(2.47),
        TechNode::N32 => Energy::from_pj(1.61),
    }
}

/// Extra dynamic energy per access for a 3T1D array relative to 6T
/// (diode boost pre-charge); Table 3 shows the 3T1D mean dynamic power
/// running ≈1.2–1.4× the 6T figure *before* refresh is added.
pub const T3_ACCESS_ENERGY_FACTOR: f64 = 1.15;

/// Dynamic energy to refresh one 512-bit line (a pipelined read + write
/// through the 64 shared sense amplifiers, 8 cycles). The 64-bit slices
/// skip the decode and way-select energy of a demand access, so a whole
/// refresh costs about one port access at the 3T1D energy point — this is
/// also what the Fig. 6b anchor implies (2.25× total dynamic power at the
/// shortest retention ⇒ ≈1.6 pJ per refreshed line at 32 nm).
pub fn refresh_energy_per_line(node: TechNode) -> Energy {
    Energy::from_pj(access_energy(node).pj() * T3_ACCESS_ENERGY_FACTOR)
}

// ---------------------------------------------------------------------------
// 6T stability constants (§2.1 anchor)
// ---------------------------------------------------------------------------

/// How many σ of cross-coupled-pair Vth mismatch the 6T static noise margin
/// absorbs before a read flips the cell, per node, under *typical* random-
/// dopant σ. 2.88σ two-sided ⇒ the §2.1 bit-flip rate of ≈0.4 % at 32 nm;
/// larger margins at older nodes give the historically negligible rates.
pub fn stability_margin_sigmas(node: TechNode) -> f64 {
    match node {
        TechNode::N65 => 5.5,
        TechNode::N45 => 4.9,
        TechNode::N32 => 2.88,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stored_one_level_matches_fig3() {
        // V0 = Vdd − WBF·Vth at 32 nm ≈ 0.6 V.
        let v0 = TechNode::N32.vdd().volts() - WRITE_BODY_FACTOR * TechNode::N32.vth_nominal().volts();
        assert!((v0 - 0.6).abs() < 0.01, "v0={v0}");
        // Boosted level ≈ 1.13 V.
        assert!((v0 * BOOST_GAIN - 1.13).abs() < 0.01);
    }

    #[test]
    fn leakage_per_path_reconstructs_table3() {
        // cells ≈ 64 KiB × 8 bits × 1.07 tag overhead; 3 paths each.
        let cells = 64.0 * 1024.0 * 8.0 * 1.07;
        for (node, total_mw) in [
            (TechNode::N65, 15.8),
            (TechNode::N45, 36.0),
            (TechNode::N32, 78.2),
        ] {
            let cell_share = total_mw * (1.0 - periphery_leak_fraction(node));
            let per_path_na =
                cell_share * 1e-3 / (cells * 3.0) / node.vdd().volts() * 1e9;
            let got = leakage_per_path(node).value() * 1e9;
            assert!(
                (got - per_path_na).abs() / per_path_na < 0.05,
                "{node}: calib {got:.1} nA vs table {per_path_na:.1} nA"
            );
        }
    }

    #[test]
    fn access_energy_reconstructs_full_dynamic_power() {
        for (node, full_mw) in [
            (TechNode::N65, 31.97),
            (TechNode::N45, 25.96),
            (TechNode::N32, 20.75),
        ] {
            let e = access_energy(node).pj();
            let reconstructed = e * 3.0 * node.chip_frequency().ghz(); // pJ × GHz = mW
            assert!(
                (reconstructed - full_mw).abs() / full_mw < 0.02,
                "{node}: {reconstructed:.2} mW vs {full_mw} mW"
            );
        }
    }

    #[test]
    fn nominal_retention_scales_down_with_node() {
        assert!(nominal_retention(TechNode::N65) > nominal_retention(TechNode::N45));
        assert!(nominal_retention(TechNode::N45) > nominal_retention(TechNode::N32));
        assert!((nominal_retention(TechNode::N32).us() - 6.0).abs() < 0.01);
    }

    #[test]
    fn dibl_worsens_with_scaling() {
        assert!(lambda_dibl(TechNode::N32) > lambda_dibl(TechNode::N45));
        assert!(lambda_dibl(TechNode::N45) > lambda_dibl(TechNode::N65));
    }

    #[test]
    fn stability_margin_shrinks_with_scaling() {
        assert!(stability_margin_sigmas(TechNode::N65) > stability_margin_sigmas(TechNode::N32));
    }

    #[test]
    fn t3_path_weight_is_a_small_fraction() {
        let w = t3_leak_path_weight();
        assert!(w > 0.05 && w < 0.5, "w={w}");
    }
}
