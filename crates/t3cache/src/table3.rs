//! Table 3: detailed per-node comparison of the three cache designs.
//!
//! For each technology node the paper tabulates, for (a) the ideal 6T
//! design with no variation, (b) the median 1X-6T chip under typical
//! variation, and (c) the median 3T1D chip under typical variation with
//! the global refresh scheme: access time, BIPS, mean and full dynamic
//! power, leakage power, and (for 3T1D) the cache retention time.

use crate::chip::{ChipModel, ChipPopulation};
use crate::evaluate::Evaluator;
use cachesim::{CacheConfig, DataCache, Scheme};
use vlsi::cell6t::CellSize;
use vlsi::leakage;
use vlsi::power::{full_dynamic_power, MemKind};
use vlsi::stats::median;
use vlsi::tech::TechNode;
use vlsi::units::{Power, Time};
use vlsi::variation::VariationCorner;

/// Which of the three Table 3 designs a row describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Design {
    /// Ideal 6T SRAM, no variation.
    Ideal6t,
    /// Median 1X-6T chip under typical variation (frequency-limited).
    Median6t1x,
    /// Median 3T1D chip under typical variation, global refresh scheme.
    Median3t1d,
}

impl std::fmt::Display for Design {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Design::Ideal6t => f.write_str("ideal 6T"),
            Design::Median6t1x => f.write_str("1X 6T (median chip)"),
            Design::Median3t1d => f.write_str("3T1D (median chip)"),
        }
    }
}

/// One row of Table 3.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table3Row {
    /// Technology node.
    pub node: TechNode,
    /// The design.
    pub design: Design,
    /// Array access time (6T designs) — for 3T1D the access speed matches
    /// the ideal 6T by construction.
    pub access_time: Time,
    /// Cache retention time (3T1D only).
    pub retention: Option<Time>,
    /// Harmonic-mean BIPS across the eight benchmarks.
    pub bips: f64,
    /// Mean dynamic power over the suite (includes refresh for 3T1D).
    pub mean_dynamic: Power,
    /// Full (all-ports-every-cycle) dynamic power bound.
    pub full_dynamic: Power,
    /// Cache leakage power.
    pub leakage: Power,
}

/// Computes the three Table 3 rows for a node.
///
/// `population` chips are sampled under typical variation to find the
/// median 6T and 3T1D chips; `eval` controls the performance simulations.
pub fn table3_rows(node: TechNode, eval: &Evaluator, population: u32, seed: u64) -> [Table3Row; 3] {
    assert_eq!(eval.config().node, node, "evaluator node mismatch");
    let pop = ChipPopulation::generate(node, VariationCorner::Typical.params(), population, seed);
    let cells = vlsi::ArrayLayout::PAPER_L1D.total_cells();

    // --- Ideal 6T ---------------------------------------------------------
    let ideal_suite = eval.run_ideal(4);
    let ideal_row = Table3Row {
        node,
        design: Design::Ideal6t,
        access_time: node.sram_access_nominal(),
        retention: None,
        bips: ideal_suite.hm_bips(1.0),
        mean_dynamic: ideal_suite.mean_dynamic_power(MemKind::Sram6t),
        full_dynamic: full_dynamic_power(node, MemKind::Sram6t),
        leakage: leakage::golden_cache_leakage_6t(node, cells),
    };

    // --- Median 1X 6T chip -------------------------------------------------
    // Median by frequency multiplier; same IPC at a scaled clock.
    let mut freqs: Vec<f64> = pop
        .chips()
        .iter()
        .map(|c| c.frequency_multiplier_6t(CellSize::X1))
        .collect();
    freqs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let freq_mult = median(&freqs);
    let leak_vals: Vec<f64> = pop.chips().iter().map(|c| c.leakage_6t().value()).collect();
    let row_6t = Table3Row {
        node,
        design: Design::Median6t1x,
        access_time: Time::new(node.sram_access_nominal().value() / freq_mult),
        retention: None,
        bips: ideal_suite.hm_bips(freq_mult),
        // Same switched capacitance at a lower clock: power scales with f.
        mean_dynamic: ideal_suite.mean_dynamic_power(MemKind::Sram6t) * freq_mult,
        full_dynamic: full_dynamic_power(node, MemKind::Sram6t) * freq_mult,
        leakage: Power::new(median(&leak_vals)),
    };

    // --- Median 3T1D chip, global refresh ----------------------------------
    let cfg = CacheConfig::paper(Scheme::global());
    let feasible: Vec<&ChipModel> = pop
        .chips()
        .iter()
        .filter(|c| DataCache::global_scheme_feasible(c.retention_profile(), &cfg))
        .collect();
    assert!(
        !feasible.is_empty(),
        "no typical-variation chip survives the global scheme"
    );
    let mut by_ret: Vec<&&ChipModel> = feasible.iter().collect();
    by_ret.sort_by(|a, b| {
        a.cache_retention()
            .partial_cmp(&b.cache_retention())
            .expect("finite")
    });
    let median_chip = by_ret[by_ret.len() / 2];
    let t3_suite = eval.run_scheme(median_chip.retention_profile(), Scheme::global(), 4);
    let leak3_vals: Vec<f64> = pop.chips().iter().map(|c| c.leakage_3t1d().value()).collect();
    let row_3t = Table3Row {
        node,
        design: Design::Median3t1d,
        access_time: node.sram_access_nominal(),
        retention: Some(median_chip.cache_retention()),
        bips: t3_suite.hm_bips(1.0),
        mean_dynamic: t3_suite.mean_dynamic_power(MemKind::Dram3t1d),
        full_dynamic: full_dynamic_power(node, MemKind::Dram3t1d),
        leakage: Power::new(median(&leak3_vals)),
    };

    [ideal_row, row_6t, row_3t]
}

/// The paper's headline claim from Table 3: total cache power saving of
/// the 3T1D design relative to the ideal 6T (≈64 % at the typical corner).
pub fn cache_power_saving(rows: &[Table3Row; 3]) -> f64 {
    let total = |r: &Table3Row| r.mean_dynamic.value() + r.leakage.value();
    1.0 - total(&rows[2]) / total(&rows[0])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluate::EvalConfig;
    use workloads::SpecBenchmark;

    fn quick_rows(node: TechNode) -> [Table3Row; 3] {
        let eval = Evaluator::new(EvalConfig {
            node,
            benchmarks: vec![SpecBenchmark::Gzip, SpecBenchmark::Mesa],
            instructions: 30_000,
            warmup: 15_000,
            seed: 5,
            ..EvalConfig::default()
        });
        table3_rows(node, &eval, 10, 77)
    }

    #[test]
    fn rows_have_expected_orderings() {
        let rows = quick_rows(TechNode::N32);
        let [ideal, t6, t3] = &rows;
        // 6T median chip is slower; 3T1D runs at the nominal clock.
        assert!(t6.bips < ideal.bips);
        assert!(t3.bips <= ideal.bips * 1.001);
        assert!(t3.bips > t6.bips, "one generation of perf recovered");
        // 3T1D dynamic power is higher (refresh), leakage far lower.
        assert!(t3.mean_dynamic.value() > ideal.mean_dynamic.value() * 0.9);
        assert!(t3.leakage.value() < ideal.leakage.value() * 0.6);
        // Access times: median 6T slower than nominal.
        assert!(t6.access_time > ideal.access_time);
        assert_eq!(t3.access_time, ideal.access_time);
        // Retention reported only for 3T1D.
        assert!(t3.retention.is_some());
        assert!(ideal.retention.is_none());
    }

    #[test]
    fn median_retention_in_paper_band_at_32nm() {
        let rows = quick_rows(TechNode::N32);
        let ret = rows[2].retention.unwrap();
        // Table 3: 1900 ns at 32 nm; generous band for 10 chips.
        assert!(
            ret.ns() > 900.0 && ret.ns() < 3100.0,
            "median retention {} ns",
            ret.ns()
        );
    }

    #[test]
    fn power_saving_band() {
        let rows = quick_rows(TechNode::N32);
        let saving = cache_power_saving(&rows);
        // Paper: ≈64 % total cache power saving (typical chips). Our
        // leakage model runs slightly leaner at 32 nm; allow a wide band.
        assert!(saving > 0.4 && saving < 0.88, "saving {saving}");
    }

    #[test]
    fn leakage_3t1d_column_is_pinned() {
        // The 3T1D leakage column as `table3_rows` reports it: the median
        // `Chip::leakage_3t1d` over a typical-variation population drawn
        // on the `table3` stage's seed, here 10 chips rather than 80. The
        // paper's column is 3.36 / 5.68 / 24.4 mW; the stage's 80 chips
        // give 2.54 / 5.86 / 12.8 mW (EXPERIMENTS.md, known deviations).
        for (node, pinned_mw) in [
            (TechNode::N65, 2.352926683138642),
            (TechNode::N45, 5.2351491038254885),
            (TechNode::N32, 11.186719055299436),
        ] {
            // The leakage column does not depend on the simulations.
            let eval = Evaluator::new(EvalConfig {
                node,
                benchmarks: vec![SpecBenchmark::Gzip],
                instructions: 4_000,
                warmup: 2_000,
                ..EvalConfig::default()
            });
            let mw = table3_rows(node, &eval, 10, 20_247)[2].leakage.mw();
            assert!(
                (mw / pinned_mw - 1.0).abs() < 1e-9,
                "{node}: {mw} mW, pinned {pinned_mw} mW"
            );
        }
    }

    #[test]
    fn bips_scale_with_node_frequency() {
        let r32 = quick_rows(TechNode::N32);
        let r65 = quick_rows(TechNode::N65);
        assert!(r32[0].bips > r65[0].bips);
    }
}
