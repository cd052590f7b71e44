//! Section-anchored stages: §2.1 (6T SRAM read-stability under
//! variation, and the yield of an unstable 6T cache under classical
//! rescue mechanisms), §4.1 (the global refresh scheme without
//! variation) and §4.3.1 extended (the retention margin left by
//! worst-case-temperature counter programming).
//!
//! Paper anchors:
//!
//! * §2.1 — ≈0.4 % bit-flip rate at 32 nm under typical variation, which
//!   makes a 256-bit line fail with probability 1 − 0.996²⁵⁶ ≈ 64 %;
//!   "line-level redundancy is straightforward to implement, but is
//!   ineffective" — not even ECC + spares ships the cache, while every
//!   3T1D chip ships under the line-level retention schemes.
//! * §4.1 — at 32 nm a full refresh pass is 2 K cycles ≈ 476.3 ns; at the
//!   ≈6000 ns nominal cache retention that is ≈8 % of cache bandwidth,
//!   hidden by port under-utilization for <1 % performance loss.
//! * §4.3.1 — "Although dynamic testing is possible, we assume worst-case
//!   temperatures in this paper". The line counters are programmed from
//!   a BIST measurement at 80 °C; at realistic die temperatures retention
//!   is several times longer, so a dynamic (temperature-aware) counter
//!   policy could cut refresh energy by the same factor.

use super::StageOutput;
use crate::RunScale;
use cachesim::{CacheConfig, DataCache, RetentionProfile, Scheme};
use std::fmt::Write as _;
use t3cache::campaign::map_indexed;
use t3cache::chip::ChipPopulation;
use t3cache::evaluate::Evaluator;
use t3cache::rescue::rescue_report;
use vlsi::cell3t1d::retention_temperature_factor;
use vlsi::cell6t::{bit_flip_probability, line_failure_probability, CellSize};
use vlsi::tech::TechNode;
use vlsi::variation::VariationCorner;

/// Runs the §2.1 6T stability table (analytic; scale-independent).
pub fn stability(_scale: &RunScale) -> StageOutput {
    let mut out = StageOutput::new("sec21_stability");
    out.banner("Section 2.1", "6T cell stability under process variation");
    // Analytic study, but run through the campaign engine like its sim
    // siblings: one unit per (node, corner) cell of the table.
    let corners = [VariationCorner::Typical, VariationCorner::Severe];
    let units = TechNode::ALL.len() * corners.len();
    let (rows, _) = map_indexed(units, |i| {
        let node = TechNode::ALL[i / corners.len()];
        let corner = corners[i % corners.len()];
        let p = bit_flip_probability(node, CellSize::X1, &corner.params());
        (node, corner, p)
    });
    let _ = writeln!(out.text);
    let _ = writeln!(
        out.text,
        "{:<10} {:<10} {:>14} {:>16} {:>16}",
        "node", "corner", "bit flip", "256b line fail", "512b line fail"
    );
    for (node, corner, p) in rows {
        out.metrics
            .set_gauge(&format!("bit_flip.{node}.{corner}"), p);
        let _ = writeln!(
            out.text,
            "{:<10} {:<10} {:>13.4}% {:>15.1}% {:>15.1}%",
            node.to_string(),
            corner.to_string(),
            p * 100.0,
            line_failure_probability(p, 256) * 100.0,
            line_failure_probability(p, 512) * 100.0
        );
    }
    let _ = writeln!(out.text);
    let p32 = bit_flip_probability(
        TechNode::N32,
        CellSize::X1,
        &VariationCorner::Typical.params(),
    );
    out.compare("32nm typical bit-flip rate (%)", p32 * 100.0, "~0.4%");
    out.compare(
        "256-bit line failure probability",
        line_failure_probability(p32, 256),
        "~0.64",
    );
    let p2x = bit_flip_probability(
        TechNode::N32,
        CellSize::X2,
        &VariationCorner::Typical.params(),
    );
    out.compare(
        "32nm 2X-cell bit-flip rate (%)",
        p2x * 100.0,
        "far below 1X (area law)",
    );
    let _ = writeln!(
        out.text,
        "\n3T1D cells have no read-disturb fighting: stability is not a failure mode;"
    );
    let _ = writeln!(
        out.text,
        "their only 'instability' is finite retention, handled architecturally (Section 4)."
    );
    out
}

/// Runs the §2.1 extended rescue-mechanism yield table (analytic;
/// scale-independent).
pub fn redundancy(_scale: &RunScale) -> StageOutput {
    let mut out = StageOutput::new("sec21_redundancy");
    out.banner(
        "Section 2.1 (extended)",
        "6T rescue-mechanism yield vs bit-flip rates",
    );
    let _ = writeln!(
        out.text,
        "{:<8} {:<9} {:>10} {:>10} {:>12} {:>12} {:>14}",
        "node", "corner", "bit flip", "no rescue", "16 spares", "SECDED/64b", "SECDED+spares"
    );
    for node in TechNode::ALL {
        for corner in [VariationCorner::Typical, VariationCorner::Severe] {
            let r = rescue_report(node, &corner.params());
            out.metrics
                .set_gauge(&format!("yield.{node}.{corner}.none"), r.yield_none);
            out.metrics
                .set_gauge(&format!("yield.{node}.{corner}.both"), r.yield_both);
            let _ = writeln!(
                out.text,
                "{:<8} {:<9} {:>9.4}% {:>9.1}% {:>11.1}% {:>11.1}% {:>13.1}%",
                node.to_string(),
                corner.to_string(),
                r.bit_flip * 100.0,
                r.yield_none * 100.0,
                r.yield_spares * 100.0,
                r.yield_secded * 100.0,
                r.yield_both * 100.0
            );
        }
    }
    let _ = writeln!(out.text);
    let r32 = rescue_report(TechNode::N32, &VariationCorner::Typical.params());
    out.compare("32nm typical bit-flip rate (%)", r32.bit_flip * 100.0, "~0.4%");
    out.compare(
        "32nm yield with ECC + spares",
        r32.yield_both,
        "'ineffective' (~0)",
    );
    let _ = writeln!(
        out.text,
        "\n3T1D contrast: stability is not a failure mode; under the line-level"
    );
    let _ = writeln!(
        out.text,
        "retention schemes of Section 4 every fabricated chip ships (Fig. 10),"
    );
    let _ = writeln!(
        out.text,
        "with dead lines absorbed by DSP/RSP placement instead of scrapped die."
    );
    out
}

/// Runs the §4.1 global-refresh study at the given scale: refresh
/// bandwidth and performance cost at nominal retention.
pub fn global_refresh(scale: &RunScale) -> StageOutput {
    let mut out = StageOutput::new("sec41");
    out.banner("Section 4.1", "global refresh without variation (32 nm)");
    let node = TechNode::N32;
    out.tech_node = Some(node.to_string());

    let cfg = CacheConfig::paper(Scheme::global());
    let pass = DataCache::global_pass_cycles(&cfg);
    let pass_ns = node.clock_period().ns() * pass as f64;
    let retention_ns = vlsi::calib::nominal_retention(node).ns();
    let ret_cycles = (retention_ns * 1e-9 * node.chip_frequency().value()) as u64;

    out.compare("refresh pass (cycles)", pass as f64, "2048 (2K)");
    out.compare("refresh pass (ns)", pass_ns, "476.3 ns");
    out.compare(
        "refresh share of cache bandwidth",
        pass_ns / retention_ns,
        "~8% (476.3/6000)",
    );

    let eval = Evaluator::new(scale.eval_config(node));
    let ideal = eval.run_ideal(4);
    let profile = RetentionProfile::uniform_cycles(ret_cycles, 1024);
    let suite = eval.run_scheme(&profile, Scheme::global(), 4);
    let perf = suite.normalized_performance(&ideal, 1.0);
    out.compare("performance vs ideal 6T", perf, ">0.99 (<1% loss)");
    out.compare(
        "dynamic power vs ideal 6T",
        suite.normalized_dynamic_power(&ideal, vlsi::power::MemKind::Dram3t1d),
        "1.3-2.25x band begins here",
    );
    let blocked: u64 = suite.runs.iter().map(|r| r.cache.blocked_cycles).sum();
    let cycles: u64 = suite.runs.iter().map(|r| r.sim.cycles).sum();
    out.compare(
        "port-blocked share of cycles (per pair)",
        blocked as f64 / (cycles * 4) as f64,
        "~0.08",
    );
    let conflicts: u64 = suite.runs.iter().map(|r| r.cache.port_conflicts).sum();
    let accesses: u64 = suite.runs.iter().map(|r| r.cache.accesses()).sum();
    out.compare(
        "demand accesses retried due to refresh",
        conflicts as f64 / accesses as f64,
        "small (hidden by under-utilization)",
    );
    let _ = writeln!(
        out.text,
        "\nhardware overhead: one global counter (negligible; §4.1)."
    );
    out
}

/// Runs the §4.3.1 retention-vs-temperature margin table (a fixed
/// 40-chip population; scale-independent).
pub fn temperature_margin(_scale: &RunScale) -> StageOutput {
    let mut out = StageOutput::new("temperature_margin");
    out.seed = Some(7);
    out.tech_node = Some(TechNode::N32.to_string());
    out.banner(
        "Section 4.3.1 (extended)",
        "retention vs die temperature: worst-case testing margin",
    );
    let _ = writeln!(
        out.text,
        "{:>8} {:>18} {:>24}",
        "temp", "retention factor", "median cache retention"
    );
    let pop = ChipPopulation::generate(TechNode::N32, VariationCorner::Typical.params(), 40, 7);
    let base = pop.median_cache_retention();
    for t in [40.0, 50.0, 60.0, 70.0, 80.0, 90.0, 100.0] {
        let f = retention_temperature_factor(t);
        let _ = writeln!(
            out.text,
            "{:>6.0}C {:>17.2}x {:>21.0} ns",
            t,
            f,
            base.ns() * f
        );
    }
    let _ = writeln!(out.text);
    out.compare(
        "retention factor at a 50C operating point",
        retention_temperature_factor(50.0),
        "several-x margin vs 80C testing",
    );
    out.compare(
        "implied refresh-energy saving with dynamic testing",
        1.0 - 1.0 / retention_temperature_factor(50.0),
        "refresh rate scales with 1/retention",
    );
    let _ = writeln!(
        out.text,
        "\nworst-case programming is safe at any temperature <= 80C; a dynamic\n\
         policy would re-measure per thermal epoch, trading BIST time for the\n\
         refresh power above (future work the paper points at)."
    );
    out
}
