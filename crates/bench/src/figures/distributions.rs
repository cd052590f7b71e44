//! Single-cell and Monte-Carlo distribution stages: Figure 4 (3T1D access
//! time vs time after write) and Figures 6a, 7 and 8 (chip frequency,
//! leakage and line-retention distributions under variation).
//!
//! Paper shapes:
//!
//! * Fig. 4 — access time rises as the stored charge decays, crossing the
//!   6T array access time at the cell's *retention time*: ≈5.8–6 µs for a
//!   nominal 32 nm cell, ≈4 µs for a weak cell, longer for a strong cell.
//! * Fig. 6a — 1X 6T chips lose 10–20 % of frequency; even 2X-sized cells
//!   leave ≈20 % of chips ≈3 % slow.
//! * Fig. 7 — >50 % of 1X-6T chips exceed 1.5× golden leakage with a tail
//!   past 10×; only ≈11 % of 3T1D chips exceed the golden 6T at all, and
//!   none pass ≈4×.
//! * Fig. 8 — wide spread across lines within one chip; up to 23 % dead
//!   lines on the bad chip, ≈3 % on the median chip; ≈80 % of chips must
//!   be discarded under the global scheme.

use super::StageOutput;
use crate::{bar, RunScale};
use cachesim::{CacheConfig, Scheme};
use std::fmt::Write as _;
use t3cache::chip::{ChipGrade, ChipPopulation};
use vlsi::cell3t1d::{access_time, retention_time};
use vlsi::cell6t::CellSize;
use vlsi::leakage::golden_cache_leakage_6t;
use vlsi::montecarlo::ChipFactory;
use vlsi::stats::Histogram;
use vlsi::tech::TechNode;
use vlsi::units::{Time, Voltage};
use vlsi::variation::{DeviceDeviation, VariationCorner};

/// A fixed-bucket metrics histogram with the same shape as `h`.
fn to_obs(h: &Histogram, lo: f64, hi: f64, sum: f64) -> obs::FixedHistogram {
    obs::FixedHistogram::from_buckets(
        lo,
        hi,
        h.counts().to_vec(),
        h.underflow(),
        h.overflow(),
        sum,
    )
}

/// Runs the Figure 4 access-time curves (analytic; scale-independent).
pub fn fig04(_scale: &RunScale) -> StageOutput {
    let mut out = StageOutput::new("fig04");
    out.banner("Figure 4", "3T1D access time vs time after write (32 nm)");
    let node = TechNode::N32;
    out.tech_node = Some(node.to_string());
    let nominal = DeviceDeviation::NOMINAL;
    let weak_t1 = DeviceDeviation {
        dl_frac: 0.0,
        dvth_random: Voltage::from_mv(-150.0), // leaky storage corner
    };
    let strong_t1 = DeviceDeviation {
        dl_frac: 0.02,
        dvth_random: Voltage::from_mv(40.0), // tight storage corner
    };

    let t6 = node.sram_access_nominal();
    let _ = writeln!(
        out.text,
        "6T array access time: {:.0} ps (horizontal reference)",
        t6.ps()
    );
    let _ = writeln!(out.text);
    let _ = writeln!(
        out.text,
        "{:>10} {:>12} {:>12} {:>12}",
        "elapsed", "nominal", "weak cell", "strong cell"
    );
    for us in [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 5.8, 6.5, 7.0, 8.0] {
        let t = Time::from_us(us);
        let row = |dev_t1: DeviceDeviation| {
            let a = access_time(node, dev_t1, DeviceDeviation::NOMINAL, t);
            if a >= Time::from_us(0.9) {
                "   dead".to_string()
            } else {
                format!("{:>8.0} ps", a.ps())
            }
        };
        let _ = writeln!(
            out.text,
            "{:>8.1}us {:>12} {:>12} {:>12}",
            us,
            row(nominal),
            row(weak_t1),
            row(strong_t1)
        );
    }

    let _ = writeln!(out.text);
    let ret = |d: DeviceDeviation| retention_time(node, d, DeviceDeviation::NOMINAL).us();
    out.compare("nominal cell retention (us)", ret(nominal), "~5.8-6.0 us");
    out.compare("weak cell retention (us)", ret(weak_t1), "~4 us");
    out.compare("strong cell retention (us)", ret(strong_t1), "> nominal");
    let fresh = access_time(node, nominal, DeviceDeviation::NOMINAL, Time::ZERO);
    out.compare(
        "fresh 3T1D access / 6T access",
        fresh.ps() / t6.ps(),
        "<= 1.0 (matches 6T speed when fresh)",
    );
    out.metrics.set_gauge("access.six_t_ps", t6.ps());
    out.metrics.set_gauge("access.fresh_3t1d_ps", fresh.ps());
    out
}

/// Runs the Figure 6a 6T frequency distribution at the given scale.
pub fn fig06a(scale: &RunScale) -> StageOutput {
    let mut out = StageOutput::new("fig06a");
    out.seed = Some(20_240);
    out.tech_node = Some(TechNode::N32.to_string());
    out.banner(
        "Figure 6a",
        "6T cache frequency distribution under typical variation (32 nm)",
    );
    let factory = ChipFactory::new(TechNode::N32, VariationCorner::Typical.params(), 20_240);

    let mut h1 = Histogram::new(0.7625, 1.0625, 12); // 0.025-wide bins centered on paper ticks
    let mut h2 = Histogram::new(0.7625, 1.0625, 12);
    let mut sum1 = 0.0;
    let mut sum2 = 0.0;
    let mut slow2 = 0u32;
    for i in 0..scale.mc_chips {
        let chip = factory.chip(i);
        let f1 = chip.frequency_multiplier_6t(CellSize::X1);
        let f2 = chip.frequency_multiplier_6t(CellSize::X2);
        h1.push(f1);
        h2.push(f2);
        sum1 += f1;
        sum2 += f2;
        if f2 < 0.99 {
            slow2 += 1;
        }
    }
    let n = scale.mc_chips as f64;
    for (label, h, sum) in [("x1", &h1, sum1), ("x2", &h2, sum2)] {
        out.metrics
            .put_histogram(&format!("freq.{label}"), to_obs(h, 0.7625, 1.0625, sum));
    }

    let _ = writeln!(
        out.text,
        "{:>8} {:>10} {:>26} {:>10} {:>26}",
        "freq", "1X prob", "", "2X prob", ""
    );
    for i in 0..h1.counts().len() {
        let f1 = h1.fractions()[i];
        let f2 = h2.fractions()[i];
        let _ = writeln!(
            out.text,
            "{:>8.3} {:>10.3} {:<26} {:>10.3} {:<26}",
            h1.bin_center(i),
            f1,
            bar(f1 / 0.5, 26),
            f2,
            bar(f2 / 0.5, 26)
        );
    }
    let _ = writeln!(out.text);
    out.compare(
        "mean 1X 6T normalized frequency",
        sum1 / n,
        "0.80-0.90 (10-20% loss)",
    );
    out.compare("mean 2X 6T normalized frequency", sum2 / n, "~1.0");
    out.compare(
        "fraction of 2X chips below 0.99",
        slow2 as f64 / n,
        "~0.2 (20% of chips ~3% slow)",
    );
    out
}

/// Runs the Figure 7 leakage distributions at the given scale.
pub fn fig07(scale: &RunScale) -> StageOutput {
    let mut out = StageOutput::new("fig07");
    out.seed = Some(20_242);
    out.tech_node = Some(TechNode::N32.to_string());
    out.banner(
        "Figure 7",
        "cache leakage distributions, typical variation (32 nm), normalized to golden 6T",
    );
    let factory = ChipFactory::new(TechNode::N32, VariationCorner::Typical.params(), 20_242);
    let golden = golden_cache_leakage_6t(TechNode::N32, factory.layout().total_cells());

    // The paper's non-uniform bins.
    let edges = [
        0.0,
        0.375,
        0.75,
        1.25,
        1.75,
        2.5,
        3.5,
        5.0,
        7.0,
        9.0,
        11.0,
        f64::INFINITY,
    ];
    let labels = [
        "0.25X", "0.5X", "1X", "1.5X", "2X", "3X", "4X", "6X", "8X", "10X", "12X+",
    ];
    let mut c6 = [0u32; 11];
    let mut c3 = [0u32; 11];
    let mut over15_6t = 0u32;
    let mut over10_6t = 0u32;
    let mut over1_3t = 0u32;
    let mut max3 = 0.0f64;
    for i in 0..scale.mc_chips {
        let chip = factory.chip(i);
        let r6 = chip.leakage_6t(CellSize::X1).value() / golden.value();
        let r3 = chip.leakage_3t1d().value() / golden.value();
        for (k, w) in edges.windows(2).enumerate() {
            if r6 >= w[0] && r6 < w[1] {
                c6[k] += 1;
            }
            if r3 >= w[0] && r3 < w[1] {
                c3[k] += 1;
            }
        }
        if r6 > 1.5 {
            over15_6t += 1;
        }
        if r6 > 10.0 {
            over10_6t += 1;
        }
        if r3 > 1.0 {
            over1_3t += 1;
        }
        max3 = max3.max(r3);
    }
    let n = scale.mc_chips as f64;

    let _ = writeln!(
        out.text,
        "{:>8} {:>9} {:<26} {:>9} {:<26}",
        "leakage", "1X 6T", "", "3T1D", ""
    );
    for k in 0..11 {
        let bin = labels[k].to_lowercase();
        out.metrics
            .inc(&format!("leakage.six_t.bin_{bin}"), c6[k] as u64);
        out.metrics
            .inc(&format!("leakage.t3.bin_{bin}"), c3[k] as u64);
        let _ = writeln!(
            out.text,
            "{:>8} {:>9.3} {:<26} {:>9.3} {:<26}",
            labels[k],
            c6[k] as f64 / n,
            bar(c6[k] as f64 / n / 0.45, 26),
            c3[k] as f64 / n,
            bar(c3[k] as f64 / n / 0.45, 26)
        );
    }
    let _ = writeln!(out.text);
    out.compare(
        "1X 6T chips above 1.5x golden",
        over15_6t as f64 / n,
        ">0.5",
    );
    out.compare(
        "1X 6T chips above 10x golden",
        over10_6t as f64 / n,
        "'some chips' (>0)",
    );
    out.compare("3T1D chips above golden 6T", over1_3t as f64 / n, "~0.11");
    out.compare("3T1D maximum ratio", max3, "<4x");
    out
}

/// Runs the Figure 8 per-line retention distributions at the given scale.
pub fn fig08(scale: &RunScale) -> StageOutput {
    let mut out = StageOutput::new("fig08");
    out.seed = Some(20_243);
    out.tech_node = Some(TechNode::N32.to_string());
    out.banner(
        "Figure 8",
        "line retention distributions of good/median/bad chips (severe, 32 nm)",
    );
    let pop = ChipPopulation::generate(
        TechNode::N32,
        VariationCorner::Severe.params(),
        scale.sim_chips.max(40),
        20_243,
    );
    for grade in [ChipGrade::Good, ChipGrade::Median, ChipGrade::Bad] {
        let chip = pop.select(grade);
        let counter = chip.counter_spec();
        let mut hist = Histogram::new(0.0, 5_000.0, 10);
        for t in chip.retention_times() {
            hist.push(t.ns());
        }
        let dead = chip.dead_line_fraction(&counter);
        let grade_slug = grade.to_string().to_lowercase();
        out.metrics
            .set_gauge(&format!("chip.{grade_slug}.dead_line_fraction"), dead);
        let sum: f64 = chip.retention_times().iter().map(|t| t.ns()).sum();
        out.metrics.put_histogram(
            &format!("chip.{grade_slug}.line_retention_ns"),
            to_obs(&hist, 0.0, 5_000.0, sum),
        );
        let _ = writeln!(out.text);
        let _ = writeln!(
            out.text,
            "{} chip (#{}) — dead lines: {:.1}%",
            grade,
            chip.index(),
            dead * 100.0
        );
        let _ = writeln!(out.text, "  retention (ns)   line probability");
        for (center, frac) in hist.iter() {
            let _ = writeln!(
                out.text,
                "  {center:>10.0}  {frac:>6.3} {}",
                bar(frac / 0.45, 30)
            );
        }
        if hist.overflow() > 0 {
            let _ = writeln!(
                out.text,
                "  {:>10}  {:>6.3}",
                ">5000",
                hist.overflow() as f64 / hist.total() as f64
            );
        }
    }

    let _ = writeln!(out.text);
    let median_dead = pop.select(ChipGrade::Median).dead_fraction();
    let bad_dead = pop.select(ChipGrade::Bad).dead_fraction();
    out.compare("median chip dead-line fraction", median_dead, "~0.03");
    out.compare("bad chip dead-line fraction", bad_dead, "~0.23");
    let cfg = CacheConfig::paper(Scheme::global());
    out.compare(
        "global-scheme discard fraction (severe)",
        pop.global_scheme_discard_fraction(&cfg),
        "~0.80",
    );
    out
}
