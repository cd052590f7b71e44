//! Figure 12 stages: the µ–σ/µ sensitivity surface and the real
//! design-point annotations on it.
//!
//! Paper shape: σ/µ matters more than µ (dead lines dominate); a sharp
//! performance drop appears beyond σ/µ ≈ 25 %; larger µ helps at fixed
//! σ/µ; the retention-aware schemes dominate no-refresh almost
//! everywhere. The annotations show technology scaling (points 1→2→3),
//! voltage scaling (3 vs 5) and severe variation (4, 6) walking toward
//! the cliff.

use super::StageOutput;
use crate::{metric_slug, RunScale};
use cachesim::Scheme;
use std::fmt::Write as _;
use t3cache::evaluate::Evaluator;
use t3cache::sensitivity::{design_point, SensitivitySweep};
use vlsi::tech::TechNode;
use vlsi::units::Voltage;
use vlsi::variation::VariationCorner;
use workloads::SpecBenchmark;

/// Runs the Figure 12 design-point annotation table at the given scale.
pub fn points(scale: &RunScale) -> StageOutput {
    let mut out = StageOutput::new("fig12_points");
    out.seed = Some(77);
    let chips = (scale.mc_chips / 10).max(4);
    out.banner(
        "Figure 12 (annotations)",
        "real design points on the retention surface",
    );
    let _ = writeln!(
        out.text,
        "{:<6} {:<26} {:>12} {:>8} {:>10}",
        "point", "design", "mu (cycles)", "s/u", "mu (ns)"
    );
    let rows: [(&str, TechNode, VariationCorner, f64); 6] = [
        ("1", TechNode::N65, VariationCorner::Typical, 1.2),
        ("2", TechNode::N45, VariationCorner::Typical, 1.1),
        ("3", TechNode::N32, VariationCorner::Typical, 1.0),
        ("4", TechNode::N32, VariationCorner::Severe, 1.0),
        ("5", TechNode::N32, VariationCorner::Typical, 0.9),
        ("6", TechNode::N32, VariationCorner::Severe, 0.9),
    ];
    for (pt, node, corner, vdd) in rows {
        let (mu, cv) = design_point(node, &corner.params(), Voltage::new(vdd), chips, 77);
        out.metrics
            .set_gauge(&format!("point.{pt}.mu_cycles"), mu as f64);
        out.metrics
            .set_gauge(&format!("point.{pt}.sigma_over_mu"), cv);
        let _ = writeln!(
            out.text,
            "{:<6} {:<26} {:>12} {:>7.1}% {:>10.0}",
            pt,
            format!("{node} {corner} @{vdd:.1}V"),
            mu,
            cv * 100.0,
            mu as f64 * node.clock_period().ns()
        );
    }
    let _ = writeln!(out.text);
    let _ = writeln!(
        out.text,
        "reading the surface: scaling (1→2→3) and voltage (3→5) shrink µ;"
    );
    let _ = writeln!(
        out.text,
        "severe variation (4, 6) widens s/u toward the dead-line cliff —"
    );
    let _ = writeln!(
        out.text,
        "point 6 is the corner the paper warns needs innovation at every layer."
    );
    out
}

/// Runs the Figure 12 µ–σ/µ performance-surface sweep at the given scale.
pub fn surface(scale: &RunScale) -> StageOutput {
    let mut out = StageOutput::new("fig12_surface");
    out.tech_node = Some(TechNode::N32.to_string());
    out.banner(
        "Figure 12",
        "performance vs retention-time mean and variation (three schemes)",
    );

    // Use a 4-benchmark subset to keep the 56-point grid tractable; the
    // subset spans the memory-intensity range.
    let mut cfg = scale.eval_config(TechNode::N32);
    cfg.benchmarks = vec![
        SpecBenchmark::Gzip,
        SpecBenchmark::Gcc,
        SpecBenchmark::Mcf,
        SpecBenchmark::Mesa,
    ];
    cfg.instructions = (cfg.instructions / 2).max(20_000);
    cfg.warmup = (cfg.warmup / 2).max(10_000);
    let eval = Evaluator::new(cfg);
    let ideal = eval.run_ideal(4);

    let mut sweep = SensitivitySweep::paper_grid();
    if scale.sim_chips < 40 {
        sweep = SensitivitySweep {
            mus: vec![2_000, 10_000, 18_000, 30_000],
            ratios: vec![0.05, 0.15, 0.25, 0.35],
            chips_per_point: 1,
            ..sweep
        };
    }

    let schemes = [
        ("no-refresh/LRU", Scheme::no_refresh_lru()),
        (
            "partial-refresh/DSP (dead-line sensitive)",
            Scheme::partial_refresh_dsp(),
        ),
        ("RSP-FIFO (retention sensitive)", Scheme::rsp_fifo()),
    ];

    let mut cliff = (0.0f64, 0.0f64); // no-refresh perf at σ/µ=0.25 vs 0.35, low µ
    let mut aware_vs_naive = 0.0;
    for (si, (name, scheme)) in schemes.iter().enumerate() {
        let _ = writeln!(out.text);
        let _ = writeln!(out.text, "{name}:");
        // Each scheme's µ–σ/µ grid fans out as one campaign of
        // independent grid-point units.
        let pts = sweep.run(&eval, *scheme, &ideal);
        let scheme_slug = metric_slug(name);
        for p in &pts {
            out.metrics.set_gauge(
                &format!(
                    "surface.{scheme_slug}.mu{}.r{:02.0}",
                    p.mu_cycles,
                    p.sigma_over_mu * 100.0
                ),
                p.performance,
            );
        }
        let _ = write!(out.text, "{:>10}", "mu\\s/mu");
        for r in &sweep.ratios {
            let _ = write!(out.text, "{:>8.0}%", r * 100.0);
        }
        let _ = writeln!(out.text);
        for (i, &mu) in sweep.mus.iter().enumerate() {
            let _ = write!(out.text, "{mu:>10}");
            for j in 0..sweep.ratios.len() {
                let p = &pts[i * sweep.ratios.len() + j];
                let _ = write!(out.text, "{:>9.3}", p.performance);
            }
            let _ = writeln!(out.text);
        }
        // Bookkeeping for the headline comparisons.
        let find = |mu: u64, ratio: f64| {
            pts.iter()
                .find(|p| p.mu_cycles == mu && (p.sigma_over_mu - ratio).abs() < 1e-9)
                .map(|p| p.performance)
        };
        let low_mu = sweep.mus[0];
        if si == 0 {
            if let (Some(a), Some(b)) = (find(low_mu, 0.25), find(low_mu, 0.35)) {
                cliff = (a, b);
            }
            aware_vs_naive -= find(low_mu, 0.35).unwrap_or(0.0);
        }
        if si == 1 {
            aware_vs_naive += find(low_mu, 0.35).unwrap_or(0.0);
        }
    }

    let _ = writeln!(out.text);
    out.compare(
        "no-refresh/LRU drop from s/u=25% to 35% (low mu)",
        cliff.0 - cliff.1,
        "sudden drop past 25% (Fig. 12, dead lines)",
    );
    out.compare(
        "retention-aware advantage over no-refresh (35%, low mu)",
        aware_vs_naive,
        "positive nearly everywhere",
    );
    out
}
