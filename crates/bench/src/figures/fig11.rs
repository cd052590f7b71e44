//! Figure 11 stage: performance of the three line-level schemes on the
//! good/median/bad chips across associativities (1/2/4/8-way).
//!
//! Paper shape: with ≥2 ways the retention-aware schemes can steer around
//! dead lines and RSP-FIFO / partial-refresh-DSP clearly beat
//! no-refresh/LRU on the bad chip; direct-mapped caches get no placement
//! benefit (only refresh helps).
//!
//! The four ideal baselines are computed once and the grade × scheme ×
//! ways grid runs on the [`t3cache::campaign`] engine.

use super::StageOutput;
use crate::{metric_slug, RunScale};
use cachesim::Scheme;
use std::fmt::Write as _;
use t3cache::campaign::map_indexed;
use t3cache::chip::{ChipGrade, ChipModel, ChipPopulation};
use t3cache::evaluate::Evaluator;
use vlsi::tech::TechNode;
use vlsi::variation::VariationCorner;

const WAYS: [u32; 4] = [1, 2, 4, 8];

/// Runs the Figure 11 associativity sweep at the given scale.
pub fn run(scale: &RunScale) -> StageOutput {
    let mut out = StageOutput::new("fig11");
    out.seed = Some(20_246);
    out.tech_node = Some(TechNode::N32.to_string());
    out.banner(
        "Figure 11",
        "schemes vs associativity on good/median/bad chips (severe, 32 nm)",
    );
    let pop = ChipPopulation::generate(
        TechNode::N32,
        VariationCorner::Severe.params(),
        scale.sim_chips.max(40),
        20_246,
    );
    let eval = Evaluator::new(scale.eval_config(TechNode::N32));

    // The four ideal baselines, each computed exactly once.
    let (ideals, _) = map_indexed(WAYS.len(), |w| eval.run_ideal(WAYS[w]));

    let schemes = [
        ("no-refresh/LRU", Scheme::no_refresh_lru()),
        ("partial-refresh/DSP", Scheme::partial_refresh_dsp()),
        ("RSP-FIFO", Scheme::rsp_fifo()),
    ];
    let grades = [ChipGrade::Good, ChipGrade::Median, ChipGrade::Bad];
    let exemplars: Vec<&ChipModel> = grades.iter().map(|&g| pop.select(g)).collect();

    // One campaign over grade × scheme × ways (row-major).
    let units = grades.len() * schemes.len() * WAYS.len();
    let (flat, _) = map_indexed(units, |i| {
        let g = i / (schemes.len() * WAYS.len());
        let s = (i / WAYS.len()) % schemes.len();
        let w = i % WAYS.len();
        let suite = eval.run_scheme(exemplars[g].retention_profile(), schemes[s].1, WAYS[w]);
        suite.normalized_performance(&ideals[w], 1.0)
    });

    let perf = |g: usize, s: usize, w: usize| flat[(g * schemes.len() + s) * WAYS.len() + w];
    for (g, grade) in grades.iter().enumerate() {
        for (s, (name, _)) in schemes.iter().enumerate() {
            for (w, ways) in WAYS.iter().enumerate() {
                out.metrics.set_gauge(
                    &format!("perf.{grade}.{}.{ways}way", metric_slug(name)),
                    perf(g, s, w),
                );
            }
        }
    }
    let mut bad_gap_4way = 0.0;
    let mut bad_gap_1way = 0.0;
    for (g, grade) in grades.iter().enumerate() {
        let _ = writeln!(out.text);
        let _ = writeln!(out.text, "{grade} chip:");
        let _ = writeln!(
            out.text,
            "{:<22} {:>8} {:>8} {:>8} {:>8}",
            "scheme", "1-way", "2-way", "4-way", "8-way"
        );
        for (s, (name, _)) in schemes.iter().enumerate() {
            let _ = writeln!(
                out.text,
                "{:<22} {:>8.3} {:>8.3} {:>8.3} {:>8.3}",
                name,
                perf(g, s, 0),
                perf(g, s, 1),
                perf(g, s, 2),
                perf(g, s, 3)
            );
        }
        if matches!(grade, ChipGrade::Bad) {
            bad_gap_4way = perf(g, 2, 2) - perf(g, 0, 2);
            bad_gap_1way = perf(g, 2, 0) - perf(g, 0, 0);
        }
    }

    let _ = writeln!(out.text);
    out.compare(
        "bad chip, 4-way: RSP-FIFO advantage over no-refresh/LRU",
        bad_gap_4way,
        "significant (placement works)",
    );
    out.compare(
        "bad chip, 1-way: RSP-FIFO advantage over no-refresh/LRU",
        bad_gap_1way,
        "~0 (no placement freedom)",
    );
    out
}
