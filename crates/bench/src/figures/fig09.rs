//! Figure 9 stage: normalized performance of the eight line-level
//! retention schemes on the good, median and bad chips under severe
//! variation.
//!
//! Paper shape: LRU-only schemes suffer most on the bad chip (dead-line
//! references); partial refresh buys 1–2 % over no-refresh; full refresh
//! gives some of it back (~1 % blocking penalty); the intrinsic-refresh
//! RSP schemes perform best.

use super::StageOutput;
use crate::RunScale;
use cachesim::Scheme;
use std::fmt::Write as _;
use t3cache::campaign::evaluate_grid;
use t3cache::chip::{ChipGrade, ChipModel, ChipPopulation};
use t3cache::evaluate::Evaluator;
use vlsi::tech::TechNode;
use vlsi::variation::VariationCorner;

/// Runs the Figure 9 scheme comparison at the given scale.
pub fn run(scale: &RunScale) -> StageOutput {
    let mut out = StageOutput::new("fig09");
    out.seed = Some(20_244);
    out.tech_node = Some(TechNode::N32.to_string());
    out.banner(
        "Figure 9",
        "retention schemes on good/median/bad chips (severe, 32 nm)",
    );
    let pop = ChipPopulation::generate(
        TechNode::N32,
        VariationCorner::Severe.params(),
        scale.sim_chips.max(40),
        20_244,
    );
    let eval = Evaluator::new(scale.eval_config(TechNode::N32));
    let ideal = eval.run_ideal(4);

    let schemes = Scheme::figure9_schemes();
    // One campaign over the schemes × {good, median, bad} grid.
    let exemplars: Vec<&ChipModel> = [ChipGrade::Good, ChipGrade::Median, ChipGrade::Bad]
        .iter()
        .map(|&g| pop.select(g))
        .collect();
    let grid = evaluate_grid(&eval, &exemplars, &schemes, &ideal);
    let labels: Vec<String> = schemes.iter().map(Scheme::to_string).collect();
    for (s, label) in labels.iter().enumerate() {
        grid.export_scheme(&mut out.metrics, s, label);
    }
    let _ = writeln!(out.text);

    let _ = writeln!(
        out.text,
        "{:<28} {:>8} {:>8} {:>8}",
        "scheme", "good", "median", "bad"
    );
    let mut results = Vec::new();
    for (s, scheme) in schemes.iter().enumerate() {
        let row = grid.perfs(s);
        let _ = writeln!(
            out.text,
            "{:<28} {:>8.3} {:>8.3} {:>8.3}",
            scheme.to_string(),
            row[0],
            row[1],
            row[2]
        );
        for (grade, &perf) in ["good", "median", "bad"].iter().zip(&row) {
            out.metrics
                .set_gauge(&format!("scheme.{scheme}.perf.{grade}"), perf);
        }
        results.push((scheme.to_string(), row));
    }

    let _ = writeln!(out.text);
    let bad = |name: &str| {
        results
            .iter()
            .find(|(n, _)| n.starts_with(name))
            .map(|(_, r)| r[2])
            .expect("scheme present")
    };
    let dsp_gain = bad("no-refresh/DSP") - bad("no-refresh/LRU");
    let rsp_gain = bad("RSP-FIFO") - bad("no-refresh/LRU");
    out.compare(
        "bad chip: DSP gain over plain LRU (no-refresh)",
        dsp_gain,
        "large, dead-line avoidance",
    );
    out.compare(
        "bad chip: RSP-FIFO vs no-refresh/LRU",
        rsp_gain,
        "RSP best overall",
    );
    let partial_vs_none = results
        .iter()
        .find(|(n, _)| n.starts_with("partial-refresh") && n.ends_with("DSP"))
        .map(|(_, r)| r[1])
        .unwrap()
        - results
            .iter()
            .find(|(n, _)| n == "no-refresh/DSP")
            .map(|(_, r)| r[1])
            .unwrap();
    out.compare(
        "median chip: partial vs no refresh (DSP)",
        partial_vs_none,
        "+0.01..0.02",
    );
    out
}
