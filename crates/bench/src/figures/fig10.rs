//! Figure 10 stage: performance and dynamic power of 100 severely-varied
//! chips under the three representative line-level schemes.
//!
//! Paper shape: every chip stays functional; RSP-FIFO and
//! partial-refresh/DSP hold performance within ≈3 % (most chips <1 %)
//! with <10 % dynamic-power overhead; no-refresh/LRU loses more and its
//! power overhead reaches ≈60 % on the worst chips (extra L2 traffic).

use super::StageOutput;
use crate::{frac_above, max, min, RunScale};
use cachesim::Scheme;
use std::fmt::Write as _;
use t3cache::campaign::evaluate_grid;
use t3cache::chip::{ChipModel, ChipPopulation};
use t3cache::evaluate::Evaluator;
use vlsi::tech::TechNode;
use vlsi::variation::VariationCorner;

/// Runs the Figure 10 hundred-chip study at the given scale.
pub fn run(scale: &RunScale) -> StageOutput {
    let mut out = StageOutput::new("fig10");
    out.seed = Some(20_245);
    out.tech_node = Some(TechNode::N32.to_string());
    out.banner(
        "Figure 10",
        "100 severe-variation chips under three line-level schemes (32 nm)",
    );
    let chips = scale.sim_chips;
    let pop = ChipPopulation::generate(
        TechNode::N32,
        VariationCorner::Severe.params(),
        chips,
        20_245,
    );
    let eval = Evaluator::new(scale.eval_config(TechNode::N32));
    let ideal = eval.run_ideal(4);

    let schemes = [
        ("no-refresh/LRU", Scheme::no_refresh_lru()),
        ("partial-refresh/DSP", Scheme::partial_refresh_dsp()),
        ("RSP-FIFO", Scheme::rsp_fifo()),
    ];

    let chip_refs: Vec<&ChipModel> = pop.chips().iter().collect();
    let scheme_list: Vec<Scheme> = schemes.iter().map(|&(_, s)| s).collect();
    let result = evaluate_grid(&eval, &chip_refs, &scheme_list, &ideal);
    for (s, &(label, _)) in schemes.iter().enumerate() {
        result.export_scheme(&mut out.metrics, s, label);
    }
    let _ = writeln!(out.text);

    // perf[scheme][chip], power[scheme][chip]
    let perf: Vec<Vec<f64>> = (0..3).map(|s| result.perfs(s)).collect();
    let power: Vec<Vec<f64>> = (0..3).map(|s| result.powers(s)).collect();

    // Sort chips by descending no-refresh performance, as in the figure.
    let mut order: Vec<usize> = (0..chips as usize).collect();
    order.sort_by(|&a, &b| perf[0][b].partial_cmp(&perf[0][a]).expect("finite"));

    let _ = writeln!(
        out.text,
        "{:>5} {:>10} {:>10} {:>10}   {:>10} {:>10} {:>10}",
        "chip", "perf:NR", "perf:PR", "perf:RSP", "pwr:NR", "pwr:PR", "pwr:RSP"
    );
    let step = (order.len() / 20).max(1);
    for (rank, &c) in order.iter().enumerate() {
        if rank % step == 0 || rank == order.len() - 1 {
            let _ = writeln!(
                out.text,
                "{:>5} {:>10.3} {:>10.3} {:>10.3}   {:>10.2} {:>10.2} {:>10.2}",
                rank + 1,
                perf[0][c],
                perf[1][c],
                perf[2][c],
                power[0][c],
                power[1][c],
                power[2][c]
            );
        }
    }

    let _ = writeln!(out.text);
    out.compare(
        "worst-chip perf, no-refresh/LRU",
        min(&perf[0]),
        ">=0.86 (Fig. 9/10)",
    );
    out.compare("worst-chip perf, partial-refresh/DSP", min(&perf[1]), ">=0.97");
    out.compare("worst-chip perf, RSP-FIFO", min(&perf[2]), ">=0.97");
    out.compare(
        "chips losing <1% (RSP-FIFO)",
        frac_above(&perf[2], 0.99),
        "'most chips'",
    );
    out.compare(
        "max power overhead, no-refresh/LRU",
        max(&power[0]) - 1.0,
        "up to ~0.6",
    );
    out.compare("max power overhead, partial/DSP", max(&power[1]) - 1.0, "<0.10");
    out.compare("max power overhead, RSP-FIFO", max(&power[2]) - 1.0, "<0.10");
    out.compare(
        "global-scheme discard fraction (for contrast)",
        pop.global_scheme_discard_fraction(&cachesim::CacheConfig::paper(Scheme::global())),
        "~0.80",
    );
    out
}
