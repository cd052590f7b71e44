//! Paper tour: one pass over the argument of the MICRO 2007 paper, each
//! step computed live by the corresponding subsystem.
//!
//! ```text
//! cargo run --release --example paper_tour [--quick]
//! ```

use pv3t1d::prelude::*;
use t3cache::rescue::rescue_report;
use vlsi::cell3t1d::retention_time;
use vlsi::cell6t::{bit_flip_probability, CellSize};
use vlsi::leakage::{cell_leakage_3t1d, cell_leakage_6t};
use vlsi::variation::DeviceDeviation;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (chips, instr, warm) = if quick {
        (16, 30_000, 15_000)
    } else {
        (60, 120_000, 60_000)
    };
    let node = TechNode::N32;

    println!("== Step 1 (§2.1): 6T SRAM is hitting a wall at 32 nm ==");
    let p_flip = bit_flip_probability(node, CellSize::X1, &VariationCorner::Typical.params());
    let rescue = rescue_report(node, &VariationCorner::Typical.params());
    println!(
        "  bit-flip rate {:.2}% -> even ECC+spares yield {:.4}%; leakage {:.0} nW/cell",
        p_flip * 100.0,
        rescue.yield_both * 100.0,
        cell_leakage_6t(node, DeviceDeviation::NOMINAL).value() * 1e9
    );

    println!();
    println!("== Step 2 (§2.2): the 3T1D cell trades all of that for retention ==");
    println!(
        "  stable (no fighting), {:.0} nW/cell leakage, nominal retention {:.1} us",
        cell_leakage_3t1d(node, DeviceDeviation::NOMINAL).value() * 1e9,
        retention_time(node, DeviceDeviation::NOMINAL, DeviceDeviation::NOMINAL).us()
    );

    println!();
    println!("== Step 3 (Fig. 1): on-chip data is transient ==");
    let mut trace = SyntheticTrace::new(SpecBenchmark::Gzip.profile(), 5);
    let mut cache = DataCache::ideal();
    let (_, stats) = simulate_warmed(&mut trace, &mut cache, warm, instr);
    let cdf = stats.hit_age_cdf();
    println!(
        "  gzip: {:.0}% of cache references land within 6K cycles of the line's load",
        cdf.get(5).map(|x| x.1 * 100.0).unwrap_or(0.0)
    );

    println!();
    println!("== Step 4 (§4.2): typical variation -> global refresh just works ==");
    let pop = ChipPopulation::generate(node, VariationCorner::Typical.params(), chips, 7);
    let eval = Evaluator::new(EvalConfig {
        benchmarks: vec![SpecBenchmark::Gzip, SpecBenchmark::Mcf],
        instructions: instr,
        warmup: warm,
        ..EvalConfig::default()
    });
    let ideal = eval.run_ideal(4);
    let chip = pop.select(ChipGrade::Median);
    let suite = eval.run_scheme(chip.retention_profile(), Scheme::global(), 4);
    println!(
        "  median chip (retention {:.0} ns): {:.1}% of ideal-6T performance,",
        chip.cache_retention().ns(),
        suite.normalized_performance(&ideal, 1.0) * 100.0
    );
    println!(
        "  while a 6T cache on the same chip would clock at {:.0}% frequency",
        chip.frequency_multiplier_6t(CellSize::X1) * 100.0
    );

    println!();
    println!("== Step 5 (§4.3): severe variation -> line-level schemes rescue every chip ==");
    let pop = ChipPopulation::generate(node, VariationCorner::Severe.params(), chips, 9);
    let bad = pop.select(ChipGrade::Bad);
    println!(
        "  bad chip: {:.0}% dead lines; global scheme infeasible: {}",
        bad.dead_fraction() * 100.0,
        !DataCache::global_scheme_feasible(
            bad.retention_profile(),
            &CacheConfig::paper(Scheme::global())
        )
    );
    for (name, scheme) in [
        ("naive LRU  ", Scheme::no_refresh_lru()),
        ("partial/DSP", Scheme::partial_refresh_dsp()),
        ("RSP-FIFO   ", Scheme::rsp_fifo()),
    ] {
        let suite = eval.run_scheme(bad.retention_profile(), scheme, 4);
        println!(
            "    {name} -> {:.1}% of ideal",
            suite.normalized_performance(&ideal, 1.0) * 100.0
        );
    }

    println!();
    println!("== Step 6 (Table 3): the punchline ==");
    println!("  3T1D recovers the technology generation 6T loses, is stable by");
    println!("  construction, and cuts total cache power by more than half.");
    println!("  (run table3_tech_nodes for the full per-node table)");
}
