//! Quickstart: fabricate a varied chip, build a 3T1D L1D over it, and run
//! a benchmark on the out-of-order core.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use pv3t1d::prelude::*;
use vlsi::power::MemKind;

fn main() {
    // 1. Fabricate one 32 nm chip under typical process variation. All of
    //    its device-level variation is already lumped into per-line
    //    retention times.
    let pop = ChipPopulation::generate(TechNode::N32, VariationCorner::Typical.params(), 8, 7);
    let chip = pop.select(ChipGrade::Median);
    println!(
        "chip #{}: cache retention {:.0} ns, {:.1}% dead lines, leakage {:.1} mW (6T would be {:.1} mW)",
        chip.index(),
        chip.cache_retention().ns(),
        chip.dead_fraction() * 100.0,
        chip.leakage_3t1d().mw(),
        chip.leakage_6t().mw(),
    );

    // 2. Build the L1 data cache with the paper's best scheme (RSP-FIFO)
    //    and run the gzip-like workload through the Table 2 machine.
    let cfg = CacheConfig::paper(Scheme::rsp_fifo());
    let mut cache = DataCache::new(cfg, chip.retention_profile().clone());
    let mut trace = SyntheticTrace::new(SpecBenchmark::Gzip.profile(), 42);
    let (result, stats) = simulate_warmed(&mut trace, &mut cache, 50_000, 200_000);

    println!(
        "gzip on RSP-FIFO 3T1D: IPC {:.3} ({:.2} BIPS at {:.1} GHz)",
        result.ipc(),
        result.bips(TechNode::N32.chip_frequency().ghz()),
        TechNode::N32.chip_frequency().ghz()
    );
    println!(
        "  L1D: {:.2}% miss rate, {} expiry misses, {} line moves, {} refreshes",
        stats.miss_rate() * 100.0,
        stats.expiry_misses,
        stats.line_moves,
        stats.refreshes
    );
    let energy = stats.energy_events();
    println!(
        "  dynamic energy: {:.2} uJ over {:.0} us simulated",
        energy.total_energy(TechNode::N32, MemKind::Dram3t1d).value() * 1e6,
        result.cycles as f64 * TechNode::N32.clock_period().us()
    );

    // 3. Compare against the same machine with an ideal (variation-free)
    //    6T cache.
    let mut ideal = DataCache::ideal();
    let mut trace = SyntheticTrace::new(SpecBenchmark::Gzip.profile(), 42);
    let (base, _) = simulate_warmed(&mut trace, &mut ideal, 50_000, 200_000);
    println!(
        "  vs ideal 6T: {:.1}% of baseline performance",
        100.0 * result.ipc() / base.ipc()
    );
}
