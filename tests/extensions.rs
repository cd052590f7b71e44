//! Integration tests for the extension analyses (rescue, word-level
//! refresh, design points, temperature/voltage scaling) working together
//! over real Monte-Carlo chips.

use pv3t1d::prelude::*;
use t3cache::rescue::{rescue_report, RescueMechanism};
use t3cache::sensitivity::design_point;
use t3cache::wordlevel::{line_level_demand, word_level_demand};
use vlsi::cell3t1d::{retention_temperature_factor, retention_vdd_factor};
use vlsi::units::Voltage;

#[test]
fn the_paper_sits_at_the_rescue_cliff() {
    // 65 nm: classical rescue works. 32 nm: nothing works. That ordering
    // is the §2.1 motivation for the whole paper.
    let typical = VariationCorner::Typical.params();
    let r65 = rescue_report(TechNode::N65, &typical);
    let r32 = rescue_report(TechNode::N32, &typical);
    assert!(r65.yield_both > 0.99);
    assert!(r32.yield_both < 0.01);
    // And the monotone chain holds at both nodes.
    for r in [r65, r32] {
        assert!(r.yield_both >= r.yield_secded);
        assert!(r.yield_secded >= r.yield_none);
    }
}

#[test]
fn rescue_yield_is_monotone_in_spares() {
    let mut last = 0.0;
    for spares in [0u32, 4, 16, 64] {
        let y = t3cache::cache_yield(
            RescueMechanism::SecdedPlusSpares { spares },
            0.0005,
            1024,
            512,
        );
        assert!(y >= last - 1e-12, "spares {spares}: {y} < {last}");
        last = y;
    }
}

#[test]
fn word_level_analysis_runs_on_real_chips() {
    let factory = vlsi::ChipFactory::new(TechNode::N32, VariationCorner::Severe.params(), 3);
    let map = factory.chip(0).word_retention_map(8);
    let counter = CounterSpec {
        step_cycles: 1024,
        bits: 6,
    };
    let line = line_level_demand(&map, &counter, TechNode::N32);
    let word = word_level_demand(&map, &counter, TechNode::N32);
    // Words are 9x more numerous but each 8x cheaper and longer-lived:
    // power lands within a factor of ~2 either way, counters exactly 9x.
    let ratio = word.power.value() / line.power.value();
    assert!(ratio > 0.3 && ratio < 1.5, "power ratio {ratio}");
    assert_eq!(word.counter_bits, 9 * line.counter_bits);
    // Dead words never outnumber 8x the dead lines plus tags.
    assert!(word.dead_units <= 9 * line.dead_units + map.lines() as u64);
}

#[test]
fn design_points_span_the_sensitivity_grid() {
    // Every §5 design point must land inside (or near) the paper's grid
    // ranges: µ within 2K-30K cycles, σ/µ within 5-45 %.
    for (node, corner, vdd) in [
        (TechNode::N65, VariationCorner::Typical, 1.2),
        (TechNode::N32, VariationCorner::Typical, 1.0),
        (TechNode::N32, VariationCorner::Severe, 0.9),
    ] {
        let (mu, cv) = design_point(node, &corner.params(), Voltage::new(vdd), 3, 5);
        assert!(mu > 2_000 && mu < 40_000, "{node} {corner}: mu {mu}");
        assert!(cv > 0.03 && cv < 0.5, "{node} {corner}: cv {cv}");
    }
}

#[test]
fn temperature_and_voltage_factors_compose_physically() {
    // Cooler and higher-voltage both extend retention; their product is
    // how a real operating point scales the measured 80C/nominal values.
    let f_cool = retention_temperature_factor(60.0);
    let f_volt = retention_vdd_factor(TechNode::N32, Voltage::new(1.05));
    assert!(f_cool > 1.0 && f_volt > 1.0);
    let combined = f_cool * f_volt;
    assert!(combined > f_cool && combined > f_volt);
    // And the worst-case corner shrinks both ways.
    assert!(retention_temperature_factor(95.0) < 1.0);
    assert!(retention_vdd_factor(TechNode::N32, Voltage::new(0.95)) < 1.0);
}

#[test]
fn write_through_mode_survives_retention_chips() {
    // A severe chip with the write-through L1: stores must never be lost
    // (every store reaches the L2 immediately) and expiry costs no
    // write-back work.
    let pop = ChipPopulation::generate(TechNode::N32, VariationCorner::Severe.params(), 4, 19);
    let chip = pop.select(ChipGrade::Bad);
    let mut cfg = CacheConfig::paper(Scheme::partial_refresh_dsp());
    cfg.write_policy = cachesim::WritePolicy::WriteThrough;
    cfg.counter = chip.counter_spec();
    let mut cache = DataCache::new(cfg, chip.retention_profile().clone());
    let mut trace = SyntheticTrace::new(SpecBenchmark::Gcc.profile(), 21);
    let (r, stats) = simulate_warmed(&mut trace, &mut cache, 20_000, 40_000);
    assert_eq!(r.instructions, 40_000);
    assert!(stats.writebacks >= stats.stores, "every store reaches the L2");
    assert_eq!(stats.expiry_writebacks, 0);
    assert_eq!(stats.writeback_stall_refreshes, 0);
}
