//! Differential armor for the front end resolved at recording time: a
//! pipeline fed by a live generator through a [`FrontEnd`] and one fed by
//! a [`RecordedTrace`] replay must produce identical results, for every
//! benchmark, on both Table 2 machines, over an ideal cache and a
//! short-retention 3T1D cache. A PC-less source, which exercises the
//! injected I-cache misses, is pinned to the counters the pipeline produced
//! before the front end moved out of it.

use cachesim::{CacheConfig, CacheStats, DataCache, RetentionProfile, Scheme};
use uarch::instr::TraceSource;
use uarch::sim::{simulate_warmed_with, SimResult};
use uarch::{FrontEnd, MachineConfig};
use workloads::{RecordedTrace, SpecBenchmark, SyntheticTrace};

const SEED: u64 = 31;
const WARMUP: u64 = 2_000;
const MEASURE: u64 = 6_000;

/// 2 K to 11 K cycles of retention by line: frequent expiry, replay
/// flushes and write-backs under no-refresh LRU.
fn short_retention() -> DataCache {
    let retention = RetentionProfile::PerLine((0..1024).map(|i| 2_000 + (i % 7) * 1_500).collect());
    DataCache::new(CacheConfig::paper(Scheme::no_refresh_lru()), retention)
}

#[test]
fn live_front_end_and_recorded_replay_agree() {
    let slack = 2 * MachineConfig::TABLE2.rob_entries as u64 + 1024;
    for bench in SpecBenchmark::ALL {
        let profile = bench.profile();
        let recorded = RecordedTrace::record(profile, SEED, WARMUP + MEASURE + slack);
        for machine in [MachineConfig::TABLE2, MachineConfig::table2_in_order()] {
            let ideal: fn() -> DataCache = DataCache::ideal;
            for (name, make) in [("ideal", ideal), ("3T1D", short_retention)] {
                let mut live = SyntheticTrace::new(profile, SEED);
                let mut front = FrontEnd::new(&mut live, profile.icache_miss_rate);
                let mut live_cache = make();
                let (live_sim, live_stats) =
                    simulate_warmed_with(machine, &mut front, &mut live_cache, WARMUP, MEASURE);
                let mut replay_cache = make();
                let (replay_sim, replay_stats) = simulate_warmed_with(
                    machine,
                    &mut recorded.replay(),
                    &mut replay_cache,
                    WARMUP,
                    MEASURE,
                );
                let case = format!("{bench}, in_order={}, {name}", machine.in_order);
                assert_eq!(live_sim, replay_sim, "{case}: SimResult");
                assert_eq!(live_stats, replay_stats, "{case}: CacheStats");
                assert_eq!(live_sim.instructions, MEASURE, "{case}");
                assert!(live_sim.branches > 0 && live_stats.accesses() > 0, "{case}");
            }
        }
    }
}

/// Runs gcc with every PC stripped, so the real I-cache and ITLB see
/// nothing and the front end injects a miss every 100 instructions.
fn pc_less_run(machine: MachineConfig) -> (SimResult, CacheStats) {
    let mut gcc = SyntheticTrace::new(SpecBenchmark::Gcc.profile(), 5);
    let mut src = move || {
        let mut i = gcc.next_instr();
        i.pc = 0;
        i
    };
    let mut front = FrontEnd::new(&mut src, 0.01);
    simulate_warmed_with(machine, &mut front, &mut short_retention(), 3_000, 9_000)
}

#[test]
fn pc_less_source_keeps_its_injected_icache_misses() {
    // Captured from the pipeline that owned the predictor, the I-side
    // models and the injected-miss countdown itself.
    const PINNED_OOO: &str = "SimResult { instructions: 9000, cycles: 21240, branches: 1399, \
        mispredictions: 266, icache_stall_cycles: 1080, loads: 2182, stores: 997, \
        port_retries: 220, replay_flushes: 14, dtlb_misses: 30, \
        dispatch_blocked_cycles: 4378, rob_full_stalls: 14535, iq_full_stalls: 0, \
        lsq_full_stalls: 1, value_age_hist: [0, 5209, 615, 487, 434, 116, 16, 0, 464, 13, \
        0, 0, 0, 0, 0, 0] }";
    const PINNED_IN_ORDER: &str = "SimResult { instructions: 9000, cycles: 38915, \
        branches: 1397, mispredictions: 265, icache_stall_cycles: 1080, loads: 2182, \
        stores: 997, port_retries: 181, replay_flushes: 36, dtlb_misses: 30, \
        dispatch_blocked_cycles: 27009, rob_full_stalls: 9565, iq_full_stalls: 0, \
        lsq_full_stalls: 0, value_age_hist: [0, 4353, 977, 881, 473, 184, 25, 7, 433, 18, \
        3, 0, 0, 0, 0, 0] }";
    let (ooo, ooo_stats) = pc_less_run(MachineConfig::TABLE2);
    assert_eq!(format!("{ooo:?}"), PINNED_OOO);
    assert_eq!(ooo_stats.expiry_misses, 14);
    let (in_order, in_order_stats) = pc_less_run(MachineConfig::table2_in_order());
    assert_eq!(format!("{in_order:?}"), PINNED_IN_ORDER);
    assert_eq!(in_order_stats.expiry_misses, 36);
    // 90 injected misses at the Table 2 penalty of 12 cycles.
    assert_eq!(ooo.icache_stall_cycles, 90 * 12);
}
