//! Differential armor for the front end resolved at recording time: a
//! pipeline fed by a live generator through a [`FrontEnd`] and one fed by
//! a [`RecordedTrace`] replay must produce identical results, for every
//! benchmark, on both Table 2 machines, over an ideal cache and a
//! short-retention 3T1D cache.

use cachesim::{CacheConfig, DataCache, RetentionProfile, Scheme};
use uarch::sim::simulate_warmed_with;
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
                let mut front = FrontEnd::new(&mut live);
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
