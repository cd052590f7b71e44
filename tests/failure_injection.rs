//! Failure-injection integration tests: pathological retention profiles
//! the architecture must degrade through gracefully, never silently.

use pv3t1d::prelude::*;

fn run_gzip(cache: &mut DataCache, n: u64) -> (uarch::sim::SimResult, cachesim::CacheStats) {
    let mut trace = SyntheticTrace::new(SpecBenchmark::Gzip.profile(), 3);
    simulate_warmed(&mut trace, cache, n / 2, n)
}

#[test]
fn whole_sets_dead_still_execute_via_l2() {
    // Kill every way of a quarter of the sets.
    let mut rets = vec![50_000u64; 1024];
    for set in 0..64u32 {
        for way in 0..4 {
            rets[(set * 4 + way) as usize] = 0;
        }
    }
    let cfg = CacheConfig::paper(Scheme::partial_refresh_dsp());
    let mut cache = DataCache::new(cfg, RetentionProfile::PerLine(rets));
    let (r, stats) = run_gzip(&mut cache, 40_000);
    assert_eq!(r.instructions, 40_000, "program must complete");
    assert!(stats.all_ways_dead_misses > 0, "dead sets must be visible");
    assert!(r.ipc() > 0.2, "L2 keeps the machine running");
}

#[test]
fn fully_dead_cache_still_makes_progress() {
    // The worst possible chip: every line dead. DSP routes everything to
    // the L2; the machine slows down but never wedges.
    let cfg = CacheConfig::paper(Scheme::partial_refresh_dsp());
    let mut cache = DataCache::new(cfg, RetentionProfile::uniform_cycles(0, 1024));
    let (r, stats) = run_gzip(&mut cache, 20_000);
    assert_eq!(r.instructions, 20_000);
    assert_eq!(stats.hits, 0, "nothing can ever hit");
    assert!(stats.all_ways_dead_misses > 0);
}

#[test]
fn fully_dead_cache_under_naive_lru_thrashes_but_completes() {
    let cfg = CacheConfig::paper(Scheme::no_refresh_lru());
    let mut cache = DataCache::new(cfg, RetentionProfile::uniform_cycles(0, 1024));
    let (r, stats) = run_gzip(&mut cache, 20_000);
    assert_eq!(r.instructions, 20_000);
    assert!(
        stats.expiry_misses > 0,
        "unaware LRU keeps replaying dead lines"
    );
    assert!(r.replay_flushes > 0, "replays must reach the pipeline");
}

#[test]
fn mass_dirty_expiry_respects_write_buffer() {
    // Uniform short retention with a store-heavy pattern: dirty lines
    // expire in bursts; the write buffer must absorb or refresh, never
    // lose data (no refresh overruns from the expiry path).
    let cfg = CacheConfig::paper(Scheme::no_refresh_lru());
    let mut cache = DataCache::new(cfg, RetentionProfile::uniform_cycles(3_000, 1024));
    let g = Geometry::paper_l1d();
    // Dirty a large set of lines quickly, then go idle past expiry.
    let mut cycle = 0u64;
    for i in 0..512u64 {
        cycle += 2;
        let addr = g.address_of(1, (i % 256) as u32);
        let _ = cache.access(cycle, addr, AccessKind::Load);
        cycle += 2;
        let _ = cache.access(cycle, addr, AccessKind::Store);
    }
    cache.advance(cycle + 50_000);
    let s = cache.stats();
    assert!(
        s.expiry_writebacks + s.writeback_stall_refreshes > 0,
        "expiring dirty lines must be handled"
    );
    // Data integrity: dirty data is never silently dropped.
    assert_eq!(s.refresh_overruns, 0);
}

#[test]
fn infeasible_global_chip_is_rejected_not_mis_simulated() {
    let profile = RetentionProfile::uniform_cycles(1_500, 1024);
    let cfg = CacheConfig::paper(Scheme::global());
    assert!(!DataCache::global_scheme_feasible(&profile, &cfg));
    let result = std::panic::catch_unwind(|| DataCache::new(cfg, profile));
    assert!(result.is_err(), "constructing an infeasible global cache must panic");
}

#[test]
fn majority_dead_chip_degrades_gracefully() {
    // Chips with ever-larger dead-line fractions — past the paper's worst
    // observed 23 % and beyond 50 % — must keep simulating without panics,
    // and (because DSP over live ways is per-set LRU, which has the stack
    // inclusion property) an identical reference stream can only lose
    // hits as the dead set grows.
    let g = Geometry::paper_l1d();
    let mut prev_rate = f64::INFINITY;
    for dead_lines in [0usize, 256, 512, 640, 768, 920] {
        let mut rets = vec![1_000_000u64; 1024];
        for r in rets.iter_mut().take(dead_lines) {
            *r = 0;
        }
        let cfg = CacheConfig::paper(Scheme::partial_refresh_dsp());
        let mut cache = DataCache::new(cfg, RetentionProfile::PerLine(rets));
        // A fixed, feedback-free reference stream: identical addresses and
        // cycles for every dead fraction.
        let mut hits = 0u64;
        let mut accesses = 0u64;
        let mut state = 0x9e37_79b9u64;
        for i in 0..6_000u64 {
            state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            let set = (state >> 33) as u32 % g.sets();
            let tag = (state >> 17) % 6;
            let kind = if state & 1 == 0 {
                AccessKind::Load
            } else {
                AccessKind::Store
            };
            if let Ok(r) = cache.access(10 + i * 3, g.address_of(tag, set), kind) {
                accesses += 1;
                hits += r.hit as u64;
            }
        }
        cache.audit().expect("bookkeeping intact under mass death");
        let rate = hits as f64 / accesses as f64;
        assert!(
            rate <= prev_rate,
            "hit rate rose from {prev_rate:.4} to {rate:.4} at {dead_lines} dead lines"
        );
        prev_rate = rate;
        if dead_lines > 512 {
            // >50 % dead: the pathological regime the satellite pins down.
            assert!(rate < 0.5, "majority-dead cache cannot hit most of the time");
        }
    }

    // And the full pipeline survives a 60 %-dead chip end to end.
    let mut rets = vec![1_000_000u64; 1024];
    for r in rets.iter_mut().take(640) {
        *r = 0;
    }
    let cfg = CacheConfig::paper(Scheme::partial_refresh_dsp());
    let mut cache = DataCache::new(cfg, RetentionProfile::PerLine(rets));
    let (r, stats) = run_gzip(&mut cache, 30_000);
    assert_eq!(r.instructions, 30_000, "program must complete");
    assert!(r.ipc() > 0.1, "majority-dead chip still makes progress");
    assert!(stats.all_ways_dead_misses > 0);
}

#[test]
fn single_hot_dead_set_costs_are_bounded() {
    // A dead set on the hottest line of a pointer-chase should cost L2
    // latency per access, not a livelock.
    let mut rets = vec![50_000u64; 1024];
    for way in 0..4 {
        rets[way as usize] = 0; // set 0 fully dead
    }
    let cfg = CacheConfig::paper(Scheme::partial_refresh_dsp());
    let mut cache = DataCache::new(cfg, RetentionProfile::PerLine(rets));
    let g = Geometry::paper_l1d();
    let addr = g.address_of(9, 0);
    let mut total_latency = 0u64;
    for i in 0..100u64 {
        let r = cache.access(10 + i * 4, addr, AccessKind::Load).unwrap();
        assert!(!r.hit);
        total_latency += r.latency as u64;
    }
    // All L2 hits after the first memory fetch.
    assert!(total_latency < 100 * 50, "per-access cost stays ~L2 latency");
}
