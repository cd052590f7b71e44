//! Event counters for cache simulations.

use vlsi::power::EnergyCounter;

/// Counts every architecturally interesting cache event over a run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CacheStats {
    /// Demand loads observed.
    pub loads: u64,
    /// Demand stores observed.
    pub stores: u64,
    /// Demand accesses that hit live data.
    pub hits: u64,
    /// Tag mismatches (capacity/conflict/cold misses).
    pub tag_misses: u64,
    /// Tag matched but the line's retention had expired — the paper's
    /// "unwanted accesses to invalid lines" that cause pipeline replay.
    pub expiry_misses: u64,
    /// Misses that allocated into (or found only) dead ways.
    pub dead_way_events: u64,
    /// Accesses to sets where every way is dead (forced L2 accesses).
    pub all_ways_dead_misses: u64,
    /// L1 misses that also missed in the L2 (memory accesses).
    pub l2_misses: u64,
    /// Lines refreshed in place (explicit refresh policies).
    pub refreshes: u64,
    /// Whole-cache refresh passes (global scheme).
    pub global_passes: u64,
    /// Line moves between ways (RSP placements' intrinsic refresh).
    pub line_moves: u64,
    /// Dirty lines written back to the L2.
    pub writebacks: u64,
    /// Dirty lines whose retention expired, forcing an eviction write-back.
    pub expiry_writebacks: u64,
    /// Expiring dirty lines refreshed in place because the write buffer
    /// was full (the §4.3.1 pathological-stall safeguard).
    pub writeback_stall_refreshes: u64,
    /// Demand accesses rejected because refresh/move work held the ports.
    pub port_conflicts: u64,
    /// Cycles during which refresh or move work blocked one read and the
    /// write port.
    pub blocked_cycles: u64,
    /// Lines invalidated because a scheduled refresh could not be serviced
    /// before true expiry (should stay at/near zero; integrity safeguard).
    pub refresh_overruns: u64,
    /// Histogram of hit ages (cycles since the line was filled), in
    /// 1024-cycle buckets with the last bucket collecting everything at
    /// ≥ 23 Ki cycles. This is the raw data behind the paper's Fig. 1.
    pub hit_age_hist: [u64; HIT_AGE_BUCKETS],
    /// Histogram of per-line refresh interarrival gaps (cycles between
    /// consecutive refresh-engine services anywhere in the cache), in
    /// 256-cycle buckets. Shows how evenly the refresh scheme spreads
    /// its work over time.
    pub refresh_gap_hist: [u64; REFRESH_GAP_BUCKETS],
    /// Histogram of ages (cycles since fill) at which lines were lost to
    /// retention — expiry misses, retention-deadline evictions, and
    /// refresh overruns — in 1024-cycle buckets. The retention-time tail
    /// behind the paper's dead-line discussion (§3.2).
    pub dead_age_hist: [u64; DEAD_AGE_BUCKETS],
    /// Histogram of port-stall run lengths: how many *consecutive*
    /// accesses were rejected with [`crate::PortBusy`]
    /// before one succeeded. Bucket `i` counts runs of length `i + 1`;
    /// the last bucket collects longer runs. Long runs are the
    /// scheme-induced stalls of §4.3.1.
    pub stall_run_hist: [u64; STALL_RUN_BUCKETS],
}

/// Number of hit-age histogram buckets (1024-cycle granularity).
pub const HIT_AGE_BUCKETS: usize = 24;

/// Bucket width of [`CacheStats::hit_age_hist`] in cycles.
pub const HIT_AGE_BUCKET_CYCLES: u64 = 1024;

/// Number of refresh-interarrival histogram buckets.
pub const REFRESH_GAP_BUCKETS: usize = 16;

/// Bucket width of [`CacheStats::refresh_gap_hist`] in cycles.
pub const REFRESH_GAP_BUCKET_CYCLES: u64 = 256;

/// Number of dead-line-age histogram buckets.
pub const DEAD_AGE_BUCKETS: usize = 16;

/// Bucket width of [`CacheStats::dead_age_hist`] in cycles.
pub const DEAD_AGE_BUCKET_CYCLES: u64 = 1024;

/// Number of stall-run-length histogram buckets (width 1 access).
pub const STALL_RUN_BUCKETS: usize = 8;

impl CacheStats {
    /// Total demand accesses.
    pub fn accesses(&self) -> u64 {
        self.loads + self.stores
    }

    /// Total demand misses of all kinds.
    pub fn misses(&self) -> u64 {
        self.tag_misses + self.expiry_misses + self.all_ways_dead_misses
    }

    /// Demand miss rate in [0, 1]. Returns 0 when no accesses happened.
    pub fn miss_rate(&self) -> f64 {
        let a = self.accesses();
        if a == 0 {
            0.0
        } else {
            self.misses() as f64 / a as f64
        }
    }

    /// Builds the dynamic-energy event counts for this run. Extra L2
    /// accesses caused by retention (expiry + dead-way forced misses) are
    /// charged separately, as in Fig. 10's power accounting. `refreshes`
    /// already includes every line refreshed during global passes.
    pub fn energy_events(&self) -> EnergyCounter {
        EnergyCounter {
            accesses: self.accesses(),
            line_refreshes: self.refreshes + self.writeback_stall_refreshes,
            line_moves: self.line_moves,
            extra_l2_accesses: self.expiry_misses + self.all_ways_dead_misses,
        }
    }

    /// Records a hit's age (cycles since fill) into the histogram.
    pub fn record_hit_age(&mut self, age: u64) {
        let bucket = ((age / HIT_AGE_BUCKET_CYCLES) as usize).min(HIT_AGE_BUCKETS - 1);
        self.hit_age_hist[bucket] += 1;
    }

    /// Records the gap (cycles) since the previous refresh service.
    pub fn record_refresh_gap(&mut self, gap: u64) {
        let bucket = ((gap / REFRESH_GAP_BUCKET_CYCLES) as usize).min(REFRESH_GAP_BUCKETS - 1);
        self.refresh_gap_hist[bucket] += 1;
    }

    /// Records the age (cycles since fill) of a line lost to retention.
    pub fn record_dead_age(&mut self, age: u64) {
        let bucket = ((age / DEAD_AGE_BUCKET_CYCLES) as usize).min(DEAD_AGE_BUCKETS - 1);
        self.dead_age_hist[bucket] += 1;
    }

    /// Records a completed run of `len` consecutive port-busy rejections.
    pub fn record_stall_run(&mut self, len: u64) {
        if len == 0 {
            return;
        }
        let bucket = ((len - 1) as usize).min(STALL_RUN_BUCKETS - 1);
        self.stall_run_hist[bucket] += 1;
    }

    /// Cumulative fraction of hits younger than each bucket boundary —
    /// the Fig. 1 curve. Empty when there were no hits.
    pub fn hit_age_cdf(&self) -> Vec<(u64, f64)> {
        let total: u64 = self.hit_age_hist.iter().sum();
        if total == 0 {
            return Vec::new();
        }
        let mut acc = 0u64;
        self.hit_age_hist
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                acc += c;
                (
                    (i as u64 + 1) * HIT_AGE_BUCKET_CYCLES,
                    acc as f64 / total as f64,
                )
            })
            .collect()
    }

    /// Returns the difference of this snapshot relative to an `earlier`
    /// snapshot of the same cache (for warmup/measure splits).
    pub fn delta(&self, earlier: &CacheStats) -> CacheStats {
        let mut d = CacheStats {
            loads: self.loads - earlier.loads,
            stores: self.stores - earlier.stores,
            hits: self.hits - earlier.hits,
            tag_misses: self.tag_misses - earlier.tag_misses,
            expiry_misses: self.expiry_misses - earlier.expiry_misses,
            dead_way_events: self.dead_way_events - earlier.dead_way_events,
            all_ways_dead_misses: self.all_ways_dead_misses - earlier.all_ways_dead_misses,
            l2_misses: self.l2_misses - earlier.l2_misses,
            refreshes: self.refreshes - earlier.refreshes,
            global_passes: self.global_passes - earlier.global_passes,
            line_moves: self.line_moves - earlier.line_moves,
            writebacks: self.writebacks - earlier.writebacks,
            expiry_writebacks: self.expiry_writebacks - earlier.expiry_writebacks,
            writeback_stall_refreshes: self.writeback_stall_refreshes
                - earlier.writeback_stall_refreshes,
            port_conflicts: self.port_conflicts - earlier.port_conflicts,
            blocked_cycles: self.blocked_cycles - earlier.blocked_cycles,
            refresh_overruns: self.refresh_overruns - earlier.refresh_overruns,
            hit_age_hist: [0; HIT_AGE_BUCKETS],
            refresh_gap_hist: [0; REFRESH_GAP_BUCKETS],
            dead_age_hist: [0; DEAD_AGE_BUCKETS],
            stall_run_hist: [0; STALL_RUN_BUCKETS],
        };
        for i in 0..HIT_AGE_BUCKETS {
            d.hit_age_hist[i] = self.hit_age_hist[i] - earlier.hit_age_hist[i];
        }
        for i in 0..REFRESH_GAP_BUCKETS {
            d.refresh_gap_hist[i] = self.refresh_gap_hist[i] - earlier.refresh_gap_hist[i];
        }
        for i in 0..DEAD_AGE_BUCKETS {
            d.dead_age_hist[i] = self.dead_age_hist[i] - earlier.dead_age_hist[i];
        }
        for i in 0..STALL_RUN_BUCKETS {
            d.stall_run_hist[i] = self.stall_run_hist[i] - earlier.stall_run_hist[i];
        }
        d
    }

    /// Exports every counter (and the hit-age histogram) into a metrics
    /// registry under `prefix` — e.g. `fig09.scheme.RSP-FIFO.cache`. This
    /// is the cache layer's half of the run-manifest contract: absolute
    /// snapshot values, deterministic for a fixed seed whatever the
    /// campaign worker count.
    pub fn export(&self, m: &mut obs::MetricsRegistry, prefix: &str) {
        let c = |m: &mut obs::MetricsRegistry, field: &str, v: u64| {
            m.set_counter(&format!("{prefix}.{field}"), v);
        };
        c(m, "loads", self.loads);
        c(m, "stores", self.stores);
        c(m, "hits", self.hits);
        c(m, "tag_misses", self.tag_misses);
        c(m, "expiry_misses", self.expiry_misses);
        c(m, "dead_way_events", self.dead_way_events);
        c(m, "all_ways_dead_misses", self.all_ways_dead_misses);
        c(m, "l2_misses", self.l2_misses);
        c(m, "refreshes", self.refreshes);
        c(m, "global_passes", self.global_passes);
        c(m, "line_moves", self.line_moves);
        c(m, "writebacks", self.writebacks);
        c(m, "expiry_writebacks", self.expiry_writebacks);
        c(m, "writeback_stall_refreshes", self.writeback_stall_refreshes);
        c(m, "port_conflicts", self.port_conflicts);
        c(m, "blocked_cycles", self.blocked_cycles);
        c(m, "refresh_overruns", self.refresh_overruns);
        m.set_gauge(&format!("{prefix}.miss_rate"), self.miss_rate());
        // Event histograms as fixed-bucket exports. Sums are approximated
        // from bucket centers (the simulator keeps only bucket counts).
        let put = |m: &mut obs::MetricsRegistry, name: &str, buckets: &[u64], width: f64, lo: f64| {
            let approx_sum: f64 = buckets
                .iter()
                .enumerate()
                .map(|(i, &n)| (lo + (i as f64 + 0.5) * width) * n as f64)
                .sum();
            m.put_histogram(
                &format!("{prefix}.{name}"),
                obs::FixedHistogram::from_buckets(
                    lo,
                    lo + buckets.len() as f64 * width,
                    buckets.to_vec(),
                    0,
                    0,
                    approx_sum,
                ),
            );
        };
        // The Fig. 1 raw data: hit ages in 1024-cycle buckets.
        put(
            m,
            "hit_age_cycles",
            &self.hit_age_hist,
            HIT_AGE_BUCKET_CYCLES as f64,
            0.0,
        );
        put(
            m,
            "refresh_gap_cycles",
            &self.refresh_gap_hist,
            REFRESH_GAP_BUCKET_CYCLES as f64,
            0.0,
        );
        put(
            m,
            "dead_age_cycles",
            &self.dead_age_hist,
            DEAD_AGE_BUCKET_CYCLES as f64,
            0.0,
        );
        // Stall runs: bucket i holds runs of length i + 1.
        put(m, "stall_run_len", &self.stall_run_hist, 1.0, 1.0);
    }

    /// Merges another run's counters into this one.
    pub fn merge(&mut self, o: &CacheStats) {
        self.loads += o.loads;
        self.stores += o.stores;
        self.hits += o.hits;
        self.tag_misses += o.tag_misses;
        self.expiry_misses += o.expiry_misses;
        self.dead_way_events += o.dead_way_events;
        self.all_ways_dead_misses += o.all_ways_dead_misses;
        self.l2_misses += o.l2_misses;
        self.refreshes += o.refreshes;
        self.global_passes += o.global_passes;
        self.line_moves += o.line_moves;
        self.writebacks += o.writebacks;
        self.expiry_writebacks += o.expiry_writebacks;
        self.writeback_stall_refreshes += o.writeback_stall_refreshes;
        self.port_conflicts += o.port_conflicts;
        self.blocked_cycles += o.blocked_cycles;
        self.refresh_overruns += o.refresh_overruns;
        for (a, b) in self.hit_age_hist.iter_mut().zip(o.hit_age_hist.iter()) {
            *a += b;
        }
        for (a, b) in self.refresh_gap_hist.iter_mut().zip(o.refresh_gap_hist.iter()) {
            *a += b;
        }
        for (a, b) in self.dead_age_hist.iter_mut().zip(o.dead_age_hist.iter()) {
            *a += b;
        }
        for (a, b) in self.stall_run_hist.iter_mut().zip(o.stall_run_hist.iter()) {
            *a += b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_rates() {
        let s = CacheStats {
            loads: 70,
            stores: 30,
            hits: 90,
            tag_misses: 6,
            expiry_misses: 3,
            all_ways_dead_misses: 1,
            ..CacheStats::default()
        };
        assert_eq!(s.accesses(), 100);
        assert_eq!(s.misses(), 10);
        assert!((s.miss_rate() - 0.10).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_have_zero_miss_rate() {
        assert_eq!(CacheStats::default().miss_rate(), 0.0);
    }

    #[test]
    fn energy_events_charge_retention_induced_l2() {
        let s = CacheStats {
            loads: 10,
            expiry_misses: 2,
            all_ways_dead_misses: 3,
            refreshes: 7,
            line_moves: 4,
            ..CacheStats::default()
        };
        let e = s.energy_events();
        assert_eq!(e.accesses, 10);
        assert_eq!(e.extra_l2_accesses, 5);
        assert_eq!(e.line_refreshes, 7);
        assert_eq!(e.line_moves, 4);
    }

    #[test]
    fn hit_age_histogram_and_cdf() {
        let mut s = CacheStats::default();
        s.record_hit_age(0);
        s.record_hit_age(1_023);
        s.record_hit_age(1_024);
        s.record_hit_age(1_000_000); // clamps to the last bucket
        assert_eq!(s.hit_age_hist[0], 2);
        assert_eq!(s.hit_age_hist[1], 1);
        assert_eq!(s.hit_age_hist[HIT_AGE_BUCKETS - 1], 1);
        let cdf = s.hit_age_cdf();
        assert_eq!(cdf.len(), HIT_AGE_BUCKETS);
        assert!((cdf[0].1 - 0.5).abs() < 1e-12);
        assert!((cdf.last().unwrap().1 - 1.0).abs() < 1e-12);
        assert!(CacheStats::default().hit_age_cdf().is_empty());
    }

    #[test]
    fn domain_event_histograms_bucket_and_clamp() {
        let mut s = CacheStats::default();
        s.record_refresh_gap(0);
        s.record_refresh_gap(255);
        s.record_refresh_gap(256);
        s.record_refresh_gap(1 << 20); // clamps to the last bucket
        assert_eq!(s.refresh_gap_hist[0], 2);
        assert_eq!(s.refresh_gap_hist[1], 1);
        assert_eq!(s.refresh_gap_hist[REFRESH_GAP_BUCKETS - 1], 1);

        s.record_dead_age(1_023);
        s.record_dead_age(1_024);
        s.record_dead_age(u64::MAX);
        assert_eq!(s.dead_age_hist[0], 1);
        assert_eq!(s.dead_age_hist[1], 1);
        assert_eq!(s.dead_age_hist[DEAD_AGE_BUCKETS - 1], 1);

        s.record_stall_run(0); // no-op: a run of zero never happened
        s.record_stall_run(1);
        s.record_stall_run(2);
        s.record_stall_run(100);
        assert_eq!(s.stall_run_hist[0], 1);
        assert_eq!(s.stall_run_hist[1], 1);
        assert_eq!(s.stall_run_hist[STALL_RUN_BUCKETS - 1], 1);
        assert_eq!(s.stall_run_hist.iter().sum::<u64>(), 3);
    }

    #[test]
    fn export_includes_domain_event_histograms() {
        let mut s = CacheStats::default();
        s.record_refresh_gap(300);
        s.record_dead_age(2_000);
        s.record_stall_run(3);
        let mut m = obs::MetricsRegistry::new();
        s.export(&mut m, "t.cache");
        for name in [
            "t.cache.hit_age_cycles",
            "t.cache.refresh_gap_cycles",
            "t.cache.dead_age_cycles",
            "t.cache.stall_run_len",
        ] {
            assert!(m.get_histogram(name).is_some(), "{name} missing");
        }
        let runs = m.get_histogram("t.cache.stall_run_len").unwrap();
        assert_eq!(runs.buckets()[2], 1); // run of length 3
    }

    #[test]
    fn merge_and_delta_cover_domain_histograms() {
        let mut a = CacheStats::default();
        a.record_refresh_gap(10);
        a.record_dead_age(10);
        a.record_stall_run(1);
        let snap = a;
        a.record_refresh_gap(10);
        a.record_stall_run(1);
        let d = a.delta(&snap);
        assert_eq!(d.refresh_gap_hist[0], 1);
        assert_eq!(d.dead_age_hist[0], 0);
        assert_eq!(d.stall_run_hist[0], 1);
        let mut b = CacheStats::default();
        b.merge(&a);
        assert_eq!(b.refresh_gap_hist, a.refresh_gap_hist);
        assert_eq!(b.stall_run_hist, a.stall_run_hist);
    }

    #[test]
    fn merge_is_fieldwise_addition() {
        let mut a = CacheStats {
            loads: 1,
            hits: 1,
            blocked_cycles: 5,
            ..CacheStats::default()
        };
        let b = CacheStats {
            loads: 2,
            tag_misses: 1,
            blocked_cycles: 7,
            ..CacheStats::default()
        };
        a.merge(&b);
        assert_eq!(a.loads, 3);
        assert_eq!(a.tag_misses, 1);
        assert_eq!(a.blocked_cycles, 12);
    }
}
