//! The cycle-level L1 data cache with retention tracking (§4).
//!
//! [`DataCache`] models the paper's 64 KB / 4-way / 512-bit-block
//! write-back L1 with 2 read ports and 1 write port, built from 3T1D cells
//! whose per-line retention comes from a [`RetentionProfile`]. It
//! implements every retention scheme of the paper:
//!
//! * **Global refresh** (§4.1): a global counter triggers whole-cache
//!   refresh passes (2 K cycles through the shared sense amps), stealing
//!   one read and the write port for the duration.
//! * **Line-level refresh** (§4.3.1): no-refresh (expire + evict),
//!   partial-refresh (keep short-lived lines alive up to a threshold), and
//!   full-refresh, arbitrated one line at a time.
//! * **Placement policies** (§4.3.2): LRU, dead-sensitive DSP, and the
//!   retention-sensitive RSP-FIFO / RSP-LRU with their intrinsic refresh
//!   (8-cycle line moves through the 64 shared sense amplifiers).
//!
//! Port contention is explicit: demand accesses are rejected with
//! [`PortBusy`] while refresh or move work holds the shared ports, which
//! is how refresh overhead feeds back into pipeline performance.
//!
//! Dirty-line expiries and in-place refreshes wait in two event queues
//! that hold at most one live event per line, in `(due, line)` order. A
//! store that moves a line's deadline later leaves its queued event in
//! place, and the event is requeued at the new deadline when it comes
//! due, so the queues do not grow with the number of stores. An event
//! whose line changed since it was scheduled (its epoch moved on) is
//! dropped when it pops.

use crate::geometry::Geometry;
use crate::l2::{L2Cache, L2Outcome, WriteBuffer};
use crate::policy::{RefreshPolicy, ReplacementPolicy, Scheme, WritePolicy};
use crate::queue::LineQueue;
use crate::retention::{CounterSpec, RetentionProfile};
use crate::stats::CacheStats;
use std::collections::VecDeque;

/// Configuration of a [`DataCache`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheConfig {
    /// Logical geometry (64 KB / 64 B / 4-way in the paper).
    pub geometry: Geometry,
    /// Line-counter quantization.
    pub counter: CounterSpec,
    /// Retention scheme (refresh × replacement).
    pub scheme: Scheme,
    /// Load-to-use latency on a hit (3 cycles, §3.2).
    pub hit_latency: u32,
    /// Additional latency of an L2 hit.
    pub l2_latency: u32,
    /// Additional latency of an L2 miss (memory).
    pub mem_latency: u32,
    /// Extra penalty when a load tag-matches an expired/dead line and the
    /// pipeline must replay (§4.3.2).
    pub replay_penalty: u32,
    /// Cycles to move one 512-bit line between ways (8, §4.3.2).
    pub move_cycles: u32,
    /// Cycles to refresh one line in place (8, §4.1).
    pub refresh_cycles: u32,
    /// Store propagation policy (the paper's baseline is write-back).
    pub write_policy: WritePolicy,
}

impl CacheConfig {
    /// The paper's baseline configuration with a given scheme.
    pub fn paper(scheme: Scheme) -> Self {
        Self {
            geometry: Geometry::paper_l1d(),
            counter: CounterSpec::default(),
            scheme,
            hit_latency: 3,
            l2_latency: 12,
            mem_latency: 200,
            replay_penalty: 6,
            move_cycles: 8,
            refresh_cycles: 8,
            write_policy: WritePolicy::WriteBack,
        }
    }
}

impl Default for CacheConfig {
    fn default() -> Self {
        Self::paper(Scheme::default())
    }
}

/// A demand access type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// A load (uses one of two read ports).
    Load,
    /// A store (uses the write port).
    Store,
}

/// Result of a successful (port-granted) access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// Whether live data was found in the L1.
    pub hit: bool,
    /// Load-to-use latency in cycles.
    pub latency: u32,
    /// The access tag-matched a line whose retention had expired (or that
    /// sits in a dead way) — the replay-inducing case.
    pub expired: bool,
}

/// The access could not be granted this cycle: ports exhausted or stolen
/// by refresh/move work. Retry next cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PortBusy;

impl std::fmt::Display for PortBusy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("cache ports busy this cycle")
    }
}

impl std::error::Error for PortBusy {}

#[derive(Debug, Clone, Copy, Default)]
struct Line {
    tag: u64,
    valid: bool,
    dirty: bool,
    /// Absolute cycle at which the data expires (`u64::MAX` = immortal).
    deadline: u64,
    /// Cycle the current data was filled (for partial-refresh aging).
    filled_at: u64,
    /// Bumped on every deadline change/invalidate; stales queued events.
    epoch: u32,
}

/// Safety margin: line refreshes are scheduled this many cycles before the
/// quantized deadline (the paper's "conservatively set" counters).
const REFRESH_GUARD: u64 = 512;

/// Duty gap inserted after each line refresh so the refresh engine never
/// monopolizes its sub-array pair's ports (token-arbitrated refresh).
const REFRESH_DUTY_GAP: u64 = 4;

/// The retention-aware L1 data cache.
#[derive(Debug, Clone)]
pub struct DataCache {
    cfg: CacheConfig,
    retention: RetentionProfile,
    lines: Vec<Line>,
    /// Way order for every set, most recently used first, stored flat:
    /// set `s` owns `recency[s * ways .. (s + 1) * ways]`.
    recency: Vec<u8>,
    /// Ways ordered by descending retention (alive ways first), stored
    /// flat with the same `set * ways` indexing as `recency`.
    ret_order: Vec<u8>,
    /// Per-set count of non-dead ways.
    alive: Vec<u8>,
    l2: L2Cache,
    wb: WriteBuffer,
    stats: CacheStats,
    /// Per-sub-array-pair busy windows `(start, end)`: refresh/move work
    /// blocks demand accesses mapping to that pair while a window is open.
    /// A pair's windows are disjoint and sorted, so once the closed ones
    /// are dropped, the pair is blocked exactly when its first window has
    /// started.
    busy: [VecDeque<(u64, u64)>; PAIRS],
    /// A lower bound on the earliest end of any pair's first window: no
    /// window closes before it, so [`DataCache::advance`] skips the
    /// per-pair check until then.
    busy_closes: u64,
    /// log2 of the lines per sub-array pair.
    pair_shift: u32,
    /// Next cycle the duty-limited line-refresh engine may start a refresh.
    refresh_slot: u64,
    /// Pending in-place refreshes, one per line.
    refresh_q: LineQueue,
    /// Pending expiries of dirty lines, one per line.
    expiry_q: LineQueue,
    cur_cycle: u64,
    loads_now: u8,
    stores_now: u8,
    /// Cycle of the most recent refresh-engine service, for the
    /// interarrival histogram (`None` until the first service).
    last_refresh: Option<u64>,
    /// Length of the current run of consecutive [`PortBusy`] rejections;
    /// flushed into the stall-run histogram by the next granted access.
    stall_run: u64,
    /// Global scheme: paced round-robin refresh state.
    next_global_due: u64,
    global_interval: u64,
    global_window: u64,
    global_rr: u32,
}

/// Sub-array pairs sharing sense amplifiers (4 in the paper layout);
/// refresh work blocks only its own pair.
const PAIRS: usize = 4;

/// Upper bound on associativity, so the victim path can stage a set's
/// retention order in a stack buffer instead of a heap copy.
const MAX_WAYS: usize = 16;

impl DataCache {
    /// Creates a cache over a retention profile.
    ///
    /// # Panics
    ///
    /// Panics if a per-line profile's length does not match the geometry,
    /// or if the global scheme is requested but infeasible for this chip
    /// (check with [`DataCache::global_scheme_feasible`] first — the paper
    /// discards such chips).
    pub fn new(cfg: CacheConfig, retention: RetentionProfile) -> Self {
        if let Some(lines) = retention.lines() {
            assert_eq!(
                lines,
                cfg.geometry.lines(),
                "retention profile does not match geometry"
            );
        }
        let sets = cfg.geometry.sets() as usize;
        let ways = cfg.geometry.ways();
        assert!(
            (ways as usize) <= MAX_WAYS,
            "associativity {ways} exceeds MAX_WAYS ({MAX_WAYS})"
        );
        let mut ret_order = Vec::with_capacity(sets * ways as usize);
        let mut alive = Vec::with_capacity(sets);
        let mut order = [0u8; MAX_WAYS];
        for set in 0..sets as u32 {
            let order = &mut order[..ways as usize];
            for (w, slot) in order.iter_mut().enumerate() {
                *slot = w as u8;
            }
            order.sort_by(|&a, &b| {
                let ra = retention.cycles(cfg.geometry.line_index(set, a as u32));
                let rb = retention.cycles(cfg.geometry.line_index(set, b as u32));
                rb.cmp(&ra)
            });
            let alive_count = order
                .iter()
                .filter(|&&w| !retention.is_dead(cfg.geometry.line_index(set, w as u32), &cfg.counter))
                .count() as u8;
            ret_order.extend_from_slice(order);
            alive.push(alive_count);
        }

        // The global scheme uses one global counter sized to the raw cache
        // retention (§4.1) — no per-line quantization.
        let global_usable = retention.min_cycles();
        if matches!(cfg.scheme.refresh, RefreshPolicy::Global) {
            assert!(
                Self::global_feasible_cycles(global_usable, &cfg),
                "chip is infeasible for the global refresh scheme \
                 (cache retention {} cycles vs refresh pass {} cycles)",
                global_usable,
                Self::global_pass_cycles(&cfg),
            );
        }

        let rows = (cfg.geometry.lines() as u64 / PAIRS as u64).max(1);
        let (next_global_due, global_interval, global_window) = match cfg.scheme.refresh {
            RefreshPolicy::Global if global_usable != u64::MAX => {
                // All four pairs refresh one row in parallel every
                // interval, so a full rotation (256 rows) completes one
                // guard period before the worst line expires.
                let interval = (global_usable.saturating_sub(REFRESH_GUARD) / rows)
                    .max(cfg.refresh_cycles as u64);
                let window = interval.min(cfg.refresh_cycles as u64);
                (interval, interval, window)
            }
            _ => (u64::MAX, u64::MAX, 0),
        };
        Self {
            lines: vec![Line::default(); cfg.geometry.lines() as usize],
            recency: (0..sets).flat_map(|_| 0..ways as u8).collect(),
            ret_order,
            alive,
            l2: L2Cache::paper(),
            wb: WriteBuffer::paper(),
            stats: CacheStats::default(),
            busy: std::array::from_fn(|_| VecDeque::new()),
            busy_closes: u64::MAX,
            pair_shift: (cfg.geometry.lines() / PAIRS as u32)
                .max(1)
                .trailing_zeros(),
            refresh_slot: 0,
            refresh_q: LineQueue::new(cfg.geometry.lines() as usize),
            expiry_q: LineQueue::new(cfg.geometry.lines() as usize),
            cur_cycle: 0,
            loads_now: 0,
            stores_now: 0,
            last_refresh: None,
            stall_run: 0,
            next_global_due,
            global_interval,
            global_window,
            global_rr: 0,
            cfg,
            retention,
        }
    }

    /// An ideal (infinite-retention, refresh-free) cache — the 6T SRAM
    /// reference model.
    pub fn ideal() -> Self {
        Self::new(
            CacheConfig::paper(Scheme::new(RefreshPolicy::None, ReplacementPolicy::Lru)),
            RetentionProfile::Infinite,
        )
    }

    /// Busy cycles one whole-cache refresh rotation costs: each sub-array
    /// pair refreshes its 256 lines in parallel, 8 cycles each (§4.1:
    /// 2 K cycles ≈ 476.3 ns at 4.3 GHz).
    pub fn global_pass_cycles(cfg: &CacheConfig) -> u64 {
        // lines per pair = lines / 4 pairs; sequential within a pair.
        (cfg.geometry.lines() as u64 / 4) * cfg.refresh_cycles as u64
    }

    fn global_feasible_cycles(global_usable: u64, cfg: &CacheConfig) -> bool {
        // A rotation (one 8-cycle refresh per row, all pairs in parallel)
        // must fit inside the cache retention minus the guard margin —
        // i.e. the retention must exceed the 2 K-cycle pass (§4.1).
        let rows = (cfg.geometry.lines() as u64 / PAIRS as u64).max(1);
        global_usable == u64::MAX
            || global_usable > cfg.refresh_cycles as u64 * rows + 2 * REFRESH_GUARD
    }

    /// Whether a chip (retention profile) can use the global scheme at all.
    pub fn global_scheme_feasible(profile: &RetentionProfile, cfg: &CacheConfig) -> bool {
        Self::global_feasible_cycles(profile.min_cycles(), cfg)
    }

    /// Usable lifetime of one line's data from the moment it is written:
    /// raw physical retention under the global scheme (one global counter),
    /// counter-quantized under the line-level schemes.
    fn lifetime(&self, idx: u32) -> u64 {
        match self.cfg.scheme.refresh {
            RefreshPolicy::Global => self.retention.cycles(idx),
            _ => self.retention.usable_cycles(idx, &self.cfg.counter),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// The backside L2 model.
    pub fn l2(&self) -> &L2Cache {
        &self.l2
    }

    /// Fraction of this chip's lines that are dead under the counter spec.
    pub fn dead_line_fraction(&self) -> f64 {
        self.retention.dead_fraction(&self.cfg.counter)
    }

    // ------------------------------------------------------------------
    // Cycle advancement and the refresh engine
    // ------------------------------------------------------------------

    /// Advances internal engines to `cycle`. Called implicitly by
    /// [`DataCache::access`]; callers may invoke it directly to flush
    /// refresh work during idle periods.
    ///
    /// # Panics
    ///
    /// Panics if `cycle` moves backwards.
    pub fn advance(&mut self, cycle: u64) {
        assert!(cycle >= self.cur_cycle, "time must be monotone");
        if cycle != self.cur_cycle {
            self.cur_cycle = cycle;
            self.loads_now = 0;
            self.stores_now = 0;
        }
        // Engines process their backlog *retroactively at each event's due
        // time*, so idle periods (no demand accesses) behave as if the
        // hardware had been ticking throughout.
        self.run_global_engine(cycle);
        self.process_expiries(cycle);
        self.pump_refreshes(cycle);
        self.wb.tick(cycle);
        if cycle >= self.busy_closes {
            let mut closes = u64::MAX;
            for q in &mut self.busy {
                while matches!(q.front(), Some(&(_, end)) if end <= cycle) {
                    q.pop_front();
                }
                if let Some(&(_, end)) = q.front() {
                    closes = closes.min(end);
                }
            }
            self.busy_closes = closes;
        }
    }

    /// Books a refresh-engine service at `at`: records the interarrival
    /// gap since the previous service.
    fn note_refresh(&mut self, at: u64) {
        if let Some(prev) = self.last_refresh {
            self.stats.record_refresh_gap(at.saturating_sub(prev));
        }
        self.last_refresh = Some(at);
    }

    /// Books the loss of a line to retention at `at` (expiry miss,
    /// deadline eviction, or refresh overrun): records its age and emits
    /// the `line.dead` simulator trace event.
    fn note_dead_line(&mut self, at: u64, filled_at: u64) {
        let age = at.saturating_sub(filled_at);
        self.stats.record_dead_age(age);
        obs::trace::sim_value("cachesim", "line.dead", at, "age_cycles", age as f64);
    }

    /// The sub-array pair a physical line belongs to: lines are laid out
    /// pair-major (256 consecutive rows per pair in the paper layout), so
    /// a set's ways all live in the same pair.
    fn pair_of(&self, idx: u32) -> usize {
        ((idx >> self.pair_shift) as usize).min(PAIRS - 1)
    }

    /// Opens a port-blocking window on a pair, merging with the previous
    /// window when they touch. Returns the window end.
    fn add_window(&mut self, pair: usize, start: u64, len: u64) -> u64 {
        self.stats.blocked_cycles += len;
        let q = &mut self.busy[pair];
        if let Some(last) = q.back_mut() {
            let start = start.max(last.0);
            if start <= last.1 {
                last.1 = last.1.max(start + len);
                return last.1;
            }
            q.push_back((start, start + len));
            return start + len;
        }
        q.push_back((start, start + len));
        self.busy_closes = self.busy_closes.min(start + len);
        start + len
    }

    /// Whether demand accesses to `pair` are blocked at `cycle`. Valid
    /// right after [`DataCache::advance`] to `cycle`, which drops the
    /// windows closed by then.
    fn pair_blocked(&self, pair: usize, cycle: u64) -> bool {
        matches!(self.busy[pair].front(), Some(&(start, _)) if start <= cycle)
    }

    /// §4.1 global scheme: every `global_interval` cycles all four
    /// sub-array pairs refresh one row in parallel (an 8-cycle window on
    /// each pair), walking the rows round-robin so a full rotation — the
    /// 2 K-cycle "refresh pass" — completes within the cache retention.
    /// The short, spread-out windows are the "8 % of cache bandwidth" the
    /// paper hides in port under-utilization.
    fn run_global_engine(&mut self, cycle: u64) {
        while cycle >= self.next_global_due {
            let due = self.next_global_due;
            self.next_global_due += self.global_interval;
            self.note_refresh(due);
            obs::trace::sim_instant("cachesim", "refresh.issued", due);
            let rows = (self.cfg.geometry.lines() / PAIRS as u32).max(1);
            let row = self.global_rr;
            self.global_rr = (self.global_rr + 1) % rows;
            if self.global_rr == 0 {
                self.stats.global_passes += 1;
            }
            for pair in 0..PAIRS {
                let idx = pair as u32 * rows + row;
                let end = self.add_window(pair, due, self.global_window);
                self.stats.refreshes += 1;
                let lifetime = match &self.retention {
                    RetentionProfile::Infinite => u64::MAX,
                    RetentionProfile::PerLine(v) => v[idx as usize],
                };
                let line = &mut self.lines[idx as usize];
                if line.valid {
                    line.deadline = end.saturating_add(lifetime);
                    line.epoch = line.epoch.wrapping_add(1);
                }
            }
        }
    }

    fn process_expiries(&mut self, cycle: u64) {
        while let Some((due, idx, epoch)) = self.expiry_q.pop_due(cycle) {
            let line = &mut self.lines[idx as usize];
            if line.epoch != epoch || !line.valid || !line.dirty {
                continue;
            }
            // A dirty line is expiring. Write it back if the buffer has
            // room; otherwise refresh it in place (§4.3.1 stall handling).
            let addr = self
                .cfg
                .geometry
                .address_of(line.tag, idx / self.cfg.geometry.ways());
            if self.wb.try_push(due) {
                let filled_at = line.filled_at;
                line.valid = false;
                line.epoch = line.epoch.wrapping_add(1);
                self.stats.writebacks += 1;
                self.stats.expiry_writebacks += 1;
                self.l2.fill_writeback(addr);
                self.note_dead_line(due, filled_at);
                obs::trace::sim_value("cachesim", "eviction.retention", due, "line", idx as f64);
            } else {
                let usable = self.retention.usable_cycles(idx, &self.cfg.counter);
                if usable == 0 {
                    // A dirty line in a dead way cannot be refreshed in
                    // place (zero usable lifetime: the new deadline would
                    // equal `due` and the full buffer would be retried at
                    // the same cycle forever). The cell never truly held
                    // the data; count the loss as a refresh overrun.
                    let filled_at = line.filled_at;
                    line.valid = false;
                    line.epoch = line.epoch.wrapping_add(1);
                    self.stats.refresh_overruns += 1;
                    self.note_dead_line(due, filled_at);
                    continue;
                }
                line.deadline = due + usable;
                line.epoch = line.epoch.wrapping_add(1);
                self.stats.writeback_stall_refreshes += 1;
                let pair = self.pair_of(idx);
                self.add_window(pair, due, self.cfg.refresh_cycles as u64);
                let e = self.lines[idx as usize].epoch;
                let d = self.lines[idx as usize].deadline;
                self.expiry_q.schedule(idx, d, e);
            }
        }
    }

    fn pump_refreshes(&mut self, cycle: u64) {
        while let Some((due, idx, epoch)) = self.refresh_q.pop_due(cycle) {
            let line = self.lines[idx as usize];
            if line.epoch != epoch || !line.valid {
                continue;
            }
            let start = self.refresh_slot.max(due);
            let done = start + self.cfg.refresh_cycles as u64;
            // Integrity safeguard: refresh could not be serviced in time
            // (queue backlog pushed it past the true expiry).
            if line.deadline <= done {
                self.lines[idx as usize].valid = false;
                self.lines[idx as usize].epoch = line.epoch.wrapping_add(1);
                self.stats.refresh_overruns += 1;
                self.note_dead_line(done, line.filled_at);
                continue;
            }
            let usable = self.retention.usable_cycles(idx, &self.cfg.counter);
            let pair = self.pair_of(idx);
            self.add_window(pair, start, self.cfg.refresh_cycles as u64);
            // Token-style duty gap: the engine yields port time between
            // line refreshes so demand never starves.
            self.refresh_slot = done + REFRESH_DUTY_GAP;
            self.stats.refreshes += 1;
            self.note_refresh(start);
            obs::trace::sim_value("cachesim", "refresh.issued", start, "line", idx as f64);
            obs::trace::sim_instant("cachesim", "refresh.completed", done);

            let l = &mut self.lines[idx as usize];
            l.deadline = done + usable;
            l.epoch = l.epoch.wrapping_add(1);
            let epoch = l.epoch;
            let deadline = l.deadline;
            let dirty = l.dirty;
            let filled_at = l.filled_at;
            self.arm_refresh(idx, deadline, epoch, filled_at);
            if dirty {
                self.expiry_q.schedule(idx, deadline, epoch);
            }
        }
    }

    /// Schedules the next in-place refresh for a line if its policy calls
    /// for one before the given deadline.
    fn arm_refresh(&mut self, idx: u32, deadline: u64, epoch: u32, filled_at: u64) {
        let wants = match self.cfg.scheme.refresh {
            RefreshPolicy::Full => true,
            RefreshPolicy::Partial { threshold_cycles } => {
                let usable = self.retention.usable_cycles(idx, &self.cfg.counter);
                // Only short-lived lines participate, and only until their
                // age passes the threshold.
                usable < threshold_cycles
                    && deadline.saturating_sub(filled_at) < threshold_cycles
            }
            _ => false,
        };
        if wants && deadline != u64::MAX {
            let due = deadline.saturating_sub(REFRESH_GUARD);
            self.refresh_q.schedule(idx, due, epoch);
        }
    }

    // ------------------------------------------------------------------
    // Demand access path
    // ------------------------------------------------------------------

    /// Performs one demand access at `cycle`.
    ///
    /// # Errors
    ///
    /// Returns [`PortBusy`] when the required port is unavailable this
    /// cycle (all ports consumed, or refresh/move work holds one read port
    /// and the write port).
    pub fn access(
        &mut self,
        cycle: u64,
        addr: u64,
        kind: AccessKind,
    ) -> Result<AccessResult, PortBusy> {
        self.advance(cycle);

        // Refresh/move work on the target set's sub-array pair steals one
        // read port and the write port (§4.1): one read port remains for
        // loads, stores must wait for the window to close. All ways of a
        // set live in the same pair.
        let set_pair = {
            let set = self.cfg.geometry.set_of(addr);
            self.pair_of(self.cfg.geometry.line_index(set, 0))
        };
        let pair_busy = self.pair_blocked(set_pair, cycle);
        // Two read ports and one write port, one of each taken while the
        // pair is busy. Counted without branching on the kind.
        let store = (kind == AccessKind::Store) as u8;
        let used = if store != 0 {
            self.stores_now
        } else {
            self.loads_now
        };
        if used >= 2 - store - pair_busy as u8 {
            self.stats.port_conflicts += 1;
            self.stall_run += 1;
            return Err(PortBusy);
        }
        // A granted access ends any run of consecutive port stalls.
        if self.stall_run > 0 {
            self.stats.record_stall_run(self.stall_run);
            obs::trace::sim_value("cachesim", "stall.run", cycle, "len", self.stall_run as f64);
            self.stall_run = 0;
        }
        self.loads_now += 1 - store;
        self.stores_now += store;
        self.stats.loads += 1 - store as u64;
        self.stats.stores += store as u64;

        let set = self.cfg.geometry.set_of(addr);
        let tag = self.cfg.geometry.tag_of(addr);
        let ways = self.cfg.geometry.ways();

        // Tag search over the set's lines, which sit side by side:
        // (way, live) of the matching line.
        let base = self.cfg.geometry.line_index(set, 0) as usize;
        let matched = self.lines[base..base + ways as usize]
            .iter()
            .position(|line| line.valid & (line.tag == tag))
            .map(|way| (way as u32, cycle < self.lines[base + way].deadline));

        match matched {
            Some((way, true)) => Ok(self.do_hit(cycle, set, way, kind)),
            Some((way, false)) => {
                // Tag matched but the data has expired in place: replay.
                let idx = self.cfg.geometry.line_index(set, way) as usize;
                if self.lines[idx].dirty {
                    // Eager expiry should have drained dirty lines.
                    self.stats.refresh_overruns += 1;
                }
                let filled_at = self.lines[idx].filled_at;
                self.lines[idx].valid = false;
                self.lines[idx].epoch = self.lines[idx].epoch.wrapping_add(1);
                self.stats.expiry_misses += 1;
                self.note_dead_line(cycle, filled_at);
                let latency = self.do_miss(cycle, set, tag, addr, kind);
                Ok(AccessResult {
                    hit: false,
                    latency: latency + self.cfg.replay_penalty,
                    expired: true,
                })
            }
            None => {
                self.stats.tag_misses += 1;
                let latency = self.do_miss(cycle, set, tag, addr, kind);
                Ok(AccessResult {
                    hit: false,
                    latency,
                    expired: false,
                })
            }
        }
    }

    fn do_hit(&mut self, cycle: u64, set: u32, way: u32, kind: AccessKind) -> AccessResult {
        self.stats.hits += 1;
        self.touch_recency(set, way);

        let idx = self.cfg.geometry.line_index(set, way);
        let age = cycle.saturating_sub(self.lines[idx as usize].filled_at);
        self.stats.record_hit_age(age);
        if kind == AccessKind::Store {
            // A store rewrites the cells: retention restarts.
            let write_through = self.cfg.write_policy == WritePolicy::WriteThrough;
            let usable = self.lifetime(idx);
            let l = &mut self.lines[idx as usize];
            l.dirty = !write_through;
            l.deadline = cycle.saturating_add(usable);
            l.filled_at = cycle;
            l.epoch = l.epoch.wrapping_add(1);
            let (deadline, epoch, filled_at, dirty) = (l.deadline, l.epoch, l.filled_at, l.dirty);
            if write_through {
                // The store also goes to the L2 through the write buffer.
                let tag = l.tag;
                let addr = self.cfg.geometry.address_of(tag, set);
                let _ = self.wb.try_push(cycle);
                self.l2.fill_writeback(addr);
                self.stats.writebacks += 1;
            }
            if dirty && deadline != u64::MAX {
                self.expiry_q.schedule(idx, deadline, epoch);
            }
            self.arm_refresh(idx, deadline, epoch, filled_at);
        }

        if self.cfg.scheme.replacement == ReplacementPolicy::RspLru {
            self.rsp_lru_promote(cycle, set, way);
        }

        AccessResult {
            hit: true,
            latency: self.cfg.hit_latency,
            expired: false,
        }
    }

    fn do_miss(&mut self, cycle: u64, set: u32, tag: u64, addr: u64, kind: AccessKind) -> u32 {
        let l2_outcome = self.l2.access(self.cfg.geometry.block_base(addr));
        let mut latency = self.cfg.hit_latency + self.cfg.l2_latency;
        if l2_outcome == L2Outcome::Miss {
            latency += self.cfg.mem_latency;
            self.stats.l2_misses += 1;
        }

        match self.cfg.scheme.replacement {
            ReplacementPolicy::Lru => {
                let way = self.lru_victim(set, false);
                latency += self.fill(cycle, set, way, tag, kind);
            }
            ReplacementPolicy::Dsp => {
                if self.alive[set as usize] == 0 {
                    // Every way dead: the set cannot cache anything.
                    self.stats.all_ways_dead_misses += 1;
                    self.stats.tag_misses = self.stats.tag_misses.saturating_sub(1);
                    self.uncached_store_through(cycle, addr, kind);
                    return latency;
                }
                let way = self.lru_victim(set, true);
                latency += self.fill(cycle, set, way, tag, kind);
            }
            ReplacementPolicy::RspFifo | ReplacementPolicy::RspLru => {
                if self.alive[set as usize] == 0 {
                    self.stats.all_ways_dead_misses += 1;
                    self.stats.tag_misses = self.stats.tag_misses.saturating_sub(1);
                    self.uncached_store_through(cycle, addr, kind);
                    return latency;
                }
                latency += self.rsp_fill(cycle, set, tag, kind);
            }
        }
        latency
    }

    /// A store that cannot be cached (all ways of its set dead) writes
    /// through to the L2 regardless of the write policy — dirty data must
    /// never be silently dropped.
    fn uncached_store_through(&mut self, cycle: u64, addr: u64, kind: AccessKind) {
        if kind == AccessKind::Store {
            let _ = self.wb.try_push(cycle);
            self.l2.fill_writeback(self.cfg.geometry.block_base(addr));
            self.stats.writebacks += 1;
        }
    }

    /// Range of a set's slots in the flat `recency` / `ret_order` arrays.
    fn set_range(&self, set: u32) -> std::ops::Range<usize> {
        let ways = self.cfg.geometry.ways() as usize;
        let base = set as usize * ways;
        base..base + ways
    }

    /// Victim selection: least recently used way; `alive_only` restricts
    /// the choice to non-dead ways (DSP). Prefers invalid ways.
    fn lru_victim(&self, set: u32, alive_only: bool) -> u32 {
        let rec = &self.recency[self.set_range(set)];
        // Prefer an invalid candidate way.
        for &way in rec.iter().rev() {
            if alive_only && self.is_dead_way(set, way as u32) {
                continue;
            }
            let idx = self.cfg.geometry.line_index(set, way as u32) as usize;
            if !self.lines[idx].valid {
                return way as u32;
            }
        }
        for &way in rec.iter().rev() {
            if alive_only && self.is_dead_way(set, way as u32) {
                continue;
            }
            return way as u32;
        }
        unreachable!("caller guarantees at least one candidate way");
    }

    fn is_dead_way(&self, set: u32, way: u32) -> bool {
        self.retention
            .is_dead(self.cfg.geometry.line_index(set, way), &self.cfg.counter)
    }

    /// Fills `way` with a new block. Returns extra latency from a dirty
    /// eviction stalling on a full write buffer.
    fn fill(&mut self, cycle: u64, set: u32, way: u32, tag: u64, kind: AccessKind) -> u32 {
        let idx = self.cfg.geometry.line_index(set, way);
        let mut extra = 0u32;

        // Evict the previous occupant.
        let old = self.lines[idx as usize];
        if old.valid && old.dirty && cycle < old.deadline {
            let victim_addr = self.cfg.geometry.address_of(old.tag, set);
            if !self.wb.try_push(cycle) {
                // Stall until a slot drains.
                extra += 8;
                self.wb.tick(cycle + 8);
                let _ = self.wb.try_push(cycle + 8);
            }
            self.stats.writebacks += 1;
            self.l2.fill_writeback(victim_addr);
        }

        let dead = self.is_dead_way(set, way);
        if dead {
            self.stats.dead_way_events += 1;
        }
        let usable = self.lifetime(idx);
        let write_through = self.cfg.write_policy == WritePolicy::WriteThrough;
        if kind == AccessKind::Store && write_through {
            let addr = self.cfg.geometry.address_of(tag, set);
            let _ = self.wb.try_push(cycle);
            self.l2.fill_writeback(addr);
            self.stats.writebacks += 1;
        }
        let l = &mut self.lines[idx as usize];
        l.tag = tag;
        l.valid = true;
        l.dirty = kind == AccessKind::Store && !write_through;
        // A dead way cannot hold data: it expires instantly, so the next
        // access tag-matches stale data and replays (the LRU pathology).
        l.deadline = cycle.saturating_add(usable);
        l.filled_at = cycle;
        l.epoch = l.epoch.wrapping_add(1);
        let (deadline, epoch, filled_at, dirty) = (l.deadline, l.epoch, l.filled_at, l.dirty);

        self.touch_recency(set, way);
        if dirty && deadline != u64::MAX {
            self.expiry_q.schedule(idx, deadline, epoch);
        }
        self.arm_refresh(idx, deadline, epoch, filled_at);
        extra
    }

    /// RSP fill: the new block takes the longest-retention way; existing
    /// blocks shift down one retention rank (each shift is an 8-cycle line
    /// move through the shared sense amps and restarts that line's
    /// retention). Returns extra latency from dirty-eviction stalls.
    fn rsp_fill(&mut self, cycle: u64, set: u32, tag: u64, kind: AccessKind) -> u32 {
        let alive = self.alive[set as usize] as usize;
        // Stage the alive prefix of the set's retention order in a stack
        // buffer: the shift loop below mutates `self.lines`, so borrowing
        // `self.ret_order` directly would not pass the borrow checker, and
        // a heap `to_vec()` here sits on the victim path of every fill.
        let base = self.set_range(set).start;
        let mut order = [0u8; MAX_WAYS];
        order[..alive].copy_from_slice(&self.ret_order[base..base + alive]);
        let order = &order[..alive];

        // Find how deep the shift must go: up to the first invalid way, or
        // the whole alive span (evicting the last).
        let mut depth = alive;
        for (rank, &way) in order.iter().enumerate() {
            let idx = self.cfg.geometry.line_index(set, way as u32) as usize;
            let line = &self.lines[idx];
            if !line.valid || cycle >= line.deadline {
                depth = rank + 1;
                break;
            }
        }

        let mut extra = 0u32;
        // Evict the occupant of the deepest rank if it is live data.
        let last_way = order[depth - 1] as u32;
        let last_idx = self.cfg.geometry.line_index(set, last_way) as usize;
        let old = self.lines[last_idx];
        if old.valid && old.dirty && cycle < old.deadline && depth == alive {
            let victim_addr = self.cfg.geometry.address_of(old.tag, set);
            if !self.wb.try_push(cycle) {
                extra += 8;
                self.wb.tick(cycle + 8);
                let _ = self.wb.try_push(cycle + 8);
            }
            self.stats.writebacks += 1;
            self.l2.fill_writeback(victim_addr);
        }

        // Shift blocks down: rank k-1 → rank k, for k = depth-1 .. 1.
        let mut moves = 0u64;
        for k in (1..depth).rev() {
            let src_way = order[k - 1] as u32;
            let dst_way = order[k] as u32;
            let src_idx = self.cfg.geometry.line_index(set, src_way) as usize;
            let dst_idx = self.cfg.geometry.line_index(set, dst_way);
            let src = self.lines[src_idx];
            if !src.valid || cycle >= src.deadline {
                // Nothing live to move.
                let l = &mut self.lines[dst_idx as usize];
                l.valid = false;
                l.epoch = l.epoch.wrapping_add(1);
                continue;
            }
            let usable = self.lifetime(dst_idx);
            let l = &mut self.lines[dst_idx as usize];
            l.tag = src.tag;
            l.valid = true;
            l.dirty = src.dirty;
            l.deadline = cycle.saturating_add(usable);
            l.filled_at = src.filled_at;
            l.epoch = l.epoch.wrapping_add(1);
            let (deadline, epoch, filled_at, dirty) = (l.deadline, l.epoch, l.filled_at, l.dirty);
            if dirty && deadline != u64::MAX {
                self.expiry_q.schedule(dst_idx, deadline, epoch);
            }
            self.arm_refresh(dst_idx, deadline, epoch, filled_at);
            moves += 1;
        }
        if moves > 0 {
            self.stats.line_moves += moves;
            // The shuffle overlaps the L2 fill window: only work beyond
            // the fill latency blocks the pair's ports.
            let work = (moves * self.cfg.move_cycles as u64)
                .saturating_sub(self.cfg.l2_latency as u64);
            if work > 0 {
                let pair = self.pair_of(self.cfg.geometry.line_index(set, 0));
                self.add_window(pair, cycle, work);
            }
        }

        // Place the new block at the top rank.
        let top_way = order[0] as u32;
        let top_idx = self.cfg.geometry.line_index(set, top_way);
        let usable = self.lifetime(top_idx);
        let write_through = self.cfg.write_policy == WritePolicy::WriteThrough;
        if kind == AccessKind::Store && write_through {
            let addr = self.cfg.geometry.address_of(tag, set);
            let _ = self.wb.try_push(cycle);
            self.l2.fill_writeback(addr);
            self.stats.writebacks += 1;
        }
        let l = &mut self.lines[top_idx as usize];
        l.tag = tag;
        l.valid = true;
        l.dirty = kind == AccessKind::Store && !write_through;
        l.deadline = cycle.saturating_add(usable);
        l.filled_at = cycle;
        l.epoch = l.epoch.wrapping_add(1);
        let (deadline, epoch, filled_at, dirty) = (l.deadline, l.epoch, l.filled_at, l.dirty);
        self.touch_recency(set, top_way);
        if dirty && deadline != u64::MAX {
            self.expiry_q.schedule(top_idx, deadline, epoch);
        }
        self.arm_refresh(top_idx, deadline, epoch, filled_at);
        extra
    }

    /// RSP-LRU: keep the most recently accessed block in the longest-
    /// retention way by swapping it with the current top occupant
    /// (two 8-cycle line moves; both lines are rewritten).
    fn rsp_lru_promote(&mut self, cycle: u64, set: u32, way: u32) {
        let top_way = self.ret_order[self.set_range(set).start] as u32;
        if way == top_way {
            return;
        }
        let a_idx = self.cfg.geometry.line_index(set, way);
        let b_idx = self.cfg.geometry.line_index(set, top_way);
        let a = self.lines[a_idx as usize];
        let b = self.lines[b_idx as usize];

        let place = |cache: &mut DataCache, dst: u32, src: Line| {
            let usable = cache.lifetime(dst);
            let l = &mut cache.lines[dst as usize];
            l.tag = src.tag;
            l.valid = src.valid && cycle < src.deadline;
            l.dirty = src.dirty && l.valid;
            l.deadline = cycle.saturating_add(usable);
            l.filled_at = src.filled_at;
            l.epoch = l.epoch.wrapping_add(1);
            let (valid, dirty, deadline, epoch, filled_at) =
                (l.valid, l.dirty, l.deadline, l.epoch, l.filled_at);
            if valid {
                if dirty && deadline != u64::MAX {
                    cache.expiry_q.schedule(dst, deadline, epoch);
                }
                cache.arm_refresh(dst, deadline, epoch, filled_at);
            }
        };
        place(self, b_idx, a);
        place(self, a_idx, b);

        self.stats.line_moves += 2;
        // The two moves of a swap pipeline through the shared sense amps:
        // one window of move_cycles blocks the pair.
        let work = self.cfg.move_cycles as u64;
        let pair = self.pair_of(a_idx);
        self.add_window(pair, cycle, work);
    }

    fn touch_recency(&mut self, set: u32, way: u32) {
        let range = self.set_range(set);
        let rec = &mut self.recency[range];
        if let Some(pos) = rec.iter().position(|&w| w as u32 == way) {
            rec[..=pos].rotate_right(1);
        }
    }

    /// Checks the cache's structural invariants, returning a description
    /// of the first violation found. Intended for property tests: call it
    /// after an arbitrary access sequence to assert the replacement and
    /// refresh machinery never corrupted the per-set bookkeeping.
    ///
    /// Invariants checked for every set:
    ///
    /// 1. `recency` is a permutation of the set's way numbers;
    /// 2. `ret_order` is a permutation ordered by non-increasing physical
    ///    retention;
    /// 3. `alive` equals the count of non-dead ways;
    /// 4. under line-level schemes, a valid line in a dead way has
    ///    `deadline == filled_at` (zero usable lifetime — it can never
    ///    serve a hit);
    /// 5. *no resurrection*: with no refresh engine (`RefreshPolicy::None`,
    ///    LRU/DSP placement) and no write-buffer-stall refreshes, every
    ///    valid line's deadline is at most `filled_at + lifetime` — nothing
    ///    may extend data past its retention deadline. (RSP line moves and
    ///    §4.3.1 stall refreshes legitimately rewrite cells, so the bound
    ///    only binds when neither can occur.)
    pub fn audit(&self) -> Result<(), String> {
        let ways = self.cfg.geometry.ways();
        let line_level = !matches!(self.cfg.scheme.refresh, RefreshPolicy::Global);
        let no_resurrection = self.cfg.scheme.refresh == RefreshPolicy::None
            && matches!(
                self.cfg.scheme.replacement,
                ReplacementPolicy::Lru | ReplacementPolicy::Dsp
            )
            && self.stats.writeback_stall_refreshes == 0;
        for set in 0..self.cfg.geometry.sets() {
            let range = self.set_range(set);
            for (label, order) in [
                ("recency", &self.recency[range.clone()]),
                ("ret_order", &self.ret_order[range.clone()]),
            ] {
                let mut seen = [false; MAX_WAYS];
                for &w in order {
                    if (w as u32) >= ways || std::mem::replace(&mut seen[w as usize], true) {
                        return Err(format!(
                            "set {set}: {label} {order:?} is not a permutation of 0..{ways}"
                        ));
                    }
                }
            }
            let ret = &self.ret_order[range];
            for pair in ret.windows(2) {
                let ra = self
                    .retention
                    .cycles(self.cfg.geometry.line_index(set, pair[0] as u32));
                let rb = self
                    .retention
                    .cycles(self.cfg.geometry.line_index(set, pair[1] as u32));
                if ra < rb {
                    return Err(format!(
                        "set {set}: ret_order {ret:?} not sorted by descending retention"
                    ));
                }
            }
            let alive_count = (0..ways).filter(|&w| !self.is_dead_way(set, w)).count();
            if self.alive[set as usize] as usize != alive_count {
                return Err(format!(
                    "set {set}: alive count {} != actual {alive_count}",
                    self.alive[set as usize]
                ));
            }
            for way in 0..ways {
                let idx = self.cfg.geometry.line_index(set, way);
                let line = &self.lines[idx as usize];
                if !line.valid {
                    continue;
                }
                if line_level && self.is_dead_way(set, way) && line.deadline != line.filled_at {
                    return Err(format!(
                        "set {set} way {way}: valid line in a dead way has usable \
                         lifetime (deadline {} != filled_at {})",
                        line.deadline, line.filled_at
                    ));
                }
                if no_resurrection {
                    let bound = line.filled_at.saturating_add(self.lifetime(idx));
                    if line.deadline > bound {
                        return Err(format!(
                            "set {set} way {way}: line resurrected past retention \
                             (deadline {} > filled_at {} + lifetime)",
                            line.deadline, line.filled_at
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache_with(scheme: Scheme, retentions: Vec<u64>) -> DataCache {
        let cfg = CacheConfig::paper(scheme);
        DataCache::new(cfg, RetentionProfile::PerLine(retentions))
    }

    fn uniform(scheme: Scheme, ret: u64) -> DataCache {
        cache_with(scheme, vec![ret; 1024])
    }

    fn addr_for(set: u32, tag: u64) -> u64 {
        Geometry::paper_l1d().address_of(tag, set)
    }

    #[test]
    fn ideal_cache_hits_after_fill() {
        let mut c = DataCache::ideal();
        let a = addr_for(3, 7);
        let r = c.access(0, a, AccessKind::Load).unwrap();
        assert!(!r.hit);
        assert_eq!(r.latency, 3 + 12 + 200); // cold: misses L2 too
        let r = c.access(10, a, AccessKind::Load).unwrap();
        assert!(r.hit);
        assert_eq!(r.latency, 3);
    }

    #[test]
    fn second_block_same_l2_line_hits_l2() {
        let mut c = DataCache::ideal();
        let a = addr_for(0, 1);
        c.access(0, a, AccessKind::Load).unwrap();
        // Evict by filling the same set with 4 other tags, then return.
        for (i, tag) in (2..6u64).enumerate() {
            c.access(1 + i as u64, addr_for(0, tag), AccessKind::Load)
                .unwrap();
        }
        // `a` was evicted from L1 but lives in L2.
        let r = c.access(100, a, AccessKind::Load).unwrap();
        assert!(!r.hit);
        assert_eq!(r.latency, 3 + 12);
    }

    #[test]
    fn port_limits_enforced() {
        let mut c = DataCache::ideal();
        assert!(c.access(5, addr_for(0, 1), AccessKind::Load).is_ok());
        assert!(c.access(5, addr_for(1, 1), AccessKind::Load).is_ok());
        assert!(c.access(5, addr_for(2, 1), AccessKind::Load).is_err());
        assert!(c.access(5, addr_for(3, 1), AccessKind::Store).is_ok());
        assert!(c.access(5, addr_for(4, 1), AccessKind::Store).is_err());
        // Next cycle the ports are free again.
        assert!(c.access(6, addr_for(5, 1), AccessKind::Load).is_ok());
        assert_eq!(c.stats().port_conflicts, 2);
    }

    #[test]
    fn domain_events_populate_histograms() {
        // Refresh interarrival: full refresh services the line repeatedly.
        let mut c = uniform(
            Scheme::new(RefreshPolicy::Full, ReplacementPolicy::Lru),
            5_000,
        );
        c.access(0, addr_for(4, 3), AccessKind::Load).unwrap();
        c.advance(50_000);
        assert!(
            c.stats().refresh_gap_hist.iter().sum::<u64>() >= 1,
            "repeated refreshes must record interarrival gaps"
        );

        // Dead-line age: an expiry miss books the line's age.
        let mut c = uniform(Scheme::no_refresh_lru(), 5_000);
        let a = addr_for(9, 2);
        c.access(0, a, AccessKind::Load).unwrap();
        c.access(5_000, a, AccessKind::Load).unwrap();
        assert_eq!(c.stats().dead_age_hist.iter().sum::<u64>(), 1);
        // Age ≈ 5000 cycles → bucket 4 (1024-cycle buckets).
        assert_eq!(c.stats().dead_age_hist[4], 1);

        // Stall run: two same-cycle rejections then a granted access.
        let mut c = DataCache::ideal();
        c.access(5, addr_for(0, 1), AccessKind::Load).unwrap();
        c.access(5, addr_for(1, 1), AccessKind::Load).unwrap();
        assert!(c.access(5, addr_for(2, 1), AccessKind::Load).is_err());
        assert!(c.access(5, addr_for(3, 1), AccessKind::Load).is_err());
        c.access(6, addr_for(4, 1), AccessKind::Load).unwrap();
        assert_eq!(c.stats().stall_run_hist[1], 1, "one run of length 2");
    }

    #[test]
    fn retention_expiry_causes_replay_miss() {
        let mut c = uniform(Scheme::no_refresh_lru(), 5_000);
        let a = addr_for(9, 2);
        c.access(0, a, AccessKind::Load).unwrap();
        // Within quantized lifetime (4096 cycles with 1024-step counter).
        let r = c.access(4_000, a, AccessKind::Load).unwrap();
        assert!(r.hit);
        // Past it: tag matches, data gone → replay-flavored miss.
        let r = c.access(5_000, a, AccessKind::Load).unwrap();
        assert!(!r.hit);
        assert!(r.expired);
        assert_eq!(c.stats().expiry_misses, 1);
        assert!(r.latency >= 3 + 12 + 6);
    }

    #[test]
    fn store_resets_retention() {
        let mut c = uniform(Scheme::no_refresh_lru(), 5_000);
        let a = addr_for(9, 2);
        c.access(0, a, AccessKind::Load).unwrap();
        c.access(3_000, a, AccessKind::Store).unwrap();
        // 3000 + 4096 > 5000: still alive thanks to the store rewrite.
        let r = c.access(6_000, a, AccessKind::Load).unwrap();
        assert!(r.hit, "store should have restarted retention");
    }

    #[test]
    fn dirty_expiry_writes_back_and_l2_keeps_data() {
        let mut c = uniform(Scheme::no_refresh_lru(), 5_000);
        let a = addr_for(9, 2);
        c.access(0, a, AccessKind::Store).unwrap();
        // Let it expire; eager engine should write it back.
        c.advance(10_000);
        assert_eq!(c.stats().expiry_writebacks, 1);
        // Re-access: L1 miss (invalid now) but L2 hit.
        let r = c.access(10_001, a, AccessKind::Load).unwrap();
        assert!(!r.hit);
        assert_eq!(r.latency, 3 + 12);
    }

    #[test]
    fn full_refresh_keeps_lines_alive_indefinitely() {
        let mut c = uniform(
            Scheme::new(RefreshPolicy::Full, ReplacementPolicy::Lru),
            5_000,
        );
        let a = addr_for(4, 3);
        c.access(0, a, AccessKind::Load).unwrap();
        let r = c.access(50_000, a, AccessKind::Load).unwrap();
        assert!(r.hit, "full refresh must keep the line alive");
        assert!(c.stats().refreshes >= 10);
        assert_eq!(c.stats().refresh_overruns, 0);
    }

    #[test]
    fn partial_refresh_honors_threshold() {
        // Line retention 2000 cycles (ticks→1024·1), threshold 6000: the
        // line is refreshed until its age passes 6000, then expires.
        let mut c = uniform(Scheme::partial_refresh_dsp(), 2_000);
        let a = addr_for(4, 3);
        c.access(0, a, AccessKind::Load).unwrap();
        let r = c.access(4_500, a, AccessKind::Load).unwrap();
        assert!(r.hit, "partial refresh keeps it alive below threshold");
        let r = c.access(20_000, a, AccessKind::Load).unwrap();
        assert!(!r.hit, "line must expire after the threshold age");
    }

    #[test]
    fn partial_refresh_skips_long_lines() {
        // Retention 8000 ≥ threshold 6000: never refreshed, expires at
        // its own quantized lifetime (7·1024 = 7168).
        let mut c = uniform(Scheme::partial_refresh_dsp(), 8_000);
        let a = addr_for(4, 3);
        c.access(0, a, AccessKind::Load).unwrap();
        let r = c.access(7_000, a, AccessKind::Load).unwrap();
        assert!(r.hit);
        let r = c.access(7_200, a, AccessKind::Load).unwrap();
        assert!(!r.hit);
        assert_eq!(c.stats().refreshes, 0);
    }

    #[test]
    fn lru_fills_dead_ways_and_pays_for_it() {
        // Way 0 of every set dead, LRU unaware.
        let mut rets = vec![100_000u64; 1024];
        for set in 0..256 {
            rets[(set * 4) as usize] = 0;
        }
        let mut c = cache_with(Scheme::no_refresh_lru(), rets);
        let set = 7;
        // Fill all 4 ways; one lands in the dead way.
        for (i, tag) in (1..=4u64).enumerate() {
            c.access(i as u64 * 2, addr_for(set, tag), AccessKind::Load)
                .unwrap();
        }
        assert!(c.stats().dead_way_events >= 1);
        // Accessing all four again: the dead-way resident replays.
        let mut expired = 0;
        for (i, tag) in (1..=4u64).enumerate() {
            let r = c
                .access(100 + i as u64 * 2, addr_for(set, tag), AccessKind::Load)
                .unwrap();
            if r.expired {
                expired += 1;
            }
        }
        assert_eq!(expired, 1, "exactly the dead-way block is lost");
    }

    #[test]
    fn dsp_avoids_dead_ways() {
        let mut rets = vec![100_000u64; 1024];
        for set in 0..256 {
            rets[(set * 4) as usize] = 0;
        }
        let mut c = cache_with(Scheme::partial_refresh_dsp(), rets);
        let set = 7;
        // Three tags fit the three alive ways exactly.
        for (i, tag) in (1..=3u64).enumerate() {
            c.access(i as u64 * 2, addr_for(set, tag), AccessKind::Load)
                .unwrap();
        }
        assert_eq!(c.stats().dead_way_events, 0, "DSP never touches dead ways");
        let mut hits = 0;
        for (i, tag) in (1..=3u64).enumerate() {
            let r = c
                .access(100 + i as u64 * 2, addr_for(set, tag), AccessKind::Load)
                .unwrap();
            if r.hit {
                hits += 1;
            }
        }
        assert_eq!(hits, 3, "all three blocks live in the alive ways");
    }

    #[test]
    fn all_ways_dead_set_always_misses_to_l2() {
        let mut rets = vec![100_000u64; 1024];
        for way in 0..4 {
            rets[(7 * 4 + way) as usize] = 0;
        }
        let mut c = cache_with(Scheme::partial_refresh_dsp(), rets);
        let a = addr_for(7, 1);
        let r1 = c.access(0, a, AccessKind::Load).unwrap();
        assert!(!r1.hit);
        let r2 = c.access(10, a, AccessKind::Load).unwrap();
        assert!(!r2.hit, "dead set can never hit");
        assert_eq!(r2.latency, 3 + 12, "but the L2 serves it");
        assert_eq!(c.stats().all_ways_dead_misses, 2);
    }

    #[test]
    fn rsp_fifo_places_new_blocks_in_longest_retention_way() {
        // Way retentions descending by way index within each set.
        let mut rets = vec![0u64; 1024];
        for set in 0..256u32 {
            for way in 0..4u32 {
                rets[(set * 4 + way) as usize] = 40_000 - (way as u64) * 8_000;
            }
        }
        let mut c = cache_with(Scheme::rsp_fifo(), rets);
        let set = 11;
        // Fill 4 blocks; each new fill shifts previous ones down.
        for (i, tag) in (1..=4u64).enumerate() {
            c.access(i as u64 * 40, addr_for(set, tag), AccessKind::Load)
                .unwrap();
        }
        // 3 fills after the first cause shifts: 1 + 2 + 3 = 6 moves.
        assert_eq!(c.stats().line_moves, 6);
        // All four still resident (moves refresh retention).
        let mut hits = 0;
        for (i, tag) in (1..=4u64).enumerate() {
            let r = c
                .access(1_000 + i as u64 * 40, addr_for(set, tag), AccessKind::Load)
                .unwrap();
            hits += r.hit as u32;
        }
        assert_eq!(hits, 4);
    }

    #[test]
    fn rsp_fifo_evicts_shortest_retention_occupant() {
        let mut rets = vec![0u64; 1024];
        for set in 0..256u32 {
            for way in 0..4u32 {
                rets[(set * 4 + way) as usize] = 40_000 - (way as u64) * 8_000;
            }
        }
        let mut c = cache_with(Scheme::rsp_fifo(), rets);
        let set = 11;
        for (i, tag) in (1..=5u64).enumerate() {
            c.access(i as u64 * 40, addr_for(set, tag), AccessKind::Load)
                .unwrap();
        }
        // Tag 1 (the oldest) has been pushed off the bottom.
        let r = c.access(2_000, addr_for(set, 1), AccessKind::Load).unwrap();
        assert!(!r.hit);
    }

    #[test]
    fn rsp_lru_promotes_hot_block_to_top() {
        let mut rets = vec![0u64; 1024];
        for set in 0..256u32 {
            for way in 0..4u32 {
                rets[(set * 4 + way) as usize] = 40_000 - (way as u64) * 8_000;
            }
        }
        let mut c = cache_with(Scheme::rsp_lru(), rets);
        let set = 3;
        c.access(0, addr_for(set, 1), AccessKind::Load).unwrap();
        c.access(40, addr_for(set, 2), AccessKind::Load).unwrap();
        // Hitting tag 1 (now rank 1) swaps it back to the top: 2 moves.
        let before = c.stats().line_moves;
        c.access(80, addr_for(set, 1), AccessKind::Load).unwrap();
        assert_eq!(c.stats().line_moves - before, 2);
        // Hitting it again: already on top, no move.
        let before = c.stats().line_moves;
        c.access(120, addr_for(set, 1), AccessKind::Load).unwrap();
        assert_eq!(c.stats().line_moves - before, 0);
    }

    #[test]
    fn refresh_work_blocks_ports() {
        let mut c = uniform(
            Scheme::new(RefreshPolicy::Full, ReplacementPolicy::Lru),
            2_000,
        );
        // Park many lines so refresh work queues up.
        for set in 0..64u32 {
            c.access(set as u64, addr_for(set, 1), AccessKind::Load)
                .unwrap();
        }
        // Advance to when refreshes are due; the engine should consume
        // port time.
        c.advance(2_000);
        assert!(c.stats().blocked_cycles > 0);
    }

    #[test]
    fn refresh_window_blocks_its_pair() {
        // A busy window on a pair must reject demand to sets whose lines
        // map to that pair while it is open.
        let mut c = uniform(
            Scheme::new(RefreshPolicy::Full, ReplacementPolicy::Lru),
            30_000,
        );
        c.access(0, addr_for(3, 1), AccessKind::Load).unwrap();
        // The refresh for that line is due near its quantized deadline
        // (7168 − guard). Probe densely around it: at least one cycle in
        // the window must reject an access to the same set, and accesses
        // must succeed again afterwards.
        let mut saw_store_block = false;
        let mut saw_second_load_block = false;
        for t in 6_600..6_700u64 {
            // Stores are fully blocked during a window; one load proceeds
            // on the surviving read port but a second one is rejected.
            if c.access(t, addr_for(3, 2), AccessKind::Store).is_err() {
                saw_store_block = true;
                let first = c.access(t, addr_for(3, 1), AccessKind::Load);
                assert!(first.is_ok(), "one read port must survive refresh");
                if c.access(t, addr_for(3, 1), AccessKind::Load).is_err() {
                    saw_second_load_block = true;
                }
            }
        }
        assert!(saw_store_block, "no store blocking observed around the refresh");
        assert!(saw_second_load_block, "second load should lose its port");
        assert!(c.access(8_000, addr_for(3, 2), AccessKind::Store).is_ok());
    }

    #[test]
    fn global_scheme_refreshes_everything_periodically() {
        let mut c = uniform(Scheme::global(), 50_000);
        let a = addr_for(0, 5);
        c.access(0, a, AccessKind::Load).unwrap();
        // Far beyond the line's own lifetime, global passes keep it alive.
        let r = c.access(400_000, a, AccessKind::Load).unwrap();
        assert!(r.hit);
        assert!(c.stats().global_passes >= 8);
    }

    #[test]
    #[should_panic(expected = "infeasible for the global refresh scheme")]
    fn global_scheme_rejects_short_retention_chip() {
        // 2048-cycle pass cannot fit into a 3000-cycle retention.
        let _ = uniform(Scheme::global(), 3_000);
    }

    #[test]
    fn global_feasibility_check() {
        let cfg = CacheConfig::paper(Scheme::global());
        let ok = RetentionProfile::uniform_cycles(50_000, 1024);
        let bad = RetentionProfile::uniform_cycles(3_000, 1024);
        assert!(DataCache::global_scheme_feasible(&ok, &cfg));
        assert!(!DataCache::global_scheme_feasible(&bad, &cfg));
        let dead = RetentionProfile::uniform_cycles(0, 1024);
        assert!(!DataCache::global_scheme_feasible(&dead, &cfg));
    }

    #[test]
    fn no_refresh_overruns_in_steady_state() {
        // 30 K-cycle retention (usable 7168): refreshing ~512 live lines
        // at one line per 8 cycles is sustainable; no line may overrun.
        let mut c = uniform(
            Scheme::new(RefreshPolicy::Full, ReplacementPolicy::Lru),
            30_000,
        );
        for i in 0..2_000u64 {
            let set = (i % 256) as u32;
            let _ = c.access(i * 3, addr_for(set, 1 + i % 2), AccessKind::Load);
        }
        assert_eq!(c.stats().refresh_overruns, 0);
    }

    #[test]
    fn infeasible_full_refresh_overruns_gracefully() {
        // 3 K-cycle retention across 512 live lines exceeds the refresh
        // port bandwidth; the engine must degrade by invalidating (data
        // recoverable from L2), never by serving stale data.
        let mut c = uniform(
            Scheme::new(RefreshPolicy::Full, ReplacementPolicy::Lru),
            3_000,
        );
        for i in 0..2_000u64 {
            let set = (i % 256) as u32;
            let _ = c.access(i * 3, addr_for(set, 1 + i % 2), AccessKind::Load);
        }
        assert!(c.stats().refresh_overruns > 0, "backlog must be detected");
    }

    #[test]
    fn stats_accesses_add_up() {
        let mut c = DataCache::ideal();
        for i in 0..100u64 {
            let _ = c.access(i * 2, addr_for((i % 256) as u32, 1), AccessKind::Load);
            let _ = c.access(i * 2 + 1, addr_for((i % 256) as u32, 1), AccessKind::Store);
        }
        let s = c.stats();
        assert_eq!(s.accesses(), s.hits + s.misses());
    }

    #[test]
    fn rsp_lru_swap_preserves_dirty_data() {
        let mut rets = vec![0u64; 1024];
        for set in 0..256u32 {
            for way in 0..4u32 {
                rets[(set * 4 + way) as usize] = 40_000 - (way as u64) * 8_000;
            }
        }
        let mut c = cache_with(Scheme::rsp_lru(), rets);
        let set = 6;
        // Dirty a block in the top way, then hit another block so the
        // dirty one is swapped down: its data and dirtiness must survive.
        c.access(0, addr_for(set, 1), AccessKind::Store).unwrap();
        c.access(10, addr_for(set, 2), AccessKind::Load).unwrap();
        c.access(20, addr_for(set, 2), AccessKind::Load).unwrap(); // promote 2
        let r = c.access(30, addr_for(set, 1), AccessKind::Load).unwrap();
        assert!(r.hit, "dirty block must survive the swap");
        // Evict it via pressure and verify the write-back happened.
        for tag in 3..7u64 {
            c.access(40 + tag * 50, addr_for(set, tag), AccessKind::Load)
                .unwrap();
        }
        assert!(c.stats().writebacks >= 1, "dirty swap must not lose data");
    }

    #[test]
    fn global_scheme_handles_stores() {
        let mut c = uniform(Scheme::global(), 60_000);
        let a = addr_for(3, 4);
        c.access(0, a, AccessKind::Store).unwrap();
        // Long after several rotations the dirty line still hits.
        let r = c.access(500_000, a, AccessKind::Load).unwrap();
        assert!(r.hit);
        assert_eq!(c.stats().refresh_overruns, 0);
    }

    #[test]
    fn write_through_lines_never_dirty() {
        let mut cfg = CacheConfig::paper(Scheme::no_refresh_lru());
        cfg.write_policy = WritePolicy::WriteThrough;
        let mut c = DataCache::new(cfg, RetentionProfile::uniform_cycles(5_000, 1024));
        let a = addr_for(9, 2);
        c.access(0, a, AccessKind::Store).unwrap();
        c.access(10, a, AccessKind::Store).unwrap();
        // Stores propagated to the L2 immediately.
        assert!(c.stats().writebacks >= 2);
        // Let it expire: no expiry write-back is needed ("write-through
        // caches do not require any action", §4.3.1).
        c.advance(50_000);
        assert_eq!(c.stats().expiry_writebacks, 0);
        assert_eq!(c.stats().writeback_stall_refreshes, 0);
        // And the data is safe in the L2.
        let r = c.access(50_100, a, AccessKind::Load).unwrap();
        assert!(!r.hit);
        assert_eq!(r.latency, 3 + 12 + 6, "L2 hit plus the expiry replay penalty");
    }

    #[test]
    fn write_back_defers_store_traffic() {
        let mut c = uniform(Scheme::no_refresh_lru(), 500_000);
        let a = addr_for(9, 2);
        c.access(0, a, AccessKind::Store).unwrap();
        c.access(10, a, AccessKind::Store).unwrap();
        assert_eq!(c.stats().writebacks, 0, "no traffic until eviction");
    }

    #[test]
    #[should_panic(expected = "time must be monotone")]
    fn time_cannot_go_backwards() {
        let mut c = DataCache::ideal();
        c.advance(100);
        c.advance(50);
    }

    #[test]
    fn audit_passes_across_schemes_and_dead_ways() {
        let mut rets = vec![40_000u64; 1024];
        for set in 0..256 {
            rets[(set * 4) as usize] = 0; // way 0 of every set dead
        }
        for scheme in [
            Scheme::no_refresh_lru(),
            Scheme::partial_refresh_dsp(),
            Scheme::rsp_fifo(),
            Scheme::rsp_lru(),
            Scheme::new(RefreshPolicy::Full, ReplacementPolicy::Lru),
        ] {
            let mut c = cache_with(scheme, rets.clone());
            c.audit().unwrap();
            for i in 0..600u64 {
                let set = (i % 64) as u32;
                let kind = if i % 3 == 0 {
                    AccessKind::Store
                } else {
                    AccessKind::Load
                };
                let _ = c.access(i * 5, addr_for(set, 1 + i % 5), kind);
            }
            c.audit().unwrap_or_else(|e| panic!("{scheme}: {e}"));
        }
    }

    #[test]
    fn stats_export_lands_in_registry() {
        let mut c = uniform(Scheme::no_refresh_lru(), 5_000);
        let a = addr_for(9, 2);
        c.access(0, a, AccessKind::Load).unwrap();
        c.access(10, a, AccessKind::Load).unwrap();
        let mut m = obs::MetricsRegistry::new();
        c.stats().export(&mut m, "cache");
        assert_eq!(m.counter("cache.loads"), Some(2));
        assert_eq!(m.counter("cache.hits"), Some(1));
        assert!((m.gauge("cache.miss_rate").unwrap() - 0.5).abs() < 1e-12);
        assert_eq!(m.get_histogram("cache.hit_age_cycles").unwrap().count(), 1);
    }
}
