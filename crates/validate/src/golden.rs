//! The golden reference cache: an intentionally naive, obviously-correct
//! re-implementation of the [`cachesim::DataCache`] line-level semantics.
//!
//! Everything here favors transparency over speed:
//!
//! * no priority queues or epoch-staling — each pass over every line
//!   finds the earliest `(deadline, index)` among `valid && dirty` lines
//!   and processes it while it is due (`deadline <= cycle`), repeating
//!   until none is. Passes run only when `wake`, one lower bound over
//!   every line's expiry and refresh key, says a key may be due; debug
//!   builds re-scan on every skipped access and assert the bound held;
//! * every such pass, of either engine or of that debug check, is one
//!   reduction (`earliest`) that reads every line's key, every time: no
//!   index, heap or cached minimum lets it skip a line. Only its shape
//!   is chosen for the host: four interleaved partial minima, each
//!   updated by a select rather than a branch, then merged by
//!   `(key, index)`;
//! * refresh scheduling is one `refresh_due` cycle per line
//!   (`u64::MAX` when unarmed), re-derived from the line's own state at
//!   every arming point — no shared queue to corrupt;
//! * recency and retention orders are per-set `Vec`s, not flattened
//!   arrays;
//! * the write buffer and the tag-only L2 are re-implemented here from
//!   their documented behavior, not imported from the simulator. The
//!   L2's sets start empty and fill up to their ways, so building the
//!   model allocates no L2 set.
//!
//! Hardware constants (refresh guard, duty gap, sub-array pair count,
//! write-buffer size, L2 geometry) are deliberately *hard-coded copies*
//! of the paper values rather than imports: if the engine under test
//! silently drifts from the paper configuration, the differential harness
//! reports it instead of following along.
//!
//! The golden model covers the line-level scheme space (no/partial/full
//! refresh × LRU/DSP/RSP-FIFO/RSP-LRU). The global-refresh scheme is a
//! different machine (one cache-wide counter, paced row rotation) and is
//! rejected at construction.

use cachesim::{
    AccessKind, AccessResult, CacheConfig, DemandSink, Geometry, PortBusy, RefreshPolicy,
    ReplacementPolicy, RetentionProfile, WritePolicy,
};

/// Paper value: line refreshes are scheduled this many cycles before the
/// quantized deadline.
const REFRESH_GUARD: u64 = 512;

/// Paper value: idle gap after each line refresh so the engine never
/// monopolizes its sub-array pair.
const REFRESH_DUTY_GAP: u64 = 4;

/// Paper layout: sub-array pairs sharing sense amplifiers.
const PAIRS: usize = 4;

/// Paper value: write-buffer capacity (lines).
const WRITE_BUFFER_CAPACITY: usize = 8;

/// Paper value: write-buffer drain interval (cycles per retirement).
const WRITE_BUFFER_DRAIN: u64 = 4;

/// One cache line of the golden model. `refresh_due` is this model's own
/// refresh bookkeeping: the cycle at which the line-refresh engine owes
/// this line a service, or [`NOT_ARMED`].
#[derive(Debug, Clone, Copy)]
struct GLine {
    tag: u64,
    valid: bool,
    dirty: bool,
    deadline: u64,
    filled_at: u64,
    refresh_due: u64,
}

/// `refresh_due` of a line the refresh engine owes nothing.
const NOT_ARMED: u64 = u64::MAX;

/// An invalid line.
const EMPTY_LINE: GLine = GLine {
    tag: 0,
    valid: false,
    dirty: false,
    deadline: 0,
    filled_at: 0,
    refresh_due: NOT_ARMED,
};

/// Event counters of the golden model, named after their
/// [`cachesim::CacheStats`] counterparts. `dead_lines` counts every line
/// lost to retention (the DUT equivalent is the sum of its dead-age
/// histogram); `stall_runs` counts completed runs of consecutive
/// port-busy rejections; `l2_hits` complements `l2_misses`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[allow(missing_docs)]
pub struct GoldenCounters {
    pub loads: u64,
    pub stores: u64,
    pub hits: u64,
    pub tag_misses: u64,
    pub expiry_misses: u64,
    pub dead_way_events: u64,
    pub all_ways_dead_misses: u64,
    pub l2_misses: u64,
    pub l2_hits: u64,
    pub refreshes: u64,
    pub line_moves: u64,
    pub writebacks: u64,
    pub expiry_writebacks: u64,
    pub writeback_stall_refreshes: u64,
    pub port_conflicts: u64,
    pub blocked_cycles: u64,
    pub refresh_overruns: u64,
    pub dead_lines: u64,
    pub stall_runs: u64,
}

impl GoldenCounters {
    /// Counter names and values in a fixed order, for report rendering.
    pub fn rows(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("loads", self.loads),
            ("stores", self.stores),
            ("hits", self.hits),
            ("tag_misses", self.tag_misses),
            ("expiry_misses", self.expiry_misses),
            ("dead_way_events", self.dead_way_events),
            ("all_ways_dead_misses", self.all_ways_dead_misses),
            ("l2_misses", self.l2_misses),
            ("l2_hits", self.l2_hits),
            ("refreshes", self.refreshes),
            ("line_moves", self.line_moves),
            ("writebacks", self.writebacks),
            ("expiry_writebacks", self.expiry_writebacks),
            ("writeback_stall_refreshes", self.writeback_stall_refreshes),
            ("port_conflicts", self.port_conflicts),
            ("blocked_cycles", self.blocked_cycles),
            ("refresh_overruns", self.refresh_overruns),
            ("dead_lines", self.dead_lines),
            ("stall_runs", self.stall_runs),
        ]
    }
}

/// A naive tag-only set-associative LRU cache: per-set `Vec`s of at most
/// `ways` tags, ordered MRU-first. Every set starts empty, so only the
/// sets an access touches ever allocate.
#[derive(Debug, Clone)]
struct GoldenL2 {
    geometry: Geometry,
    sets: Vec<Vec<u64>>,
    hits: u64,
    misses: u64,
}

impl GoldenL2 {
    fn paper() -> Self {
        let geometry = Geometry::paper_l2();
        let sets = (0..geometry.sets()).map(|_| Vec::new()).collect();
        Self {
            geometry,
            sets,
            hits: 0,
            misses: 0,
        }
    }

    /// Demand lookup, filling on miss. Returns whether it hit.
    fn access(&mut self, addr: u64) -> bool {
        let set = self.geometry.set_of(addr) as usize;
        let tag = self.geometry.tag_of(addr);
        let slots = &mut self.sets[set];
        if let Some(pos) = slots.iter().position(|&t| t == tag) {
            let t = slots.remove(pos);
            slots.insert(0, t);
            self.hits += 1;
            true
        } else {
            self.insert(set, tag);
            self.misses += 1;
            false
        }
    }

    /// Installs a written-back block without demand accounting.
    fn fill_writeback(&mut self, addr: u64) {
        let set = self.geometry.set_of(addr) as usize;
        let tag = self.geometry.tag_of(addr);
        let slots = &mut self.sets[set];
        if let Some(pos) = slots.iter().position(|&t| t == tag) {
            let t = slots.remove(pos);
            slots.insert(0, t);
        } else {
            self.insert(set, tag);
        }
    }

    /// Makes `tag` the MRU of `set`, evicting the LRU tag of a full set.
    fn insert(&mut self, set: usize, tag: u64) {
        let slots = &mut self.sets[set];
        if slots.len() == self.geometry.ways() as usize {
            slots.pop();
        }
        slots.insert(0, tag);
    }
}

/// A naive finite write buffer: retires one entry per drain interval.
#[derive(Debug, Clone)]
struct GoldenWriteBuffer {
    occupancy: usize,
    next_drain: u64,
}

impl GoldenWriteBuffer {
    fn new() -> Self {
        Self {
            occupancy: 0,
            next_drain: 0,
        }
    }

    fn tick(&mut self, cycle: u64) {
        while self.occupancy > 0 && self.next_drain <= cycle {
            self.occupancy -= 1;
            self.next_drain += WRITE_BUFFER_DRAIN;
        }
        if self.occupancy == 0 {
            self.next_drain = self.next_drain.max(cycle);
        }
    }

    fn try_push(&mut self, cycle: u64) -> bool {
        self.tick(cycle);
        if self.occupancy >= WRITE_BUFFER_CAPACITY {
            false
        } else {
            if self.occupancy == 0 {
                self.next_drain = cycle + WRITE_BUFFER_DRAIN;
            }
            self.occupancy += 1;
            true
        }
    }
}

/// The golden reference cache (see the module docs).
#[derive(Debug, Clone)]
pub struct GoldenCache {
    cfg: CacheConfig,
    retention: RetentionProfile,
    lines: Vec<GLine>,
    /// Per-set way order, most recently used first.
    recency: Vec<Vec<u8>>,
    /// Per-set way order by descending physical retention, alive first.
    ret_order: Vec<Vec<u8>>,
    /// Per-set count of non-dead ways.
    alive: Vec<usize>,
    l2: GoldenL2,
    wb: GoldenWriteBuffer,
    /// Per-pair port-blocking windows `(start, end)`, open-ended sorted.
    windows: [Vec<(u64, u64)>; PAIRS],
    refresh_slot: u64,
    cur: u64,
    loads_now: u8,
    stores_now: u8,
    stall_run: u64,
    /// Lower bound on every valid line's expiry key (`deadline`, if
    /// dirty) and refresh key (`refresh_due`): no engine work can be due
    /// before this cycle.
    wake: u64,
    /// Whole-cache passes made so far by the expiry and refresh engines.
    scans: u64,
    counters: GoldenCounters,
}

impl GoldenCache {
    /// Creates the reference cache.
    ///
    /// # Panics
    ///
    /// Panics on [`RefreshPolicy::Global`] (out of the golden model's
    /// scope) or on a per-line profile whose length does not match the
    /// geometry.
    pub fn new(cfg: CacheConfig, retention: RetentionProfile) -> Self {
        assert!(
            !matches!(cfg.scheme.refresh, RefreshPolicy::Global),
            "the golden model covers line-level schemes only; \
             the global-refresh scheme has no reference implementation"
        );
        if let Some(lines) = retention.lines() {
            assert_eq!(
                lines,
                cfg.geometry.lines(),
                "retention profile does not match geometry"
            );
        }
        let sets = cfg.geometry.sets();
        let ways = cfg.geometry.ways();
        let mut ret_order = Vec::with_capacity(sets as usize);
        let mut alive = Vec::with_capacity(sets as usize);
        for set in 0..sets {
            let mut order: Vec<u8> = (0..ways as u8).collect();
            order.sort_by(|&a, &b| {
                let ra = retention.cycles(cfg.geometry.line_index(set, a as u32));
                let rb = retention.cycles(cfg.geometry.line_index(set, b as u32));
                rb.cmp(&ra)
            });
            alive.push(
                order
                    .iter()
                    .filter(|&&w| {
                        !retention.is_dead(cfg.geometry.line_index(set, w as u32), &cfg.counter)
                    })
                    .count(),
            );
            ret_order.push(order);
        }
        Self {
            lines: vec![EMPTY_LINE; cfg.geometry.lines() as usize],
            recency: (0..sets).map(|_| (0..ways as u8).collect()).collect(),
            ret_order,
            alive,
            l2: GoldenL2::paper(),
            wb: GoldenWriteBuffer::new(),
            windows: std::array::from_fn(|_| Vec::new()),
            refresh_slot: 0,
            cur: 0,
            loads_now: 0,
            stores_now: 0,
            stall_run: 0,
            wake: u64::MAX,
            scans: 0,
            counters: GoldenCounters::default(),
            cfg,
            retention,
        }
    }

    /// The accumulated counters.
    pub fn counters(&self) -> &GoldenCounters {
        &self.counters
    }

    fn usable(&self, idx: u32) -> u64 {
        self.retention.usable_cycles(idx, &self.cfg.counter)
    }

    fn is_dead_way(&self, set: u32, way: u32) -> bool {
        self.retention
            .is_dead(self.cfg.geometry.line_index(set, way), &self.cfg.counter)
    }

    fn pair_of(&self, idx: u32) -> usize {
        let per_pair = (self.cfg.geometry.lines() as usize / PAIRS).max(1);
        ((idx as usize) / per_pair).min(PAIRS - 1)
    }

    fn note_dead(&mut self, _at: u64, _filled_at: u64) {
        self.counters.dead_lines += 1;
    }

    fn invalidate(&mut self, idx: u32) {
        let l = &mut self.lines[idx as usize];
        l.valid = false;
        l.refresh_due = NOT_ARMED;
    }

    fn add_window(&mut self, pair: usize, start: u64, len: u64) -> u64 {
        self.counters.blocked_cycles += len;
        let q = &mut self.windows[pair];
        if let Some(last) = q.last_mut() {
            let start = start.max(last.0);
            if start <= last.1 {
                last.1 = last.1.max(start + len);
                return last.1;
            }
            q.push((start, start + len));
            return start + len;
        }
        q.push((start, start + len));
        start + len
    }

    fn pair_blocked(&self, pair: usize, cycle: u64) -> bool {
        self.windows[pair]
            .iter()
            .any(|w| w.0 <= cycle && cycle < w.1)
    }

    /// Re-derives the line's refresh booking from its current state —
    /// called exactly where the engine under test arms its refresh queue,
    /// which is every point outside [`GoldenCache::advance`] where a line
    /// gains or moves a key — and lowers `wake` to the line's keys.
    fn arm_refresh(&mut self, idx: u32, deadline: u64, filled_at: u64) {
        let wants = match self.cfg.scheme.refresh {
            RefreshPolicy::Full => true,
            RefreshPolicy::Partial { threshold_cycles } => {
                let usable = self.usable(idx);
                usable < threshold_cycles
                    && deadline.saturating_sub(filled_at) < threshold_cycles
            }
            _ => false,
        };
        let l = &mut self.lines[idx as usize];
        l.refresh_due = if wants && deadline != u64::MAX {
            deadline.saturating_sub(REFRESH_GUARD)
        } else {
            NOT_ARMED
        };
        self.wake = self.wake.min(line_key(l));
    }

    /// The earliest expiry or refresh key over the whole cache.
    fn earliest_key(&self) -> u64 {
        earliest(&self.lines, line_key).0
    }

    /// Advances the refresh/expiry/write-buffer engines to `cycle`.
    ///
    /// # Panics
    ///
    /// Panics if `cycle` moves backwards.
    pub fn advance(&mut self, cycle: u64) {
        assert!(cycle >= self.cur, "time must be monotone");
        if cycle != self.cur {
            self.cur = cycle;
            self.loads_now = 0;
            self.stores_now = 0;
        }
        if cycle >= self.wake {
            // Restart the bound: lines re-armed by a serviced refresh
            // lower it again, and each engine's last (nothing-due) pass
            // returns its earliest remaining key.
            self.wake = u64::MAX;
            let expiry = self.drain_expiries(cycle);
            let refresh = self.service_refreshes(cycle);
            self.wake = self.wake.min(expiry).min(refresh);
        } else {
            debug_assert!(
                self.earliest_key() >= self.wake,
                "a line key fell below the wake bound {}",
                self.wake
            );
        }
        self.wb.tick(cycle);
        for q in &mut self.windows {
            // Ends rise along a pair's list, so none has closed unless the
            // first has. (A closed window kept longer never blocks: time
            // only moves on.)
            if q.first().is_some_and(|w| w.1 <= cycle) {
                q.retain(|w| w.1 > cycle);
            }
        }
    }

    /// Processes every pending dirty-line expiry up to `cycle`, earliest
    /// `(deadline, line)` first, by scanning the whole cache each round.
    /// Returns the earliest expiry left, which lies after `cycle`.
    fn drain_expiries(&mut self, cycle: u64) -> u64 {
        loop {
            self.scans += 1;
            let (due, idx) = earliest(&self.lines, expiry_key);
            if due > cycle {
                return due;
            }
            let line = self.lines[idx as usize];
            let set = idx / self.cfg.geometry.ways();
            let addr = self.cfg.geometry.address_of(line.tag, set);
            if self.wb.try_push(due) {
                self.invalidate(idx);
                self.counters.writebacks += 1;
                self.counters.expiry_writebacks += 1;
                self.l2.fill_writeback(addr);
                self.note_dead(due, line.filled_at);
            } else {
                let usable = self.usable(idx);
                if usable == 0 {
                    // Dead way, full buffer: the line cannot be refreshed
                    // in place; the data is lost as a refresh overrun.
                    self.invalidate(idx);
                    self.counters.refresh_overruns += 1;
                    self.note_dead(due, line.filled_at);
                    continue;
                }
                // §4.3.1 stall handling: refresh in place instead of
                // evicting. The line drops off the refresh schedule.
                let l = &mut self.lines[idx as usize];
                l.deadline = due + usable;
                l.refresh_due = NOT_ARMED;
                self.counters.writeback_stall_refreshes += 1;
                let pair = self.pair_of(idx);
                self.add_window(pair, due, self.cfg.refresh_cycles as u64);
            }
        }
    }

    /// Services every due line refresh up to `cycle`, earliest
    /// `(refresh_due, line)` first, by scanning for armed lines.
    /// Returns the earliest refresh left, which lies after `cycle`.
    fn service_refreshes(&mut self, cycle: u64) -> u64 {
        if !matches!(
            self.cfg.scheme.refresh,
            RefreshPolicy::Full | RefreshPolicy::Partial { .. }
        ) {
            return u64::MAX;
        }
        loop {
            self.scans += 1;
            let (due, idx) = earliest(&self.lines, refresh_key);
            if due > cycle {
                return due;
            }
            let line = self.lines[idx as usize];
            let start = self.refresh_slot.max(due);
            let done = start + self.cfg.refresh_cycles as u64;
            if line.deadline <= done {
                // The refresh cannot complete before the data expires.
                self.invalidate(idx);
                self.counters.refresh_overruns += 1;
                self.note_dead(done, line.filled_at);
                continue;
            }
            let usable = self.usable(idx);
            let pair = self.pair_of(idx);
            self.add_window(pair, start, self.cfg.refresh_cycles as u64);
            self.refresh_slot = done + REFRESH_DUTY_GAP;
            self.counters.refreshes += 1;
            let l = &mut self.lines[idx as usize];
            l.deadline = done + usable;
            let (deadline, filled_at) = (l.deadline, l.filled_at);
            self.arm_refresh(idx, deadline, filled_at);
        }
    }

    /// One demand access at `cycle` (the [`DemandSink`] entry point).
    ///
    /// # Errors
    ///
    /// Returns [`PortBusy`] when the required port is unavailable.
    pub fn access(
        &mut self,
        cycle: u64,
        addr: u64,
        kind: AccessKind,
    ) -> Result<AccessResult, PortBusy> {
        self.advance(cycle);

        let set = self.cfg.geometry.set_of(addr);
        let set_pair = self.pair_of(self.cfg.geometry.line_index(set, 0));
        let pair_busy = self.pair_blocked(set_pair, cycle);
        let (load_ports, store_ports) = if pair_busy { (1, 0) } else { (2, 1) };
        match kind {
            AccessKind::Load if self.loads_now >= load_ports => {
                self.counters.port_conflicts += 1;
                self.stall_run += 1;
                return Err(PortBusy);
            }
            AccessKind::Store if self.stores_now >= store_ports => {
                self.counters.port_conflicts += 1;
                self.stall_run += 1;
                return Err(PortBusy);
            }
            _ => {}
        }
        if self.stall_run > 0 {
            self.counters.stall_runs += 1;
            self.stall_run = 0;
        }
        match kind {
            AccessKind::Load => {
                self.loads_now += 1;
                self.counters.loads += 1;
            }
            AccessKind::Store => {
                self.stores_now += 1;
                self.counters.stores += 1;
            }
        }

        let tag = self.cfg.geometry.tag_of(addr);
        let ways = self.cfg.geometry.ways();
        let mut matched: Option<(u32, bool)> = None;
        for way in 0..ways {
            let idx = self.cfg.geometry.line_index(set, way) as usize;
            let line = &self.lines[idx];
            if line.valid && line.tag == tag {
                matched = Some((way, cycle < line.deadline));
                break;
            }
        }

        match matched {
            Some((way, true)) => Ok(self.do_hit(cycle, set, way, kind)),
            Some((way, false)) => {
                let idx = self.cfg.geometry.line_index(set, way);
                if self.lines[idx as usize].dirty {
                    self.counters.refresh_overruns += 1;
                }
                let filled_at = self.lines[idx as usize].filled_at;
                self.invalidate(idx);
                self.counters.expiry_misses += 1;
                self.note_dead(cycle, filled_at);
                let latency = self.do_miss(cycle, set, tag, addr, kind);
                Ok(AccessResult {
                    hit: false,
                    latency: latency + self.cfg.replay_penalty,
                    expired: true,
                })
            }
            None => {
                self.counters.tag_misses += 1;
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
        self.counters.hits += 1;
        self.touch_recency(set, way);
        let idx = self.cfg.geometry.line_index(set, way);
        if kind == AccessKind::Store {
            let write_through = self.cfg.write_policy == WritePolicy::WriteThrough;
            let usable = self.usable(idx);
            let l = &mut self.lines[idx as usize];
            l.dirty = !write_through;
            l.deadline = cycle.saturating_add(usable);
            l.filled_at = cycle;
            let (deadline, filled_at, tag) = (l.deadline, l.filled_at, l.tag);
            if write_through {
                let addr = self.cfg.geometry.address_of(tag, set);
                let _ = self.wb.try_push(cycle);
                self.l2.fill_writeback(addr);
                self.counters.writebacks += 1;
            }
            self.arm_refresh(idx, deadline, filled_at);
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
        let l2_hit = self.l2.access(self.cfg.geometry.block_base(addr));
        let mut latency = self.cfg.hit_latency + self.cfg.l2_latency;
        if !l2_hit {
            latency += self.cfg.mem_latency;
            self.counters.l2_misses += 1;
        } else {
            self.counters.l2_hits += 1;
        }

        match self.cfg.scheme.replacement {
            ReplacementPolicy::Lru => {
                let way = self.lru_victim(set, false);
                latency += self.fill(cycle, set, way, tag, kind);
            }
            ReplacementPolicy::Dsp => {
                if self.alive[set as usize] == 0 {
                    self.counters.all_ways_dead_misses += 1;
                    self.counters.tag_misses = self.counters.tag_misses.saturating_sub(1);
                    self.uncached_store_through(cycle, addr, kind);
                    return latency;
                }
                let way = self.lru_victim(set, true);
                latency += self.fill(cycle, set, way, tag, kind);
            }
            ReplacementPolicy::RspFifo | ReplacementPolicy::RspLru => {
                if self.alive[set as usize] == 0 {
                    self.counters.all_ways_dead_misses += 1;
                    self.counters.tag_misses = self.counters.tag_misses.saturating_sub(1);
                    self.uncached_store_through(cycle, addr, kind);
                    return latency;
                }
                latency += self.rsp_fill(cycle, set, tag, kind);
            }
        }
        latency
    }

    fn uncached_store_through(&mut self, cycle: u64, addr: u64, kind: AccessKind) {
        if kind == AccessKind::Store {
            let _ = self.wb.try_push(cycle);
            self.l2.fill_writeback(self.cfg.geometry.block_base(addr));
            self.counters.writebacks += 1;
        }
    }

    fn lru_victim(&self, set: u32, alive_only: bool) -> u32 {
        let rec = &self.recency[set as usize];
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

    /// Evicts a live dirty occupant through the write buffer; returns the
    /// extra latency of a full-buffer stall.
    fn evict_occupant(&mut self, cycle: u64, set: u32, idx: u32) -> u32 {
        let old = self.lines[idx as usize];
        let mut extra = 0;
        if old.valid && old.dirty && cycle < old.deadline {
            let victim_addr = self.cfg.geometry.address_of(old.tag, set);
            if !self.wb.try_push(cycle) {
                extra += 8;
                self.wb.tick(cycle + 8);
                let _ = self.wb.try_push(cycle + 8);
            }
            self.counters.writebacks += 1;
            self.l2.fill_writeback(victim_addr);
        }
        extra
    }

    fn fill(&mut self, cycle: u64, set: u32, way: u32, tag: u64, kind: AccessKind) -> u32 {
        let idx = self.cfg.geometry.line_index(set, way);
        let extra = self.evict_occupant(cycle, set, idx);

        if self.is_dead_way(set, way) {
            self.counters.dead_way_events += 1;
        }
        let usable = self.usable(idx);
        let write_through = self.cfg.write_policy == WritePolicy::WriteThrough;
        if kind == AccessKind::Store && write_through {
            let addr = self.cfg.geometry.address_of(tag, set);
            let _ = self.wb.try_push(cycle);
            self.l2.fill_writeback(addr);
            self.counters.writebacks += 1;
        }
        let l = &mut self.lines[idx as usize];
        l.tag = tag;
        l.valid = true;
        l.dirty = kind == AccessKind::Store && !write_through;
        l.deadline = cycle.saturating_add(usable);
        l.filled_at = cycle;
        let (deadline, filled_at) = (l.deadline, l.filled_at);
        self.touch_recency(set, way);
        self.arm_refresh(idx, deadline, filled_at);
        extra
    }

    /// The line holding retention rank `rank` of `set`.
    fn ranked_line(&self, set: u32, rank: usize) -> u32 {
        let way = self.ret_order[set as usize][rank] as u32;
        self.cfg.geometry.line_index(set, way)
    }

    fn rsp_fill(&mut self, cycle: u64, set: u32, tag: u64, kind: AccessKind) -> u32 {
        let alive = self.alive[set as usize];

        // Shift depth: up to the first invalid/expired way, or the whole
        // alive span (evicting the last).
        let mut depth = alive;
        for rank in 0..alive {
            let idx = self.ranked_line(set, rank) as usize;
            let line = &self.lines[idx];
            if !line.valid || cycle >= line.deadline {
                depth = rank + 1;
                break;
            }
        }

        let last_idx = self.ranked_line(set, depth - 1);
        let extra = if depth == alive {
            self.evict_occupant(cycle, set, last_idx)
        } else {
            0
        };

        // Shift live blocks down one retention rank; each move rewrites
        // the destination cells and restarts their retention.
        let mut moves = 0u64;
        for k in (1..depth).rev() {
            let src_idx = self.ranked_line(set, k - 1) as usize;
            let dst_idx = self.ranked_line(set, k);
            let src = self.lines[src_idx];
            if !src.valid || cycle >= src.deadline {
                self.invalidate(dst_idx);
                continue;
            }
            let usable = self.usable(dst_idx);
            let l = &mut self.lines[dst_idx as usize];
            l.tag = src.tag;
            l.valid = true;
            l.dirty = src.dirty;
            l.deadline = cycle.saturating_add(usable);
            l.filled_at = src.filled_at;
            let (deadline, filled_at) = (l.deadline, l.filled_at);
            self.arm_refresh(dst_idx, deadline, filled_at);
            moves += 1;
        }
        if moves > 0 {
            self.counters.line_moves += moves;
            let work = (moves * self.cfg.move_cycles as u64)
                .saturating_sub(self.cfg.l2_latency as u64);
            if work > 0 {
                let pair = self.pair_of(self.cfg.geometry.line_index(set, 0));
                self.add_window(pair, cycle, work);
            }
        }

        // The new block takes the top (longest-retention) rank.
        let top_way = self.ret_order[set as usize][0] as u32;
        let top_idx = self.cfg.geometry.line_index(set, top_way);
        let usable = self.usable(top_idx);
        let write_through = self.cfg.write_policy == WritePolicy::WriteThrough;
        if kind == AccessKind::Store && write_through {
            let addr = self.cfg.geometry.address_of(tag, set);
            let _ = self.wb.try_push(cycle);
            self.l2.fill_writeback(addr);
            self.counters.writebacks += 1;
        }
        let l = &mut self.lines[top_idx as usize];
        l.tag = tag;
        l.valid = true;
        l.dirty = kind == AccessKind::Store && !write_through;
        l.deadline = cycle.saturating_add(usable);
        l.filled_at = cycle;
        let (deadline, filled_at) = (l.deadline, l.filled_at);
        self.touch_recency(set, top_way);
        self.arm_refresh(top_idx, deadline, filled_at);
        extra
    }

    fn rsp_lru_promote(&mut self, cycle: u64, set: u32, way: u32) {
        let top_way = self.ret_order[set as usize][0] as u32;
        if way == top_way {
            return;
        }
        let a_idx = self.cfg.geometry.line_index(set, way);
        let b_idx = self.cfg.geometry.line_index(set, top_way);
        let a = self.lines[a_idx as usize];
        let b = self.lines[b_idx as usize];
        self.place_swapped(cycle, b_idx, a);
        self.place_swapped(cycle, a_idx, b);
        self.counters.line_moves += 2;
        let pair = self.pair_of(a_idx);
        self.add_window(pair, cycle, self.cfg.move_cycles as u64);
    }

    /// One half of an RSP-LRU swap: writes `src`'s block into `dst` with
    /// a restarted retention; expired/invalid sources leave `dst` empty.
    fn place_swapped(&mut self, cycle: u64, dst: u32, src: GLine) {
        let usable = self.usable(dst);
        let l = &mut self.lines[dst as usize];
        l.tag = src.tag;
        l.valid = src.valid && cycle < src.deadline;
        l.dirty = src.dirty && l.valid;
        l.deadline = cycle.saturating_add(usable);
        l.filled_at = src.filled_at;
        l.refresh_due = NOT_ARMED;
        let (valid, deadline, filled_at) = (l.valid, l.deadline, l.filled_at);
        if valid {
            self.arm_refresh(dst, deadline, filled_at);
        }
    }

    fn touch_recency(&mut self, set: u32, way: u32) {
        let rec = &mut self.recency[set as usize];
        if let Some(pos) = rec.iter().position(|&w| w as u32 == way) {
            let w = rec.remove(pos);
            rec.insert(0, w);
        }
    }
}

/// The expiry engine's key: the deadline of a valid dirty line, else
/// `u64::MAX` (never due).
fn expiry_key(l: &GLine) -> u64 {
    if l.valid & l.dirty {
        l.deadline
    } else {
        u64::MAX
    }
}

/// The refresh engine's key: the booking of a valid armed line, else
/// `u64::MAX` (never due).
fn refresh_key(l: &GLine) -> u64 {
    if l.valid {
        l.refresh_due
    } else {
        u64::MAX
    }
}

/// The earliest cycle at which `l` can need engine work: its expiry if it
/// is valid and dirty, or its refresh booking if it is valid and armed.
fn line_key(l: &GLine) -> u64 {
    let (expiry, refresh) = (expiry_key(l), refresh_key(l));
    if expiry < refresh {
        expiry
    } else {
        refresh
    }
}

/// Interleaved partial minima in [`earliest`].
const LANES: usize = 4;

/// The earliest `(key(line), index)` over all `lines`, ties going to the
/// lowest index, or `(u64::MAX, u32::MAX)` when every key is `u64::MAX`
/// (a line so keyed is never due and never picked).
///
/// Still a naive full pass: every line's key is read, every time. It is
/// only written for the host. Line `i` updates lane `i % LANES` with a
/// select rather than a branch, so the loop has no data-dependent branch
/// and the lanes' compare chains overlap; the lanes' minima are then
/// combined by `(key, index)`. Within a lane indices rise, so a strict
/// `<` keeps a tie on the lower index.
fn earliest(lines: &[GLine], key: impl Fn(&GLine) -> u64) -> (u64, u32) {
    let mut best = [(u64::MAX, u32::MAX); LANES];
    let mut i = 0;
    while i + LANES <= lines.len() {
        let chunk = &lines[i..i + LANES];
        let mut lane = 0;
        while lane < LANES {
            let (k, b) = (key(&chunk[lane]), best[lane]);
            best[lane] = if k < b.0 { (k, (i + lane) as u32) } else { b };
            lane += 1;
        }
        i += LANES;
    }
    while i < lines.len() {
        let (k, b) = (key(&lines[i]), best[i % LANES]);
        best[i % LANES] = if k < b.0 { (k, i as u32) } else { b };
        i += 1;
    }
    best.into_iter().min().unwrap_or((u64::MAX, u32::MAX))
}

impl DemandSink for GoldenCache {
    fn try_access(
        &mut self,
        cycle: u64,
        addr: u64,
        kind: AccessKind,
    ) -> Result<AccessResult, PortBusy> {
        self.access(cycle, addr, kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{default_schemes, named_retention, run_differential_models};
    use cachesim::DataCache;
    use proptest::prelude::*;
    use uarch::instr::TraceSource;
    use workloads::{SpecBenchmark, SyntheticTrace};

    /// Valid dirty lines whose deadlines are `keys`.
    fn lines_keyed(keys: &[u64]) -> Vec<GLine> {
        keys.iter()
            .map(|&deadline| GLine {
                valid: true,
                dirty: true,
                deadline,
                ..EMPTY_LINE
            })
            .collect()
    }

    /// The reference for [`earliest`]: one `Option` fold over the lines
    /// in order, skipping `u64::MAX` keys and keeping the first of equals.
    fn earliest_by_fold(keys: &[u64]) -> (u64, u32) {
        let mut next: Option<(u64, u32)> = None;
        for (idx, &key) in keys.iter().enumerate() {
            let key = (key, idx as u32);
            if key.0 != u64::MAX && next.is_none_or(|cur| key < cur) {
                next = Some(key);
            }
        }
        next.unwrap_or((u64::MAX, u32::MAX))
    }

    #[test]
    fn earliest_finds_a_lone_key_in_every_lane_and_the_remainder() {
        for len in (0..=13).chain(1021..=1030) {
            let mut lines = lines_keyed(&vec![u64::MAX; len]);
            assert_eq!(earliest(&lines, expiry_key), (u64::MAX, u32::MAX));
            for pos in 0..len {
                lines[pos].deadline = 7;
                assert_eq!(earliest(&lines, expiry_key), (7, pos as u32), "len {len}");
                lines[pos].deadline = u64::MAX;
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Keys `k * span` for draws `k` below `cut` and `u64::MAX` for
        /// the rest: small keys tie across lanes, and `cut == 0` leaves no
        /// line keyed.
        #[test]
        fn earliest_matches_the_option_fold(
            raw in proptest::collection::vec(0u64..12, 0..=1030),
            cut in 0u64..=12,
            span in prop_oneof![Just(1u64), Just(3), Just(1u64 << 40)],
        ) {
            let keys: Vec<u64> = raw
                .iter()
                .map(|&k| if k < cut { k * span } else { u64::MAX })
                .collect();
            prop_assert_eq!(earliest(&lines_keyed(&keys), expiry_key), earliest_by_fold(&keys));
        }

        /// Demand accesses and write-back fills over a few sets of the
        /// paper L2, with several times `ways` tags each, against a plain
        /// true-LRU list per set: every access hits or misses alike, and
        /// each set holds the same tags in the same order.
        #[test]
        fn l2_matches_a_true_lru_list(
            ops in proptest::collection::vec((0u32..3, 0u64..20, any::<bool>()), 0..400),
        ) {
            let mut l2 = GoldenL2::paper();
            let ways = l2.geometry.ways() as usize;
            let mut lru: Vec<Vec<u64>> = vec![Vec::new(); 3];
            for (set, tag, fill) in ops {
                let addr = l2.geometry.address_of(tag, set);
                let list = &mut lru[set as usize];
                let hit = list.contains(&tag);
                list.retain(|&t| t != tag);
                list.insert(0, tag);
                list.truncate(ways);
                if fill {
                    l2.fill_writeback(addr);
                } else {
                    prop_assert_eq!(l2.access(addr), hit);
                }
                prop_assert_eq!(&l2.sets[set as usize], &*list);
            }
        }
    }

    /// The wake bound keeps whole-cache passes well below one per access
    /// on benchmark-sized windows; scanning on every access (at least one
    /// pass, two for refresh schemes) fails this.
    #[test]
    fn scans_stay_below_half_the_accesses() {
        let retention = named_retention("mixed", 1024).unwrap();
        for bench in [SpecBenchmark::Gzip, SpecBenchmark::Mcf] {
            let mut trace = SyntheticTrace::new(bench.profile(), 1);
            let instrs: Vec<_> = (0..60_000).map(|_| trace.next_instr()).collect();
            for (name, scheme) in default_schemes() {
                let cfg = CacheConfig::paper(scheme);
                let mut dut = DataCache::new(cfg, retention.clone());
                let mut golden = GoldenCache::new(cfg, retention.clone());
                let report =
                    run_differential_models(&mut dut, &mut golden, instrs.iter().copied(), 0);
                assert!(
                    report.within_tolerance(),
                    "{bench} × {name}:\n{}",
                    report.render_text()
                );
                assert!(
                    golden.scans <= report.accesses / 2,
                    "{bench} × {name}: {} scans for {} accesses",
                    golden.scans,
                    report.accesses
                );
            }
        }
    }

    /// The windows of `scans_stay_below_half_the_accesses`, with `scans`
    /// and every counter (in [`GoldenCounters::rows`] order) pinned: a
    /// reworked engine pass must find the same events in the same order,
    /// and as many times.
    #[test]
    fn pinned_windows_keep_their_scans_and_counters() {
        #[rustfmt::skip]
        const PINNED: [(SpecBenchmark, &str, u64, [u64; 19]); 6] = [
            (SpecBenchmark::Gzip, "no-refresh-lru", 1866,
             [13261, 4793, 16030, 1205, 819, 1095, 0, 698, 1326, 0, 0, 1103, 1099, 0, 1510, 0, 0, 1918, 1510]),
            (SpecBenchmark::Gzip, "partial-dsp", 3909,
             [13261, 4793, 17201, 841, 12, 0, 0, 698, 155, 1022, 0, 752, 661, 0, 6343, 8176, 14, 687, 4210]),
            (SpecBenchmark::Gzip, "rsp-fifo", 1102,
             [13261, 4793, 17119, 919, 16, 0, 0, 698, 237, 0, 860, 825, 745, 0, 1835, 996, 0, 761, 1745]),
            (SpecBenchmark::Mcf, "no-refresh-lru", 4438,
             [19032, 5451, 15164, 5203, 4116, 6064, 0, 3301, 6018, 0, 0, 3264, 2382, 23, 3881, 184, 34, 6532, 3830]),
            (SpecBenchmark::Mcf, "partial-dsp", 6789,
             [19032, 5451, 19834, 4649, 0, 0, 0, 3301, 1348, 1550, 0, 2277, 468, 0, 12808, 12400, 875, 1343, 10024]),
            (SpecBenchmark::Mcf, "rsp-fifo", 1280,
             [19032, 5451, 19842, 4609, 32, 0, 0, 3301, 1340, 0, 8371, 2815, 834, 17, 13245, 16080, 0, 866, 11204]),
        ];
        let retention = named_retention("mixed", 1024).unwrap();
        let mut got = Vec::new();
        for bench in [SpecBenchmark::Gzip, SpecBenchmark::Mcf] {
            let mut trace = SyntheticTrace::new(bench.profile(), 1);
            let instrs: Vec<_> = (0..60_000).map(|_| trace.next_instr()).collect();
            for (name, scheme) in default_schemes() {
                let cfg = CacheConfig::paper(scheme);
                let mut dut = DataCache::new(cfg, retention.clone());
                let mut golden = GoldenCache::new(cfg, retention.clone());
                run_differential_models(&mut dut, &mut golden, instrs.iter().copied(), 0);
                let counters: Vec<u64> = golden.counters().rows().iter().map(|r| r.1).collect();
                got.push((bench, name, golden.scans, counters));
            }
        }
        let pinned: Vec<_> = PINNED
            .iter()
            .map(|&(b, n, s, c)| (b, n, s, c.to_vec()))
            .collect();
        assert_eq!(got, pinned);
    }
}
