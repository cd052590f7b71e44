//! The cycle-level out-of-order pipeline model.
//!
//! A trace-driven model of the Table 2 machine: 4-wide dispatch into an
//! 80-entry ROB, separate INT/FP issue queues, load/store queues, limited
//! functional units, a tournament branch predictor, and the retention-
//! aware L1 data cache from [`cachesim`] (with explicit port contention —
//! refresh work in the cache directly back-pressures the pipeline).
//!
//! Modeling conventions (standard for trace-driven OoO studies; see
//! DESIGN.md):
//!
//! * wrong-path instructions are not simulated — a misprediction stalls
//!   dispatch until the branch resolves, plus a redirect penalty;
//! * stores access the cache at execute; memory disambiguation and
//!   store-to-load forwarding are not modeled;
//! * the I-cache is modeled as a per-workload miss rate injecting fetch
//!   bubbles.
//!
//! The cycle loop (commit, issue, dispatch) is built so most cycles cost
//! nothing:
//!
//! * the ROB is a power-of-two ring: entry `seq` lives at slot
//!   `seq & mask`, so every lookup is a mask, not a deque offset;
//! * the scheduler is event-driven. Dispatched entries wait on their
//!   producer, then on a calendar timing wheel (one bucket per cycle mod
//!   1024, a bitmap of non-empty buckets, an overflow heap for wake-ups
//!   further out), then in a seq-sorted ready list;
//! * the `in_order` ablation walks the same ready list. Its issued entries
//!   are a prefix of program order, so one counter names the oldest
//!   unissued entry, and the walk stops at the first ready entry that is
//!   not that one. So it also stops right after an entry that cannot
//!   issue;
//! * most simulated cycles are idle: nothing can commit, the ready list is
//!   empty, and dispatch is blocked. The loop jumps straight to the next
//!   cycle that can change state: the ROB head's completion, the wheel's
//!   next bucket, or the end of a fetch stall. It charges the skipped
//!   cycles to the one stall counter that stepping through them would
//!   have charged, so every [`SimResult`] field is unchanged.

use crate::bpred::TournamentPredictor;
use crate::calendar::Calendar;
use crate::config::MachineConfig;
use crate::instr::{OpClass, TraceSource};
use crate::tlb::Tlb;
use cachesim::{AccessKind, DataCache, Geometry, TagCache};

/// Aggregate results of one simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SimResult {
    /// Instructions committed.
    pub instructions: u64,
    /// Cycles elapsed.
    pub cycles: u64,
    /// Dynamic branches.
    pub branches: u64,
    /// Mispredicted branches.
    pub mispredictions: u64,
    /// Cycles lost to instruction-cache misses.
    pub icache_stall_cycles: u64,
    /// Loads committed.
    pub loads: u64,
    /// Stores committed.
    pub stores: u64,
    /// Memory issue attempts rejected by cache port contention.
    pub port_retries: u64,
    /// Pipeline replay/flush events from expired or dead cache lines.
    pub replay_flushes: u64,
    /// Data-TLB misses.
    pub dtlb_misses: u64,
    /// Cycles the dispatch stage was fully blocked (unresolved redirect or
    /// fetch stall) — the front-end contribution to IPC loss.
    pub dispatch_blocked_cycles: u64,
    /// Dispatch groups cut short by a full reorder buffer.
    pub rob_full_stalls: u64,
    /// Dispatch groups cut short because both issue queues were full.
    pub iq_full_stalls: u64,
    /// Single-cycle dispatch stalls from a full load or store queue.
    pub lsq_full_stalls: u64,
    /// Histogram of operand value ages at consumption (cycles between the
    /// producer finishing and the consumer issuing), in power-of-two
    /// buckets `[0,2) [2,4) ... [2^14,∞)`. The register-file-retention
    /// extension reads this.
    pub value_age_hist: [u64; 16],
}

impl SimResult {
    /// Committed instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// Billions of instructions per second at a clock frequency (GHz):
    /// `BIPS = IPC × f`. This is where 6T frequency loss is applied.
    pub fn bips(&self, freq_ghz: f64) -> f64 {
        self.ipc() * freq_ghz
    }

    /// Branch misprediction rate.
    pub fn mispredict_rate(&self) -> f64 {
        if self.branches == 0 {
            0.0
        } else {
            self.mispredictions as f64 / self.branches as f64
        }
    }

    /// Merges another segment's counters into this one (fieldwise sums;
    /// derived rates like [`SimResult::ipc`] then cover the union).
    pub fn merge(&mut self, o: &SimResult) {
        self.instructions += o.instructions;
        self.cycles += o.cycles;
        self.branches += o.branches;
        self.mispredictions += o.mispredictions;
        self.icache_stall_cycles += o.icache_stall_cycles;
        self.loads += o.loads;
        self.stores += o.stores;
        self.port_retries += o.port_retries;
        self.replay_flushes += o.replay_flushes;
        self.dtlb_misses += o.dtlb_misses;
        self.dispatch_blocked_cycles += o.dispatch_blocked_cycles;
        self.rob_full_stalls += o.rob_full_stalls;
        self.iq_full_stalls += o.iq_full_stalls;
        self.lsq_full_stalls += o.lsq_full_stalls;
        for (a, b) in self.value_age_hist.iter_mut().zip(o.value_age_hist.iter()) {
            *a += b;
        }
    }

    /// Exports the pipeline counters into a metrics registry under
    /// `prefix` (e.g. `fig09.scheme.RSP-FIFO.pipe`) — the pipeline layer's
    /// half of the run-manifest contract.
    pub fn export(&self, m: &mut obs::MetricsRegistry, prefix: &str) {
        let c = |m: &mut obs::MetricsRegistry, field: &str, v: u64| {
            m.set_counter(&format!("{prefix}.{field}"), v);
        };
        c(m, "instructions", self.instructions);
        c(m, "cycles", self.cycles);
        c(m, "branches", self.branches);
        c(m, "mispredictions", self.mispredictions);
        c(m, "icache_stall_cycles", self.icache_stall_cycles);
        c(m, "loads", self.loads);
        c(m, "stores", self.stores);
        c(m, "port_retries", self.port_retries);
        c(m, "replay_flushes", self.replay_flushes);
        c(m, "dtlb_misses", self.dtlb_misses);
        c(m, "dispatch_blocked_cycles", self.dispatch_blocked_cycles);
        c(m, "rob_full_stalls", self.rob_full_stalls);
        c(m, "iq_full_stalls", self.iq_full_stalls);
        c(m, "lsq_full_stalls", self.lsq_full_stalls);
        m.set_gauge(&format!("{prefix}.ipc"), self.ipc());
        m.set_gauge(&format!("{prefix}.mispredict_rate"), self.mispredict_rate());
        // Power-of-two bucket boundaries do not fit FixedHistogram's
        // uniform buckets; export the raw counts as indexed counters.
        for (i, &n) in self.value_age_hist.iter().enumerate() {
            c(m, &format!("value_age_hist.{i:02}"), n);
        }
    }
}

impl std::fmt::Display for SimResult {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} instrs in {} cycles (IPC {:.3}); branches {} ({:.1}% mispredicted);              {} loads / {} stores; {} replay flushes; {} DTLB misses",
            self.instructions,
            self.cycles,
            self.ipc(),
            self.branches,
            self.mispredict_rate() * 100.0,
            self.loads,
            self.stores,
            self.replay_flushes,
            self.dtlb_misses
        )
    }
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    op: OpClass,
    addr: u64,
    /// Producer sequence numbers (u64::MAX = none).
    dep1: u64,
    dep2: u64,
    /// Completion cycle; u64::MAX until issued.
    completing_at: u64,
    /// Head of this entry's wait chain: the youngest dispatched entry
    /// parked on this (still-unissued) producer, or u64::MAX. Drained the
    /// cycle this entry issues and its completion time becomes known.
    wait_head: u64,
    /// Chain link used while this entry is parked on one of its own
    /// unissued producers.
    wait_next: u64,
}

impl Entry {
    /// Filler for ROB slots that hold no instruction.
    const VACANT: Entry = Entry {
        op: OpClass::IntAlu,
        addr: 0,
        dep1: u64::MAX,
        dep2: u64::MAX,
        completing_at: u64::MAX,
        wait_head: u64::MAX,
        wait_next: u64::MAX,
    };
}

/// The pipeline simulator. Owns the predictor; borrows the cache and trace.
#[derive(Debug)]
pub struct Pipeline {
    cfg: MachineConfig,
    bpred: TournamentPredictor,
    /// Reorder buffer: a power-of-two ring holding entry `seq` at slot
    /// `seq & rob_mask`; the live entries are `head_seq..next_seq`.
    rob: Vec<Entry>,
    rob_mask: u64,
    /// Event-driven scheduler: entries whose operands are available,
    /// sorted by sequence number so issue walks them in program order.
    /// Entries stay here while unit- or port-limited.
    ready: Vec<u64>,
    /// In-order issue only: the oldest unissued entry. Issued entries are
    /// a prefix of program order, so this is one past the last issued.
    next_in_order: u64,
    /// Timing wheel: entries whose operands become available at a known
    /// future cycle, bucketed by that cycle.
    wheel: Calendar,
    /// Scratch buffers for the per-cycle wheel drain + ready merge.
    wake_scratch: Vec<u64>,
    merge_scratch: Vec<u64>,
    /// Incremental occupancy counters, kept in lockstep with the ROB:
    /// issue-queue entries drain at issue, LQ/SQ entries drain at commit.
    int_iq_occ: u32,
    fp_iq_occ: u32,
    lq_occ: u32,
    sq_occ: u32,
    head_seq: u64,
    next_seq: u64,
    /// Completion cycles of recently committed instructions, for
    /// cross-commit dependencies (ring keyed by seq).
    committed_ring: Vec<u64>,
    fetch_blocked_until: u64,
    /// Dispatch is stalled until this branch seq resolves (misprediction).
    pending_redirect: Option<u64>,
    /// Committed-instruction countdown to the next injected I-cache miss.
    icache_interval: u64,
    icache_countdown: u64,
    result: SimResult,
    cycle: u64,
    dtlb: Tlb,
    /// Real instruction-side models, used when traces carry PCs.
    icache: TagCache,
    itlb: Tlb,
    last_fetch_block: u64,
}

const COMMIT_RING: usize = 512;

impl Pipeline {
    /// Creates a pipeline with an I-cache miss rate (misses per
    /// instruction; 0 disables injection).
    pub fn new(cfg: MachineConfig, icache_miss_rate: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&icache_miss_rate),
            "icache miss rate out of range"
        );
        let interval = if icache_miss_rate <= 0.0 {
            u64::MAX
        } else {
            (1.0 / icache_miss_rate).round() as u64
        };
        let rob_slots = (cfg.rob_entries as usize).next_power_of_two();
        Self {
            cfg,
            bpred: TournamentPredictor::new(),
            rob: vec![Entry::VACANT; rob_slots],
            rob_mask: rob_slots as u64 - 1,
            ready: Vec::with_capacity(cfg.rob_entries as usize),
            next_in_order: 0,
            wheel: Calendar::new(rob_slots),
            wake_scratch: Vec::new(),
            merge_scratch: Vec::new(),
            int_iq_occ: 0,
            fp_iq_occ: 0,
            lq_occ: 0,
            sq_occ: 0,
            head_seq: 0,
            next_seq: 0,
            committed_ring: vec![0; COMMIT_RING],
            fetch_blocked_until: 0,
            pending_redirect: None,
            icache_interval: interval,
            icache_countdown: interval,
            result: SimResult::default(),
            cycle: 0,
            dtlb: Tlb::paper_dtlb(),
            // Table 2: 64 KB 4-way I-cache, 128-entry fully-assoc ITLB.
            icache: TagCache::new(Geometry::new(64 * 1024, 64, 4)),
            itlb: Tlb::new(128, 13),
            last_fetch_block: u64::MAX,
        }
    }

    /// The branch predictor (for inspection).
    pub fn predictor(&self) -> &TournamentPredictor {
        &self.bpred
    }

    /// Runs until `instructions` more have committed, continuing from the
    /// pipeline's current state, and returns the results for *this
    /// segment* only. Calling `run` repeatedly on the same pipeline and
    /// cache supports warmup/measure splits.
    pub fn run<T: TraceSource + ?Sized>(
        &mut self,
        trace: &mut T,
        cache: &mut DataCache,
        instructions: u64,
    ) -> SimResult {
        let start = self.result;
        let start_cycle = self.cycle;
        let _span = obs::trace::span_with("uarch", || format!("pipeline.run:{instructions}"));
        let mut committed: u64 = 0;
        // Safety valve so a model bug cannot hang the harness.
        let max_cycles = self
            .cycle
            .saturating_add(instructions.saturating_mul(400).max(1_000_000));

        while committed < instructions {
            self.skip_idle_cycles(max_cycles);
            self.cycle += 1;
            let cycle = self.cycle;
            assert!(
                cycle < max_cycles,
                "pipeline livelock: {committed} instrs in {} cycles",
                cycle - start_cycle
            );

            committed += self.commit(cycle, instructions - committed);
            self.issue(cycle, cache);
            self.dispatch(cycle, trace);
        }

        SimResult {
            instructions: committed,
            cycles: self.cycle - start_cycle,
            branches: self.result.branches - start.branches,
            mispredictions: self.result.mispredictions - start.mispredictions,
            icache_stall_cycles: self.result.icache_stall_cycles - start.icache_stall_cycles,
            loads: self.result.loads - start.loads,
            stores: self.result.stores - start.stores,
            port_retries: self.result.port_retries - start.port_retries,
            replay_flushes: self.result.replay_flushes - start.replay_flushes,
            dtlb_misses: self.result.dtlb_misses - start.dtlb_misses,
            dispatch_blocked_cycles: self.result.dispatch_blocked_cycles
                - start.dispatch_blocked_cycles,
            rob_full_stalls: self.result.rob_full_stalls - start.rob_full_stalls,
            iq_full_stalls: self.result.iq_full_stalls - start.iq_full_stalls,
            lsq_full_stalls: self.result.lsq_full_stalls - start.lsq_full_stalls,
            value_age_hist: {
                let mut h = [0u64; 16];
                for (i, slot) in h.iter_mut().enumerate() {
                    *slot = self.result.value_age_hist[i] - start.value_age_hist[i];
                }
                h
            },
        }
    }

    /// Jumps over the coming cycles in which nothing can commit, issue or
    /// dispatch, charging each one to the stall counter the cycle-by-cycle
    /// loop would have charged.
    ///
    /// The cycles from `cycle + 1` are idle while the ready list is empty
    /// and dispatch is blocked. They stay idle until the earliest of three
    /// events: the ROB head completes (commit), the wheel's next bucket
    /// comes due (issue), or `fetch_blocked_until` passes (dispatch). Until
    /// then no state other than that one stall counter changes: dispatch
    /// is blocked by a pending redirect or fetch stall
    /// (`dispatch_blocked_cycles`), else by a full ROB (`rob_full_stalls`),
    /// else by two full issue queues (`iq_full_stalls`). The jump stops at
    /// `max_cycles`, so a livelock still trips the loop's assertion at
    /// the same cycle.
    fn skip_idle_cycles(&mut self, max_cycles: u64) {
        let next = self.cycle + 1;
        if !self.ready.is_empty() || self.cfg.width == 0 {
            return;
        }
        let head_done = self.rob_head().map_or(u64::MAX, |e| e.completing_at);
        let fetch_blocked = next < self.fetch_blocked_until;
        let stall = if self.pending_redirect.is_some() || fetch_blocked {
            &mut self.result.dispatch_blocked_cycles
        } else if self.rob_len() >= self.cfg.rob_entries as u64 {
            &mut self.result.rob_full_stalls
        } else if self.icache_countdown != 0
            && self.int_iq_occ >= self.cfg.int_iq_entries
            && self.fp_iq_occ >= self.cfg.fp_iq_entries
        {
            &mut self.result.iq_full_stalls
        } else {
            return;
        };
        let fetch_open = if fetch_blocked {
            self.fetch_blocked_until
        } else {
            u64::MAX
        };
        let wake = head_done
            .min(self.wheel.next_due(self.cycle))
            .min(fetch_open)
            .min(max_cycles);
        if wake > next {
            *stall += wake - next;
            self.cycle = wake - 1;
        }
    }

    fn commit(&mut self, cycle: u64, limit: u64) -> u64 {
        let mut n = 0;
        while n < (self.cfg.width as u64).min(limit) {
            match self.rob_head() {
                Some(e) if e.completing_at <= cycle => {
                    self.committed_ring[(self.head_seq % COMMIT_RING as u64) as usize] =
                        e.completing_at;
                    self.head_seq += 1;
                    match e.op {
                        OpClass::Load => {
                            self.result.loads += 1;
                            self.lq_occ -= 1;
                        }
                        OpClass::Store => {
                            self.result.stores += 1;
                            self.sq_occ -= 1;
                        }
                        _ => {}
                    }
                    n += 1;
                }
                _ => break,
            }
        }
        n
    }

    fn producer_done_at(&self, dep: u64) -> u64 {
        if dep == u64::MAX {
            return 0;
        }
        if dep < self.head_seq {
            // Committed: look up the ring if recent, else long done.
            if self.head_seq - dep <= COMMIT_RING as u64 {
                self.committed_ring[(dep % COMMIT_RING as u64) as usize]
            } else {
                0
            }
        } else if dep < self.next_seq {
            self.rob[self.slot(dep)].completing_at
        } else {
            0
        }
    }

    /// The ROB slot of in-flight entry `seq`.
    #[inline]
    fn slot(&self, seq: u64) -> usize {
        (seq & self.rob_mask) as usize
    }

    /// The oldest in-flight entry, if any.
    fn rob_head(&self) -> Option<Entry> {
        (self.head_seq < self.next_seq).then(|| self.rob[self.slot(self.head_seq)])
    }

    /// Entries in flight.
    fn rob_len(&self) -> u64 {
        self.next_seq - self.head_seq
    }

    /// Event-driven issue: drain the timing wheel into the ready list and
    /// walk only operand-ready entries in program order, so units go to
    /// the oldest ready entries and operand-stalled entries are never
    /// revisited.
    ///
    /// In order, no entry may pass an older unissued one: the walk stops at
    /// the first ready entry that is not `next_in_order`. That covers both
    /// cases. The oldest unissued entry may still wait on an operand, or it
    /// may have failed to issue this cycle (no unit free, out of port
    /// probes, or the cache refused the access, with the retry counted);
    /// the counter only advances on issue, so the walk stops right after
    /// it.
    fn issue(&mut self, cycle: u64, cache: &mut DataCache) {
        // Wake entries whose operands became available by this cycle.
        if self.wheel.has_due(cycle) {
            let mut woken = std::mem::take(&mut self.wake_scratch);
            self.wheel.drain_due(cycle, &mut woken);
            woken.sort_unstable();
            if self.ready.is_empty() {
                std::mem::swap(&mut self.ready, &mut woken);
            } else {
                // Merge the two seq-sorted runs.
                self.merge_scratch.clear();
                let (mut i, mut j) = (0, 0);
                while i < self.ready.len() && j < woken.len() {
                    if self.ready[i] < woken[j] {
                        self.merge_scratch.push(self.ready[i]);
                        i += 1;
                    } else {
                        self.merge_scratch.push(woken[j]);
                        j += 1;
                    }
                }
                self.merge_scratch.extend_from_slice(&self.ready[i..]);
                self.merge_scratch.extend_from_slice(&woken[j..]);
                std::mem::swap(&mut self.ready, &mut self.merge_scratch);
            }
            woken.clear();
            self.wake_scratch = woken;
        }

        let mut int_units = self.cfg.int_units;
        let mut fp_units = self.cfg.fp_units;
        let mut mem_tries = 4u32; // bounded port probing per cycle
        let in_order = self.cfg.in_order;

        // Walk the ready list in program order, compacting the entries
        // that stay (unit- or port-limited) to its front as we go.
        let mut kept = 0;
        let mut walked = 0;
        while walked < self.ready.len() {
            if int_units == 0 && fp_units == 0 {
                break;
            }
            let seq = self.ready[walked];
            if in_order && seq != self.next_in_order {
                break;
            }
            walked += 1;
            let idx = self.slot(seq);
            let e = self.rob[idx];
            let issued = match e.op {
                OpClass::Fp if fp_units == 0 => false,
                OpClass::Fp => {
                    fp_units -= 1;
                    self.fp_iq_occ -= 1;
                    self.rob[idx].completing_at = cycle + 4;
                    let done1 = self.producer_done_at(e.dep1);
                    let done2 = self.producer_done_at(e.dep2);
                    self.record_value_ages(cycle, &e, done1, done2);
                    self.wake_dependents(seq);
                    true
                }
                OpClass::IntAlu | OpClass::Branch | OpClass::IntMul if int_units == 0 => false,
                OpClass::IntAlu | OpClass::Branch | OpClass::IntMul => {
                    int_units -= 1;
                    self.int_iq_occ -= 1;
                    let lat = e.op.fixed_latency().unwrap_or(1);
                    self.rob[idx].completing_at = cycle + lat as u64;
                    let done1 = self.producer_done_at(e.dep1);
                    let done2 = self.producer_done_at(e.dep2);
                    self.record_value_ages(cycle, &e, done1, done2);
                    self.wake_dependents(seq);
                    // A resolving mispredicted branch re-opens fetch.
                    if self.pending_redirect == Some(seq) {
                        self.fetch_blocked_until =
                            self.rob[idx].completing_at + self.cfg.redirect_penalty as u64;
                        self.pending_redirect = None;
                    }
                    true
                }
                OpClass::Load | OpClass::Store if int_units == 0 || mem_tries == 0 => false,
                OpClass::Load | OpClass::Store => {
                    mem_tries -= 1;
                    let kind = if e.op == OpClass::Load {
                        AccessKind::Load
                    } else {
                        AccessKind::Store
                    };
                    match cache.access(cycle, e.addr, kind) {
                        Ok(r) => {
                            int_units -= 1;
                            self.int_iq_occ -= 1;
                            let tlb_extra = if self.dtlb.access(e.addr) {
                                0
                            } else {
                                self.result.dtlb_misses += 1;
                                self.cfg.dtlb_miss_penalty as u64
                            };
                            self.rob[idx].completing_at = cycle + r.latency as u64 + tlb_extra;
                            let done1 = self.producer_done_at(e.dep1);
                            let done2 = self.producer_done_at(e.dep2);
                            self.record_value_ages(cycle, &e, done1, done2);
                            self.wake_dependents(seq);
                            if r.expired {
                                // The scheduler speculated a hit on a line
                                // whose retention had expired: dependents
                                // replay and the front-end stalls while the
                                // pipeline recovers (§4.3.2).
                                self.result.replay_flushes += 1;
                                self.fetch_blocked_until = self
                                    .fetch_blocked_until
                                    .max(cycle + self.cfg.replay_flush_cycles as u64);
                                obs::trace::sim_instant("uarch", "replay.flush", cycle);
                            }
                            true
                        }
                        Err(_) => {
                            self.result.port_retries += 1;
                            obs::trace::sim_instant("uarch", "port.retry", cycle);
                            // Stay in the ready list; retry next cycle.
                            false
                        }
                    }
                }
            };
            if !issued {
                self.ready[kept] = seq;
                kept += 1;
            } else if in_order {
                self.next_in_order += 1;
            }
        }
        // Entries past an early stop were not visited and stay too.
        self.ready.copy_within(walked.., kept);
        let len = self.ready.len() - (walked - kept);
        self.ready.truncate(len);
    }

    /// Producer `pseq` just received a finite completion time: move each
    /// dependent parked on it to the timing wheel, or onto its other
    /// still-unissued producer (each entry is re-examined at most twice).
    fn wake_dependents(&mut self, pseq: u64) {
        let pidx = self.slot(pseq);
        let mut w = std::mem::replace(&mut self.rob[pidx].wait_head, u64::MAX);
        while w != u64::MAX {
            let widx = self.slot(w);
            let next = std::mem::replace(&mut self.rob[widx].wait_next, u64::MAX);
            let (dep1, dep2) = (self.rob[widx].dep1, self.rob[widx].dep2);
            let done1 = self.producer_done_at(dep1);
            let done2 = self.producer_done_at(dep2);
            if done1 == u64::MAX {
                self.park_on(w, dep1);
            } else if done2 == u64::MAX {
                self.park_on(w, dep2);
            } else {
                // The waking producer completes at cycle+latency ≥ cycle+1,
                // so the dependent's ready time is always in the future.
                let at = done1.max(done2);
                self.wheel.push(self.cycle, at, w);
            }
            w = next;
        }
    }

    /// Parks `waiter` on the wait chain of its unissued producer `dep`.
    fn park_on(&mut self, waiter: u64, dep: u64) {
        let didx = self.slot(dep);
        let widx = self.slot(waiter);
        self.rob[widx].wait_next = self.rob[didx].wait_head;
        self.rob[didx].wait_head = waiter;
    }

    /// Places a freshly dispatched entry into the event-driven scheduler:
    /// straight onto the ready list (appending keeps it seq-sorted since
    /// sequence numbers only grow), onto the timing wheel, or parked on an
    /// unissued producer.
    fn schedule_dispatched(&mut self, seq: u64, cycle: u64) {
        let idx = self.slot(seq);
        let (dep1, dep2) = (self.rob[idx].dep1, self.rob[idx].dep2);
        let done1 = self.producer_done_at(dep1);
        let done2 = self.producer_done_at(dep2);
        if done1 == u64::MAX {
            self.park_on(seq, dep1);
        } else if done2 == u64::MAX {
            self.park_on(seq, dep2);
        } else {
            let at = done1.max(done2);
            if at <= cycle {
                self.ready.push(seq);
            } else {
                self.wheel.push(cycle, at, seq);
            }
        }
    }

    /// Records the ages of the operand values an issuing instruction
    /// consumes (cycles since their producers completed).
    fn record_value_ages(&mut self, cycle: u64, e: &Entry, done1: u64, done2: u64) {
        for (dep, done) in [(e.dep1, done1), (e.dep2, done2)] {
            if dep != u64::MAX {
                let age = cycle.saturating_sub(done);
                let bucket = (64 - age.max(1).leading_zeros() as usize).min(15);
                self.result.value_age_hist[bucket] += 1;
            }
        }
    }

    fn dispatch<T: TraceSource + ?Sized>(&mut self, cycle: u64, trace: &mut T) {
        if self.pending_redirect.is_some() || cycle < self.fetch_blocked_until {
            self.result.dispatch_blocked_cycles += 1;
            return;
        }

        // Occupancy limits: unissued entries sit in the issue queues;
        // loads/stores hold LQ/SQ entries until commit. The incremental
        // counters carry exactly what the old full-ROB recount produced
        // (issue-queue drain at issue, LQ/SQ drain at commit).
        for _ in 0..self.cfg.width {
            if self.rob_len() >= self.cfg.rob_entries as u64 {
                self.result.rob_full_stalls += 1;
                break;
            }
            if self.pending_redirect.is_some() || cycle < self.fetch_blocked_until {
                break;
            }

            // Injected I-cache miss before fetching the next instruction
            // (stochastic fallback, used only for PC-less traces).
            if self.icache_countdown == 0 {
                self.icache_countdown = self.icache_interval;
                self.fetch_blocked_until = cycle + self.cfg.icache_miss_penalty as u64;
                self.result.icache_stall_cycles += self.cfg.icache_miss_penalty as u64;
                break;
            }

            // Peek capacity for the worst case before consuming the trace.
            if self.int_iq_occ >= self.cfg.int_iq_entries
                && self.fp_iq_occ >= self.cfg.fp_iq_entries
            {
                self.result.iq_full_stalls += 1;
                break;
            }

            let instr = trace.next_instr();
            if instr.op == OpClass::Load && self.lq_occ >= self.cfg.load_queue {
                // LQ full: model a stall by blocking further dispatch this
                // cycle after placing this load next cycle — simplest is
                // to block fetch one cycle.
                self.fetch_blocked_until = cycle + 1;
                self.result.lsq_full_stalls += 1;
            }
            if instr.op == OpClass::Store && self.sq_occ >= self.cfg.store_queue {
                self.fetch_blocked_until = cycle + 1;
                self.result.lsq_full_stalls += 1;
            }

            let seq = self.next_seq;
            self.next_seq += 1;
            // Real instruction-side model: on a fetch-block transition,
            // probe the I-cache and ITLB; a miss stalls fetch.
            if instr.pc != 0 {
                let block = instr.pc / 64;
                if block != self.last_fetch_block {
                    self.last_fetch_block = block;
                    let mut stall = 0u64;
                    if !self.itlb.access(instr.pc) {
                        stall += self.cfg.dtlb_miss_penalty as u64;
                    }
                    if matches!(self.icache.access(instr.pc & !63), cachesim::l2::L2Outcome::Miss)
                    {
                        stall += self.cfg.icache_miss_penalty as u64;
                    }
                    if stall > 0 {
                        self.fetch_blocked_until = cycle + stall;
                        self.result.icache_stall_cycles += stall;
                    }
                }
            } else {
                self.icache_countdown = self.icache_countdown.saturating_sub(1);
            }

            let dep = |d: Option<u32>| -> u64 {
                match d {
                    Some(dist) if dist as u64 <= seq && dist > 0 => seq - dist as u64,
                    _ => u64::MAX,
                }
            };

            let mut entry = Entry {
                op: instr.op,
                addr: instr.addr.unwrap_or(0),
                dep1: dep(instr.src1),
                dep2: dep(instr.src2),
                completing_at: u64::MAX,
                wait_head: u64::MAX,
                wait_next: u64::MAX,
            };

            if let Some(b) = instr.branch {
                self.result.branches += 1;
                let correct = self.bpred.predict_and_update(b.pc, b.taken);
                if !correct {
                    self.result.mispredictions += 1;
                    self.pending_redirect = Some(seq);
                }
            }

            if instr.op.is_fp() {
                self.fp_iq_occ += 1;
            } else {
                self.int_iq_occ += 1;
            }
            match instr.op {
                OpClass::Load => self.lq_occ += 1,
                OpClass::Store => self.sq_occ += 1,
                _ => {}
            }
            // Clamp dependency distances beyond the commit ring: those
            // producers are long since done.
            if entry.dep1 != u64::MAX && seq - entry.dep1 > COMMIT_RING as u64 {
                entry.dep1 = u64::MAX;
            }
            if entry.dep2 != u64::MAX && seq - entry.dep2 > COMMIT_RING as u64 {
                entry.dep2 = u64::MAX;
            }
            let idx = self.slot(seq);
            self.rob[idx] = entry;
            self.schedule_dispatched(seq, cycle);
        }
    }
}

/// Convenience: run a fresh Table 2 pipeline over a trace and cache.
pub fn simulate<T: TraceSource + ?Sized>(
    trace: &mut T,
    cache: &mut DataCache,
    instructions: u64,
    icache_miss_rate: f64,
) -> SimResult {
    Pipeline::new(MachineConfig::TABLE2, icache_miss_rate).run(trace, cache, instructions)
}

/// Runs `warmup` instructions to train caches and predictors, then
/// measures `instructions` more. Returns the measured segment's pipeline
/// results and the cache statistics accumulated during measurement only.
pub fn simulate_warmed<T: TraceSource + ?Sized>(
    trace: &mut T,
    cache: &mut DataCache,
    warmup: u64,
    instructions: u64,
    icache_miss_rate: f64,
) -> (SimResult, cachesim::CacheStats) {
    simulate_warmed_with(
        MachineConfig::TABLE2,
        trace,
        cache,
        warmup,
        instructions,
        icache_miss_rate,
    )
}

/// [`simulate_warmed`] with an explicit machine configuration (for
/// microarchitectural ablations).
pub fn simulate_warmed_with<T: TraceSource + ?Sized>(
    machine: MachineConfig,
    trace: &mut T,
    cache: &mut DataCache,
    warmup: u64,
    instructions: u64,
    icache_miss_rate: f64,
) -> (SimResult, cachesim::CacheStats) {
    let mut p = Pipeline::new(machine, icache_miss_rate);
    if warmup > 0 {
        let _ = p.run(trace, cache, warmup);
    }
    let snapshot = *cache.stats();
    let r = p.run(trace, cache, instructions);
    (r, cache.stats().delta(&snapshot))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::Instruction;

    fn run_trace(mut f: impl FnMut(u64) -> Instruction, n: u64) -> (SimResult, DataCache) {
        let mut cache = DataCache::ideal();
        let mut i = 0u64;
        let mut src = move || {
            let instr = f(i);
            i += 1;
            instr
        };
        let r = simulate(&mut src, &mut cache, n, 0.0);
        (r, cache)
    }

    #[test]
    fn sim_result_display_is_informative() {
        let (r, _) = run_trace(|_| Instruction::int_alu(), 1_000);
        let s = r.to_string();
        assert!(s.contains("IPC"));
        assert!(s.contains("1000 instrs"));
    }

    #[test]
    fn independent_alu_reaches_full_width() {
        let (r, _) = run_trace(|_| Instruction::int_alu(), 20_000);
        assert!(r.ipc() > 3.5, "ipc={}", r.ipc());
        assert!(r.ipc() <= 4.0 + 1e-9);
    }

    #[test]
    fn serial_dependency_chain_is_ipc_one() {
        let (r, _) = run_trace(|_| Instruction::int_alu().with_src1(1), 20_000);
        assert!((r.ipc() - 1.0).abs() < 0.05, "ipc={}", r.ipc());
    }

    #[test]
    fn serial_multiplies_are_ipc_one_seventh() {
        let (r, _) = run_trace(
            |_| Instruction {
                op: OpClass::IntMul,
                pc: 0,
                src1: Some(1),
                src2: None,
                addr: None,
                branch: None,
            },
            5_000,
        );
        assert!((r.ipc() - 1.0 / 7.0).abs() < 0.01, "ipc={}", r.ipc());
    }

    #[test]
    fn fp_units_cap_throughput() {
        // Independent FP ops: only 2 FP units → IPC ≤ 2.
        let (r, _) = run_trace(
            |_| Instruction {
                op: OpClass::Fp,
                pc: 0,
                src1: None,
                src2: None,
                addr: None,
                branch: None,
            },
            20_000,
        );
        assert!(r.ipc() > 1.7 && r.ipc() <= 2.0 + 1e-9, "ipc={}", r.ipc());
    }

    #[test]
    fn load_hits_pipeline_smoothly() {
        // Independent loads to one hot block: 2 read ports cap at 2/cycle,
        // but 4-wide with other limits; expect ≥ 1.5.
        let (r, cache) = run_trace(|i| Instruction::load(64 * (i % 16), None), 20_000);
        assert!(r.ipc() > 1.5, "ipc={}", r.ipc());
        assert!(cache.stats().hits > 19_000);
    }

    #[test]
    fn dependent_load_chain_costs_hit_latency() {
        // Pointer-chase: each load depends on the previous one: IPC ≈ 1/3.
        let (r, _) = run_trace(|i| Instruction::load(64 * (i % 4), Some(1)), 10_000);
        assert!((r.ipc() - 1.0 / 3.0).abs() < 0.03, "ipc={}", r.ipc());
    }

    #[test]
    fn mispredictions_cost_cycles() {
        // Random branches (50% mispredict) vs biased branches.
        let mut state = 0x853c49e6748fea9bu64;
        let (random, _) = run_trace(
            move |_| {
                // xorshift64*: genuinely unpredictable outcomes.
                state ^= state >> 12;
                state ^= state << 25;
                state ^= state >> 27;
                Instruction::branch(0x100, state.wrapping_mul(0x2545F4914F6CDD1D) >> 63 == 1)
            },
            20_000,
        );
        let (biased, _) = run_trace(|_| Instruction::branch(0x100, true), 20_000);
        assert!(random.mispredict_rate() > 0.2);
        assert!(biased.mispredict_rate() < 0.02);
        assert!(biased.ipc() > random.ipc() * 1.5);
    }

    #[test]
    fn icache_misses_add_stalls() {
        let mut cache = DataCache::ideal();
        let mut src = || Instruction::int_alu();
        let r = Pipeline::new(MachineConfig::TABLE2, 0.01).run(&mut src, &mut cache, 20_000);
        assert!(r.icache_stall_cycles > 0);
        let mut cache2 = DataCache::ideal();
        let mut src2 = || Instruction::int_alu();
        let r2 = Pipeline::new(MachineConfig::TABLE2, 0.0).run(&mut src2, &mut cache2, 20_000);
        assert!(r.ipc() < r2.ipc());
    }

    #[test]
    fn misses_hurt_ipc() {
        // Every load to a fresh block: all misses.
        let (miss, _) = run_trace(|i| Instruction::load(64 * i, Some(1)), 3_000);
        let (hit, _) = run_trace(|i| Instruction::load(64 * (i % 4), Some(1)), 3_000);
        assert!(hit.ipc() > miss.ipc() * 3.0, "hit {} miss {}", hit.ipc(), miss.ipc());
    }

    #[test]
    fn bips_scales_with_frequency() {
        let (r, _) = run_trace(|_| Instruction::int_alu(), 5_000);
        let b1 = r.bips(4.3);
        let b2 = r.bips(4.3 * 0.84);
        assert!((b2 / b1 - 0.84).abs() < 1e-9);
    }

    #[test]
    fn commit_ring_boundary_dependencies_resolve() {
        // Dependencies pointing exactly at and beyond the commit-ring
        // horizon must both resolve (beyond = treated as long done).
        let (r, _) = run_trace(
            |i| {
                let d = if i % 2 == 0 { 511 } else { 513 };
                Instruction::int_alu().with_src1(d.min(64))
            },
            5_000,
        );
        assert_eq!(r.instructions, 5_000);
        assert!(r.ipc() > 1.0);
    }

    #[test]
    fn value_age_histogram_populates() {
        let (r, _) = run_trace(|_| Instruction::int_alu().with_src1(1), 5_000);
        let total: u64 = r.value_age_hist.iter().sum();
        assert!(total > 4_000, "chained ops must record ages, got {total}");
        // A 1-cycle producer-consumer chain: ages concentrate in the
        // first bucket.
        assert!(r.value_age_hist[0] + r.value_age_hist[1] > total / 2);
    }

    #[test]
    fn stall_counters_populate_and_merge() {
        // Random branches keep the front-end blocked often; a serial
        // dependency chain backs the ROB up.
        let mut state = 0x9e3779b97f4a7c15u64;
        let (r, _) = run_trace(
            move |_| {
                state ^= state >> 12;
                state ^= state << 25;
                state ^= state >> 27;
                Instruction::branch(0x40, state.wrapping_mul(0x2545F4914F6CDD1D) >> 63 == 1)
            },
            10_000,
        );
        assert!(r.dispatch_blocked_cycles > 0, "{r:?}");
        let (chain, _) = run_trace(
            |_| Instruction {
                op: OpClass::IntMul,
                pc: 0,
                src1: Some(1),
                src2: None,
                addr: None,
                branch: None,
            },
            20_000,
        );
        assert!(chain.rob_full_stalls > 0, "{chain:?}");

        let mut merged = r;
        merged.merge(&chain);
        assert_eq!(merged.instructions, 30_000);
        assert_eq!(
            merged.dispatch_blocked_cycles,
            r.dispatch_blocked_cycles + chain.dispatch_blocked_cycles
        );

        let mut m = obs::MetricsRegistry::new();
        merged.export(&mut m, "pipe");
        assert_eq!(m.counter("pipe.instructions"), Some(30_000));
        assert_eq!(
            m.counter("pipe.dispatch_blocked_cycles"),
            Some(merged.dispatch_blocked_cycles)
        );
        assert!(m.gauge("pipe.ipc").unwrap() > 0.0);
    }

    #[test]
    fn result_counts_are_consistent() {
        let (r, cache) = run_trace(
            |i| {
                if i % 3 == 0 {
                    Instruction::load(64 * (i % 8), None)
                } else if i % 7 == 0 {
                    Instruction::store(64 * (i % 8), None)
                } else {
                    Instruction::int_alu()
                }
            },
            9_000,
        );
        assert_eq!(r.instructions, 9_000);
        assert!(r.loads > 0 && r.stores > 0);
        // Every committed mem op accessed the cache exactly once; up to a
        // ROB's worth of issued-but-uncommitted ops may remain in flight.
        let accesses = cache.stats().accesses();
        let committed = r.loads + r.stores;
        assert!(
            accesses >= committed && accesses <= committed + 80,
            "accesses {accesses} vs committed mem ops {committed}"
        );
    }
}
