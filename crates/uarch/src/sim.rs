//! The cycle-level out-of-order pipeline model.
//!
//! A trace-driven model of the Table 2 machine: 4-wide dispatch into an
//! 80-entry ROB, separate INT/FP issue queues, load/store queues, limited
//! functional units, a data TLB, and the retention-aware L1 data cache
//! from [`cachesim`] (with explicit port contention — refresh work in the
//! cache directly back-pressures the pipeline). The branch predictor, the
//! ITLB and the I-cache sit in the [`FrontEnd`], which resolves them in
//! trace order before dispatch; the pipeline reads their outcomes from
//! each [`Fetched`] record and charges the machine's penalties.
//!
//! Modeling conventions (standard for trace-driven OoO studies; see
//! DESIGN.md):
//!
//! * wrong-path instructions are not simulated — a misprediction stalls
//!   dispatch until the branch resolves, plus a redirect penalty;
//! * stores access the cache at execute; memory disambiguation and
//!   store-to-load forwarding are not modeled;
//! * an I-cache or ITLB miss stalls fetch for the machine's penalty;
//!   instructions without a PC skip both.
//!
//! The cycle loop (commit, issue, dispatch) is built so most cycles cost
//! nothing:
//!
//! * the ROB is a power-of-two ring: entry `seq` lives at slot
//!   `seq & mask`, so every lookup is a mask, not a deque offset;
//! * one completion ring, a second power-of-two ring by `seq`, holds every
//!   completion cycle: `u64::MAX` from dispatch until issue writes the
//!   cycle. It covers the ROB plus the last [`COMMIT_RING`] committed
//!   instructions, so commit, the idle skip and operand lookups all read
//!   the same slot, and a producer further back reads as long done;
//! * per-op bookkeeping is arithmetic: a table gives each op class its
//!   unit pool and issue queue, its latency and 0/1 load, store and
//!   branch counts, so dispatch, issue and commit add numbers instead of
//!   branching on the class;
//! * the scheduler is event-driven. Dispatched entries wait on their
//!   producer, then on a calendar timing wheel (one bucket per cycle mod
//!   1024, a bitmap of non-empty buckets, an overflow heap for wake-ups
//!   further out), then in a seq-sorted ready list. An entry stores its
//!   producers' completion cycles when it leaves its wait chains, and
//!   issue reads the operand value ages from there;
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

use crate::calendar::Calendar;
use crate::config::MachineConfig;
use crate::front::{FetchSource, Fetched, FrontEnd, COMMIT_RING};
use crate::instr::{OpClass, TraceSource};
use crate::tlb::Tlb;
use cachesim::{AccessKind, DataCache};

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
    dep: [u64; 2],
    /// The producers' completion cycles (0 for none), stored once both
    /// are known, when the entry leaves its wait chains. A completion time
    /// never changes once set, so issue reads the value ages from here.
    dep_done: [u64; 2],
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
        dep: [u64::MAX; 2],
        dep_done: [0; 2],
        wait_head: u64::MAX,
        wait_next: u64::MAX,
    };
}

/// What issue, dispatch and commit need to know about an op class, as
/// plain numbers, so the per-op bookkeeping is arithmetic, not `match`
/// arms.
#[derive(Debug, Clone, Copy)]
struct ClassInfo {
    /// Unit pool and issue queue: [`INT`] or [`FP`].
    pool: usize,
    /// Execution latency; memory ops take theirs from the cache.
    latency: u64,
    /// Whether issue goes through the data cache and the DTLB.
    mem: bool,
    /// 1 for a load (it holds an LQ entry), else 0.
    load: u32,
    /// 1 for a store (it holds an SQ entry), else 0.
    store: u32,
    /// 1 for a branch, else 0.
    branch: u64,
}

/// Index of the integer unit pool and issue queue.
const INT: usize = 0;
/// Index of the floating-point unit pool and issue queue.
const FP: usize = 1;

impl ClassInfo {
    const fn of(op: OpClass) -> ClassInfo {
        ClassInfo {
            pool: if op.is_fp() { FP } else { INT },
            latency: match op.fixed_latency() {
                Some(cycles) => cycles as u64,
                None => 0,
            },
            mem: op.is_mem(),
            load: matches!(op, OpClass::Load) as u32,
            store: matches!(op, OpClass::Store) as u32,
            branch: matches!(op, OpClass::Branch) as u64,
        }
    }
}

/// [`ClassInfo`] of every op class, indexed by `OpClass as usize`.
const CLASS: [ClassInfo; 6] = {
    let ops = [
        OpClass::IntAlu,
        OpClass::IntMul,
        OpClass::Fp,
        OpClass::Load,
        OpClass::Store,
        OpClass::Branch,
    ];
    let mut table = [ClassInfo::of(OpClass::IntAlu); 6];
    let mut i = 0;
    while i < ops.len() {
        table[ops[i] as usize] = ClassInfo::of(ops[i]);
        i += 1;
    }
    table
};

/// The pipeline simulator. Borrows the cache and the source of fetched
/// instructions.
#[derive(Debug)]
pub struct Pipeline {
    cfg: MachineConfig,
    /// Reorder buffer: a power-of-two ring holding entry `seq` at slot
    /// `seq & rob_mask`; the live entries are `head_seq..next_seq`.
    rob: Vec<Entry>,
    rob_mask: u64,
    /// Completion cycles by sequence number, at slot `seq & done_mask`:
    /// `u64::MAX` from dispatch until issue sets the cycle. The ring holds
    /// the ROB, [`COMMIT_RING`] committed entries and one more slot, so a
    /// producer's time stays readable until it is more than `COMMIT_RING`
    /// back, and the slot of `next_seq` reads `u64::MAX`: the head of an
    /// empty ROB never completes.
    done: Vec<u64>,
    done_mask: u64,
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
    /// Issue-queue capacities, by [`INT`] / [`FP`].
    iq_cap: [u32; 2],
    /// Incremental occupancy counters, kept in lockstep with the ROB:
    /// issue-queue entries (by [`INT`] / [`FP`]) drain at issue, LQ/SQ
    /// entries drain at commit.
    iq_occ: [u32; 2],
    lq_occ: u32,
    sq_occ: u32,
    head_seq: u64,
    next_seq: u64,
    fetch_blocked_until: u64,
    /// Dispatch is stalled until this branch seq resolves (misprediction).
    pending_redirect: Option<u64>,
    result: SimResult,
    cycle: u64,
    dtlb: Tlb,
}

impl Pipeline {
    /// Creates an empty pipeline.
    pub fn new(cfg: MachineConfig) -> Self {
        let rob_slots = (cfg.rob_entries as usize).next_power_of_two();
        let done_slots = (rob_slots + COMMIT_RING + 1).next_power_of_two();
        let mut done = vec![0; done_slots];
        done[0] = u64::MAX;
        Self {
            cfg,
            rob: vec![Entry::VACANT; rob_slots],
            rob_mask: rob_slots as u64 - 1,
            done,
            done_mask: done_slots as u64 - 1,
            ready: Vec::with_capacity(cfg.rob_entries as usize),
            next_in_order: 0,
            wheel: Calendar::new(rob_slots),
            iq_cap: [cfg.int_iq_entries, cfg.fp_iq_entries],
            iq_occ: [0; 2],
            lq_occ: 0,
            sq_occ: 0,
            head_seq: 0,
            next_seq: 0,
            fetch_blocked_until: 0,
            pending_redirect: None,
            result: SimResult::default(),
            cycle: 0,
            dtlb: Tlb::paper_dtlb(),
        }
    }

    /// Runs until `instructions` more have committed, continuing from the
    /// pipeline's current state, and returns the results for *this
    /// segment* only. Calling `run` repeatedly on the same pipeline, cache
    /// and source supports warmup/measure splits.
    pub fn run<F: FetchSource + ?Sized>(
        &mut self,
        fetch: &mut F,
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
            self.dispatch(cycle, fetch);
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
        let head_done = self.head_done();
        let fetch_blocked = next < self.fetch_blocked_until;
        let stall = if self.pending_redirect.is_some() || fetch_blocked {
            &mut self.result.dispatch_blocked_cycles
        } else if self.rob_len() >= self.cfg.rob_entries as u64 {
            &mut self.result.rob_full_stalls
        } else if self.iq_full() {
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
        let width = (self.cfg.width as u64).min(limit);
        let mut n = 0;
        while n < width && self.head_done() <= cycle {
            let class = CLASS[self.rob[self.slot(self.head_seq)].op as usize];
            self.result.loads += class.load as u64;
            self.result.stores += class.store as u64;
            self.lq_occ -= class.load;
            self.sq_occ -= class.store;
            self.head_seq += 1;
            n += 1;
        }
        n
    }

    /// Completion cycle of the oldest in-flight entry: `u64::MAX` while it
    /// is unissued or the ROB is empty.
    #[inline]
    fn head_done(&self) -> u64 {
        self.done[(self.head_seq & self.done_mask) as usize]
    }

    /// Completion cycle of producer `dep`: `u64::MAX` while it is
    /// unissued, 0 for no producer or one committed more than
    /// [`COMMIT_RING`] instructions ago (long done).
    #[inline]
    fn producer_done_at(&self, dep: u64) -> u64 {
        // Read the slot unconditionally (`u64::MAX` masks to a valid one)
        // and select, so the lookup takes no branch.
        let done = self.done[(dep & self.done_mask) as usize];
        let recent = (dep != u64::MAX) & (self.head_seq.saturating_sub(dep) <= COMMIT_RING as u64);
        if recent {
            done
        } else {
            0
        }
    }

    /// The ROB slot of in-flight entry `seq`.
    #[inline]
    fn slot(&self, seq: u64) -> usize {
        (seq & self.rob_mask) as usize
    }

    /// Entries in flight.
    fn rob_len(&self) -> u64 {
        self.next_seq - self.head_seq
    }

    /// Whether both issue queues are full.
    fn iq_full(&self) -> bool {
        self.iq_occ[INT] >= self.iq_cap[INT] && self.iq_occ[FP] >= self.iq_cap[FP]
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
        // The ready list is short and stays sorted but for the few
        // entries appended, so the sort is an insertion pass.
        if self.wheel.has_due(cycle) {
            self.wheel.drain_due(cycle, &mut self.ready);
            self.ready.sort_unstable();
        }

        let mut units = [self.cfg.int_units, self.cfg.fp_units];
        let mut mem_tries = 4u32; // bounded port probing per cycle
        let in_order = self.cfg.in_order;

        // Walk the ready list in program order, compacting the entries
        // that stay (unit- or port-limited) to its front as we go.
        let mut kept = 0;
        let mut walked = 0;
        while walked < self.ready.len() {
            if units[INT] == 0 && units[FP] == 0 {
                break;
            }
            let seq = self.ready[walked];
            if in_order && seq != self.next_in_order {
                break;
            }
            walked += 1;
            let idx = self.slot(seq);
            let op = self.rob[idx].op;
            let class = CLASS[op as usize];
            let latency = if units[class.pool] == 0 {
                None
            } else if !class.mem {
                Some(class.latency)
            } else if mem_tries == 0 {
                None
            } else {
                mem_tries -= 1;
                self.access_memory(cycle, cache, op, self.rob[idx].addr)
            };
            let Some(latency) = latency else {
                // Stay in the ready list; retry next cycle.
                self.ready[kept] = seq;
                kept += 1;
                continue;
            };
            units[class.pool] -= 1;
            self.iq_occ[class.pool] -= 1;
            let done = cycle + latency;
            self.done[(seq & self.done_mask) as usize] = done;
            self.record_value_ages(cycle, idx);
            self.wake_dependents(seq);
            // A resolving mispredicted branch re-opens fetch.
            if self.pending_redirect == Some(seq) {
                self.fetch_blocked_until = done + self.cfg.redirect_penalty as u64;
                self.pending_redirect = None;
            }
            if in_order {
                self.next_in_order += 1;
            }
        }
        // Entries past an early stop were not visited and stay too.
        self.ready.copy_within(walked.., kept);
        let len = self.ready.len() - (walked - kept);
        self.ready.truncate(len);
    }

    /// Issues a load or store to the cache and the DTLB. Returns its
    /// latency, or `None` when the cache refused the port (the retry is
    /// counted).
    fn access_memory(
        &mut self,
        cycle: u64,
        cache: &mut DataCache,
        op: OpClass,
        addr: u64,
    ) -> Option<u64> {
        let kind = if op == OpClass::Load {
            AccessKind::Load
        } else {
            AccessKind::Store
        };
        let Ok(r) = cache.access(cycle, addr, kind) else {
            self.result.port_retries += 1;
            obs::trace::sim_instant("uarch", "port.retry", cycle);
            return None;
        };
        let tlb_extra = if self.dtlb.access(addr) {
            0
        } else {
            self.result.dtlb_misses += 1;
            self.cfg.dtlb_miss_penalty as u64
        };
        if r.expired {
            // The scheduler speculated a hit on a line whose retention had
            // expired: dependents replay and the front-end stalls while
            // the pipeline recovers (§4.3.2).
            self.result.replay_flushes += 1;
            self.fetch_blocked_until = self
                .fetch_blocked_until
                .max(cycle + self.cfg.replay_flush_cycles as u64);
            obs::trace::sim_instant("uarch", "replay.flush", cycle);
        }
        Some(r.latency as u64 + tlb_extra)
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
            // The waking producer completes at cycle+latency ≥ cycle+1,
            // so the dependent's ready time is always in the future.
            if let Some(at) = self.resolve_operands(w) {
                self.wheel.push(self.cycle, at, w);
            }
            w = next;
        }
    }

    /// Looks up entry `seq`'s producers. If one is still unissued, parks
    /// the entry on it and returns `None`; otherwise stores both
    /// completion times on the entry and returns the cycle its operands
    /// are available.
    fn resolve_operands(&mut self, seq: u64) -> Option<u64> {
        let idx = self.slot(seq);
        let [dep1, dep2] = self.rob[idx].dep;
        let done1 = self.producer_done_at(dep1);
        let done2 = self.producer_done_at(dep2);
        if done1 == u64::MAX {
            self.park_on(seq, dep1);
            None
        } else if done2 == u64::MAX {
            self.park_on(seq, dep2);
            None
        } else {
            self.rob[idx].dep_done = [done1, done2];
            Some(done1.max(done2))
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
        if let Some(at) = self.resolve_operands(seq) {
            if at <= cycle {
                self.ready.push(seq);
            } else {
                self.wheel.push(cycle, at, seq);
            }
        }
    }

    /// Records the ages of the operand values the entry at ROB slot `idx`
    /// consumes as it issues (cycles since their producers completed).
    fn record_value_ages(&mut self, cycle: u64, idx: usize) {
        let e = &self.rob[idx];
        for (dep, done) in e.dep.into_iter().zip(e.dep_done) {
            let age = cycle.saturating_sub(done);
            let bucket = (64 - age.max(1).leading_zeros() as usize).min(15);
            self.result.value_age_hist[bucket] += (dep != u64::MAX) as u64;
        }
    }

    fn dispatch<F: FetchSource + ?Sized>(&mut self, cycle: u64, fetch: &mut F) {
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

            // Peek capacity for the worst case before consuming the trace.
            if self.iq_full() {
                self.result.iq_full_stalls += 1;
                break;
            }

            let f = fetch.next_fetched();
            let class = CLASS[f.op as usize];
            let lq_full = class.load & (self.lq_occ >= self.cfg.load_queue) as u32;
            let sq_full = class.store & (self.sq_occ >= self.cfg.store_queue) as u32;
            if lq_full | sq_full != 0 {
                // LQ or SQ full: model a stall by blocking further
                // dispatch this cycle after placing this op next cycle —
                // simplest is to block fetch one cycle.
                self.fetch_blocked_until = cycle + 1;
                self.result.lsq_full_stalls += 1;
            }

            let seq = self.next_seq;
            self.next_seq += 1;
            // An ITLB or I-cache miss on this fetch block stalls fetch.
            let mut stall = 0u64;
            if f.has(Fetched::ITLB_MISS) {
                stall += self.cfg.dtlb_miss_penalty as u64;
            }
            if f.has(Fetched::ICACHE_MISS) {
                stall += self.cfg.icache_miss_penalty as u64;
            }
            if stall > 0 {
                self.fetch_blocked_until = cycle + stall;
                self.result.icache_stall_cycles += stall;
            }
            self.result.branches += class.branch;
            if (class.branch != 0) & f.has(Fetched::MISPREDICTED) {
                self.result.mispredictions += 1;
                self.pending_redirect = Some(seq);
            }

            self.iq_occ[class.pool] += 1;
            self.lq_occ += class.load;
            self.sq_occ += class.store;
            // The front end already dropped producers beyond the commit
            // ring (long since done); 0 means none.
            let dep = |d: u16| {
                let (producer, before_start) = seq.overflowing_sub(d as u64);
                if d == 0 || before_start {
                    u64::MAX
                } else {
                    producer
                }
            };
            let idx = self.slot(seq);
            self.rob[idx] = Entry {
                op: f.op,
                addr: f.addr,
                dep: [dep(f.dep1), dep(f.dep2)],
                dep_done: [0; 2],
                wait_head: u64::MAX,
                wait_next: u64::MAX,
            };
            self.done[(seq & self.done_mask) as usize] = u64::MAX;
            self.done[((seq + 1) & self.done_mask) as usize] = u64::MAX;
            self.schedule_dispatched(seq, cycle);
        }
    }
}

/// Convenience: run a fresh Table 2 pipeline and front end over a trace
/// and cache.
pub fn simulate<T: TraceSource + ?Sized>(
    trace: &mut T,
    cache: &mut DataCache,
    instructions: u64,
) -> SimResult {
    let mut front = FrontEnd::new(trace);
    Pipeline::new(MachineConfig::TABLE2).run(&mut front, cache, instructions)
}

/// Runs `warmup` instructions to train caches and predictors, then
/// measures `instructions` more. Returns the measured segment's pipeline
/// results and the cache statistics accumulated during measurement only.
/// One front end serves both segments.
pub fn simulate_warmed<T: TraceSource + ?Sized>(
    trace: &mut T,
    cache: &mut DataCache,
    warmup: u64,
    instructions: u64,
) -> (SimResult, cachesim::CacheStats) {
    let mut front = FrontEnd::new(trace);
    simulate_warmed_with(MachineConfig::TABLE2, &mut front, cache, warmup, instructions)
}

/// [`simulate_warmed`] over already-fetched instructions, with an explicit
/// machine configuration (for microarchitectural ablations).
pub fn simulate_warmed_with<F: FetchSource + ?Sized>(
    machine: MachineConfig,
    fetch: &mut F,
    cache: &mut DataCache,
    warmup: u64,
    instructions: u64,
) -> (SimResult, cachesim::CacheStats) {
    let mut p = Pipeline::new(machine);
    if warmup > 0 {
        let _ = p.run(fetch, cache, warmup);
    }
    let snapshot = *cache.stats();
    let r = p.run(fetch, cache, instructions);
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
        let r = simulate(&mut src, &mut cache, n);
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
                taken: false,
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
                taken: false,
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

    /// Counts the I-side misses of the records the pipeline fetches.
    struct MissTally<F> {
        fetch: F,
        icache: u64,
        itlb: u64,
    }

    impl<F: FetchSource> FetchSource for MissTally<F> {
        fn next_fetched(&mut self) -> Fetched {
            let f = self.fetch.next_fetched();
            self.icache += f.has(Fetched::ICACHE_MISS) as u64;
            self.itlb += f.has(Fetched::ITLB_MISS) as u64;
            f
        }
    }

    #[test]
    fn icache_misses_add_stalls() {
        // Sixteen instructions per 64 B fetch block; every block is new,
        // and every fourth one opens a new 8 KB page.
        let mut i = 0u64;
        let mut streaming = || {
            let block = i / 16;
            let pc = 0x10_000 + block * 64 + (block / 4) * 8192 + (i % 16) * 4;
            i += 1;
            Instruction::int_alu().at_pc(pc)
        };
        let mut tally = MissTally {
            fetch: FrontEnd::new(&mut streaming),
            icache: 0,
            itlb: 0,
        };
        let r =
            Pipeline::new(MachineConfig::TABLE2).run(&mut tally, &mut DataCache::ideal(), 20_000);
        assert!(tally.icache > 1_000 && tally.itlb > 250, "{} {}", tally.icache, tally.itlb);
        assert_eq!(r.icache_stall_cycles, 12 * tally.icache + 20 * tally.itlb);

        let mut j = 0u64;
        let mut one_block = || {
            j += 1;
            Instruction::int_alu().at_pc(0x10_000 + (j % 16) * 4)
        };
        let warm = simulate(&mut one_block, &mut DataCache::ideal(), 20_000);
        assert_eq!(warm.icache_stall_cycles, 12 + 20, "one cold block, one cold page");
        assert!(r.ipc() < warm.ipc(), "{} vs {}", r.ipc(), warm.ipc());
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
        // Dependencies just inside and just past the commit-ring horizon
        // must both resolve. Even instructions name a producer 511 back,
        // odd ones 513 back. The front end keeps the first once the
        // stream is 511 instructions long and drops the second as long
        // done, so the value ages count exactly the even instructions from
        // 512 on. Instructions fetched past the run's end name no producer,
        // so the ones issued before it stops add nothing.
        let n = 5_000u64;
        let trace = |far: u32| {
            move |i: u64| match i {
                i if i >= n => Instruction::int_alu(),
                i if i % 2 == 0 => Instruction::int_alu().with_src1(511),
                _ => Instruction::int_alu().with_src1(far),
            }
        };
        let (r, _) = run_trace(trace(513), n);
        assert_eq!(r.instructions, n);
        assert!(r.ipc() > 1.0);
        let readers = (511..n).filter(|i| i % 2 == 0).count() as u64;
        let h = r.value_age_hist;
        assert_eq!(h.iter().sum::<u64>(), readers, "{h:?}");
        // The same stream with the odd producers 511 back reads both.
        let (r, _) = run_trace(trace(511), n);
        let h = r.value_age_hist;
        assert_eq!(h.iter().sum::<u64>(), n - 511, "{h:?}");

        // A serial chain of 7-cycle multiplies, each also reading the
        // result from exactly COMMIT_RING instructions back. The chain's
        // producer is still in flight when its consumer dispatches; the
        // far one committed long ago and is read from the completion
        // ring. Instruction i issues 7 cycles after i - 1, so the far
        // value is 7 × 512 - 7 = 3577 cycles old (bucket 12) and the near
        // one 0 cycles old (bucket 1). Reading the far producer as long
        // done would age it by the whole run; reading a recycled slot
        // would park the chain forever.
        struct Chain;
        impl FetchSource for Chain {
            fn next_fetched(&mut self) -> Fetched {
                Fetched {
                    addr: 0,
                    dep1: COMMIT_RING as u16,
                    dep2: 1,
                    op: OpClass::IntMul,
                    flags: 0,
                }
            }
        }
        let n = 5_000u64;
        let r = Pipeline::new(MachineConfig::TABLE2).run(&mut Chain, &mut DataCache::ideal(), n);
        assert_eq!(r.instructions, n);
        assert!((r.ipc() - 1.0 / 7.0).abs() < 0.01, "ipc={}", r.ipc());
        let h = r.value_age_hist;
        let far = n - COMMIT_RING as u64;
        assert!(h[12] >= far && h[1] >= n - 1, "{h:?}");
        assert_eq!(h.iter().sum::<u64>(), h[1] + h[12], "{h:?}");
        // At most the one issued but uncommitted multiply past the end.
        assert!(h[12] <= far + 1 && h[1] <= n, "{h:?}");

        // Mispredicted branches drain the ROB before each dispatch, so
        // every branch's producer sits exactly COMMIT_RING instructions
        // behind the ROB head: the last one the ring still answers for.
        // Each branch takes the same number of cycles, so every value is
        // the same age and lands in one bucket; reading the producer as
        // long done would age it by the whole run, across several.
        struct Redirects;
        impl FetchSource for Redirects {
            fn next_fetched(&mut self) -> Fetched {
                Fetched {
                    addr: 0,
                    dep1: COMMIT_RING as u16,
                    dep2: 0,
                    op: OpClass::Branch,
                    flags: Fetched::MISPREDICTED,
                }
            }
        }
        let n = 3_000u64;
        let r = Pipeline::new(MachineConfig::TABLE2).run(&mut Redirects, &mut DataCache::ideal(), n);
        assert_eq!(r.mispredictions, r.branches);
        let h = r.value_age_hist;
        let far = n - COMMIT_RING as u64;
        let total: u64 = h.iter().sum();
        assert!(total == far || total == far + 1, "{h:?}");
        assert_eq!(h.iter().filter(|&&c| c > 0).count(), 1, "{h:?}");
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
                taken: false,
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
