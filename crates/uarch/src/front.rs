//! The instruction-side front end, resolved ahead of the pipeline.
//!
//! The tournament predictor, the ITLB and the L1I are fed in trace order
//! as instructions are fetched, so their outcomes are a property of the
//! trace: no pipeline timing and no data-cache state reaches them.
//! [`FrontEnd`] runs the three models once per instruction and hands the
//! pipeline a 16-byte [`Fetched`] record holding their outcomes; the
//! pipeline applies the machine's penalties. A stored sequence of records
//! (`workloads::RecordedTrace`) therefore replays the same front end under
//! every cache and machine without running the models again. The data TLB
//! is fed at issue, whose timing the cache decides, so it stays in the
//! pipeline.

use crate::bpred::TournamentPredictor;
use crate::instr::{OpClass, TraceSource};
use crate::tlb::Tlb;
use cachesim::l2::L2Outcome;
use cachesim::{Geometry, TagCache};

/// Producers more than this many instructions back are long since
/// committed: the pipeline keeps completion times for this many, so a
/// [`Fetched`] dependency distance never exceeds it.
pub const COMMIT_RING: usize = 512;

/// One fetched instruction with its front-end outcomes resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fetched {
    /// Byte address of a load or store (0 for other ops).
    pub addr: u64,
    /// Distance back to the first operand's producer, or 0 for none. A
    /// producer before the stream's start or past the pipeline's commit
    /// ring (512 instructions) reads as none.
    pub dep1: u16,
    /// Distance back to the second operand's producer (same encoding).
    pub dep2: u16,
    /// Functional class.
    pub op: OpClass,
    /// Outcome bits: [`Fetched::MISPREDICTED`], [`Fetched::ITLB_MISS`]
    /// and [`Fetched::ICACHE_MISS`].
    pub flags: u8,
}

const _: () = assert!(std::mem::size_of::<Fetched>() <= 16);

impl Fetched {
    /// The predictor got the branch wrong: dispatch waits for it to
    /// resolve.
    pub const MISPREDICTED: u8 = 1;
    /// Fetching it crossed into a page the ITLB missed.
    pub const ITLB_MISS: u8 = 1 << 1;
    /// Fetching it crossed into a block the L1I missed.
    pub const ICACHE_MISS: u8 = 1 << 2;

    /// Whether every bit of `flag` is set.
    #[inline]
    pub fn has(self, flag: u8) -> bool {
        self.flags & flag == flag
    }
}

/// A source of front-end-resolved instructions, the pipeline's input
/// (always infinite; the simulator decides how many to run).
pub trait FetchSource {
    /// Produces the next fetched instruction.
    fn next_fetched(&mut self) -> Fetched;
}

/// Wraps a [`TraceSource`] and resolves its instructions' front end.
///
/// One front end must last as long as the stream it fetches from, warm-up
/// included, so that its predictor and caches carry their trained state
/// into the measurement.
pub struct FrontEnd<'a, T: ?Sized> {
    trace: &'a mut T,
    bpred: TournamentPredictor,
    /// Table 2: 64 KB 4-way I-cache, 128-entry fully-associative ITLB.
    icache: TagCache,
    itlb: Tlb,
    last_fetch_block: u64,
    /// Instructions fetched so far (the next one's sequence number).
    fetched: u64,
}

impl<'a, T: TraceSource + ?Sized> FrontEnd<'a, T> {
    /// A cold front end over `trace`. Instructions that carry a PC go
    /// through the ITLB and the L1I; those without one (PC 0) skip both.
    pub fn new(trace: &'a mut T) -> Self {
        Self {
            trace,
            bpred: TournamentPredictor::new(),
            icache: TagCache::new(Geometry::new(64 * 1024, 64, 4)),
            itlb: Tlb::new(128, 13),
            last_fetch_block: u64::MAX,
            fetched: 0,
        }
    }
}

impl<T: TraceSource + ?Sized> FetchSource for FrontEnd<'_, T> {
    fn next_fetched(&mut self) -> Fetched {
        let instr = self.trace.next_instr();
        let seq = self.fetched;
        self.fetched += 1;
        let mut flags = 0;
        if instr.pc != 0 {
            // A fetch-block transition probes the ITLB and the I-cache.
            let block = instr.pc / 64;
            if block != self.last_fetch_block {
                self.last_fetch_block = block;
                if !self.itlb.access(instr.pc) {
                    flags |= Fetched::ITLB_MISS;
                }
                if matches!(self.icache.access(instr.pc & !63), L2Outcome::Miss) {
                    flags |= Fetched::ICACHE_MISS;
                }
            }
        }
        if instr.op == OpClass::Branch && !self.bpred.predict_and_update(instr.pc, instr.taken) {
            flags |= Fetched::MISPREDICTED;
        }
        let horizon = seq.min(COMMIT_RING as u64);
        let dep = |d: Option<u32>| match d {
            Some(dist) if dist > 0 && dist as u64 <= horizon => dist as u16,
            _ => 0,
        };
        Fetched {
            addr: instr.addr.unwrap_or(0),
            dep1: dep(instr.src1),
            dep2: dep(instr.src2),
            op: instr.op,
            flags,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::Instruction;

    #[test]
    fn dependencies_clamp_to_the_stream_start_and_the_commit_ring() {
        let mut i = 0u32;
        let mut src = || {
            i += 1;
            Instruction::int_alu().with_src1(3).with_src2(i.min(600))
        };
        let mut front = FrontEnd::new(&mut src);
        let deps: Vec<(u16, u16)> = (0..600)
            .map(|_| front.next_fetched())
            .map(|f| (f.dep1, f.dep2))
            .collect();
        // Instruction n (from 0) names producers 3 and n + 1 back.
        assert_eq!(deps[0], (0, 0));
        assert_eq!(deps[2], (0, 0));
        assert_eq!(deps[3], (3, 0));
        assert_eq!(deps[511], (3, 0));
        assert_eq!(deps[599], (3, 0));
        let mut j = 0u32;
        let mut near = || {
            j += 1;
            Instruction::int_alu().with_src1(j.min(512))
        };
        let mut front = FrontEnd::new(&mut near);
        let last = (0..600).map(|_| front.next_fetched()).last().unwrap();
        assert_eq!(last.dep1, 512);
    }

    #[test]
    fn a_fetch_block_is_probed_once_per_transition() {
        let mut pc = 0x1000u64;
        let mut src = || {
            pc += 4;
            Instruction::int_alu().at_pc(pc)
        };
        let mut front = FrontEnd::new(&mut src);
        let misses = (0..64)
            .filter(|_| front.next_fetched().has(Fetched::ICACHE_MISS))
            .count();
        // PCs 0x1004..=0x1100 span five 64 B blocks, each probed once.
        assert_eq!(misses, 5);
    }

    #[test]
    fn branch_outcomes_train_the_predictor() {
        let mut src = || Instruction::branch(0x400, true);
        let mut front = FrontEnd::new(&mut src);
        let mispredicted = (0..200)
            .map(|_| front.next_fetched())
            .inspect(|f| assert_eq!(f.op, OpClass::Branch))
            .filter(|f| f.has(Fetched::MISPREDICTED))
            .count();
        assert!(mispredicted < 20, "{mispredicted}");
    }
}
