//! Property-based tests for the out-of-order pipeline model.

use cachesim::DataCache;
use proptest::prelude::*;
use uarch::instr::{Instruction, OpClass};
use uarch::sim::{simulate, Pipeline};
use uarch::tlb::Tlb;
use uarch::{FrontEnd, MachineConfig};

/// Random but well-formed instruction generator driven by a byte stream.
#[derive(Clone)]
struct ByteTrace {
    bytes: Vec<u8>,
    pos: usize,
}

impl ByteTrace {
    fn next_byte(&mut self) -> u8 {
        let b = self.bytes[self.pos % self.bytes.len()];
        self.pos += 1;
        b
    }

    fn next(&mut self) -> Instruction {
        let b = self.next_byte();
        let dep = match self.next_byte() % 4 {
            0 => None,
            d => Some(d as u32),
        };
        match b % 10 {
            0..=2 => {
                let addr = (self.next_byte() as u64) * 64;
                Instruction::load(addr, dep)
            }
            3 => {
                let addr = (self.next_byte() as u64) * 64;
                Instruction::store(addr, dep)
            }
            4 => Instruction::branch(
                0x100 + (self.next_byte() as u64 % 8) * 4,
                !self.next_byte().is_multiple_of(3),
            ),
            5 => Instruction {
                op: OpClass::Fp,
                pc: 0,
                src1: dep,
                src2: None,
                addr: None,
                taken: false,
            },
            _ => {
                let mut i = Instruction::int_alu();
                if let Some(d) = dep {
                    i = i.with_src1(d);
                }
                i
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn ipc_is_bounded_by_machine_width(bytes in proptest::collection::vec(any::<u8>(), 16..256)) {
        let mut t = ByteTrace { bytes, pos: 0 };
        let mut src = move || t.next();
        let mut cache = DataCache::ideal();
        let r = simulate(&mut src, &mut cache, 3_000);
        prop_assert!(r.ipc() > 0.0);
        prop_assert!(r.ipc() <= MachineConfig::TABLE2.width as f64 + 1e-9);
        prop_assert_eq!(r.instructions, 3_000);
    }

    #[test]
    fn simulation_is_deterministic(bytes in proptest::collection::vec(any::<u8>(), 16..128)) {
        let run = |bytes: Vec<u8>| {
            let mut t = ByteTrace { bytes, pos: 0 };
            let mut src = move || t.next();
            let mut cache = DataCache::ideal();
            simulate(&mut src, &mut cache, 2_000)
        };
        let a = run(bytes.clone());
        let b = run(bytes);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn segmented_runs_compose(bytes in proptest::collection::vec(any::<u8>(), 16..128),
                              split in 100u64..1_900) {
        // Running (split) then (total - split) must commit the same total
        // as one run, on the same trace and cache.
        let total = 2_000u64;
        let mut t = ByteTrace { bytes: bytes.clone(), pos: 0 };
        let mut src = move || t.next();
        let mut cache = DataCache::ideal();
        let mut front = FrontEnd::new(&mut src);
        let mut p = Pipeline::new(MachineConfig::TABLE2);
        let r1 = p.run(&mut front, &mut cache, split);
        let r2 = p.run(&mut front, &mut cache, total - split);
        prop_assert_eq!(r1.instructions + r2.instructions, total);

        let mut t2 = ByteTrace { bytes, pos: 0 };
        let mut src2 = move || t2.next();
        let mut cache2 = DataCache::ideal();
        let whole = simulate(&mut src2, &mut cache2, total);
        // Nearly the same total cycles regardless of segmentation: the
        // exact-count commit throttle at the segment boundary may defer a
        // cycle's worth of commits.
        let seg = r1.cycles + r2.cycles;
        // The boundary throttle can shift issue timing (and thus TLB/LRU
        // state) slightly; totals must stay within a few percent.
        prop_assert!(seg.abs_diff(whole.cycles) <= whole.cycles / 20 + 8,
            "segmented {} vs whole {}", seg, whole.cycles);
    }

    #[test]
    fn branch_accounting_is_consistent(bytes in proptest::collection::vec(any::<u8>(), 16..256)) {
        let mut t = ByteTrace { bytes, pos: 0 };
        let mut src = move || t.next();
        let mut cache = DataCache::ideal();
        let r = simulate(&mut src, &mut cache, 3_000);
        prop_assert!(r.mispredictions <= r.branches);
        prop_assert!(r.mispredict_rate() <= 1.0);
    }

    #[test]
    fn memory_ops_reach_the_cache(bytes in proptest::collection::vec(any::<u8>(), 16..256)) {
        let mut t = ByteTrace { bytes, pos: 0 };
        let mut src = move || t.next();
        let mut cache = DataCache::ideal();
        let r = simulate(&mut src, &mut cache, 3_000);
        let accesses = cache.stats().accesses();
        // Every committed mem op accessed the cache; at most a ROB's worth
        // of in-flight ops may exceed the committed count.
        prop_assert!(accesses >= r.loads + r.stores);
        prop_assert!(accesses <= r.loads + r.stores + MachineConfig::TABLE2.rob_entries as u64);
    }

    #[test]
    fn tlb_matches_a_true_lru_list(
        steps in proptest::collection::vec((any::<u8>(), any::<u16>()), 1..400),
        small in any::<bool>(),
    ) {
        // A small TLB over a few more pages than it holds evicts often;
        // the paper's 128 entries over 160 pages exercises the full scan.
        let (capacity, pages) = if small { (4, 6u64) } else { (128, 160u64) };
        let mut tlb = Tlb::new(capacity, 13);
        // Most recent page first.
        let mut lru: Vec<u64> = Vec::new();
        let mut page = 0u64;
        for (i, &(choice, p)) in steps.iter().enumerate() {
            // Half the accesses repeat the most recent page.
            if choice % 2 == 1 {
                page = p as u64 % pages;
            }
            let addr = (page << 13) | (p as u64 & 0x1fff);
            let hit = match lru.iter().position(|&q| q == page) {
                Some(pos) => {
                    lru.remove(pos);
                    true
                }
                None => {
                    lru.truncate(capacity - 1);
                    false
                }
            };
            lru.insert(0, page);
            prop_assert_eq!(tlb.access(addr), hit, "access {}", i);
        }
        let hits = steps.len() as u64 - tlb.misses();
        prop_assert_eq!(tlb.hits(), hits);
        // The resident set, probed oldest first, must all still hit: each
        // probe re-touches one page without evicting any.
        for &q in lru.iter().rev() {
            prop_assert!(tlb.access(q << 13), "page {} not resident", q);
        }
    }
}
