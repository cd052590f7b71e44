//! Record-once / replay-many trace sharing.
//!
//! A campaign evaluates the *same* benchmark stream under many cache
//! configurations: the synthetic stream depends only on `(profile, seed)`,
//! never on the cache, so regenerating it per scheme run is pure waste.
//! Neither are the branch predictor, the ITLB or the I-cache, which are
//! fed in trace order (see [`uarch::front`]). [`RecordedTrace`] runs the
//! generator and the front end once and keeps each [`Fetched`] record the
//! pipeline consumes packed into 4 bytes, with the addresses of loads and
//! stores in a side stream; [`ReplayTrace`] is a cheap cursor over that
//! shared read-only buffer, yielding exactly the records a fresh
//! [`FrontEnd`] over a fresh [`SyntheticTrace`] with the same
//! `(profile, seed)` would.

use crate::profile::Profile;
use crate::trace::SyntheticTrace;
use uarch::front::{FetchSource, Fetched, FrontEnd, COMMIT_RING};
use uarch::OpClass;

/// Bits of a packed record's `dep1` (bits 0–9) and `dep2` (bits 10–19).
const DEP_BITS: u32 = 10;
const DEP_MASK: u32 = (1 << DEP_BITS) - 1;
/// Mask of the 3-bit op code and of the 3 flag bits.
const FIELD3_MASK: u32 = 0b111;
/// Shifts of the op code, the flag bits and the has-address bit.
const OP_SHIFT: u32 = 2 * DEP_BITS;
const FLAGS_SHIFT: u32 = OP_SHIFT + 3;
const ADDR_SHIFT: u32 = FLAGS_SHIFT + 3;

/// Every [`OpClass`], at the index of its code.
const OPS: [OpClass; 6] = [
    OpClass::IntAlu,
    OpClass::IntMul,
    OpClass::Fp,
    OpClass::Load,
    OpClass::Store,
    OpClass::Branch,
];

/// `op`'s 3-bit code. The match is exhaustive, so a new [`OpClass`]
/// variant does not build until it has a code and a slot in [`OPS`].
#[inline]
const fn op_code(op: OpClass) -> u32 {
    match op {
        OpClass::IntAlu => 0,
        OpClass::IntMul => 1,
        OpClass::Fp => 2,
        OpClass::Load => 3,
        OpClass::Store => 4,
        OpClass::Branch => 5,
    }
}

/// [`OPS`] padded to every 3-bit code, so decoding needs no bounds check.
/// The spare codes are never written.
const OP_BY_CODE: [OpClass; FIELD3_MASK as usize + 1] = {
    let mut table = [OpClass::IntAlu; FIELD3_MASK as usize + 1];
    let mut code = 0;
    while code < OPS.len() {
        assert!(op_code(OPS[code]) as usize == code, "an op must sit at its code");
        table[code] = OPS[code];
        code += 1;
    }
    table
};

const _: () = {
    assert!(COMMIT_RING <= DEP_MASK as usize, "a dependency distance must fit 10 bits");
    let flags = Fetched::MISPREDICTED | Fetched::ITLB_MISS | Fetched::ICACHE_MISS;
    assert!(flags as u32 & !FIELD3_MASK == 0, "every flag must fit 3 bits");
    assert!(OPS.len() <= OP_BY_CODE.len(), "an op code must fit 3 bits");
};

/// Packs every field of `f` but its address, and whether it has one.
#[inline]
fn pack(f: Fetched) -> u32 {
    assert!(
        u32::from(f.dep1.max(f.dep2)) <= DEP_MASK && u32::from(f.flags) <= FIELD3_MASK,
        "record does not fit its packed fields: {f:?}"
    );
    u32::from(f.dep1)
        | u32::from(f.dep2) << DEP_BITS
        | op_code(f.op) << OP_SHIFT
        | u32::from(f.flags) << FLAGS_SHIFT
        | u32::from(f.addr != 0) << ADDR_SHIFT
}

/// Whether a packed record has an address in the side stream.
#[inline]
fn has_addr(word: u32) -> bool {
    word >> ADDR_SHIFT & 1 == 1
}

/// The record `word` packs, with address `addr` (0 unless it has one).
#[inline]
fn unpack(word: u32, addr: u64) -> Fetched {
    Fetched {
        addr,
        dep1: (word & DEP_MASK) as u16,
        dep2: (word >> DEP_BITS & DEP_MASK) as u16,
        op: OP_BY_CODE[(word >> OP_SHIFT & FIELD3_MASK) as usize],
        flags: (word >> FLAGS_SHIFT & FIELD3_MASK) as u8,
    }
}

/// A fetched prefix of one benchmark's synthetic stream.
///
/// Recording is the only part that pays the generator and front-end cost
/// (RNG, LRU-stack surgery, predictor, ITLB and I-cache); every
/// [`RecordedTrace::replay`] afterwards is an allocation-free slice walk,
/// safe to share read-only across threads.
///
/// A record takes 4 bytes, and a record with a nonzero address 8 more in
/// the address stream, where [`Fetched`] takes 16.
#[derive(Debug, Clone)]
pub struct RecordedTrace {
    /// One packed record per instruction.
    records: Vec<u32>,
    /// The nonzero addresses, in record order, then one padding word
    /// that a record without an address reads and masks off.
    addrs: Vec<u64>,
}

impl RecordedTrace {
    /// Records the first `len` instructions of `SyntheticTrace::new(profile,
    /// seed)` as fetched by a cold [`FrontEnd`].
    ///
    /// Size `len` to the consumer: a warmed pipeline run fetches at most
    /// `warmup + instructions` committed instructions plus the in-flight
    /// tail bounded by the ROB (see [`ReplayTrace`]'s exhaustion panic).
    pub fn record(profile: Profile, seed: u64, len: u64) -> Self {
        let mut src = SyntheticTrace::new(profile, seed);
        let mut front = FrontEnd::new(&mut src);
        Self::pack_all((0..len).map(|_| front.next_fetched()))
    }

    /// Packs `fetched` as it is produced.
    fn pack_all(fetched: impl Iterator<Item = Fetched>) -> Self {
        let mut records = Vec::with_capacity(fetched.size_hint().0);
        let mut addrs = Vec::new();
        for f in fetched {
            records.push(pack(f));
            if f.addr != 0 {
                addrs.push(f.addr);
            }
        }
        addrs.push(0);
        addrs.shrink_to_fit();
        Self { records, addrs }
    }

    /// Number of recorded instructions.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// A fresh cursor over the recorded stream, starting at instruction 0.
    /// Feed it to a fresh pipeline: the records' dependency distances
    /// count from the stream's start.
    pub fn replay(&self) -> ReplayTrace<'_> {
        ReplayTrace {
            records: &self.records,
            addrs: &self.addrs,
            pos: 0,
            addr_pos: 0,
        }
    }
}

/// A read-only cursor over a [`RecordedTrace`].
///
/// # Panics
///
/// [`FetchSource::next_fetched`] panics if the recording is exhausted — a
/// silent wrap or synthetic refill would desynchronize results from the
/// un-recorded stream, so running off the end is a hard configuration error
/// (record a longer prefix).
#[derive(Debug, Clone)]
pub struct ReplayTrace<'a> {
    records: &'a [u32],
    addrs: &'a [u64],
    pos: usize,
    /// Index of the next record's address, if it has one.
    addr_pos: usize,
}

impl FetchSource for ReplayTrace<'_> {
    fn next_fetched(&mut self) -> Fetched {
        let word = *self.records.get(self.pos).unwrap_or_else(|| {
            panic!(
                "ReplayTrace exhausted after {} instructions; record a longer \
                 prefix (warmup + instructions + in-flight slack)",
                self.records.len()
            )
        });
        self.pos += 1;
        // Every record reads the next address; one without keeps it unread
        // and masks it to 0, so the select takes no branch.
        let has = has_addr(word);
        let addr = self.addrs[self.addr_pos] & u64::from(has).wrapping_neg();
        self.addr_pos += usize::from(has);
        unpack(word, addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::SpecBenchmark;
    use proptest::prelude::*;

    #[test]
    fn replay_is_bit_identical_to_a_fresh_front_end() {
        let profile = SpecBenchmark::Gcc.profile();
        let recorded = RecordedTrace::record(profile, 1234, 5_000);
        let mut fresh = SyntheticTrace::new(profile, 1234);
        let mut front = FrontEnd::new(&mut fresh);
        let mut replay = recorded.replay();
        for i in 0..5_000 {
            assert_eq!(replay.next_fetched(), front.next_fetched(), "instr {i}");
        }
        assert_eq!(recorded.len(), 5_000);
    }

    #[test]
    fn two_replays_are_independent_cursors() {
        let recorded = RecordedTrace::record(SpecBenchmark::Mcf.profile(), 9, 100);
        let mut a = recorded.replay();
        let mut b = recorded.replay();
        let first = a.next_fetched();
        let _ = a.next_fetched();
        assert_eq!(b.next_fetched(), first, "cursors must not share position");
    }

    #[test]
    #[should_panic(expected = "ReplayTrace exhausted")]
    fn exhaustion_panics_instead_of_wrapping() {
        let recorded = RecordedTrace::record(SpecBenchmark::Gzip.profile(), 1, 10);
        let mut r = recorded.replay();
        for _ in 0..11 {
            let _ = r.next_fetched();
        }
    }

    #[test]
    #[should_panic(expected = "does not fit its packed fields")]
    fn a_dependency_past_ten_bits_is_refused() {
        let f = Fetched {
            addr: 0,
            dep1: 1 << DEP_BITS,
            dep2: 0,
            op: OpClass::IntAlu,
            flags: 0,
        };
        let _ = RecordedTrace::pack_all(std::iter::once(f));
    }

    #[test]
    fn recordings_hold_under_eight_bytes_a_record() {
        const LEN: usize = 20_000;
        for bench in SpecBenchmark::ALL {
            let t = RecordedTrace::record(bench.profile(), 7, LEN as u64);
            let held = t.records.capacity() * 4 + t.addrs.capacity() * 8;
            let with_addr = t.records.iter().filter(|&&w| has_addr(w)).count();
            let share = with_addr as f64 / LEN as f64;
            assert!(held < 8 * LEN, "{bench}: {held} bytes for {LEN} records");
            let bound = (4.0 + 8.0 * share) * LEN as f64 + 8.0;
            assert!(held as f64 <= bound, "{bench}: {held} bytes > {bound} at address share {share}");
        }
    }

    /// Any record the front end can produce: an op, dependency distances
    /// within the commit ring, a subset of the flags, and any address,
    /// including one on a non-memory op.
    fn fetched() -> impl Strategy<Value = Fetched> {
        let ring = COMMIT_RING as u16;
        let addr = prop_oneof![Just(0), 1..4096u64, Just(u64::MAX), any::<u64>()];
        (0..OPS.len(), 0..=ring, 0..=ring, 0u8..8, addr).prop_map(|(op, dep1, dep2, flags, addr)| Fetched {
            addr,
            dep1,
            dep2,
            op: OPS[op],
            flags,
        })
    }

    proptest! {
        #[test]
        fn packed_records_round_trip(records in proptest::collection::vec(fetched(), 1..64)) {
            let t = RecordedTrace::pack_all(records.iter().copied());
            let mut replay = t.replay();
            for (i, &f) in records.iter().enumerate() {
                prop_assert_eq!(replay.next_fetched(), f, "record {}", i);
            }
        }
    }

    #[test]
    fn every_op_flag_subset_and_extreme_field_round_trips() {
        let ring = COMMIT_RING as u16;
        let mut records = Vec::new();
        for op in OPS {
            for flags in 0..8 {
                for (dep1, dep2) in [(0, 0), (1, ring), (ring, 0), (ring, ring)] {
                    for addr in [0, 1, 0x7fff_ffc0, u64::MAX] {
                        records.push(Fetched {
                            addr,
                            dep1,
                            dep2,
                            op,
                            flags,
                        });
                    }
                }
            }
        }
        let t = RecordedTrace::pack_all(records.iter().copied());
        let replayed: Vec<Fetched> = {
            let mut r = t.replay();
            (0..records.len()).map(|_| r.next_fetched()).collect()
        };
        assert_eq!(replayed, records);
    }
}
