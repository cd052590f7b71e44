//! The pipeline's operand wake-up wheel, as a calendar ring.
//!
//! Bucket `t & (SLOTS - 1)` lists the sequence numbers that become ready
//! at cycle `t`, for every `t` less than [`SLOTS`] cycles ahead of the
//! cycle that scheduled it; a bitmap marks the non-empty buckets, and the
//! rare later wake-up waits in an overflow heap. The lists are intrusive:
//! each bucket keeps its first sequence number, and a ROB-sized link
//! array, indexed like the ROB by `seq & mask`, chains the rest, so
//! scheduling never allocates.
//!
//! The pipeline drains the wheel at every cycle it executes, and it only
//! skips cycles up to the wheel's next due cycle, so a bucket never holds
//! two different cycles: an entry for `t + SLOTS` can only be scheduled
//! after cycle `t`'s bucket was drained.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Buckets in the ring (a power of two, one per cycle).
pub(crate) const SLOTS: usize = 1024;
const MASK: u64 = SLOTS as u64 - 1;
const WORDS: usize = SLOTS / 64;
/// End of a bucket's list.
const NONE: u64 = u64::MAX;

#[derive(Debug)]
pub(crate) struct Calendar {
    /// First sequence number of each bucket's list.
    heads: Vec<u64>,
    /// Next sequence number in the same bucket, at slot `seq & seq_mask`.
    links: Vec<u64>,
    seq_mask: u64,
    /// Bit `b` is set while bucket `b` is non-empty.
    occupied: [u64; WORDS],
    /// Wake-ups `SLOTS` or more cycles ahead, keyed by `(cycle, seq)`.
    far: BinaryHeap<Reverse<(u64, u64)>>,
}

impl Calendar {
    /// A wheel for sequence numbers of which at most `capacity` (a power
    /// of two) are scheduled at once, all distinct modulo `capacity`.
    pub(crate) fn new(capacity: usize) -> Self {
        debug_assert!(capacity.is_power_of_two());
        Self {
            heads: vec![NONE; SLOTS],
            links: vec![NONE; capacity],
            seq_mask: capacity as u64 - 1,
            occupied: [0; WORDS],
            far: BinaryHeap::new(),
        }
    }

    /// Schedules `seq` to wake at cycle `at`, from cycle `now < at`.
    pub(crate) fn push(&mut self, now: u64, at: u64, seq: u64) {
        debug_assert!(at > now, "wake-up at {at} scheduled from cycle {now}");
        if at - now < SLOTS as u64 {
            let b = (at & MASK) as usize;
            self.links[(seq & self.seq_mask) as usize] = self.heads[b];
            self.heads[b] = seq;
            self.occupied[b / 64] |= 1 << (b % 64);
        } else {
            self.far.push(Reverse((at, seq)));
        }
    }

    /// Whether anything wakes at or before cycle `now`.
    pub(crate) fn has_due(&self, now: u64) -> bool {
        let b = (now & MASK) as usize;
        self.occupied[b / 64] & (1 << (b % 64)) != 0
            || matches!(self.far.peek(), Some(&Reverse((t, _))) if t <= now)
    }

    /// Appends everything that wakes at or before cycle `now` to `out`,
    /// in no particular order.
    pub(crate) fn drain_due(&mut self, now: u64, out: &mut Vec<u64>) {
        let b = (now & MASK) as usize;
        let mut seq = std::mem::replace(&mut self.heads[b], NONE);
        self.occupied[b / 64] &= !(1 << (b % 64));
        while seq != NONE {
            out.push(seq);
            seq = self.links[(seq & self.seq_mask) as usize];
        }
        while let Some(&Reverse((t, seq))) = self.far.peek() {
            if t > now {
                break;
            }
            self.far.pop();
            out.push(seq);
        }
    }

    /// The earliest cycle after `now` at which something wakes, or
    /// `u64::MAX` when the wheel is empty. Everything still on the wheel
    /// wakes after `now`, because cycle `now` has been drained.
    pub(crate) fn next_due(&self, now: u64) -> u64 {
        let far = self.far.peek().map_or(u64::MAX, |&Reverse((t, _))| t);
        // Scan the bitmap cyclically from bucket now + 1.
        let start = ((now + 1) & MASK) as usize;
        let (w0, b0) = (start / 64, start % 64);
        let first = self.occupied[w0] & (!0u64 << b0);
        let hit = if first != 0 {
            Some(w0 * 64 + first.trailing_zeros() as usize)
        } else {
            (1..=WORDS).find_map(|k| {
                let w = (w0 + k) % WORDS;
                let word = if w == w0 {
                    self.occupied[w] & !(!0u64 << b0)
                } else {
                    self.occupied[w]
                };
                (word != 0).then(|| w * 64 + word.trailing_zeros() as usize)
            })
        };
        let near = hit.map_or(u64::MAX, |b| now + 1 + ((b + SLOTS - start) % SLOTS) as u64);
        near.min(far)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drains_each_cycle_exactly_once_in_and_beyond_the_ring() {
        let mut c = Calendar::new(8);
        let mut out = Vec::new();
        // From cycle 10: near, ring-edge and overflow wake-ups.
        for (at, seq) in [(11, 1), (11, 2), (1033, 3), (1034, 4), (5000, 5)] {
            c.push(10, at, seq);
        }
        assert_eq!(c.next_due(10), 11);
        assert!(c.has_due(11) && !c.has_due(10));
        c.drain_due(11, &mut out);
        out.sort_unstable();
        assert_eq!(out, [1, 2]);
        out.clear();
        assert_eq!(c.next_due(11), 1033);
        c.drain_due(1033, &mut out);
        assert_eq!(out, [3]);
        out.clear();
        assert_eq!(c.next_due(1033), 1034);
        c.drain_due(1034, &mut out);
        assert_eq!(out, [4]);
        out.clear();
        assert_eq!(c.next_due(1034), 5000);
        c.drain_due(5000, &mut out);
        assert_eq!(out, [5]);
        assert_eq!(c.next_due(5000), u64::MAX);
    }

    #[test]
    fn next_due_wraps_around_the_ring() {
        let mut c = Calendar::new(8);
        // Bucket index below the scan start: found on the wrapped pass.
        c.push(2040, 2050, 7);
        assert_eq!(c.next_due(2040), 2050);
        c.push(2040, 2040 + SLOTS as u64 - 1, 8);
        let mut out = Vec::new();
        c.drain_due(2050, &mut out);
        assert_eq!(out, [7]);
        assert_eq!(c.next_due(2050), 2040 + SLOTS as u64 - 1);
    }
}
