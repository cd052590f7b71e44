//! The cache's per-line event queues (line expiry and in-place refresh).
//!
//! Each line has at most one pending event, due at the cycle its latest
//! [`LineQueue::schedule`] asked for, tagged with the line epoch of that
//! call. Events come out in `(due, line)` order. A line's data change
//! bumps its epoch; the caller drops a popped event whose epoch is no
//! longer the line's.
//!
//! Rescheduling a line to a later cycle, the common case (every store to
//! a dirty line moves its expiry out), leaves the queued heap entry where
//! it is: when that entry comes due, it is pushed again at the line's
//! current due cycle. Only a move to an earlier cycle (a line moved into
//! a shorter-lived way, or stored to before a refresh it was granted
//! ahead of time completes) pushes another entry; the one it supersedes
//! is dropped when it pops. So the heap holds one entry per line with an
//! event, plus the rare superseded ones, however many stores a run makes.

use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};

/// One line's pending event.
#[derive(Debug, Clone, Copy)]
struct Pending {
    /// The cycle the latest [`LineQueue::schedule`] asked for.
    due: u64,
    /// The line epoch that call carried.
    epoch: u32,
    /// The due cycle of the line's live heap entry, `u64::MAX` for none.
    /// At most `due`.
    queued: u64,
}

/// Per-line events in `(due, line)` order, at most one pending per line.
#[derive(Debug, Clone)]
pub(crate) struct LineQueue {
    lines: Vec<Pending>,
    heap: BinaryHeap<Reverse<(u64, u32)>>,
}

impl LineQueue {
    /// An empty queue over `lines` lines.
    pub(crate) fn new(lines: usize) -> Self {
        Self {
            lines: vec![
                Pending {
                    due: u64::MAX,
                    epoch: 0,
                    queued: u64::MAX,
                };
                lines
            ],
            heap: BinaryHeap::new(),
        }
    }

    /// Sets line `idx`'s pending event to `due`, tagged with `epoch`,
    /// replacing any event it had.
    pub(crate) fn schedule(&mut self, idx: u32, due: u64, epoch: u32) {
        let p = &mut self.lines[idx as usize];
        p.due = due;
        p.epoch = epoch;
        if due < p.queued {
            p.queued = due;
            self.heap.push(Reverse((due, idx)));
        }
    }

    /// Removes and returns the next event due at or before `cycle`, as
    /// `(due, line, epoch)`, in `(due, line)` order.
    pub(crate) fn pop_due(&mut self, cycle: u64) -> Option<(u64, u32, u32)> {
        while let Some(mut top) = self.heap.peek_mut() {
            let Reverse((due, idx)) = *top;
            if due > cycle {
                return None;
            }
            let p = &mut self.lines[idx as usize];
            if p.queued != due {
                // Superseded by an earlier entry for the same line.
                PeekMut::pop(top);
            } else if p.due > due {
                // The line's event moved later: requeue the entry there,
                // in place.
                p.queued = p.due;
                *top = Reverse((p.due, idx));
            } else {
                p.queued = u64::MAX;
                PeekMut::pop(top);
                return Some((due, idx, p.epoch));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The queue the cache kept before: one heap entry per schedule call,
    /// each stale once its line's epoch moves on.
    type Naive = BinaryHeap<Reverse<(u64, u32, u32)>>;

    #[derive(Debug, Clone)]
    enum Op {
        /// Bump the line's epoch and schedule it `ahead` cycles out.
        Schedule { line: u32, ahead: u64 },
        /// Bump the line's epoch without scheduling (its data changed and
        /// needs no event).
        Bump { line: u32 },
        /// Advance time and drain everything due.
        Advance { by: u64 },
    }

    fn op(lines: u32) -> impl Strategy<Value = Op> {
        (0..8u32, 0..lines, 1..400u64, 0..150u64).prop_map(|(kind, line, ahead, by)| match kind {
            0..=3 => Op::Schedule { line, ahead },
            4 => Op::Bump { line },
            _ => Op::Advance { by },
        })
    }

    /// The next live event due by `now` in the new queue, skipping stale
    /// ones the way the cache does.
    fn next_live(q: &mut LineQueue, epochs: &[u32], now: u64) -> Option<(u64, u32)> {
        while let Some((due, line, epoch)) = q.pop_due(now) {
            if epochs[line as usize] == epoch {
                return Some((due, line));
            }
        }
        None
    }

    /// The same from the naive heap.
    fn next_live_naive(n: &mut Naive, epochs: &[u32], now: u64) -> Option<(u64, u32)> {
        while let Some(&Reverse((due, line, epoch))) = n.peek() {
            if due > now {
                break;
            }
            n.pop();
            if epochs[line as usize] == epoch {
                return Some((due, line));
            }
        }
        None
    }

    /// Runs `ops` on both queues in lockstep and returns the live events
    /// each drained, as `(due, line)`. A drained event reschedules its
    /// line `again` cycles later when `again` is set, the way a refreshed
    /// line comes due again.
    #[allow(clippy::type_complexity)]
    fn run(
        ops: &[Op],
        lines: u32,
        again: Option<u64>,
    ) -> (Vec<Option<(u64, u32)>>, Vec<Option<(u64, u32)>>) {
        let mut epochs = vec![0u32; lines as usize];
        let mut q = LineQueue::new(lines as usize);
        let mut naive = Naive::default();
        let (mut got, mut want) = (Vec::new(), Vec::new());
        let mut now = 0u64;
        for op in ops {
            match *op {
                Op::Schedule { line, ahead } => {
                    let e = &mut epochs[line as usize];
                    *e = e.wrapping_add(1);
                    q.schedule(line, now + ahead, *e);
                    naive.push(Reverse((now + ahead, line, *e)));
                }
                Op::Bump { line } => {
                    let e = &mut epochs[line as usize];
                    *e = e.wrapping_add(1);
                }
                Op::Advance { by } => {
                    now += by;
                    loop {
                        let a = next_live(&mut q, &epochs, now);
                        let b = next_live_naive(&mut naive, &epochs, now);
                        got.push(a);
                        want.push(b);
                        let Some((due, line)) = b else { break };
                        if let Some(gap) = again {
                            let e = &mut epochs[line as usize];
                            *e = e.wrapping_add(1);
                            q.schedule(line, due + gap, *e);
                            naive.push(Reverse((due + gap, line, *e)));
                        }
                    }
                }
            }
        }
        (got, want)
    }

    proptest! {
        #[test]
        fn drains_the_same_live_events_as_the_per_store_heap(
            ops in proptest::collection::vec(op(8), 1..200),
            again in 0..300u64,
        ) {
            // 0: a drained event schedules nothing.
            let (got, want) = run(&ops, 8, (again > 0).then_some(again));
            prop_assert_eq!(got, want);
        }
    }

    #[test]
    fn a_later_reschedule_keeps_one_entry() {
        let mut q = LineQueue::new(2);
        for (t, e) in [(100, 1), (150, 2), (200, 3)] {
            q.schedule(0, t, e);
        }
        assert_eq!(q.heap.len(), 1);
        assert_eq!(q.pop_due(199), None);
        assert_eq!(q.heap.len(), 1, "re-queued at the line's current due");
        assert_eq!(q.pop_due(200), Some((200, 0, 3)));
        assert_eq!(q.pop_due(u64::MAX), None);
    }

    #[test]
    fn an_earlier_reschedule_supersedes_the_queued_entry() {
        let mut q = LineQueue::new(2);
        q.schedule(1, 300, 1);
        q.schedule(1, 120, 2);
        q.schedule(0, 120, 1);
        assert_eq!(q.pop_due(1000), Some((120, 0, 1)));
        assert_eq!(q.pop_due(1000), Some((120, 1, 2)));
        assert_eq!(q.pop_due(1000), None, "the 300 entry was superseded");
    }
}
