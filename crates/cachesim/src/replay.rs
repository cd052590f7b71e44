//! Deterministic demand-access replay into a cache model.
//!
//! [`AccessReplayer`] drives a stream of `(slot, addr, kind)` demand
//! accesses into any [`DemandSink`] with a fixed retry-next-cycle policy
//! on [`PortBusy`], so two different cache implementations fed the same
//! stream observe *identical* access schedules — the precondition for the
//! golden-model differential harness (`pv3t1d-validate`) and for the
//! trace-replay bench probe to be comparable run to run.
//!
//! The replayer is resumable: [`AccessReplayer::state`] captures the
//! cursor after any access and [`AccessReplayer::resume`] continues the
//! schedule bit-identically, composing with campaign checkpointing.

use crate::cache::{AccessKind, AccessResult, DataCache, PortBusy};

/// Anything that can accept a demand access at a cycle — [`DataCache`]
/// and reference models alike.
pub trait DemandSink {
    /// Attempts one demand access; `Err(PortBusy)` means retry later.
    fn try_access(&mut self, cycle: u64, addr: u64, kind: AccessKind)
        -> Result<AccessResult, PortBusy>;
}

impl DemandSink for DataCache {
    fn try_access(
        &mut self,
        cycle: u64,
        addr: u64,
        kind: AccessKind,
    ) -> Result<AccessResult, PortBusy> {
        self.access(cycle, addr, kind)
    }
}

/// Port-conflict livelock bound: a well-formed cache frees its ports once
/// refresh/move windows close, so thousands of consecutive rejections of
/// one access mean the model under test is broken.
const MAX_RETRIES_PER_ACCESS: u64 = 1 << 20;

/// Replays a demand-access schedule with deterministic retry timing.
///
/// Each access asks for its nominal issue `slot`; the replayer issues it
/// at `max(slot, current cycle)` and retries one cycle later on every
/// [`PortBusy`] until granted. Time never moves backwards, and several
/// accesses may share a granted cycle (the dual-ported L1 serves 2 loads
/// + 1 store per cycle), so port conflicts are exercised, not hidden.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AccessReplayer {
    cycle: u64,
    granted: u64,
    retries: u64,
}

impl AccessReplayer {
    /// A replayer starting at cycle 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Resumes from a [`AccessReplayer::state`] checkpoint.
    pub fn resume(state: (u64, u64, u64)) -> Self {
        let (cycle, granted, retries) = state;
        Self {
            cycle,
            granted,
            retries,
        }
    }

    /// The resumable cursor: `(cycle, granted, retries)`.
    pub fn state(&self) -> (u64, u64, u64) {
        (self.cycle, self.granted, self.retries)
    }

    /// Current cache cycle (the cycle of the last granted access).
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Accesses granted so far.
    pub fn granted(&self) -> u64 {
        self.granted
    }

    /// [`PortBusy`] rejections absorbed so far.
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Issues one access, retrying until the sink grants it.
    ///
    /// # Panics
    ///
    /// Panics if the sink rejects one access `MAX_RETRIES_PER_ACCESS`
    /// (2^20) times — ports that never free indicate a broken model, and
    /// the differential harness must fail loudly rather than hang.
    pub fn step<C: DemandSink>(
        &mut self,
        sink: &mut C,
        slot: u64,
        addr: u64,
        kind: AccessKind,
    ) -> AccessResult {
        let mut t = slot.max(self.cycle);
        let first = t;
        loop {
            match sink.try_access(t, addr, kind) {
                Ok(r) => {
                    self.cycle = t;
                    self.granted += 1;
                    return r;
                }
                Err(PortBusy) => {
                    self.retries += 1;
                    t += 1;
                    assert!(
                        t - first < MAX_RETRIES_PER_ACCESS,
                        "access to {addr:#x} rejected for {MAX_RETRIES_PER_ACCESS} \
                         consecutive cycles starting at {first}: ports never freed"
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{CacheConfig, DataCache};
    use crate::geometry::Geometry;
    use crate::policy::Scheme;
    use crate::retention::RetentionProfile;

    fn addr_for(set: u32, tag: u64) -> u64 {
        Geometry::paper_l1d().address_of(tag, set)
    }

    #[test]
    fn same_slot_accesses_share_a_cycle_until_ports_exhaust() {
        let mut c = DataCache::ideal();
        let mut r = AccessReplayer::new();
        // 2 loads fit in one cycle; the third spills to the next.
        r.step(&mut c, 5, addr_for(0, 1), AccessKind::Load);
        r.step(&mut c, 5, addr_for(1, 1), AccessKind::Load);
        assert_eq!(r.cycle(), 5);
        r.step(&mut c, 5, addr_for(2, 1), AccessKind::Load);
        assert_eq!(r.cycle(), 6);
        assert_eq!(r.retries(), 1);
        assert_eq!(r.granted(), 3);
        assert_eq!(c.stats().port_conflicts, 1);
    }

    #[test]
    fn time_is_monotone_even_for_stale_slots() {
        let mut c = DataCache::ideal();
        let mut r = AccessReplayer::new();
        r.step(&mut c, 100, addr_for(0, 1), AccessKind::Load);
        // A slot in the past issues at the current cycle, never earlier.
        r.step(&mut c, 3, addr_for(1, 1), AccessKind::Store);
        assert_eq!(r.cycle(), 100);
    }

    #[test]
    fn checkpoint_resume_is_bit_identical() {
        let cfg = CacheConfig::paper(Scheme::no_refresh_lru());
        let retention = RetentionProfile::PerLine(vec![6_000; 1024]);
        let schedule: Vec<(u64, u64, AccessKind)> = (0..400u64)
            .map(|i| {
                let kind = if i % 3 == 0 {
                    AccessKind::Store
                } else {
                    AccessKind::Load
                };
                (i / 2, addr_for((i % 16) as u32, 1 + i % 5), kind)
            })
            .collect();

        // Uninterrupted run.
        let mut cache_a = DataCache::new(cfg, retention.clone());
        let mut rep_a = AccessReplayer::new();
        for &(slot, addr, kind) in &schedule {
            rep_a.step(&mut cache_a, slot, addr, kind);
        }

        // Run interrupted at an arbitrary point: the cache survives (as a
        // campaign checkpoint payload would) but the replayer is rebuilt
        // from its persisted cursor.
        let mut cache_b = DataCache::new(cfg, retention);
        let mut rep_b = AccessReplayer::new();
        for &(slot, addr, kind) in &schedule[..150] {
            rep_b.step(&mut cache_b, slot, addr, kind);
        }
        let saved = rep_b.state();
        let mut rep_b = AccessReplayer::resume(saved);
        for &(slot, addr, kind) in &schedule[150..] {
            rep_b.step(&mut cache_b, slot, addr, kind);
        }

        assert_eq!(rep_a.state(), rep_b.state());
        assert_eq!(cache_a.stats(), cache_b.stats());
    }
}
