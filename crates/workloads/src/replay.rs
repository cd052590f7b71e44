//! Record-once / replay-many trace sharing.
//!
//! A campaign evaluates the *same* benchmark stream under many cache
//! configurations: the synthetic stream depends only on `(profile, seed)`,
//! never on the cache, so regenerating it per scheme run is pure waste.
//! Neither are the branch predictor, the ITLB or the I-cache, which are
//! fed in trace order (see [`uarch::front`]). [`RecordedTrace`] runs the
//! generator and the front end once and keeps the 16-byte [`Fetched`]
//! records the pipeline consumes; [`ReplayTrace`] is a cheap cursor over
//! that shared read-only buffer, yielding exactly the records a fresh
//! [`FrontEnd`] over a fresh [`SyntheticTrace`] with the same
//! `(profile, seed)` would.

use crate::profile::Profile;
use crate::trace::SyntheticTrace;
use uarch::front::{FetchSource, Fetched, FrontEnd};

/// A fetched prefix of one benchmark's synthetic stream.
///
/// Recording is the only part that pays the generator and front-end cost
/// (RNG, LRU-stack surgery, predictor, ITLB and I-cache); every
/// [`RecordedTrace::replay`] afterwards is an allocation-free slice walk,
/// safe to share read-only across threads.
#[derive(Debug, Clone)]
pub struct RecordedTrace {
    records: Vec<Fetched>,
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
        let records = (0..len).map(|_| front.next_fetched()).collect();
        Self { records }
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
            pos: 0,
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
    records: &'a [Fetched],
    pos: usize,
}

impl FetchSource for ReplayTrace<'_> {
    fn next_fetched(&mut self) -> Fetched {
        let f = *self.records.get(self.pos).unwrap_or_else(|| {
            panic!(
                "ReplayTrace exhausted after {} instructions; record a longer \
                 prefix (warmup + instructions + in-flight slack)",
                self.records.len()
            )
        });
        self.pos += 1;
        f
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::SpecBenchmark;

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
}
