//! Trace-analysis utilities: measure the statistical properties of an
//! instruction stream independently of any cache or pipeline model.
//!
//! Used to validate that the synthetic generators actually produce the
//! locality the profiles promise (stack-distance distributions, footprint
//! growth, instruction mixes) — the calibration evidence behind the
//! DESIGN.md substitution of SPEC2000.

use crate::trace::SyntheticTrace;
use std::collections::{HashSet, VecDeque};
use uarch::instr::{Instruction, OpClass, TraceSource};

/// Measured statistical profile of a finite trace sample.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceStats {
    /// Instructions analyzed.
    pub instructions: u64,
    /// Fraction of loads.
    pub frac_load: f64,
    /// Fraction of stores.
    pub frac_store: f64,
    /// Fraction of branches.
    pub frac_branch: f64,
    /// Fraction of taken branches among branches.
    pub frac_taken: f64,
    /// Distinct 64 B blocks touched.
    pub footprint_blocks: u64,
    /// Block-level LRU stack-distance histogram: counts for distances
    /// `[0,8) [8,64) [64,512) [512,4096) [4096,∞) plus cold`.
    pub stack_distance: [u64; 6],
}

impl TraceStats {
    /// Fraction of memory references whose stack distance is below 512
    /// blocks (comfortably L1-resident at 1024 lines).
    pub fn near_fraction(&self) -> f64 {
        let total: u64 = self.stack_distance.iter().sum();
        if total == 0 {
            return 0.0;
        }
        (self.stack_distance[0] + self.stack_distance[1] + self.stack_distance[2]) as f64
            / total as f64
    }

    /// Fraction of memory references that are cold (first touch).
    pub fn cold_fraction(&self) -> f64 {
        let total: u64 = self.stack_distance.iter().sum();
        if total == 0 {
            return 0.0;
        }
        self.stack_distance[5] as f64 / total as f64
    }
}

/// An exact block-granularity LRU stack-distance profiler.
///
/// O(d) per access where `d` is the observed distance: a reuse finds its
/// block `d` entries deep, removes it, and pushes it back on the front.
#[derive(Debug, Clone, Default)]
pub struct StackDistanceProfiler {
    /// Every block seen, most recent first.
    stack: VecDeque<u64>,
    seen: HashSet<u64>,
    histogram: [u64; 6],
}

impl StackDistanceProfiler {
    /// Creates an empty profiler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a reference to `block`, returning its stack distance
    /// (`None` for a cold first touch).
    pub fn record(&mut self, block: u64) -> Option<usize> {
        if !self.seen.insert(block) {
            let pos = self
                .stack
                .iter()
                .position(|&b| b == block)
                .expect("seen set and stack agree");
            self.stack.remove(pos);
            self.stack.push_front(block);
            let bucket = match pos {
                0..=7 => 0,
                8..=63 => 1,
                64..=511 => 2,
                512..=4095 => 3,
                _ => 4,
            };
            self.histogram[bucket] += 1;
            Some(pos)
        } else {
            self.stack.push_front(block);
            self.histogram[5] += 1;
            None
        }
    }

    /// The bucketed distance histogram.
    pub fn histogram(&self) -> [u64; 6] {
        self.histogram
    }

    /// Distinct blocks seen.
    pub fn footprint(&self) -> u64 {
        self.seen.len() as u64
    }
}

/// Analyzes `n` instructions of a trace.
pub fn analyze(trace: &mut SyntheticTrace, n: u64) -> TraceStats {
    let mut loads = 0u64;
    let mut stores = 0u64;
    let mut branches = 0u64;
    let mut taken = 0u64;
    let mut profiler = StackDistanceProfiler::new();
    for _ in 0..n {
        let i: Instruction = trace.next_instr();
        match i.op {
            OpClass::Load => loads += 1,
            OpClass::Store => stores += 1,
            OpClass::Branch => {
                branches += 1;
                if i.taken {
                    taken += 1;
                }
            }
            _ => {}
        }
        if let Some(a) = i.addr {
            profiler.record(a / 64);
        }
    }
    TraceStats {
        instructions: n,
        frac_load: loads as f64 / n as f64,
        frac_store: stores as f64 / n as f64,
        frac_branch: branches as f64 / n as f64,
        frac_taken: if branches == 0 {
            0.0
        } else {
            taken as f64 / branches as f64
        },
        footprint_blocks: profiler.footprint(),
        stack_distance: profiler.histogram(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::SpecBenchmark;

    #[test]
    fn profiler_distances_are_exact() {
        let mut p = StackDistanceProfiler::new();
        assert_eq!(p.record(10), None); // cold
        assert_eq!(p.record(20), None);
        assert_eq!(p.record(10), Some(1)); // one block above it
        assert_eq!(p.record(10), Some(0)); // immediate reuse
        assert_eq!(p.record(20), Some(1));
        assert_eq!(p.footprint(), 2);
        let h = p.histogram();
        assert_eq!(h[0], 3); // three near reuses
        assert_eq!(h[5], 2); // two cold touches
    }

    #[test]
    fn profiler_matches_a_naive_lru_stack_on_a_random_stream() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        // The reference keeps the stack as a plain Vec, most recent first.
        let mut naive: Vec<u64> = Vec::new();
        let mut naive_hist = [0u64; 6];
        let mut p = StackDistanceProfiler::new();
        let mut rng = SmallRng::seed_from_u64(0x5d);
        // A hot set, a mid-sized one, and a cyclic sweep: every bucket
        // fills, the deepest from the sweep.
        let mut sweep = 0u64;
        for _ in 0..30_000 {
            let r: f64 = rng.gen();
            let block = if r < 0.6 {
                rng.gen_range(0..64u64)
            } else if r < 0.75 {
                rng.gen_range(10_000..11_500u64)
            } else {
                sweep += 1;
                100_000 + sweep % 5_000
            };
            let expected = naive.iter().position(|&b| b == block);
            match expected {
                Some(pos) => {
                    naive.remove(pos);
                    let bucket = [8, 64, 512, 4096]
                        .iter()
                        .position(|&hi| pos < hi)
                        .unwrap_or(4);
                    naive_hist[bucket] += 1;
                }
                None => naive_hist[5] += 1,
            }
            naive.insert(0, block);
            assert_eq!(p.record(block), expected, "block {block}");
        }
        assert_eq!(p.histogram(), naive_hist);
        assert!(naive_hist.iter().all(|&n| n > 0), "{naive_hist:?}");
        assert_eq!(p.footprint(), naive.len() as u64);
    }

    #[test]
    fn analysis_matches_declared_profile() {
        for bench in [SpecBenchmark::Gzip, SpecBenchmark::Mcf] {
            let prof = bench.profile();
            let mut t = SyntheticTrace::new(prof, 3);
            let s = analyze(&mut t, 40_000);
            assert!((s.frac_load - prof.frac_load).abs() < 0.02, "{bench}");
            assert!((s.frac_store - prof.frac_store).abs() < 0.02, "{bench}");
            assert!((s.frac_branch - prof.frac_branch).abs() < 0.02, "{bench}");
            // Near fraction tracks the profile's reuse setting loosely.
            assert!(
                s.near_fraction() > prof.near_reuse - 0.15,
                "{bench}: near {}",
                s.near_fraction()
            );
        }
    }

    #[test]
    fn mcf_has_the_bigger_footprint_and_colder_stream() {
        let mut mcf = SyntheticTrace::new(SpecBenchmark::Mcf.profile(), 3);
        let mut mesa = SyntheticTrace::new(SpecBenchmark::Mesa.profile(), 3);
        let s_mcf = analyze(&mut mcf, 40_000);
        let s_mesa = analyze(&mut mesa, 40_000);
        assert!(s_mcf.footprint_blocks > 2 * s_mesa.footprint_blocks);
        assert!(s_mcf.cold_fraction() > s_mesa.cold_fraction());
    }

    #[test]
    fn branches_are_mostly_taken() {
        // Loop-closing and biased-taken sites dominate: taken > 50 %.
        let mut t = SyntheticTrace::new(SpecBenchmark::Gcc.profile(), 9);
        let s = analyze(&mut t, 40_000);
        assert!(s.frac_taken > 0.5 && s.frac_taken < 0.95, "{}", s.frac_taken);
    }
}
