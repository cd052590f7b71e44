//! Per-line retention profiles and the line-counter quantization (§4.3.1).
//!
//! After fabrication each line's retention time is measured by built-in
//! self test and stored in a per-line counter. The counters tick on a
//! global clock of period `N` cycles (the *counter step*), so a line's
//! usable lifetime is quantized down to `min(⌊ret/N⌋, 2^bits − 1) · N`
//! cycles, and a line whose retention is below one step is **dead**.
//!
//! # Examples
//!
//! ```
//! use cachesim::retention::{CounterSpec, RetentionProfile};
//!
//! let profile = RetentionProfile::uniform_cycles(10_000, 4);
//! let spec = CounterSpec::default();
//! assert_eq!(spec.ticks(10_000), 7); // clamped at 2^3 − 1
//! assert!(!profile.is_dead(0, &spec));
//! ```

use vlsi::units::{Frequency, Time};

/// The line-counter hardware parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CounterSpec {
    /// Counter clock period in core cycles (the step `N`).
    pub step_cycles: u32,
    /// Counter width in bits (3 in the paper, ≈10 % area overhead).
    pub bits: u32,
}

impl CounterSpec {
    /// The paper's design point: 3-bit counters. The default step of 1024
    /// cycles (≈238 ns at 4.3 GHz) keeps sub-µs lines alive while letting
    /// the counter span ≈1.7 µs.
    pub const DEFAULT: CounterSpec = CounterSpec {
        step_cycles: 1024,
        bits: 3,
    };

    /// Maximum tick count representable.
    pub fn max_ticks(&self) -> u32 {
        (1u32 << self.bits) - 1
    }

    /// Quantized tick count for a retention of `ret_cycles`.
    pub fn ticks(&self, ret_cycles: u64) -> u32 {
        let t = ret_cycles / self.step_cycles as u64;
        t.min(self.max_ticks() as u64) as u32
    }

    /// Usable (quantized) lifetime in cycles for a retention.
    pub fn usable_cycles(&self, ret_cycles: u64) -> u64 {
        self.ticks(ret_cycles) as u64 * self.step_cycles as u64
    }

    /// Whether a line with this retention is dead (below one counter step).
    pub fn is_dead(&self, ret_cycles: u64) -> bool {
        self.ticks(ret_cycles) == 0
    }
}

impl CounterSpec {
    /// Sizes the counter step for a chip, per §4.3.1: "larger retention
    /// time requires larger N so that for the counter with the same number
    /// of bits, it can count more". The step is chosen so the chip's 90th-
    /// percentile line retention fits the 3-bit range (rounded to a power
    /// of two, clamped to [256, 8192] cycles); lines below one step are
    /// dead.
    pub fn for_retentions(ret_cycles: &[u64]) -> CounterSpec {
        let bits = 3u32;
        if ret_cycles.is_empty() {
            return CounterSpec::DEFAULT;
        }
        let mut sorted: Vec<u64> = ret_cycles.to_vec();
        sorted.sort_unstable();
        let p90 = sorted[(sorted.len() - 1) * 9 / 10];
        let max_ticks = (1u64 << bits) - 1;
        let raw = (p90 / max_ticks).max(1);
        let step = raw.next_power_of_two().clamp(256, 8192) as u32;
        CounterSpec {
            step_cycles: step,
            bits,
        }
    }

    /// [`CounterSpec::for_retentions`] for a profile (falls back to the
    /// default for infinite-retention profiles).
    pub fn for_profile(profile: &RetentionProfile) -> CounterSpec {
        match profile {
            RetentionProfile::Infinite => CounterSpec::DEFAULT,
            RetentionProfile::PerLine(v) => Self::for_retentions(v),
        }
    }
}

impl Default for CounterSpec {
    fn default() -> Self {
        Self::DEFAULT
    }
}

/// The retention capability of every line of a cache.
#[derive(Debug, Clone, PartialEq)]
pub enum RetentionProfile {
    /// A 6T SRAM (or idealized) cache: data never expires.
    Infinite,
    /// Per-line retention in core clock cycles, indexed by
    /// [`crate::geometry::Geometry::line_index`].
    PerLine(Vec<u64>),
}

impl RetentionProfile {
    /// Builds a per-line profile from physical retention times at a core
    /// frequency (3T1D chips always run at the nominal clock — §2.2).
    pub fn from_times(retentions: &[Time], clock: Frequency) -> Self {
        let per_line = retentions
            .iter()
            .map(|t| (t.value() * clock.value()).max(0.0) as u64)
            .collect();
        RetentionProfile::PerLine(per_line)
    }

    /// A profile where every line has the same retention (the global-scheme
    /// abstraction, or synthetic sensitivity sweeps).
    pub fn uniform_cycles(ret_cycles: u64, lines: u32) -> Self {
        RetentionProfile::PerLine(vec![ret_cycles; lines as usize])
    }

    /// Retention of one line in cycles (`u64::MAX` when infinite).
    ///
    /// # Panics
    ///
    /// Panics if `line` is out of range for a per-line profile.
    pub fn cycles(&self, line: u32) -> u64 {
        match self {
            RetentionProfile::Infinite => u64::MAX,
            RetentionProfile::PerLine(v) => v[line as usize],
        }
    }

    /// Quantized usable lifetime of a line under a counter spec
    /// (`u64::MAX` when infinite).
    pub fn usable_cycles(&self, line: u32, spec: &CounterSpec) -> u64 {
        match self {
            RetentionProfile::Infinite => u64::MAX,
            RetentionProfile::PerLine(_) => spec.usable_cycles(self.cycles(line)),
        }
    }

    /// Whether a line is dead under a counter spec.
    pub fn is_dead(&self, line: u32, spec: &CounterSpec) -> bool {
        match self {
            RetentionProfile::Infinite => false,
            RetentionProfile::PerLine(_) => spec.is_dead(self.cycles(line)),
        }
    }

    /// The number of lines this profile covers (`None` when infinite).
    pub fn lines(&self) -> Option<u32> {
        match self {
            RetentionProfile::Infinite => None,
            RetentionProfile::PerLine(v) => Some(v.len() as u32),
        }
    }

    /// The minimum retention over all lines — the *cache retention time*
    /// the §4.2 global scheme must refresh within (`u64::MAX` if infinite).
    pub fn min_cycles(&self) -> u64 {
        match self {
            RetentionProfile::Infinite => u64::MAX,
            RetentionProfile::PerLine(v) => v.iter().copied().min().unwrap_or(u64::MAX),
        }
    }

    /// Fraction of dead lines under a counter spec (0 for infinite).
    pub fn dead_fraction(&self, spec: &CounterSpec) -> f64 {
        match self {
            RetentionProfile::Infinite => 0.0,
            RetentionProfile::PerLine(v) => {
                if v.is_empty() {
                    return 0.0;
                }
                let dead = v.iter().filter(|&&r| spec.is_dead(r)).count();
                dead as f64 / v.len() as f64
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_quantization() {
        let spec = CounterSpec {
            step_cycles: 1000,
            bits: 3,
        };
        assert_eq!(spec.max_ticks(), 7);
        assert_eq!(spec.ticks(0), 0);
        assert_eq!(spec.ticks(999), 0);
        assert_eq!(spec.ticks(1000), 1);
        assert_eq!(spec.ticks(6999), 6);
        assert_eq!(spec.ticks(1_000_000), 7);
        assert_eq!(spec.usable_cycles(6999), 6000);
        assert!(spec.is_dead(999));
        assert!(!spec.is_dead(1000));
    }

    #[test]
    fn counter_sizing_tracks_the_chip() {
        // A long-retention chip gets a coarse step so the 3-bit counter
        // spans it; a short-retention chip gets a fine step.
        let long = CounterSpec::for_retentions(&[40_000; 100]);
        assert!(long.step_cycles >= 4096, "step {}", long.step_cycles);
        assert!(long.usable_cycles(40_000) >= 28_000);
        let short = CounterSpec::for_retentions(&[3_000; 100]);
        assert!(short.step_cycles <= 512, "step {}", short.step_cycles);
        // Clamps hold at the extremes.
        assert_eq!(CounterSpec::for_retentions(&[100; 4]).step_cycles, 256);
        assert_eq!(CounterSpec::for_retentions(&[10_000_000; 4]).step_cycles, 8192);
        // Infinite profiles use the default.
        assert_eq!(
            CounterSpec::for_profile(&RetentionProfile::Infinite),
            CounterSpec::DEFAULT
        );
    }

    #[test]
    fn counter_sizing_uses_p90_not_outliers() {
        // One golden line must not blow up the step for a short-lived chip.
        let mut rets = vec![4_000u64; 99];
        rets.push(1_000_000);
        let spec = CounterSpec::for_retentions(&rets);
        assert!(spec.step_cycles <= 1024, "step {}", spec.step_cycles);
    }

    #[test]
    fn profile_from_times_converts_to_cycles() {
        let clock = Frequency::from_ghz(4.3);
        let p = RetentionProfile::from_times(
            &[Time::from_ns(1900.0), Time::from_ns(0.0), Time::from_us(5.0)],
            clock,
        );
        assert_eq!(p.lines(), Some(3));
        assert_eq!(p.cycles(0), 8170); // 1900 ns × 4.3 GHz
        assert_eq!(p.cycles(1), 0);
        assert_eq!(p.min_cycles(), 0);
    }

    #[test]
    fn infinite_profile_never_expires() {
        let p = RetentionProfile::Infinite;
        let spec = CounterSpec::default();
        assert_eq!(p.cycles(12345), u64::MAX);
        assert!(!p.is_dead(0, &spec));
        assert_eq!(p.usable_cycles(7, &spec), u64::MAX);
        assert_eq!(p.dead_fraction(&spec), 0.0);
        assert_eq!(p.min_cycles(), u64::MAX);
    }

    #[test]
    fn dead_fraction_counts_sub_step_lines() {
        let spec = CounterSpec {
            step_cycles: 1000,
            bits: 3,
        };
        let p = RetentionProfile::PerLine(vec![500, 1500, 0, 9000]);
        assert!((p.dead_fraction(&spec) - 0.5).abs() < 1e-12);
        assert!(p.is_dead(0, &spec));
        assert!(!p.is_dead(1, &spec));
    }

    #[test]
    fn uniform_profile() {
        let p = RetentionProfile::uniform_cycles(5000, 8);
        assert_eq!(p.lines(), Some(8));
        for i in 0..8 {
            assert_eq!(p.cycles(i), 5000);
        }
    }

    #[test]
    #[should_panic]
    fn out_of_range_line_panics() {
        let p = RetentionProfile::PerLine(vec![1, 2]);
        let _ = p.cycles(5);
    }
}
