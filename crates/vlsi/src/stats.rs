//! Descriptive statistics and histogram utilities.
//!
//! Shared by the Monte-Carlo engine and by the experiment harnesses in the
//! downstream crates (retention histograms, frequency distributions,
//! per-chip performance summaries).
//!
//! # Examples
//!
//! ```
//! use vlsi::stats::Summary;
//!
//! let s = Summary::from_iter([1.0, 2.0, 3.0, 4.0]);
//! assert_eq!(s.mean(), 2.5);
//! assert_eq!(s.min(), 1.0);
//! ```

use std::fmt;

/// Running summary of a sample set: count, mean, variance (Welford), min, max.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Summary {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Self {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Builds a summary from any iterator of values.
    #[allow(clippy::should_implement_trait)] // deliberate: a fallible-free convenience
    pub fn from_iter<I: IntoIterator<Item = f64>>(values: I) -> Self {
        let mut s = Self::new();
        for v in values {
            s.push(v);
        }
        s
    }

    /// Adds one observation.
    pub fn push(&mut self, value: f64) {
        self.count += 1;
        let delta = value - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (value - self.mean);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean. Returns 0 for an empty summary.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population standard deviation. Returns 0 for fewer than 2 samples.
    pub fn std_dev(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            (self.m2 / self.count as f64).sqrt()
        }
    }

    /// Coefficient of variation σ/µ. Returns 0 when the mean is 0.
    pub fn cv(&self) -> f64 {
        if self.mean == 0.0 {
            0.0
        } else {
            self.std_dev() / self.mean.abs()
        }
    }

    /// Smallest observation. Returns +∞ for an empty summary.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation. Returns −∞ for an empty summary.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Merges another summary into this one (parallel Welford combine).
    pub fn merge(&mut self, other: &Summary) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.count as f64 / total as f64;
        let m2 = self.m2
            + other.m2
            + delta * delta * (self.count as f64 * other.count as f64) / total as f64;
        self.count = total;
        self.mean = mean;
        self.m2 = m2;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl Extend<f64> for Summary {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for v in iter {
            self.push(v);
        }
    }
}

/// Computes the harmonic mean, the aggregation the paper uses for its
/// 8-benchmark single-number results.
///
/// # Panics
///
/// Panics if `values` is empty or contains a non-positive value.
pub fn harmonic_mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "harmonic mean of empty slice");
    let mut recip_sum = 0.0;
    for &v in values {
        assert!(v > 0.0, "harmonic mean requires positive values, got {v}");
        recip_sum += 1.0 / v;
    }
    values.len() as f64 / recip_sum
}

/// Returns the `q`-quantile (0 ≤ q ≤ 1) of the data by linear interpolation.
/// The input does not need to be sorted.
///
/// # Panics
///
/// Panics if `data` is empty or `q` is outside `[0, 1]`.
pub fn quantile(data: &[f64], q: f64) -> f64 {
    assert!(!data.is_empty(), "quantile of empty slice");
    assert!((0.0..=1.0).contains(&q), "q must be in [0,1], got {q}");
    let mut sorted: Vec<f64> = data.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in quantile input"));
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// The median (0.5 quantile).
///
/// # Panics
///
/// Panics if `data` is empty.
pub fn median(data: &[f64]) -> f64 {
    quantile(data, 0.5)
}

/// A fixed-bin histogram over `[lo, hi)`, with underflow/overflow buckets.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    bins: Vec<u64>,
    underflow: u64,
    overflow: u64,
    total: u64,
}

impl Histogram {
    /// Creates a histogram with `bins` equal-width bins spanning `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0` or `hi <= lo`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "histogram needs at least one bin");
        assert!(hi > lo, "invalid histogram range [{lo}, {hi})");
        Self {
            lo,
            hi,
            bins: vec![0; bins],
            underflow: 0,
            overflow: 0,
            total: 0,
        }
    }

    /// Records one observation.
    pub fn push(&mut self, value: f64) {
        self.total += 1;
        if value < self.lo {
            self.underflow += 1;
        } else if value >= self.hi {
            self.overflow += 1;
        } else {
            let width = (self.hi - self.lo) / self.bins.len() as f64;
            let idx = ((value - self.lo) / width) as usize;
            // Guard against FP edge where value ≈ hi.
            let idx = idx.min(self.bins.len() - 1);
            self.bins[idx] += 1;
        }
    }

    /// Raw bin counts (excluding under/overflow).
    pub fn counts(&self) -> &[u64] {
        &self.bins
    }

    /// Count of values below the range.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Count of values at or above the range end.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total number of recorded observations, including out-of-range ones.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Bin fractions normalized by the total observation count
    /// ("chip probability" axes in the paper's plots).
    pub fn fractions(&self) -> Vec<f64> {
        if self.total == 0 {
            return vec![0.0; self.bins.len()];
        }
        self.bins
            .iter()
            .map(|&c| c as f64 / self.total as f64)
            .collect()
    }

    /// The center of bin `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn bin_center(&self, i: usize) -> f64 {
        assert!(i < self.bins.len(), "bin index {i} out of range");
        let width = (self.hi - self.lo) / self.bins.len() as f64;
        self.lo + (i as f64 + 0.5) * width
    }

    /// Iterator over `(bin_center, fraction)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        let fractions = self.fractions();
        (0..self.bins.len()).map(move |i| (self.bin_center(i), fractions[i]))
    }
}

impl Extend<f64> for Histogram {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for v in iter {
            self.push(v);
        }
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "histogram [{}, {}) n={}", self.lo, self.hi, self.total)?;
        for (center, frac) in self.iter() {
            let bar: String = std::iter::repeat_n('#', (frac * 200.0).round() as usize)
                .collect();
            writeln!(f, "{center:>12.3}  {frac:>7.4} {bar}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basic_moments() {
        let s = Summary::from_iter([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
        assert!((s.cv() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn summary_merge_equals_concat() {
        let a: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 3.0 + 1.0).collect();
        let (left, right) = a.split_at(37);
        let mut s1 = Summary::from_iter(left.iter().copied());
        let s2 = Summary::from_iter(right.iter().copied());
        s1.merge(&s2);
        let full = Summary::from_iter(a.iter().copied());
        assert_eq!(s1.count(), full.count());
        assert!((s1.mean() - full.mean()).abs() < 1e-10);
        assert!((s1.std_dev() - full.std_dev()).abs() < 1e-10);
        assert_eq!(s1.min(), full.min());
        assert_eq!(s1.max(), full.max());
    }

    #[test]
    fn summary_merge_with_empty() {
        let mut empty = Summary::new();
        let s = Summary::from_iter([1.0, 2.0]);
        empty.merge(&s);
        assert_eq!(empty.count(), 2);
        let mut s2 = Summary::from_iter([1.0, 2.0]);
        s2.merge(&Summary::new());
        assert_eq!(s2.count(), 2);
    }

    #[test]
    fn harmonic_mean_matches_definition() {
        let hm = harmonic_mean(&[1.0, 2.0, 4.0]);
        assert!((hm - 3.0 / (1.0 + 0.5 + 0.25)).abs() < 1e-12);
        // HM <= AM always.
        assert!(hm < (1.0 + 2.0 + 4.0) / 3.0);
    }

    #[test]
    #[should_panic(expected = "positive values")]
    fn harmonic_mean_rejects_zero() {
        let _ = harmonic_mean(&[1.0, 0.0]);
    }

    #[test]
    fn quantiles_and_median() {
        let data = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(quantile(&data, 0.0), 1.0);
        assert_eq!(quantile(&data, 1.0), 5.0);
        assert_eq!(median(&data), 3.0);
        assert!((quantile(&data, 0.25) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_bins_and_overflow() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        for v in [-1.0, 0.0, 1.9, 2.0, 5.5, 9.999, 10.0, 42.0] {
            h.push(v);
        }
        assert_eq!(h.total(), 8);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.counts(), &[2, 1, 1, 0, 1]);
        assert!((h.bin_center(0) - 1.0).abs() < 1e-12);
        let fr = h.fractions();
        assert!((fr[0] - 0.25).abs() < 1e-12);
    }

    #[test]
    fn histogram_display_is_nonempty() {
        let mut h = Histogram::new(0.0, 1.0, 2);
        h.push(0.1);
        let s = h.to_string();
        assert!(s.contains("histogram"));
    }
}
