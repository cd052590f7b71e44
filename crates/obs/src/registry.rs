//! The metrics registry: named counters, gauges, and fixed-bucket
//! histograms, with JSON round-tripping and a determinism fingerprint.
//!
//! Naming convention (relied on by [`MetricsRegistry::deterministic_fingerprint`]):
//!
//! * metric names are dot-separated paths, e.g. `fig09.scheme.RSP-FIFO.hits`;
//! * anything that measures *time or scheduling* — and therefore legally
//!   differs between two runs of the same experiment — either lives under
//!   a `campaign.` prefix or ends in `_seconds` / `.seconds`. Everything
//!   else must be bit-identical run-to-run under a fixed seed, whatever
//!   the worker count.

use crate::json::Json;
use std::collections::BTreeMap;

/// Counter bumped whenever a non-finite gauge value is rejected at the
/// registry boundary (see [`MetricsRegistry::set_gauge`]). A non-zero
/// value in a manifest flags that some instrument produced NaN/Inf —
/// the value was dropped rather than written as JSON `null`.
pub const NONFINITE_DROPPED: &str = "metrics.nonfinite_dropped";

/// A fixed-bucket linear histogram over `[lo, hi)` with explicit
/// underflow/overflow counts.
#[derive(Debug, Clone, PartialEq)]
pub struct FixedHistogram {
    lo: f64,
    hi: f64,
    /// Reciprocal of the bucket width, precomputed at construction so
    /// [`FixedHistogram::record`] bucketizes with one multiply instead of
    /// re-deriving the (rounded) width per call. Derived from
    /// `lo`/`hi`/`buckets.len()`, so equal shapes always carry equal
    /// values and JSON round-trips reconstruct it exactly.
    inv_width: f64,
    buckets: Vec<u64>,
    underflow: u64,
    overflow: u64,
    count: u64,
    sum: f64,
}

impl FixedHistogram {
    /// Creates a histogram with `n` equal-width buckets spanning `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `hi <= lo` or `n == 0`.
    pub fn new(lo: f64, hi: f64, n: usize) -> Self {
        assert!(hi > lo, "histogram range must be non-empty");
        assert!(n > 0, "histogram needs at least one bucket");
        Self {
            lo,
            hi,
            inv_width: n as f64 / (hi - lo),
            buckets: vec![0; n],
            underflow: 0,
            overflow: 0,
            count: 0,
            sum: 0.0,
        }
    }

    /// Reconstructs a histogram from pre-counted buckets (e.g. importing a
    /// simulator's internal histogram array). `sum` may be an estimate;
    /// `count` is recomputed from the buckets.
    pub fn from_buckets(
        lo: f64,
        hi: f64,
        buckets: Vec<u64>,
        underflow: u64,
        overflow: u64,
        sum: f64,
    ) -> Self {
        assert!(hi > lo && !buckets.is_empty(), "invalid histogram shape");
        let count = buckets.iter().sum::<u64>() + underflow + overflow;
        Self {
            lo,
            hi,
            inv_width: buckets.len() as f64 / (hi - lo),
            buckets,
            underflow,
            overflow,
            count,
            sum,
        }
    }

    /// Records one observation. In-range values bucketize with the
    /// precomputed reciprocal width — `(value - lo) * inv_width`, clamped
    /// to the last bucket — so every call uses the identical rounding and
    /// exactly-representable bucket boundaries land in the upper bucket.
    ///
    /// Non-finite observations are dropped without counting: a NaN would
    /// both land in a bucket via the `as usize` cast (NaN casts to 0) and
    /// poison `sum`, which JSON renders as `null` and which breaks the
    /// manifest round-trip.
    pub fn record(&mut self, value: f64) {
        if !value.is_finite() {
            return;
        }
        self.count += 1;
        self.sum += value;
        if value < self.lo {
            self.underflow += 1;
        } else if value >= self.hi {
            self.overflow += 1;
        } else {
            let i = (((value - self.lo) * self.inv_width) as usize).min(self.buckets.len() - 1);
            self.buckets[i] += 1;
        }
    }

    /// Total observations (including under/overflow).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean observation, or 0 for an empty histogram.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// The in-range bucket counts.
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Observations below `lo`.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Observations at or above `hi`.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// `(lo, hi)` bounds.
    pub fn bounds(&self) -> (f64, f64) {
        (self.lo, self.hi)
    }

    /// Estimates the `p`-quantile (`0.0 ..= 1.0`) by linear interpolation
    /// within the bucket where the cumulative count crosses `p * count`,
    /// assuming observations are uniformly spread inside each bucket —
    /// the standard Prometheus-style histogram estimator.
    ///
    /// The estimate is always clamped to [`FixedHistogram::bounds`]:
    /// quantiles falling into the underflow mass report `lo` and those in
    /// the overflow mass report `hi` (the histogram does not know how far
    /// out those observations actually were). Returns `None` for an empty
    /// histogram or a `p` outside `[0, 1]` (including NaN).
    pub fn quantile(&self, p: f64) -> Option<f64> {
        if self.count == 0 || !(0.0..=1.0).contains(&p) {
            return None;
        }
        let target = p * self.count as f64;
        let mut cumulative = self.underflow as f64;
        if target <= cumulative {
            return Some(self.lo);
        }
        let width = (self.hi - self.lo) / self.buckets.len() as f64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let next = cumulative + c as f64;
            if target <= next {
                let frac = (target - cumulative) / c as f64;
                // Clamp: float rounding in the width multiply must not
                // push the estimate an ulp past the declared bounds.
                return Some((self.lo + (i as f64 + frac) * width).clamp(self.lo, self.hi));
            }
            cumulative = next;
        }
        // Only the overflow mass remains above the target.
        Some(self.hi)
    }

    /// The `(p50, p90, p99)` triple used by the exposition endpoints and
    /// the report renderer. `None` when the histogram is empty.
    pub fn quantile_summary(&self) -> Option<(f64, f64, f64)> {
        Some((
            self.quantile(0.50)?,
            self.quantile(0.90)?,
            self.quantile(0.99)?,
        ))
    }

    /// Adds another histogram's counts into this one.
    ///
    /// # Panics
    ///
    /// Panics if the shapes (bounds or bucket count) differ.
    pub fn merge(&mut self, other: &FixedHistogram) {
        assert!(
            self.lo == other.lo && self.hi == other.hi && self.buckets.len() == other.buckets.len(),
            "merging histograms of different shapes"
        );
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.underflow += other.underflow;
        self.overflow += other.overflow;
        self.count += other.count;
        self.sum += other.sum;
    }

    fn to_json(&self) -> Json {
        let mut o = Json::object();
        o.insert("lo", Json::Num(self.lo));
        o.insert("hi", Json::Num(self.hi));
        o.insert(
            "buckets",
            Json::Arr(self.buckets.iter().map(|&c| Json::Num(c as f64)).collect()),
        );
        o.insert("underflow", Json::Num(self.underflow as f64));
        o.insert("overflow", Json::Num(self.overflow as f64));
        o.insert("count", Json::Num(self.count as f64));
        o.insert("sum", Json::Num(self.sum));
        o
    }

    fn from_json(v: &Json) -> Option<Self> {
        let lo = v.get("lo")?.as_f64()?;
        let hi = v.get("hi")?.as_f64()?;
        let buckets: Option<Vec<u64>> = v.get("buckets")?.as_arr()?.iter().map(Json::as_u64).collect();
        let buckets = buckets?;
        let mut h = Self {
            lo,
            hi,
            inv_width: buckets.len() as f64 / (hi - lo),
            buckets,
            underflow: v.get("underflow")?.as_u64()?,
            overflow: v.get("overflow")?.as_u64()?,
            count: v.get("count")?.as_u64()?,
            sum: v.get("sum")?.as_f64()?,
        };
        if h.hi <= h.lo || h.buckets.is_empty() {
            return None;
        }
        // Trust the recorded count only if consistent; recompute otherwise.
        let derived = h.buckets.iter().sum::<u64>() + h.underflow + h.overflow;
        if h.count != derived {
            h.count = derived;
        }
        Some(h)
    }
}

/// A registry of named metrics, the in-memory half of a run manifest.
///
/// Deliberately not thread-safe: the workspace's campaign engine merges
/// worker results on the coordinating thread after the fan-out joins, so
/// metrics are always recorded from one place. (A `Mutex<MetricsRegistry>`
/// works where concurrent recording is genuinely needed.)
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, FixedHistogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `by` to a counter, creating it at zero first if absent.
    pub fn inc(&mut self, name: &str, by: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += by;
    }

    /// Sets a counter to an absolute value.
    pub fn set_counter(&mut self, name: &str, value: u64) {
        self.counters.insert(name.to_string(), value);
    }

    /// Sets a gauge. Non-finite values are rejected at this boundary —
    /// the JSON layer renders them as `null`, which would silently
    /// corrupt the manifest round-trip and fingerprint — and counted
    /// under [`NONFINITE_DROPPED`] instead.
    pub fn set_gauge(&mut self, name: &str, value: f64) {
        if !value.is_finite() {
            self.inc(NONFINITE_DROPPED, 1);
            return;
        }
        self.gauges.insert(name.to_string(), value);
    }

    /// Returns the named histogram, creating it with the given shape on
    /// first use. The shape of an existing histogram wins.
    pub fn histogram(&mut self, name: &str, lo: f64, hi: f64, n: usize) -> &mut FixedHistogram {
        self.histograms
            .entry(name.to_string())
            .or_insert_with(|| FixedHistogram::new(lo, hi, n))
    }

    /// Inserts (or replaces) a fully-built histogram.
    pub fn put_histogram(&mut self, name: &str, h: FixedHistogram) {
        self.histograms.insert(name.to_string(), h);
    }

    /// A counter's value, if recorded.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// A gauge's value, if recorded.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// A histogram, if recorded.
    pub fn get_histogram(&self, name: &str) -> Option<&FixedHistogram> {
        self.histograms.get(name)
    }

    /// All counters, sorted by name.
    pub fn counters(&self) -> &BTreeMap<String, u64> {
        &self.counters
    }

    /// All gauges, sorted by name.
    pub fn gauges(&self) -> &BTreeMap<String, f64> {
        &self.gauges
    }

    /// All histograms, sorted by name.
    pub fn histograms(&self) -> &BTreeMap<String, FixedHistogram> {
        &self.histograms
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Whether a metric name is exempt from determinism comparisons:
    /// wall-clock and scheduling metrics (`campaign.*` scheduling data,
    /// `*.seconds` / `*_seconds` timings) legitimately vary run-to-run.
    pub fn is_timing_metric(name: &str) -> bool {
        name.starts_with("campaign.")
            || name.contains(".campaign.")
            || name.ends_with(".seconds")
            || name.ends_with("_seconds")
            || name.ends_with(".speedup")
    }

    /// A canonical rendering of every *deterministic* metric (see
    /// [`MetricsRegistry::is_timing_metric`]): two runs of the same seeded
    /// experiment must produce identical fingerprints regardless of worker
    /// count, machine load, or wall clock. Float gauges are rendered
    /// bit-exactly (hex of the IEEE-754 pattern), so this is a true
    /// bit-identity check, not an approximate one.
    pub fn deterministic_fingerprint(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.counters {
            if !Self::is_timing_metric(k) {
                out.push_str(&format!("c {k}={v}\n"));
            }
        }
        for (k, v) in &self.gauges {
            if !Self::is_timing_metric(k) {
                out.push_str(&format!("g {k}={:016x}\n", v.to_bits()));
            }
        }
        for (k, h) in &self.histograms {
            if !Self::is_timing_metric(k) {
                out.push_str(&format!(
                    "h {k}={:?}/{}/{}/{:016x}\n",
                    h.buckets(),
                    h.underflow(),
                    h.overflow(),
                    h.sum().to_bits()
                ));
            }
        }
        out
    }

    /// A copy of the registry with every timing/scheduling metric (see
    /// [`MetricsRegistry::is_timing_metric`]) removed. This is the
    /// *result* view of a run: the part that must be bit-identical
    /// between two executions of the same seeded experiment, and the
    /// part content-addressed artifact caches may hash.
    pub fn without_timing(&self) -> MetricsRegistry {
        let keep = |name: &&String| !Self::is_timing_metric(name.as_str());
        MetricsRegistry {
            counters: self
                .counters
                .iter()
                .filter(|(k, _)| keep(k))
                .map(|(k, v)| (k.clone(), *v))
                .collect(),
            gauges: self
                .gauges
                .iter()
                .filter(|(k, _)| keep(k))
                .map(|(k, v)| (k.clone(), *v))
                .collect(),
            histograms: self
                .histograms
                .iter()
                .filter(|(k, _)| keep(k))
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect(),
        }
    }

    /// Merges another registry: counters add, gauges overwrite (last
    /// writer wins), histograms of matching shape add.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (k, v) in &other.counters {
            self.inc(k, *v);
        }
        for (k, v) in &other.gauges {
            self.set_gauge(k, *v);
        }
        for (k, h) in &other.histograms {
            match self.histograms.get_mut(k) {
                Some(mine) => mine.merge(h),
                None => {
                    self.histograms.insert(k.clone(), h.clone());
                }
            }
        }
    }

    /// Serializes the registry to a JSON value with `counters`, `gauges`,
    /// and `histograms` members.
    pub fn to_json(&self) -> Json {
        let mut counters = Json::object();
        for (k, v) in &self.counters {
            counters.insert(k, Json::Num(*v as f64));
        }
        let mut gauges = Json::object();
        for (k, v) in &self.gauges {
            gauges.insert(k, Json::Num(*v));
        }
        let mut histograms = Json::object();
        for (k, h) in &self.histograms {
            histograms.insert(k, h.to_json());
        }
        let mut o = Json::object();
        o.insert("counters", counters);
        o.insert("gauges", gauges);
        o.insert("histograms", histograms);
        o
    }

    /// Rebuilds a registry from [`MetricsRegistry::to_json`] output.
    /// Returns `None` on structural mismatch (missing members, non-numeric
    /// values).
    pub fn from_json(v: &Json) -> Option<Self> {
        let mut reg = Self::new();
        for (k, val) in v.get("counters")?.as_obj()? {
            reg.counters.insert(k.clone(), val.as_u64()?);
        }
        for (k, val) in v.get("gauges")?.as_obj()? {
            // Gauges may have been non-finite at write time, which JSON
            // renders as null; resurrect those as NaN.
            let g = match val {
                Json::Null => f64::NAN,
                other => other.as_f64()?,
            };
            reg.gauges.insert(k.clone(), g);
        }
        for (k, val) in v.get("histograms")?.as_obj()? {
            reg.histograms.insert(k.clone(), FixedHistogram::from_json(val)?);
        }
        Some(reg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_set() {
        let mut m = MetricsRegistry::new();
        m.inc("hits", 3);
        m.inc("hits", 4);
        assert_eq!(m.counter("hits"), Some(7));
        m.set_counter("hits", 1);
        assert_eq!(m.counter("hits"), Some(1));
        assert_eq!(m.counter("absent"), None);
    }

    #[test]
    fn gauges_set_and_overwrite() {
        let mut m = MetricsRegistry::new();
        m.set_gauge("ipc", 0.5);
        m.set_gauge("ipc", 0.97);
        assert_eq!(m.gauge("ipc"), Some(0.97));
        assert_eq!(m.gauge("absent"), None);
    }

    #[test]
    fn histogram_buckets_and_flows() {
        let mut h = FixedHistogram::new(0.0, 10.0, 5);
        for v in [-1.0, 0.0, 1.9, 2.0, 9.99, 10.0, 55.0] {
            h.record(v);
        }
        assert_eq!(h.buckets(), &[2, 1, 0, 0, 1]);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.count(), 7);
        assert!((h.mean() - (h.sum() / 7.0)).abs() < 1e-12);
    }

    #[test]
    fn histogram_boundary_values_land_in_the_upper_bucket() {
        // Exactly-representable boundaries: [0, 16) in 8 width-2 buckets.
        let mut h = FixedHistogram::new(0.0, 16.0, 8);
        for b in 0..8u64 {
            h.record(2.0 * b as f64); // each boundary opens its own bucket
        }
        assert_eq!(h.buckets(), &[1; 8]);
        assert_eq!((h.underflow(), h.overflow()), (0, 0));

        // Values one ulp below a boundary stay in the lower bucket.
        let mut h = FixedHistogram::new(0.0, 16.0, 8);
        h.record(2.0_f64.next_down());
        h.record(16.0_f64.next_down()); // just under hi: last bucket, not overflow
        assert_eq!(h.buckets()[0], 1);
        assert_eq!(h.buckets()[7], 1);
        assert_eq!(h.overflow(), 0);

        // Non-representable widths: the precomputed reciprocal gives the
        // same answer as the reference computation for every recorded
        // value, including the awkward near-boundary ones.
        let (lo, hi, n) = (0.0, 0.7, 7usize);
        let mut h = FixedHistogram::new(lo, hi, n);
        let reference = |v: f64| -> usize {
            (((v - lo) * (n as f64 / (hi - lo))) as usize).min(n - 1)
        };
        let mut expected = vec![0u64; n];
        for k in 0..70 {
            let v = k as f64 * 0.01;
            h.record(v);
            expected[reference(v)] += 1;
        }
        assert_eq!(h.buckets(), &expected[..]);
    }

    #[test]
    fn histogram_bucketing_survives_json_round_trip() {
        // The reconstructed histogram must bucketize identically to the
        // original (the reciprocal width is re-derived, not serialized).
        let mut a = FixedHistogram::new(0.0, 0.3, 3);
        let mut b = FixedHistogram::from_json(&a.to_json()).unwrap();
        for k in 0..30 {
            let v = k as f64 * 0.01;
            a.record(v);
            b.record(v);
        }
        assert_eq!(a, b);
    }

    #[test]
    fn fingerprint_covers_histogram_under_and_overflow() {
        // Regression pin: two registries whose histograms agree on every
        // bucket but differ only in underflow or overflow must fingerprint
        // differently (over/underflow are results, not timing).
        let base = FixedHistogram::from_buckets(0.0, 4.0, vec![5, 5, 5, 5], 0, 0, 40.0);
        let more_over = FixedHistogram::from_buckets(0.0, 4.0, vec![5, 5, 5, 5], 0, 3, 40.0);
        let more_under = FixedHistogram::from_buckets(0.0, 4.0, vec![5, 5, 5, 5], 3, 0, 40.0);

        let mut a = MetricsRegistry::new();
        a.put_histogram("h", base.clone());
        let mut b = MetricsRegistry::new();
        b.put_histogram("h", more_over);
        let mut c = MetricsRegistry::new();
        c.put_histogram("h", more_under);
        assert_ne!(a.deterministic_fingerprint(), b.deterministic_fingerprint());
        assert_ne!(a.deterministic_fingerprint(), c.deterministic_fingerprint());
        assert_ne!(b.deterministic_fingerprint(), c.deterministic_fingerprint());
    }

    #[test]
    fn quantiles_interpolate_known_distributions() {
        // 100 uniform samples 0..100 in 10 width-10 buckets: every
        // decile boundary is exact under linear interpolation.
        let mut h = FixedHistogram::new(0.0, 100.0, 10);
        for v in 0..100 {
            h.record(v as f64 + 0.5);
        }
        assert_eq!(h.quantile(0.50), Some(50.0));
        assert_eq!(h.quantile(0.90), Some(90.0));
        assert_eq!(h.quantile(0.99), Some(99.0));
        assert_eq!(h.quantile(1.0), Some(100.0));
        assert_eq!(h.quantile_summary(), Some((50.0, 90.0, 99.0)));

        // A single-bucket point mass interpolates across that bucket.
        let h = FixedHistogram::from_buckets(0.0, 8.0, vec![0, 4, 0, 0], 0, 0, 12.0);
        assert_eq!(h.quantile(0.5), Some(3.0)); // halfway through [2, 4)
        assert_eq!(h.quantile(1.0), Some(4.0)); // the bucket's upper edge

        // A skewed two-bucket split: 90 in the first, 10 in the last.
        let h = FixedHistogram::from_buckets(0.0, 10.0, vec![90, 0, 0, 0, 10], 0, 0, 0.0);
        assert_eq!(h.quantile(0.45), Some(1.0)); // 45/90 through [0, 2)
        assert_eq!(h.quantile(0.95), Some(9.0)); // 5/10 through [8, 10)
    }

    #[test]
    fn quantiles_clamp_at_under_and_overflow() {
        // All mass out of range: quantiles can only report the bounds.
        let h = FixedHistogram::from_buckets(0.0, 10.0, vec![0, 0], 5, 5, 0.0);
        assert_eq!(h.quantile(0.0), Some(0.0));
        assert_eq!(h.quantile(0.4), Some(0.0), "underflow mass clamps to lo");
        assert_eq!(h.quantile(0.9), Some(10.0), "overflow mass clamps to hi");
        assert_eq!(h.quantile(1.0), Some(10.0));

        // Mixed: 2 underflow, 6 in [0,10), 2 overflow.
        let h = FixedHistogram::from_buckets(0.0, 10.0, vec![6], 2, 2, 0.0);
        assert_eq!(h.quantile(0.1), Some(0.0));
        assert_eq!(h.quantile(0.5), Some(5.0)); // 3/6 through the bucket
        assert_eq!(h.quantile(0.99), Some(10.0));
    }

    #[test]
    fn quantile_rejects_empty_and_out_of_range_p() {
        let empty = FixedHistogram::new(0.0, 1.0, 4);
        assert_eq!(empty.quantile(0.5), None);
        assert_eq!(empty.quantile_summary(), None);
        let mut h = FixedHistogram::new(0.0, 1.0, 4);
        h.record(0.5);
        assert_eq!(h.quantile(-0.1), None);
        assert_eq!(h.quantile(1.1), None);
        assert_eq!(h.quantile(f64::NAN), None);
    }

    #[test]
    fn single_bucket_quantiles_are_finite_and_bounded() {
        // The degenerate shape a latency endpoint can end up with: one
        // bucket, few observations. Every quantile must be a finite value
        // inside the bounds — never NaN — and the empty single-bucket
        // case must stay an explicit None.
        let empty = FixedHistogram::new(0.0, 1.0, 1);
        assert_eq!(empty.quantile(0.5), None);
        assert_eq!(empty.quantile_summary(), None);

        let mut h = FixedHistogram::new(0.0, 1.0, 1);
        h.record(0.25);
        let (p50, p90, p99) = h.quantile_summary().unwrap();
        for q in [p50, p90, p99] {
            assert!(q.is_finite(), "quantile {q}");
            assert!((0.0..=1.0).contains(&q), "quantile {q} out of bounds");
        }
        assert!(p50 <= p90 && p90 <= p99);

        // Single bucket with all mass in overflow: clamps, still finite.
        let h = FixedHistogram::from_buckets(0.0, 1.0, vec![0], 0, 3, 9.0);
        assert_eq!(h.quantile_summary(), Some((1.0, 1.0, 1.0)));
    }

    #[test]
    fn histogram_merge_requires_same_shape() {
        let mut a = FixedHistogram::new(0.0, 4.0, 4);
        let mut b = FixedHistogram::new(0.0, 4.0, 4);
        a.record(1.0);
        b.record(3.0);
        b.record(-2.0);
        a.merge(&b);
        assert_eq!(a.buckets(), &[0, 1, 0, 1]);
        assert_eq!(a.underflow(), 1);
        assert_eq!(a.count(), 3);
        let differently_shaped = FixedHistogram::new(0.0, 8.0, 4);
        assert!(std::panic::catch_unwind(move || a.merge(&differently_shaped)).is_err());
    }

    #[test]
    fn registry_round_trips_through_json() {
        let mut m = MetricsRegistry::new();
        m.inc("cache.hits", 90210);
        m.set_gauge("perf.normalized", 0.9871234567890123);
        let h = m.histogram("unit_times", 0.0, 2.0, 8);
        h.record(0.1);
        h.record(1.99);
        h.record(5.0);
        let json = m.to_json().render_pretty();
        let back = MetricsRegistry::from_json(&Json::parse(&json).unwrap()).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn fingerprint_ignores_timing_but_keeps_results() {
        let mut a = MetricsRegistry::new();
        a.inc("cache.hits", 100);
        a.set_gauge("perf", 0.99);
        a.set_gauge("wall_seconds", 1.5);
        a.inc("campaign.units", 24);
        a.set_gauge("eval.seconds", 2.0);

        let mut b = MetricsRegistry::new();
        b.inc("cache.hits", 100);
        b.set_gauge("perf", 0.99);
        b.set_gauge("wall_seconds", 99.0); // timing differs
        b.inc("campaign.units", 7); // scheduling differs
        b.set_gauge("eval.seconds", 0.1);

        assert_eq!(a.deterministic_fingerprint(), b.deterministic_fingerprint());

        b.inc("cache.hits", 1); // a *result* difference must show
        assert_ne!(a.deterministic_fingerprint(), b.deterministic_fingerprint());
    }

    #[test]
    fn fingerprint_distinguishes_float_bit_patterns() {
        let mut a = MetricsRegistry::new();
        a.set_gauge("x", 0.1 + 0.2);
        let mut b = MetricsRegistry::new();
        b.set_gauge("x", 0.3);
        // 0.1 + 0.2 != 0.3 in f64: the fingerprint must see that.
        assert_ne!(a.deterministic_fingerprint(), b.deterministic_fingerprint());
    }

    #[test]
    fn without_timing_strips_scheduling_but_keeps_results() {
        let mut m = MetricsRegistry::new();
        m.inc("cache.hits", 9);
        m.inc("campaign.units", 12);
        m.set_gauge("perf", 0.97);
        m.set_gauge("eval.seconds", 1.25);
        m.histogram("retention_ns", 0.0, 100.0, 4).record(50.0);
        m.histogram("campaign.unit_seconds", 0.0, 1.0, 4).record(0.5);
        let r = m.without_timing();
        assert_eq!(r.counter("cache.hits"), Some(9));
        assert_eq!(r.counter("campaign.units"), None);
        assert_eq!(r.gauge("perf"), Some(0.97));
        assert_eq!(r.gauge("eval.seconds"), None);
        assert!(r.get_histogram("retention_ns").is_some());
        assert!(r.get_histogram("campaign.unit_seconds").is_none());
        // The filtered registry fingerprints identically to the original.
        assert_eq!(r.deterministic_fingerprint(), m.deterministic_fingerprint());
    }

    #[test]
    fn nonfinite_gauges_are_dropped_and_counted() {
        let mut m = MetricsRegistry::new();
        m.set_gauge("a", f64::NAN);
        m.set_gauge("b", f64::INFINITY);
        m.set_gauge("c", f64::NEG_INFINITY);
        assert_eq!(m.gauge("a"), None);
        assert_eq!(m.gauge("b"), None);
        assert_eq!(m.gauge("c"), None);
        assert_eq!(m.counter(NONFINITE_DROPPED), Some(3));
        // A later finite write still lands, and a non-finite one does not
        // overwrite it.
        m.set_gauge("a", 1.5);
        m.set_gauge("a", f64::NAN);
        assert_eq!(m.gauge("a"), Some(1.5));
    }

    #[test]
    fn nonfinite_histogram_observations_are_skipped() {
        let mut h = FixedHistogram::new(0.0, 10.0, 5);
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        h.record(f64::NEG_INFINITY);
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum(), 0.0);
        assert_eq!(h.buckets(), &[0; 5]);
        assert_eq!((h.underflow(), h.overflow()), (0, 0));
        h.record(5.0);
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn registry_with_rejected_nonfinite_round_trips_bit_exactly() {
        // Before the boundary guard, a NaN gauge rendered as JSON null
        // and the round-trip silently changed the registry (null → NaN
        // on read, which renders as null again but compares unequal).
        // With the guard nothing non-finite reaches the JSON layer.
        let mut m = MetricsRegistry::new();
        m.set_gauge("perf", 0.9871234567890123);
        m.set_gauge("bad", f64::NAN);
        m.histogram("h", 0.0, 1.0, 4).record(f64::NAN);
        m.histogram("h", 0.0, 1.0, 4).record(0.25);
        let rendered = m.to_json().render_pretty();
        assert!(!rendered.contains("null"), "non-finite leaked:\n{rendered}");
        let back = MetricsRegistry::from_json(&Json::parse(&rendered).unwrap()).unwrap();
        assert_eq!(back, m);
        assert_eq!(
            back.deterministic_fingerprint(),
            m.deterministic_fingerprint()
        );
    }

    #[test]
    fn merge_combines_all_kinds() {
        let mut a = MetricsRegistry::new();
        a.inc("n", 1);
        a.histogram("h", 0.0, 1.0, 2).record(0.1);
        let mut b = MetricsRegistry::new();
        b.inc("n", 2);
        b.set_gauge("g", 9.0);
        b.histogram("h", 0.0, 1.0, 2).record(0.9);
        b.histogram("only_b", 0.0, 1.0, 2).record(0.2);
        a.merge(&b);
        assert_eq!(a.counter("n"), Some(3));
        assert_eq!(a.gauge("g"), Some(9.0));
        assert_eq!(a.get_histogram("h").unwrap().count(), 2);
        assert_eq!(a.get_histogram("only_b").unwrap().count(), 1);
    }
}
