//! Round-trip property tests for the observability layer: any registry
//! the instrumentation can build must survive render → parse without
//! losing a bit. The determinism suite depends on this — two runs are
//! compared through their *serialized* metrics, so serialization itself
//! must be exact.

use obs::{FixedHistogram, Json, MetricsRegistry};
use proptest::prelude::*;

/// Finite f64s across the full bit range (subnormals, extremes, negative
/// zero) — the values the fingerprint must preserve bit-for-bit.
fn finite_f64() -> impl Strategy<Value = f64> {
    any::<u64>().prop_map(|bits| {
        let v = f64::from_bits(bits);
        if v.is_finite() {
            v
        } else {
            (bits >> 11) as f64 * 1e-3
        }
    })
}

/// JSON's structural alphabet plus a few scalar bytes.
const STRUCTURAL: &[u8] = b"[]{}\":,0-1e.tfn \\";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn registry_round_trips_bit_exactly(
        // Counters are documented exact up to 2^53 (stored as f64 in JSON).
        counters in proptest::collection::vec((0u8..50, 0u64..1 << 53), 0..16),
        gauges in proptest::collection::vec((0u8..50, finite_f64()), 0..16),
        buckets in proptest::collection::vec(0u64..1_000_000, 1..12),
        under in 0u64..100,
        over in 0u64..100,
        sum in finite_f64(),
    ) {
        let mut m = MetricsRegistry::new();
        for (i, v) in &counters {
            m.set_counter(&format!("c{i:02}.events"), *v);
        }
        for (i, v) in &gauges {
            m.set_gauge(&format!("g{i:02}.value"), *v);
        }
        let n = buckets.len();
        m.put_histogram(
            "h.dist",
            FixedHistogram::from_buckets(0.0, n as f64, buckets, under, over, sum),
        );

        let text = m.to_json().render();
        let parsed = Json::parse(&text).expect("rendered registry must parse");
        let back = MetricsRegistry::from_json(&parsed).expect("parsed registry must load");

        // Bit-exact: the fingerprint prints raw bits, and a second render
        // must be byte-identical to the first.
        prop_assert_eq!(m.deterministic_fingerprint(), back.deterministic_fingerprint());
        prop_assert_eq!(text, back.to_json().render());
        for (name, v) in m.gauges() {
            prop_assert_eq!(v.to_bits(), back.gauge(name).unwrap().to_bits());
        }
        let h = back.get_histogram("h.dist").expect("histogram survives");
        prop_assert_eq!(h.count(), m.get_histogram("h.dist").unwrap().count());
    }

    #[test]
    fn quantiles_are_monotone_in_p_and_bounded(
        buckets in proptest::collection::vec(0u64..10_000, 1..16),
        under in 0u64..500,
        over in 0u64..500,
        lo in -1_000.0f64..1_000.0,
        span in 0.001f64..10_000.0,
        ps in proptest::collection::vec(0.0f64..=1.0, 2..24),
    ) {
        let h = FixedHistogram::from_buckets(lo, lo + span, buckets, under, over, 0.0);
        let (blo, bhi) = h.bounds();
        if h.count() == 0 {
            for &p in &ps {
                prop_assert_eq!(h.quantile(p), None);
            }
            return Ok(());
        }
        let mut sorted = ps.clone();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let mut prev = f64::NEG_INFINITY;
        for &p in &sorted {
            let q = h.quantile(p).expect("non-empty histogram has quantiles");
            // Bounded by bounds(): the estimator never extrapolates past
            // the histogram's range, even with under/overflow mass.
            prop_assert!(q >= blo && q <= bhi, "q({p}) = {q} outside [{blo}, {bhi}]");
            // Monotone in p.
            prop_assert!(q >= prev, "q({p}) = {q} < previous {prev}");
            prev = q;
        }
    }

    #[test]
    fn merge_is_order_insensitive_for_fingerprints(
        a_counts in proptest::collection::vec((0u8..20, 0u64..1 << 40), 0..10),
        b_counts in proptest::collection::vec((0u8..20, 0u64..1 << 40), 0..10),
    ) {
        let build = |pairs: &[(u8, u64)]| {
            let mut m = MetricsRegistry::new();
            for (i, v) in pairs {
                m.inc(&format!("k{i:02}"), *v);
            }
            m
        };
        let mut ab = build(&a_counts);
        ab.merge(&build(&b_counts));
        let mut ba = build(&b_counts);
        ba.merge(&build(&a_counts));
        prop_assert_eq!(ab.deterministic_fingerprint(), ba.deterministic_fingerprint());
    }

    /// Arbitrary bytes (lossily decoded, as an HTTP body or a file read
    /// would be) parse or fail cleanly: no panic, no stack overflow.
    #[test]
    fn json_parse_never_panics_on_arbitrary_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..4096),
    ) {
        let _ = Json::parse(&String::from_utf8_lossy(&bytes));
    }

    /// Bytes drawn from JSON's structural alphabet reach deep nesting
    /// and half-closed containers far more often than uniform bytes.
    #[test]
    fn json_parse_never_panics_on_structural_bytes(
        picks in proptest::collection::vec(0..STRUCTURAL.len(), 0..4096),
    ) {
        let bytes: Vec<u8> = picks.iter().map(|&i| STRUCTURAL[i]).collect();
        let _ = Json::parse(&String::from_utf8_lossy(&bytes));
    }
}
