//! `loadtest --compare` reads a baseline file from outside the process,
//! so `BenchReport::from_json` must accept or reject any bytes cleanly:
//! no panic, and whatever it accepts survives a write/read round trip.

use proptest::prelude::*;
use serve::loadtest::BenchReport;

/// A valid baseline in the committed `results/BENCH_serve.json` shape,
/// so byte mutations land in every part of the parser.
const VALID: &str = r#"{
  "label": "serve",
  "metrics": {
    "serve.clients": 32,
    "serve.p50_ms": 87.742769,
    "serve.p99_ms": 111.001469,
    "serve.requests_per_s": 365.0025578409715
  },
  "quick": true,
  "schema": 1
}"#;

fn check(bytes: &[u8]) -> Result<(), TestCaseError> {
    if let Ok(report) = BenchReport::from_json(&String::from_utf8_lossy(bytes)) {
        let back = BenchReport::from_json(&report.to_json());
        prop_assert_eq!(back.ok(), Some(report));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..4096)) {
        check(&bytes)?;
    }

    /// A valid document with a few bytes overwritten.
    #[test]
    fn mutated_baselines_never_panic(
        edits in proptest::collection::vec((any::<usize>(), any::<u8>()), 1..8),
    ) {
        let mut bytes = VALID.as_bytes().to_vec();
        for (at, b) in edits {
            let i = at % bytes.len();
            bytes[i] = b;
        }
        check(&bytes)?;
    }
}

#[test]
fn the_unmutated_document_parses_and_round_trips() {
    let report = BenchReport::from_json(VALID).unwrap();
    assert_eq!(report.metrics.len(), 4);
    assert_eq!(BenchReport::from_json(&report.to_json()).unwrap(), report);
}

#[test]
fn overflowing_numbers_are_rejected_not_kept_as_infinity() {
    let text = VALID.replace("87.742769", "1e999");
    assert!(BenchReport::from_json(&text).is_err());
}
