//! Scenario documents arrive from outside the process (files, and the
//! daemon's `POST /runs` bodies), so `Scenario::parse` must accept or
//! reject any bytes cleanly: no panic, no stack overflow.

use orchestrator::Scenario;
use proptest::prelude::*;

/// A valid schema-2 scenario with params, deps, a timeout and an
/// ignored `retries` member, so byte mutations land in every part of the
/// parser.
const VALID: &str = r#"{
  "schema": 2, "name": "p", "scale": "quick", "default_timeout_seconds": 60,
  "stages": [
    { "id": "a", "kind": "sleep", "params": { "ms": 1 }, "retries": 2 },
    { "id": "g", "kind": "chip_campaign", "params": { "corner": "severe" },
      "timeout_seconds": 5 },
    { "id": "r", "kind": "report", "deps": ["a", "g"] }
  ]
}"#;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..4096)) {
        let _ = Scenario::parse(&String::from_utf8_lossy(&bytes));
    }

    /// A valid document with a few bytes overwritten.
    #[test]
    fn mutated_scenarios_never_panic(
        edits in proptest::collection::vec((any::<usize>(), any::<u8>()), 1..8),
    ) {
        let mut bytes = VALID.as_bytes().to_vec();
        for (at, b) in edits {
            let i = at % bytes.len();
            bytes[i] = b;
        }
        let _ = Scenario::parse(&String::from_utf8_lossy(&bytes));
    }
}

#[test]
fn the_unmutated_document_parses() {
    let sc = Scenario::parse(VALID).unwrap();
    assert_eq!(sc.stages.len(), 3);
}
