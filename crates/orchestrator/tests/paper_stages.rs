//! The paper's experiments run only as stages of
//! `scenarios/paper_full.json`. These tests pin that every registered
//! figure kind is wired into that scenario and its `report`, and check
//! the results and metrics round trip of representative payloads at
//! quick scale.

use bench_harness::figures::stage_names;
use bench_harness::RunScale;
use obs::{CancelToken, Json, MetricsRegistry};
use orchestrator::stage::{execute, StageCtx};
use orchestrator::Scenario;
use std::collections::BTreeMap;
use std::path::PathBuf;

fn paper_full() -> Scenario {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../scenarios/paper_full.json");
    Scenario::load(&path).unwrap()
}

/// Executes a parameterless figure stage at quick scale.
fn quick_payload(kind: &str) -> Json {
    let params = Json::object();
    let inputs = BTreeMap::new();
    let ctx = StageCtx {
        params: &params,
        inputs: &inputs,
        scale: RunScale::QUICK,
        checkpoint: None,
        cancel: CancelToken::new(),
    };
    execute(kind, &ctx).unwrap_or_else(|e| panic!("{kind} failed: {e}"))
}

fn payload_metrics(payload: &Json) -> MetricsRegistry {
    MetricsRegistry::from_json(payload.get("metrics").unwrap()).unwrap()
}

#[test]
fn every_figure_kind_runs_once_in_paper_full_and_is_reported() {
    let sc = paper_full();
    let report = sc.stages.iter().find(|s| s.kind == "report").unwrap();
    for kind in stage_names() {
        let stages: Vec<_> = sc.stages.iter().filter(|s| s.kind == kind).collect();
        assert_eq!(
            stages.len(),
            1,
            "{kind} must appear exactly once in paper_full"
        );
        let id = &stages[0].id;
        assert_eq!(
            report.deps.iter().filter(|d| *d == id).count(),
            1,
            "{kind} (stage {id}) must be a report dependency exactly once"
        );
    }
}

#[test]
fn fig09_payload_carries_scheme_metrics_and_round_trips() {
    let payload = quick_payload("fig09");
    assert_eq!(payload.get("seed").and_then(Json::as_u64), Some(20_244));
    assert_eq!(
        payload.get("tech_node").and_then(Json::as_str),
        Some("32nm")
    );
    let metrics = payload_metrics(&payload);

    // Every Figure 9 scheme exports a per-grade performance gauge and a
    // merged cache-counter block.
    for scheme in cachesim::Scheme::figure9_schemes() {
        for grade in ["good", "median", "bad"] {
            let g = metrics
                .gauge(&format!("scheme.{scheme}.perf.{grade}"))
                .unwrap_or_else(|| panic!("missing perf gauge for {scheme}/{grade}"));
            assert!(
                g > 0.5 && g <= 1.5,
                "{scheme}/{grade} perf {g} out of range"
            );
        }
        assert!(
            metrics.counter(&format!("scheme.{scheme}.chips")).is_some(),
            "missing merged counters for {scheme}"
        );
    }
    // Campaign telemetry is a property of the run, not of the result.
    let names = metrics
        .counters()
        .keys()
        .chain(metrics.gauges().keys())
        .chain(metrics.histograms().keys());
    for name in names {
        assert!(
            !name.starts_with("campaign."),
            "{name} leaked into the payload"
        );
    }

    // The payload's identity and metrics survive render + parse.
    let text = payload.render_pretty();
    let back = Json::parse(&text).unwrap();
    assert_eq!(back.get("seed").and_then(Json::as_u64), Some(20_244));
    assert_eq!(back.get("tech_node").and_then(Json::as_str), Some("32nm"));
    let back = payload_metrics(&back);
    assert_eq!(metrics.to_json().render(), back.to_json().render());
    assert_eq!(
        metrics.deterministic_fingerprint(),
        back.deterministic_fingerprint()
    );
}

#[test]
fn sec21_bit_flip_gauge_is_a_probability() {
    let metrics = payload_metrics(&quick_payload("sec21_stability"));
    let p32 = metrics
        .gauge("bit_flip.32nm.typical")
        .expect("bit-flip gauge present");
    assert!(p32 > 0.0 && p32 < 1.0, "{p32}");
}
