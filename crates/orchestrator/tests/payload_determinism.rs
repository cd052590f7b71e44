//! Stage payloads must be pure: the content-addressed cache and every
//! run fingerprint assume a stage's payload depends only on its kind,
//! params, scale and inputs. This test runs every stage of
//! `scenarios/paper_full.json` at quick scale twice, once on one campaign
//! worker and once on two, and demands byte-identical payloads. A payload
//! that carries wall-clock time (a throughput, an elapsed time) differs
//! between any two runs; one that carries shard sizes differs between the
//! worker counts.
//!
//! The test lives in its own binary because it sets `PV3T1D_WORKERS`,
//! which is process-wide.

use bench_harness::RunScale;
use obs::{CancelToken, Json};
use orchestrator::stage::{execute, StageCtx};
use orchestrator::Scenario;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// Every stage's rendered payload, in scenario order.
fn payloads(sc: &Scenario, workers: &str) -> Vec<(String, String)> {
    std::env::set_var(t3cache::campaign::WORKERS_ENV, workers);
    let mut done: BTreeMap<String, Json> = BTreeMap::new();
    let mut out = Vec::new();
    for stage in &sc.stages {
        let inputs: BTreeMap<String, Json> = stage
            .deps
            .iter()
            .map(|d| (d.clone(), done[d].clone()))
            .collect();
        let ctx = StageCtx {
            params: &stage.params,
            inputs: &inputs,
            scale: RunScale::QUICK,
            checkpoint: None,
            cancel: CancelToken::new(),
        };
        let payload = execute(&stage.kind, &ctx)
            .unwrap_or_else(|e| panic!("stage {} ({}) failed: {e}", stage.id, stage.kind));
        out.push((stage.id.clone(), payload.render()));
        done.insert(stage.id.clone(), payload);
    }
    out
}

#[test]
fn paper_full_payloads_match_across_runs_and_worker_counts() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../scenarios/paper_full.json");
    let sc = Scenario::load(&path).unwrap();
    let serial = payloads(&sc, "1");
    let parallel = payloads(&sc, "2");
    std::env::remove_var(t3cache::campaign::WORKERS_ENV);

    assert_eq!(serial.len(), sc.stages.len());
    let mut differing = Vec::new();
    for ((id, a), (_, b)) in serial.iter().zip(&parallel) {
        if a != b {
            let line = a
                .split("\\n")
                .zip(b.split("\\n"))
                .find(|(x, y)| x != y)
                .map(|(x, y)| format!("{x:?} vs {y:?}"))
                .unwrap_or_else(|| "lengths differ".into());
            differing.push(format!("{id}: {line}"));
        }
    }
    assert!(
        differing.is_empty(),
        "payloads differ:\n{}",
        differing.join("\n")
    );
}
