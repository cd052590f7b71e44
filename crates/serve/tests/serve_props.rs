//! Property test: random interleavings of job submission, job
//! cancellation, and concurrent CAS garbage collection against a live
//! daemon must always terminate — every submitted job reaches a
//! terminal state, the daemon stays responsive, and shutdown drains
//! cleanly. A deadlock between the job table, the flight table, and
//! the store's GC path would hang the run and fail the deadline
//! assertions.

use obs::Json;
use orchestrator::ArtifactStore;
use proptest::prelude::*;
use serve::http::exchange;
use serve::{Listen, Server, ServerConfig};
use std::collections::BTreeSet;
use std::time::{Duration, Instant, SystemTime};

#[derive(Debug, Clone)]
enum Op {
    /// Submit the round's scenario (rounds repeat, so submissions
    /// coalesce or cache-hit against each other).
    Submit(u8),
    /// Cancel the n-th submitted job (mod the count; a miss is a 404,
    /// which is also a valid outcome to exercise).
    Cancel(u8),
    /// Run a size-zero-budget GC sweep over the live store, racing the
    /// workers. The one-hour freshness cutoff is the janitor's race
    /// guard: only entries idle that long are evictable, so the sweep
    /// contends on the store lock without yanking artifacts out from
    /// under in-flight jobs.
    Gc,
    /// Poke /healthz mid-chaos.
    Health,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..3).prop_map(Op::Submit),
        (0u8..8).prop_map(Op::Cancel),
        Just(Op::Gc),
        Just(Op::Health),
    ]
}

fn scenario(round: u8) -> String {
    format!(
        r#"{{"schema": 2, "name": "prop_r{round}", "scale": "quick", "stages": [
            {{"id": "work", "kind": "sleep", "params": {{"seconds": {}}}}}
        ]}}"#,
        0.01 + round as f64 * 1e-6,
    )
}

fn body(resp: &serve::http::Response) -> Json {
    Json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn submit_cancel_gc_interleavings_drain_cleanly(
        ops in proptest::collection::vec(op_strategy(), 1..12),
    ) {
        let dir = std::env::temp_dir().join(format!(
            "pv3t1d_serve_props_{}_{}",
            std::process::id(),
            ops.len(),
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let server = Server::start(ServerConfig {
            listen: Listen::Tcp("127.0.0.1:0".to_string()),
            results_dir: dir.clone(),
            workers: 2,
            stage_jobs: 2,
            ..ServerConfig::default()
        })
        .expect("daemon starts");
        let addr = server.addr().to_string();
        let store = ArtifactStore::new(dir.join("cas"));

        let mut ids: Vec<u64> = Vec::new();
        for op in &ops {
            match op {
                Op::Submit(round) => {
                    let resp = exchange(&addr, "POST", "/runs", Some(&scenario(*round))).unwrap();
                    prop_assert_eq!(resp.status, 202, "submit must be accepted");
                    ids.push(body(&resp).get("job").unwrap().as_u64().unwrap());
                }
                Op::Cancel(n) => {
                    let id = ids
                        .get(*n as usize % ids.len().max(1))
                        .copied()
                        .unwrap_or(u64::from(*n) + 1);
                    let resp = exchange(&addr, "DELETE", &format!("/jobs/{id}"), None).unwrap();
                    prop_assert!(
                        resp.status == 202 || resp.status == 404,
                        "cancel returned HTTP {}", resp.status,
                    );
                }
                Op::Gc => {
                    let cutoff = SystemTime::now() - Duration::from_secs(3600);
                    let report = store
                        .gc_bounded(&BTreeSet::new(), 0, false, Some(cutoff))
                        .expect("gc sweep succeeds against the live store");
                    prop_assert_eq!(
                        report.removed, 0,
                        "nothing in this test is an hour idle",
                    );
                }
                Op::Health => {
                    let resp = exchange(&addr, "GET", "/healthz", None).unwrap();
                    prop_assert_eq!(resp.status, 200);
                }
            }
        }

        // Liveness: every submitted job reaches a terminal state.
        let deadline = Instant::now() + Duration::from_secs(60);
        for id in &ids {
            loop {
                let resp = exchange(&addr, "GET", &format!("/jobs/{id}"), None).unwrap();
                prop_assert_eq!(resp.status, 200);
                let state = body(&resp).get("state").unwrap().as_str().unwrap().to_string();
                if matches!(state.as_str(), "done" | "failed" | "cancelled") {
                    break;
                }
                prop_assert!(
                    Instant::now() < deadline,
                    "job {} stuck in state {:?} — deadlock", id, state,
                );
                std::thread::sleep(Duration::from_millis(10));
            }
        }

        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
