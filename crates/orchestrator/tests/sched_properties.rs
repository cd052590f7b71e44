//! Property test for the scheduler's liveness contract: whatever mix of
//! failures, timeouts, dependency edges, and mid-run cancellation a
//! scenario throws at it, `run_scenario` must return with **every**
//! stage in a terminal status — no hangs, no lost stages — each stage
//! launched at most once, and successful stages only ever sitting on
//! successful dependencies.

use obs::{EventBus, Json};
use orchestrator::{run_scenario, RunOptions, Scenario, StageSpec, StageStatus};
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};

static CASE: AtomicUsize = AtomicUsize::new(0);

fn temp_results() -> std::path::PathBuf {
    let case = CASE.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "pv3t1d_sched_prop_{}_{case}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One generated stage: what it does, and which earlier stage (if any)
/// it depends on.
fn build_scenario(stages: &[(u8, u8)]) -> Scenario {
    let mut sc = Scenario::new("sched_prop", bench_harness::RunScale::QUICK);
    for (i, &(kind_sel, dep_sel)) in stages.iter().enumerate() {
        let id = format!("s{i}");
        let mut spec = match kind_sel % 4 {
            // Healthy short stage.
            0 | 1 => StageSpec::new(&id, "sleep").with_param("seconds", Json::Num(0.01)),
            // Out-of-range param: the stage fails.
            2 => StageSpec::new(&id, "sleep").with_param("seconds", Json::Num(-1.0)),
            // Sleep that always overruns a tight wall-clock budget.
            _ => StageSpec::new(&id, "sleep")
                .with_param("seconds", Json::Num(0.3))
                .with_timeout(0.03),
        };
        if i > 0 && dep_sel % 3 == 0 {
            let dep = format!("s{}", usize::from(dep_sel) % i);
            spec = spec.with_deps(&[dep.as_str()]);
        }
        sc.stages.push(spec);
    }
    sc
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn every_stage_reaches_a_terminal_status(
        stages in proptest::collection::vec(
            (0u8..4, 0u8..12),
            1..6,
        ),
        cancel_after_ms in 0u64..120,
        with_cancel in any::<bool>(),
    ) {
        let sc = build_scenario(&stages);
        prop_assert!(sc.validate().is_ok(), "generated scenario must be valid");
        let dir = temp_results();
        let bus = EventBus::new();
        let mut opts = RunOptions {
            results_dir: dir.clone(),
            verbose: false,
            jobs: 2,
            events: Some(bus.clone()),
            ..RunOptions::default()
        };
        if with_cancel {
            let token = obs::CancelToken::new();
            let trigger = token.clone();
            std::thread::spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(cancel_after_ms));
                trigger.cancel();
            });
            opts.cancel = Some(token);
        }

        let summary = run_scenario(&sc, &opts).expect("run_scenario must return");
        prop_assert_eq!(summary.stages.len(), sc.stages.len());
        let events = bus.snapshot();
        let launches = |id: &str| {
            events
                .iter()
                .filter(|e| {
                    e.get("event").and_then(Json::as_str) == Some("stage.launched")
                        && e.get("id").and_then(Json::as_str) == Some(id)
                })
                .count()
        };

        for (spec, result) in sc.stages.iter().zip(&summary.stages) {
            // Terminal and attributed: every stage appears exactly once,
            // launched at most once.
            prop_assert_eq!(&result.id, &spec.id);
            let launched = launches(&spec.id);
            prop_assert!(launched <= 1, "stage {} launched {launched} times", spec.id);
            // A successful stage can only sit on successful deps.
            if result.status.is_ok() {
                for dep in &spec.deps {
                    let dep_status = &summary
                        .stages
                        .iter()
                        .find(|s| &s.id == dep)
                        .expect("dep exists")
                        .status;
                    prop_assert!(
                        dep_status.is_ok(),
                        "ok stage {} depends on non-ok {dep}: {dep_status:?}",
                        spec.id
                    );
                }
            }
            // Cache hits and skipped stages never launch.
            if matches!(result.status, StageStatus::Cached | StageStatus::Skipped(_)) {
                prop_assert_eq!(launched, 0, "stage {} is {:?}", spec.id, result.status);
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
