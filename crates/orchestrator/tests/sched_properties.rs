//! Property test for the scheduler's liveness contract: whatever mix of
//! failures, timeouts, retry budgets, dependency edges, and mid-run
//! cancellation a scenario throws at it, `run_scenario` must return with
//! **every** stage in a terminal status — no hangs, no lost stages —
//! and successful stages must only ever sit on successful dependencies.

use obs::Json;
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

/// One generated stage: what it does, how often it may retry, and which
/// earlier stage (if any) it depends on.
fn build_scenario(stages: &[(u8, u8, u8, u8)]) -> Scenario {
    let mut sc = Scenario::new("sched_prop", bench_harness::RunScale::QUICK);
    for (i, &(kind_sel, retries, backoff, dep_sel)) in stages.iter().enumerate() {
        let id = format!("s{i}");
        let mut spec = match kind_sel % 4 {
            // Healthy short stage.
            0 | 1 => StageSpec::new(&id, "sleep").with_param("seconds", Json::Num(0.01)),
            // Out-of-range param: every attempt fails, retries burn out.
            2 => StageSpec::new(&id, "sleep").with_param("seconds", Json::Num(-1.0)),
            // Sleep that always overruns a tight wall-clock budget.
            _ => StageSpec::new(&id, "sleep")
                .with_param("seconds", Json::Num(0.3))
                .with_timeout(0.03),
        };
        spec = spec.with_retries(u32::from(retries % 3), f64::from(backoff % 20) + 1.0);
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
            (0u8..4, 0u8..3, 0u8..20, 0u8..12),
            1..6,
        ),
        cancel_after_ms in 0u64..120,
        with_cancel in any::<bool>(),
    ) {
        let sc = build_scenario(&stages);
        prop_assert!(sc.validate().is_ok(), "generated scenario must be valid");
        let dir = temp_results();
        let mut opts = RunOptions {
            results_dir: dir.clone(),
            verbose: false,
            jobs: 2,
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

        for (spec, result) in sc.stages.iter().zip(&summary.stages) {
            // Terminal and attributed: every stage appears exactly once,
            // with a bounded attempt count.
            prop_assert_eq!(&result.id, &spec.id);
            prop_assert!(
                u64::from(result.attempts) <= u64::from(spec.retries) + 1,
                "stage {} used {} attempts with a budget of {}",
                spec.id, result.attempts, spec.retries
            );
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
            // Skipped / cancelled stages never execute, so they must not
            // report attempts beyond what actually launched.
            if matches!(result.status, StageStatus::Skipped(_)) {
                prop_assert_eq!(result.attempts, 0);
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
