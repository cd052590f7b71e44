//! End-to-end tests of the DAG scheduler and the content-addressed
//! cache — the ISSUE-pinned behaviors (the `pv3t1d` CLI itself is
//! exercised from `crates/serve/tests`):
//!
//! * **cache-hit determinism**: a second run of an unchanged scenario
//!   executes zero stages and reproduces the results section and
//!   fingerprint bit-for-bit;
//! * **failure isolation**: a failing stage neither aborts siblings nor
//!   poisons the run manifest — dependents are skipped, the rest
//!   completes (the panicking case, which needs the test-only `fail`
//!   kind, is a unit test in `sched.rs`);
//! * **no failure injection in production**: the test-only stage kinds
//!   are unknown to this build;
//! * **timeouts**: a stage exceeding its wall-clock budget is marked
//!   timed out and abandoned while siblings finish, and its late result
//!   is never cached;
//! * **corruption**: a damaged CAS entry is a miss (recomputed), never
//!   a crash.

use obs::Json;
use orchestrator::{
    run_scenario, RunOptions, RunSummary, Scenario, StageSpec, StageStatus,
};
use std::path::PathBuf;

fn temp_results(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pv3t1d_orch_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn opts(results_dir: &std::path::Path) -> RunOptions {
    RunOptions {
        results_dir: results_dir.to_path_buf(),
        ..RunOptions::default()
    }
}

fn status_of<'a>(summary: &'a RunSummary, id: &str) -> &'a StageStatus {
    &summary
        .stages
        .iter()
        .find(|s| s.id == id)
        .unwrap_or_else(|| panic!("stage {id} missing from summary"))
        .status
}

/// A small but real pipeline: Monte-Carlo chips → retention histogram,
/// plus an independent analytic stage.
fn real_pipeline() -> Scenario {
    let mut sc = Scenario::new("pipeline", bench_harness::RunScale::QUICK);
    sc.stages.push(
        StageSpec::new("chips", "chip_campaign")
            .with_param("chips", Json::Num(6.0))
            .with_param("seed", Json::Num(99.0))
            .with_param("corner", Json::Str("severe".into())),
    );
    sc.stages.push(StageSpec::new("map", "retention_map").with_deps(&["chips"]));
    sc.stages.push(StageSpec::new("stability", "sec21_stability"));
    sc
}

#[test]
fn second_run_is_fully_cached_and_bit_identical() {
    let dir = temp_results("determinism");
    let sc = real_pipeline();
    let opts = opts(&dir);

    let first = run_scenario(&sc, &opts).unwrap();
    assert!(first.ok(), "{first:?}");
    assert_eq!(first.executed, 3);
    assert_eq!(first.cache_hits, 0);

    let second = run_scenario(&sc, &opts).unwrap();
    assert!(second.ok());
    assert_eq!(second.executed, 0, "second run must execute zero stages");
    assert_eq!(second.cache_misses, 0);
    assert_eq!(second.cache_hits, 3);

    // The deterministic section — and the fingerprint derived from it —
    // must be byte-identical whether payloads were computed or cached.
    assert_eq!(
        first.results_json().render(),
        second.results_json().render()
    );
    assert_eq!(first.fingerprint(), second.fingerprint());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn slow_stage_times_out_while_siblings_complete() {
    let dir = temp_results("timeout");
    let mut sc = Scenario::new("timeout", bench_harness::RunScale::QUICK);
    sc.stages.push(
        StageSpec::new("slow", "sleep")
            .with_param("seconds", Json::Num(5.0))
            .with_timeout(0.2),
    );
    sc.stages
        .push(StageSpec::new("after_slow", "sleep").with_deps(&["slow"]));
    sc.stages
        .push(StageSpec::new("sibling", "sleep").with_param("seconds", Json::Num(0.01)));

    let t0 = std::time::Instant::now();
    let summary = run_scenario(&sc, &opts(&dir)).unwrap();
    assert!(
        t0.elapsed().as_secs_f64() < 4.0,
        "timeout must not wait for the slow stage"
    );
    assert!(matches!(status_of(&summary, "slow"), StageStatus::TimedOut(_)));
    assert!(matches!(status_of(&summary, "after_slow"), StageStatus::Skipped(_)));
    assert_eq!(*status_of(&summary, "sibling"), StageStatus::Ran);
    assert!(!summary.ok());
    assert_eq!(summary.metrics.counter("orchestrator.stages.timeout"), Some(1));
    let _ = std::fs::remove_dir_all(&dir);

    // Here the abandoned stage reports back while its sibling still
    // runs: the scheduler must drop that late result (the stage is no
    // longer running), never cache it, so a rerun launches the stage
    // again and it times out again rather than hitting.
    let dir = temp_results("timeout_late");
    let mut sc = Scenario::new("timeout_late", bench_harness::RunScale::QUICK);
    sc.stages.push(
        StageSpec::new("slow", "sleep")
            .with_param("seconds", Json::Num(0.6))
            .with_timeout(0.2),
    );
    sc.stages
        .push(StageSpec::new("sibling", "sleep").with_param("seconds", Json::Num(1.5)));
    let first = run_scenario(&sc, &opts(&dir)).unwrap();
    assert!(matches!(status_of(&first, "slow"), StageStatus::TimedOut(_)), "{first:?}");
    assert_eq!(first.executed, 1, "only the sibling produced a payload");
    let second = run_scenario(&sc, &opts(&dir)).unwrap();
    assert!(matches!(status_of(&second, "slow"), StageStatus::TimedOut(_)), "{second:?}");
    assert_eq!(*status_of(&second, "sibling"), StageStatus::Cached);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_cache_entry_is_recomputed_not_fatal() {
    let dir = temp_results("corruption");
    let sc = real_pipeline();
    let opts = opts(&dir);
    let first = run_scenario(&sc, &opts).unwrap();
    assert!(first.ok());

    // Damage the chip campaign's artifact on disk.
    let chips = first.stages.iter().find(|s| s.id == "chips").unwrap();
    let store = orchestrator::ArtifactStore::new(dir.join("cas"));
    let path = store.path_for(chips.key.as_ref().unwrap());
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::write(&path, &text[..text.len() - 40]).unwrap();

    let second = run_scenario(&sc, &opts).unwrap();
    assert!(second.ok(), "corruption must be a miss, not an error");
    assert_eq!(second.executed, 1, "only the damaged stage recomputes");
    assert_eq!(second.cache_hits, 2);
    // The recomputation reproduces the identical artifact, so the
    // fingerprint is unchanged and the entry is healthy again.
    assert_eq!(first.fingerprint(), second.fingerprint());
    let third = run_scenario(&sc, &opts).unwrap();
    assert_eq!(third.executed, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn independent_stages_run_concurrently() {
    let dir = temp_results("parallel");
    let mut sc = Scenario::new("parallel", bench_harness::RunScale::QUICK);
    for i in 0..4 {
        sc.stages.push(
            StageSpec::new(&format!("s{i}"), "sleep").with_param("seconds", Json::Num(0.3)),
        );
    }
    let mut o = opts(&dir);
    o.jobs = 4;
    let t0 = std::time::Instant::now();
    let summary = run_scenario(&sc, &o).unwrap();
    let wall = t0.elapsed().as_secs_f64();
    assert!(summary.ok());
    // Serial would be ≥1.2s; allow generous slack for a loaded machine.
    assert!(wall < 1.0, "4 × 0.3s sleeps took {wall:.2}s at jobs=4");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn failure_injection_kinds_are_unknown_outside_test_builds() {
    let kinds = orchestrator::stage::known_kinds();
    for kind in ["fail", "flaky"] {
        assert!(!kinds.contains(&kind), "{kind} registered: {kinds:?}");
        assert!(!orchestrator::stage::is_known(kind), "{kind}");
        let mut sc = Scenario::new("injected", bench_harness::RunScale::QUICK);
        sc.stages.push(StageSpec::new("x", kind));
        let err = sc.validate().unwrap_err().to_string();
        assert!(err.contains(&format!("unknown kind \"{kind}\"")), "{err}");
    }
    assert!(kinds.contains(&"sleep"));
}

#[test]
fn failed_stage_cascades_skips() {
    let dir = temp_results("failed_cascade");
    let mut sc = Scenario::new("failed_cascade", bench_harness::RunScale::QUICK);
    // An out-of-range param fails the stage with a stage error.
    sc.stages.push(
        StageSpec::new("hopeless", "sleep").with_param("seconds", Json::Num(-1.0)),
    );
    sc.stages
        .push(StageSpec::new("downstream", "sleep").with_deps(&["hopeless"]));

    let summary = run_scenario(&sc, &opts(&dir)).unwrap();
    assert!(!summary.ok());
    assert!(
        matches!(status_of(&summary, "hopeless"), StageStatus::Failed(e) if e.message.contains("out of range"))
    );
    assert!(matches!(status_of(&summary, "downstream"), StageStatus::Skipped(_)));
    assert_eq!(summary.metrics.counter("orchestrator.stages.failed"), Some(1));
    let _ = std::fs::remove_dir_all(&dir);
}

/// The tentpole acceptance behavior, in-process: cancel a chip campaign
/// mid-flight, then rerun — the rerun resumes from the per-unit
/// checkpoints and reproduces the exact fingerprint of a never-
/// interrupted run.
#[test]
fn cancelled_campaign_resumes_to_an_identical_fingerprint() {
    // Pin the campaign worker pool so the pacing below is predictable.
    // (Other tests in this binary don't depend on the worker count.)
    std::env::set_var("PV3T1D_WORKERS", "2");
    let mut sc = Scenario::new("resume", bench_harness::RunScale::QUICK);
    sc.stages.push(
        StageSpec::new("chips", "chip_campaign")
            .with_param("chips", Json::Num(10.0))
            .with_param("seed", Json::Num(7.0))
            .with_param("corner", Json::Str("severe".into()))
            .with_param("unit_sleep_ms", Json::Num(100.0)),
    );
    sc.stages.push(StageSpec::new("map", "retention_map").with_deps(&["chips"]));

    // Reference: a clean, uninterrupted run in its own results dir.
    let ref_dir = temp_results("resume_ref");
    let reference = run_scenario(&sc, &opts(&ref_dir)).unwrap();
    assert!(reference.ok());

    // Interrupted: cancel the token while units are still in flight.
    let dir = temp_results("resume_cut");
    let token = obs::CancelToken::new();
    let trigger = token.clone();
    let timer = std::thread::spawn(move || {
        std::thread::sleep(std::time::Duration::from_millis(150));
        trigger.cancel();
    });
    let mut o = opts(&dir);
    o.cancel = Some(token);
    let interrupted = run_scenario(&sc, &o).unwrap();
    timer.join().unwrap();
    assert!(!interrupted.ok(), "the cancel must land mid-campaign");
    assert!(
        matches!(status_of(&interrupted, "chips"), StageStatus::Cancelled(_)),
        "{interrupted:?}"
    );

    // Resume: same scenario, same results dir, no cancellation.
    let resumed = run_scenario(&sc, &opts(&dir)).unwrap();
    assert!(resumed.ok(), "{resumed:?}");
    assert_eq!(
        resumed.fingerprint(),
        reference.fingerprint(),
        "resumed run must be bit-identical to a never-interrupted one"
    );
    assert_eq!(
        resumed.results_json().render(),
        reference.results_json().render()
    );
    let replayed = resumed
        .metrics
        .counter("orchestrator.checkpoint.resumed_units")
        .unwrap_or(0);
    assert!(
        replayed >= 1,
        "at least one unit must come back from a checkpoint, got {replayed}"
    );
    let _ = std::fs::remove_dir_all(&ref_dir);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn checked_in_scenarios_validate() {
    for name in ["quick.json", "paper_full.json", "resume_smoke.json", "serve_smoke.json"] {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../../scenarios")
            .join(name);
        let sc = Scenario::load(&path).unwrap_or_else(|e| panic!("{name}: {e}"));
        sc.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(!sc.stages.is_empty());
        // The paper scenarios culminate in a report stage; the CI
        // resume- and serve-smoke scenarios are deliberately short
        // synthetic slices.
        if !name.ends_with("_smoke.json") {
            assert!(
                sc.stages.iter().any(|s| s.kind == "report"),
                "{name} should end in a report stage"
            );
        }
    }
}
