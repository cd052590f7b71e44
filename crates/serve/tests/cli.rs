//! Subprocess tests of the `pv3t1d` CLI surface that predates the
//! daemon: run/plan/gc/ls round trips, trace record/info and validate,
//! failure exit codes, and usage errors. The daemon endpoints are covered
//! in `serve_e2e.rs`.

use obs::Json;
use std::path::PathBuf;
use std::process::Command;

fn temp_results(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pv3t1d_cli_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn pv3t1d() -> Command {
    Command::new(env!("CARGO_BIN_EXE_pv3t1d"))
}

fn write_scenario(dir: &std::path::Path, name: &str, text: &str) -> PathBuf {
    std::fs::create_dir_all(dir).unwrap();
    let path = dir.join(name);
    std::fs::write(&path, text).unwrap();
    path
}

const TINY: &str = r#"{
  "schema": 1, "name": "tiny", "scale": "quick",
  "stages": [
    {"id": "a", "kind": "sleep", "params": {"seconds": 0.01}},
    {"id": "b", "kind": "sleep", "params": {"seconds": 0.01}, "deps": ["a"]}
  ]
}"#;

#[test]
fn cli_run_plan_gc_ls_round_trip() {
    let dir = temp_results("cli");
    let scenario = write_scenario(&dir, "tiny.json", TINY);
    let results = dir.join("results");
    let results_arg = results.to_str().unwrap();

    // Cold run: everything executes, exit 0, manifest written.
    let out = pv3t1d()
        .args(["run", scenario.to_str().unwrap(), "--results", results_arg])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("manifest:"), "{stdout}");
    let manifest1 = std::fs::read_to_string(results.join("tiny.run.json")).unwrap();
    let m1 = Json::parse(&manifest1).unwrap();
    assert_eq!(m1.get("ok").unwrap().as_bool(), Some(true));

    // Warm run with --expect-cached: zero executions, same fingerprint.
    let out = pv3t1d()
        .args([
            "run",
            scenario.to_str().unwrap(),
            "--results",
            results_arg,
            "--expect-cached",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let m2 = Json::parse(&std::fs::read_to_string(results.join("tiny.run.json")).unwrap()).unwrap();
    assert_eq!(m1.get("fingerprint"), m2.get("fingerprint"));
    assert_eq!(
        m1.get("results").unwrap().render(),
        m2.get("results").unwrap().render(),
        "results section must be byte-identical across cached reruns"
    );
    assert_eq!(
        m2.get("execution").unwrap().get("executed").unwrap().as_u64(),
        Some(0)
    );

    // plan reports full cache coverage.
    let out = pv3t1d()
        .args(["plan", scenario.to_str().unwrap(), "--results", results_arg])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("2/2 stages cached"), "{stdout}");

    // ls shows the two artifacts.
    let out = pv3t1d().args(["ls", "--results", results_arg]).output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("2 artifacts, 0 corrupt"), "{stdout}");

    // gc keeps everything reachable from the scenario.
    let out = pv3t1d()
        .args([
            "gc",
            scenario.to_str().unwrap(),
            "--results",
            results_arg,
            "--dry-run",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("kept 2, removed 0"), "{stdout}");

    // gc --json emits the machine-readable report instead.
    let out = pv3t1d()
        .args([
            "gc",
            scenario.to_str().unwrap(),
            "--results",
            results_arg,
            "--dry-run",
            "--json",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let report = Json::parse(&String::from_utf8(out.stdout).unwrap()).unwrap();
    assert_eq!(report.get("kept").unwrap().as_u64(), Some(2));
    assert_eq!(report.get("removed").unwrap().as_u64(), Some(0));
    assert_eq!(report.get("dry_run").unwrap().as_bool(), Some(true));
    assert!(report.get("lru_evicted").is_some());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cli_reports_stage_failures_with_nonzero_exit() {
    let dir = temp_results("cli_fail");
    let scenario = write_scenario(
        &dir,
        "failing.json",
        r#"{
          "schema": 1, "name": "failing", "scale": "quick",
          "stages": [
            {"id": "boom", "kind": "sleep", "params": {"seconds": -1}},
            {"id": "child", "kind": "sleep", "deps": ["boom"]},
            {"id": "survivor", "kind": "sleep", "params": {"seconds": 0.01}}
          ]
        }"#,
    );
    let results = dir.join("results");
    let out = pv3t1d()
        .args(["run", scenario.to_str().unwrap(), "--results", results.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("out of range"), "{stderr}");

    // Partial results: the survivor's artifact and the manifest exist,
    // and the error entry carries its structured kind.
    let manifest =
        Json::parse(&std::fs::read_to_string(results.join("failing.run.json")).unwrap()).unwrap();
    assert_eq!(manifest.get("ok").unwrap().as_bool(), Some(false));
    let results_stages = manifest.get("results").unwrap().get("stages").unwrap();
    assert_eq!(
        results_stages.get("survivor").unwrap().get("status").unwrap().as_str(),
        Some("ok")
    );
    assert_eq!(
        results_stages.get("boom").unwrap().get("status").unwrap().as_str(),
        Some("failed")
    );
    assert_eq!(
        results_stages.get("child").unwrap().get("status").unwrap().as_str(),
        Some("skipped")
    );
    let errors = manifest.get("errors").unwrap();
    assert_eq!(errors.get("boom").unwrap().get("kind").unwrap().as_str(), Some("error"));
    assert_eq!(errors.get("child").unwrap().get("kind").unwrap().as_str(), Some("skipped"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cli_usage_errors_exit_two() {
    for args in [
        &["bogus"][..],
        &["run"][..],
        &["run", "/nonexistent/scenario.json"][..],
        &["run", "x.json", "--jobs", "not_a_number"][..],
        &["serve", "--listen"][..],
        &["serve", "--sample-interval-secs", "1"][..],
        // Retired: perfbench is the benchmark.
        &["bench"][..],
        &["loadtest"][..],
    ] {
        let out = pv3t1d().args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?} → {out:?}");
    }
    let help = pv3t1d().arg("help").output().unwrap();
    assert!(help.status.success());
}

#[test]
fn cli_trace_info_and_validate_reject_damaged_files_cleanly() {
    let dir = temp_results("trace");
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("gcc.pvtrace");
    let trace_arg = trace.to_str().unwrap();
    let out = pv3t1d()
        .args(["trace", "record", "gcc", trace_arg, "--seed", "7", "--len", "20000"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");

    let out = pv3t1d().args(["trace", "info", trace_arg]).output().unwrap();
    assert!(out.status.success(), "{out:?}");
    let info = String::from_utf8(out.stdout).unwrap();
    for line in ["name:             gcc", "seed:             7", "records:          20000"] {
        assert!(info.lines().any(|l| l == line), "missing {line:?} in\n{info}");
    }
    assert!(!info.contains("rate"), "{info}");

    let out = pv3t1d().args(["validate", trace_arg]).output().unwrap();
    assert_eq!(out.status.code(), Some(0), "{out:?}");

    // Half the file, and the whole file with one byte flipped inside
    // chunk 0's payload (chunk 0 starts a few dozen bytes in).
    let bytes = std::fs::read(&trace).unwrap();
    let truncated = dir.join("truncated.pvtrace");
    std::fs::write(&truncated, &bytes[..bytes.len() / 2]).unwrap();
    let mut damaged = bytes.clone();
    damaged[200] ^= 0x40;
    let flipped = dir.join("flipped.pvtrace");
    std::fs::write(&flipped, &damaged).unwrap();
    for (path, reason) in [
        (&truncated, "truncated trace: header promises 20000 records"),
        (&flipped, "corrupt chunk 0: checksum mismatch"),
    ] {
        let out = pv3t1d().args(["validate", path.to_str().unwrap()]).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{out:?}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(
            stderr.lines().any(|l| l.starts_with("error:") && l.contains(reason)),
            "{stderr}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
