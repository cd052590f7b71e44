//! Subprocess tests for the observability CLI surface: `run --trace`
//! (Chrome trace capture across the whole stack), `report`, and
//! `ls --traces`.

use obs::Json;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;

fn pv3t1d() -> Command {
    Command::new(env!("CARGO_BIN_EXE_pv3t1d"))
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pv3t1d_obs_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A scenario that exercises every instrumented crate: the fig09 stage
/// runs the campaign evaluator (t3cache) over the pipeline (uarch) and
/// finite-retention caches (cachesim) under the scheduler (orchestrator).
const TRACED: &str = r#"{
  "schema": 1, "name": "obs_traced", "scale": "quick",
  "stages": [
    { "id": "chips", "kind": "chip_campaign",
      "params": { "corner": "severe", "chips": 3, "seed": 20245 } },
    { "id": "map", "kind": "retention_map", "deps": ["chips"] },
    { "id": "fig09", "kind": "fig09" },
    { "id": "report", "kind": "report", "deps": ["map", "fig09"] }
  ]
}"#;

#[test]
fn run_trace_report_and_ls_traces_round_trip() {
    let dir = temp_dir("trace");
    let scenario = dir.join("obs_traced.json");
    std::fs::write(&scenario, TRACED).unwrap();
    let results = dir.join("results");
    let trace_path = results.join("obs_traced.trace.json");

    let out = pv3t1d()
        .args([
            "run",
            scenario.to_str().unwrap(),
            "--results",
            results.to_str().unwrap(),
            "--trace",
            trace_path.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "run --trace failed:\n{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("trace: "), "no trace summary in:\n{stdout}");

    // The capture must be a well-formed Chrome trace: balanced B/E per
    // (pid, tid) track, spans from at least three crates, and at least
    // two distinct simulator domain event types.
    let doc = Json::parse(&std::fs::read_to_string(&trace_path).unwrap()).unwrap();
    let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
    assert!(!events.is_empty());

    let mut depth: BTreeMap<(u64, u64), i64> = BTreeMap::new();
    let mut span_cats = std::collections::BTreeSet::new();
    let mut domain = std::collections::BTreeSet::new();
    for ev in events {
        let ph = ev.get("ph").unwrap().as_str().unwrap();
        if ph == "M" {
            continue;
        }
        let key = (
            ev.get("pid").unwrap().as_u64().unwrap(),
            ev.get("tid").unwrap().as_u64().unwrap(),
        );
        match ph {
            "B" => {
                *depth.entry(key).or_insert(0) += 1;
                span_cats.insert(ev.get("cat").unwrap().as_str().unwrap().to_string());
            }
            "E" => {
                let d = depth.entry(key).or_insert(0);
                *d -= 1;
                assert!(*d >= 0, "unbalanced E on track {key:?}");
            }
            _ => {}
        }
        if let Some(name) = ev.get("name").and_then(Json::as_str) {
            if [
                "refresh.issued",
                "refresh.completed",
                "line.dead",
                "eviction.retention",
                "stall.run",
                "port.retry",
                "replay.flush",
            ]
            .contains(&name)
            {
                domain.insert(name.to_string());
            }
        }
    }
    assert!(depth.values().all(|&d| d == 0), "unbalanced spans: {depth:?}");
    for cat in ["orchestrator", "t3cache", "uarch"] {
        assert!(span_cats.contains(cat), "no {cat} spans in {span_cats:?}");
    }
    assert!(
        domain.len() >= 2,
        "expected >= 2 domain event types, got {domain:?}"
    );

    // `report` folds the manifest and the trace into markdown.
    let manifest = results.join("obs_traced.run.json");
    let report_md = dir.join("report.md");
    let out = pv3t1d()
        .args([
            "report",
            manifest.to_str().unwrap(),
            "--trace",
            trace_path.to_str().unwrap(),
            "--out",
            report_md.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "report failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let md = std::fs::read_to_string(&report_md).unwrap();
    for needle in [
        "# Run report: obs_traced",
        "## Stages",
        "| fig09 |",
        "## Trace",
        "### Top spans by accumulated time",
        "### Event counts",
    ] {
        assert!(md.contains(needle), "missing {needle:?} in:\n{md}");
    }

    // `ls --traces` lists the capture with its span count.
    let out = pv3t1d()
        .args(["ls", "--traces", "--results", results.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("obs_traced.trace.json") && stdout.contains("spans"),
        "ls --traces output:\n{stdout}"
    );
    assert!(stdout.contains("1 traces in"), "ls --traces output:\n{stdout}");

    let _ = std::fs::remove_dir_all(&dir);
}
