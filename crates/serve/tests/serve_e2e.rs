//! End-to-end tests of the campaign daemon — the ISSUE-pinned
//! behaviors:
//!
//! * **request coalescing**: concurrent submissions of the same
//!   scenario execute each stage exactly once daemon-wide and all
//!   report the bit-identical fingerprint;
//! * **cancellation**: `DELETE /jobs/<id>` drains a running campaign
//!   cooperatively and the manifest records the structured
//!   `cancelled` error kind;
//! * **graceful shutdown**: a daemon with 100+ in-flight requests
//!   receives SIGTERM, drains within the grace window writing partial
//!   manifests, and a restarted daemon serves the same stage keys from
//!   cache with zero re-execution (campaigns resume from unit
//!   checkpoints);
//! * **cache-resolved submissions**: a resubmission whose every stage
//!   is a cache hit finishes on the submitting connection while the
//!   only worker is busy;
//! * **liveness under chaos**: random interleavings of submit, cancel,
//!   and cache GC terminate without deadlock (proptest).

use obs::Json;
use serve::http::exchange;
use serve::{Listen, Server, ServerConfig};
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn temp_results(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pv3t1d_serve_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn start_server(results: &std::path::Path, workers: usize) -> Server {
    Server::start(ServerConfig {
        listen: Listen::Tcp("127.0.0.1:0".to_string()),
        results_dir: results.to_path_buf(),
        workers,
        stage_jobs: 2,
        ..ServerConfig::default()
    })
    .expect("daemon starts")
}

fn sleep_scenario(name: &str, seconds: f64) -> String {
    format!(
        r#"{{"schema": 2, "name": "{name}", "scale": "quick", "stages": [
            {{"id": "work", "kind": "sleep", "params": {{"seconds": {seconds}}}}},
            {{"id": "tail", "kind": "sleep", "params": {{"seconds": {seconds}}}, "deps": ["work"]}}
        ]}}"#
    )
}

fn parse_body(resp: &serve::http::Response) -> Json {
    Json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap()
}

fn submit(addr: &str, scenario: &str) -> u64 {
    let resp = exchange(addr, "POST", "/runs", Some(scenario)).unwrap();
    assert_eq!(resp.status, 202, "{resp:?}");
    parse_body(&resp).get("job").unwrap().as_u64().unwrap()
}

/// Blocks until the job's event stream closes (job terminal), then
/// returns its status document.
fn await_terminal(addr: &str, id: u64) -> Json {
    let events = exchange(addr, "GET", &format!("/jobs/{id}/events"), None).unwrap();
    assert_eq!(events.status, 200);
    let status = exchange(addr, "GET", &format!("/jobs/{id}"), None).unwrap();
    assert_eq!(status.status, 200);
    parse_body(&status)
}

fn healthz(addr: &str) -> Json {
    parse_body(&exchange(addr, "GET", "/healthz", None).unwrap())
}

fn status(addr: &str, id: u64) -> Json {
    let resp = exchange(addr, "GET", &format!("/jobs/{id}"), None).unwrap();
    assert_eq!(resp.status, 200, "{resp:?}");
    parse_body(&resp)
}

fn state(doc: &Json) -> &str {
    doc.get("state").and_then(Json::as_str).unwrap()
}

fn manifest_field<'a>(doc: &'a Json, key: &str) -> Option<&'a Json> {
    doc.get("manifest").and_then(|m| m.get(key))
}

#[test]
fn concurrent_identical_submissions_execute_each_stage_once() {
    let dir = temp_results("coalesce");
    let server = start_server(&dir, 6);
    let addr = server.addr().to_string();

    // Six clients submit the identical scenario at once. The sleeps are
    // long enough that all six jobs are mid-flight together, so the
    // stage keys collide while executing — the flight table must
    // collapse them to one leader per stage.
    let scenario = sleep_scenario("shared", 0.4);
    let handles: Vec<_> = (0..6)
        .map(|_| {
            let addr = addr.clone();
            let scenario = scenario.clone();
            std::thread::spawn(move || {
                let id = submit(&addr, &scenario);
                await_terminal(&addr, id)
            })
        })
        .collect();
    let statuses: Vec<Json> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    let mut fingerprints = Vec::new();
    for status in &statuses {
        assert_eq!(status.get("state").unwrap().as_str(), Some("done"), "{status:?}");
        let manifest = status.get("manifest").unwrap();
        fingerprints.push(
            manifest
                .get("fingerprint")
                .unwrap()
                .as_str()
                .unwrap()
                .to_string(),
        );
    }
    assert!(
        fingerprints.windows(2).all(|w| w[0] == w[1]),
        "all six jobs must report the identical fingerprint: {fingerprints:?}"
    );

    // The execution count proves exactly-once: two stages in the DAG,
    // two executions daemon-wide, everything else coalesced or cached.
    let health = healthz(&addr);
    let flight = health.get("flight").unwrap();
    assert_eq!(
        flight.get("executed_total").unwrap().as_u64(),
        Some(2),
        "each stage key must execute exactly once across all six jobs: {health:?}"
    );
    assert!(
        flight.get("coalesced_total").unwrap().as_u64().unwrap() >= 5,
        "the first stage alone has five followers: {health:?}"
    );

    // The telemetry plane folds CAS traffic and pool occupancy into the
    // same health document.
    let cas = health.get("cas").expect("healthz carries cas totals");
    assert!(cas.get("hits").and_then(Json::as_u64).is_some(), "{health:?}");
    assert!(cas.get("misses").and_then(Json::as_u64).is_some(), "{health:?}");
    let workers = health.get("workers").expect("healthz carries the pool");
    assert_eq!(workers.get("total").unwrap().as_u64(), Some(6), "{health:?}");
    let util = workers.get("utilization").unwrap().as_f64().unwrap();
    assert!((0.0..=1.0).contains(&util), "utilization in [0,1]: {health:?}");

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn delete_cancels_a_running_campaign_with_a_structured_error() {
    let dir = temp_results("cancel");
    let server = start_server(&dir, 2);
    let addr = server.addr().to_string();

    // A slow campaign: 40 units × 150 ms keeps it mid-flight while we
    // cancel. (Worker count is per-process; pinning is unnecessary —
    // any pace leaves seconds of runway.)
    let scenario = r#"{"schema": 2, "name": "doomed", "scale": "quick", "stages": [
        {"id": "chips", "kind": "chip_campaign",
         "params": {"chips": 40, "seed": 3, "corner": "severe", "unit_sleep_ms": 150}}
    ]}"#;
    let id = submit(&addr, scenario);

    // Wait until it is actually running, then cancel.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let status = parse_body(&exchange(&addr, "GET", &format!("/jobs/{id}"), None).unwrap());
        match status.get("state").unwrap().as_str() {
            Some("running") => break,
            Some("queued") => {}
            other => panic!("job reached {other:?} before cancellation"),
        }
        assert!(Instant::now() < deadline, "job never started running");
        std::thread::sleep(Duration::from_millis(20));
    }
    let resp = exchange(&addr, "DELETE", &format!("/jobs/{id}"), None).unwrap();
    assert_eq!(resp.status, 202);

    let status = await_terminal(&addr, id);
    assert_eq!(status.get("state").unwrap().as_str(), Some("cancelled"), "{status:?}");
    // The partial manifest carries the structured error kind, so
    // clients can tell cancellation from a crash or a timeout.
    let error = status
        .get("manifest")
        .and_then(|m| m.get("errors"))
        .and_then(|e| e.get("chips"))
        .expect("manifest records the cancelled stage");
    assert_eq!(error.get("kind").unwrap().as_str(), Some("cancelled"), "{error:?}");

    // Unknown ids 404 on every job route.
    for (method, path) in [
        ("GET", "/jobs/999"),
        ("DELETE", "/jobs/999"),
        ("GET", "/jobs/999/events"),
    ] {
        assert_eq!(exchange(&addr, method, path, None).unwrap().status, 404);
    }
    // Malformed submissions are 400s, not daemon crashes.
    assert_eq!(
        exchange(&addr, "POST", "/runs", Some("{not json")).unwrap().status,
        400
    );
    assert_eq!(
        exchange(&addr, "POST", "/runs", Some("{\"schema\": 2}")).unwrap().status,
        400
    );

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Sends SIGTERM — `std::process::Child::kill` is SIGKILL, which would
/// skip the drain path this test exists to exercise.
#[cfg(unix)]
fn send_sigterm(pid: u32) {
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }
    let rc = unsafe { kill(pid as i32, 15) };
    assert_eq!(rc, 0, "kill(SIGTERM) failed for pid {pid}");
}

/// Spawns a `pv3t1d serve` subprocess on an ephemeral port and returns
/// the child plus the address it actually bound (parsed from its
/// startup line — SO_REUSEADDR is not set, so every start must pick a
/// fresh port).
#[cfg(unix)]
fn spawn_daemon(results: &std::path::Path, workers: usize) -> (std::process::Child, String) {
    use std::io::BufRead;
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_pv3t1d"))
        .args([
            "serve",
            "--listen",
            "127.0.0.1:0",
            "--workers",
            &workers.to_string(),
            "--gc-interval-secs",
            "0",
            "--results",
        ])
        .arg(results)
        // One campaign unit worker keeps the chip campaign slow enough
        // to be mid-flight when the drain signal lands.
        .env("PV3T1D_WORKERS", "1")
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::inherit())
        .spawn()
        .expect("daemon subprocess spawns");
    let mut reader = std::io::BufReader::new(child.stdout.take().unwrap());
    let addr = loop {
        let mut line = String::new();
        assert_ne!(
            reader.read_line(&mut line).unwrap(),
            0,
            "daemon exited before announcing its address"
        );
        if let Some(rest) = line.trim().strip_prefix("serve: listening on ") {
            break rest.split_whitespace().next().unwrap().to_string();
        }
    };
    // Keep draining stdout so the daemon never blocks on a full pipe.
    std::thread::spawn(move || {
        let mut sink = String::new();
        let _ = std::io::Read::read_to_string(&mut reader, &mut sink);
    });
    (child, addr)
}

#[cfg(unix)]
fn wait_for_exit(child: &mut std::process::Child, deadline: Duration) {
    let t0 = Instant::now();
    loop {
        if child.try_wait().unwrap().is_some() {
            return;
        }
        assert!(
            t0.elapsed() < deadline,
            "daemon did not exit within the {deadline:?} grace window"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

#[cfg(unix)]
fn unit_checkpoints(results: &std::path::Path) -> usize {
    std::fs::read_dir(results.join("cas"))
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter(|e| e.file_name().to_string_lossy().contains(".u"))
                .count()
        })
        .unwrap_or(0)
}

/// The acceptance-criteria e2e: a daemon serving 100+ concurrent
/// in-flight requests receives SIGTERM, drains within the grace window
/// writing partial manifests, and a restarted daemon serves the same
/// stage keys from cache with zero re-execution — including resuming
/// the interrupted campaign from its unit checkpoints.
#[cfg(unix)]
#[test]
fn sigterm_drains_inflight_fleet_and_restart_serves_from_cache() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    let dir = temp_results("sigterm");
    std::fs::create_dir_all(&dir).unwrap();
    let (mut daemon, addr) = spawn_daemon(&dir, 3);

    // Phase 1: a fast scenario completes normally; its fingerprint is
    // the reference the restarted daemon must reproduce from cache.
    let reference = sleep_scenario("warmref", 0.02);
    let ref_id = submit(&addr, &reference);
    let ref_status = await_terminal(&addr, ref_id);
    assert_eq!(ref_status.get("state").unwrap().as_str(), Some("done"), "{ref_status:?}");
    let ref_fingerprint = ref_status
        .get("manifest")
        .and_then(|m| m.get("fingerprint"))
        .and_then(Json::as_str)
        .expect("reference run has a fingerprint")
        .to_string();

    // Phase 2: a slow chip campaign (40 units × 150 ms at one worker ≈
    // 6 s) — guaranteed mid-flight when the signal lands.
    let campaign = r#"{"schema": 2, "name": "resumable", "scale": "quick", "stages": [
        {"id": "chips", "kind": "chip_campaign",
         "params": {"chips": 40, "seed": 11, "corner": "severe", "unit_sleep_ms": 150}}
    ]}"#;
    let campaign_id = submit(&addr, campaign);
    let deadline = Instant::now() + Duration::from_secs(60);
    while unit_checkpoints(&dir) < 2 {
        assert!(
            Instant::now() < deadline,
            "campaign never wrote unit checkpoints"
        );
        std::thread::sleep(Duration::from_millis(25));
    }

    // Phase 3: flood the daemon with 100 clients, each holding an open
    // event-stream connection for a distinct queued job.
    let submitted = Arc::new(AtomicUsize::new(0));
    let tails: Vec<_> = (0..100)
        .map(|i| {
            let addr = addr.clone();
            let submitted = submitted.clone();
            std::thread::spawn(move || {
                let scenario = sleep_scenario(&format!("flood_{i}"), 0.25 + i as f64 * 1e-6);
                let id = submit(&addr, &scenario);
                submitted.fetch_add(1, Ordering::SeqCst);
                // Hold the stream open until the daemon closes it.
                let events = exchange(&addr, "GET", &format!("/jobs/{id}/events"), None).unwrap();
                assert_eq!(events.status, 200);
            })
        })
        .collect();
    while submitted.load(Ordering::SeqCst) < 100 {
        assert!(Instant::now() < deadline, "flood submissions stalled");
        std::thread::sleep(Duration::from_millis(10));
    }
    let health = healthz(&addr);
    let jobs = health.get("jobs").unwrap();
    let in_flight = jobs.get("queued").unwrap().as_u64().unwrap()
        + jobs.get("running").unwrap().as_u64().unwrap();
    assert!(
        in_flight >= 90,
        "the daemon must be holding a large in-flight backlog at signal time: {health:?}"
    );

    // SIGTERM: the daemon must drain — cancel the backlog, stop the
    // campaign at a unit boundary, close every stream — and exit.
    let signalled = Instant::now();
    send_sigterm(daemon.id());
    for t in tails {
        t.join().expect("event-stream client survived the drain");
    }
    wait_for_exit(&mut daemon, Duration::from_secs(60));
    let drain = signalled.elapsed();
    assert!(
        drain < Duration::from_secs(30),
        "drain took {drain:?}, exceeding the grace window"
    );

    // The interrupted campaign left a partial manifest with the
    // structured cancelled error.
    let manifest_path = dir.join("jobs").join(format!("{campaign_id}.run.json"));
    let manifest = Json::parse(&std::fs::read_to_string(&manifest_path).unwrap()).unwrap();
    let error = manifest
        .get("errors")
        .and_then(|e| e.get("chips"))
        .expect("partial manifest records the interrupted stage");
    assert_eq!(error.get("kind").unwrap().as_str(), Some("cancelled"), "{error:?}");
    assert!(
        unit_checkpoints(&dir) >= 1,
        "unit checkpoints must survive the drain for the restart to resume from"
    );

    // Phase 4: restart (fresh ephemeral port) on the same results dir.
    let (mut daemon2, addr2) = spawn_daemon(&dir, 3);

    // The reference scenario is served entirely from cache: zero
    // executions, bit-identical fingerprint.
    let replay_id = submit(&addr2, &reference);
    let replay = await_terminal(&addr2, replay_id);
    assert_eq!(replay.get("state").unwrap().as_str(), Some("done"), "{replay:?}");
    let replay_manifest = replay.get("manifest").unwrap();
    assert_eq!(
        replay_manifest.get("fingerprint").and_then(Json::as_str),
        Some(ref_fingerprint.as_str()),
        "restart must reproduce the reference fingerprint from cache"
    );
    let execution = replay_manifest.get("execution").unwrap();
    assert_eq!(
        execution.get("executed").unwrap().as_u64(),
        Some(0),
        "no stage may re-execute after restart: {execution:?}"
    );

    // The interrupted campaign resumes from its unit checkpoints
    // instead of starting over.
    let resume_id = submit(&addr2, campaign);
    let resumed = await_terminal(&addr2, resume_id);
    assert_eq!(resumed.get("state").unwrap().as_str(), Some("done"), "{resumed:?}");
    let resumed_units = resumed
        .get("manifest")
        .and_then(|m| m.get("execution"))
        .and_then(|e| e.get("metrics"))
        .and_then(|m| m.get("counters"))
        .and_then(|c| c.get("orchestrator.checkpoint.resumed_units"))
        .and_then(Json::as_u64)
        .unwrap_or(0);
    assert!(
        resumed_units >= 1,
        "the restarted campaign must replay checkpointed units: {resumed:?}"
    );

    send_sigterm(daemon2.id());
    wait_for_exit(&mut daemon2, Duration::from_secs(60));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn deeply_nested_body_is_a_400_and_the_daemon_keeps_serving() {
    let dir = temp_results("deep_json");
    let server = start_server(&dir, 1);
    let addr = server.addr().to_string();

    // 100k open brackets (~100 KB) on a connection thread's stack: the
    // parser must refuse the nesting, not recurse until the process
    // aborts.
    let body = "[".repeat(100_000);
    let resp = exchange(&addr, "POST", "/runs", Some(&body)).unwrap();
    assert_eq!(resp.status, 400, "{resp:?}");
    let err = parse_body(&resp);
    let msg = err.get("error").and_then(Json::as_str).unwrap_or_default();
    assert!(msg.contains("nesting"), "{err:?}");

    assert_eq!(healthz(&addr).get("ok").and_then(Json::as_bool), Some(true));
    let id = submit(&addr, &sleep_scenario("after_deep", 0.0));
    assert_eq!(await_terminal(&addr, id).get("state").unwrap().as_str(), Some("done"));

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// `fail` exists only in the orchestrator's own test build and `flaky`
/// in no build, so the daemon knows neither. A `POST /runs` naming one
/// is a 400 that names the kind, and no `marker` file is written.
#[test]
fn failure_injection_kinds_are_rejected_without_writing_files() {
    let dir = temp_results("injection");
    let server = start_server(&dir, 1);
    let addr = server.addr().to_string();
    for kind in ["flaky", "fail"] {
        let marker =
            std::env::temp_dir().join(format!("pv3t1d_serve_marker_{kind}_{}", std::process::id()));
        let _ = std::fs::remove_file(&marker);
        let body = format!(
            r#"{{"schema": 1, "name": "inject", "scale": "quick", "stages": [
                {{"id": "x", "kind": "{kind}",
                  "params": {{"marker": "{}", "mode": "error"}}}}
            ]}}"#,
            marker.display()
        );
        let resp = exchange(&addr, "POST", "/runs", Some(&body)).unwrap();
        assert_eq!(resp.status, 400, "{kind}: {resp:?}");
        let doc = parse_body(&resp);
        let msg = doc.get("error").and_then(Json::as_str).unwrap_or_default();
        assert!(
            msg.contains(&format!("unknown kind \"{kind}\"")),
            "{kind}: {msg}"
        );
        assert!(!marker.exists(), "{kind}: {} was created", marker.display());
    }
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A scenario of the removed technology × operating-point grid (the old
/// `scenarios/dvfs_smoke.json`) is a 400 that names the grid. It is not
/// run as something else, and no job is created for it.
#[test]
fn grid_scenarios_are_rejected_without_a_job() {
    const GRID_SCENARIO: &str = r#"{
      "schema": 3,
      "name": "dvfs_smoke",
      "scale": "quick",
      "default_timeout_seconds": 1800,
      "technologies": ["3t1d", "6t-lv"],
      "operating_points": [
        { "vdd": 1.0, "freq_ghz": 4.3 },
        { "vdd": 0.85, "freq_ghz": 3.0, "temp_c": 60 }
      ],
      "stages": [
        { "id": "grid", "kind": "dvfs_point", "sweep": true,
          "params": { "node": "32nm", "corner": "severe", "chips": 8, "seed": 20245 } },
        { "id": "frontier", "kind": "dvfs_frontier", "deps": ["grid"] }
      ]
    }"#;
    let dir = temp_results("grid");
    let server = start_server(&dir, 1);
    let addr = server.addr().to_string();
    let jobs = |addr: &str| {
        let list = parse_body(&exchange(addr, "GET", "/jobs", None).unwrap());
        list.get("jobs").unwrap().as_arr().unwrap().len()
    };
    let before = jobs(&addr);

    let resp = exchange(&addr, "POST", "/runs", Some(GRID_SCENARIO)).unwrap();
    assert_eq!(resp.status, 400, "{resp:?}");
    let doc = parse_body(&resp);
    let msg = doc.get("error").and_then(Json::as_str).unwrap_or_default();
    assert!(msg.contains("grid"), "{msg}");
    assert_eq!(jobs(&addr), before);

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn event_stream_replays_history_and_reports_lifecycle() {
    let dir = temp_results("events");
    let server = start_server(&dir, 2);
    let addr = server.addr().to_string();

    let id = submit(&addr, &sleep_scenario("traced", 0.02));
    // Tail after completion: the cursor-replayable bus serves the full
    // history to late subscribers.
    await_terminal(&addr, id);
    let events = exchange(&addr, "GET", &format!("/jobs/{id}/events"), None).unwrap();
    let lines: Vec<Json> = std::str::from_utf8(&events.body)
        .unwrap()
        .lines()
        .map(|l| Json::parse(l).expect("each event line is a JSON document"))
        .collect();
    let kinds: Vec<&str> = lines
        .iter()
        .map(|e| e.get("event").unwrap().as_str().unwrap())
        .collect();
    assert_eq!(kinds.first(), Some(&"run.started"), "{kinds:?}");
    assert_eq!(kinds.last(), Some(&"run.finished"), "{kinds:?}");
    assert!(
        kinds.iter().filter(|k| **k == "stage.finished").count() >= 2,
        "both stages must report: {kinds:?}"
    );
    let finished = lines.last().unwrap();
    assert_eq!(finished.get("ok").unwrap().as_bool(), Some(true));
    assert!(finished.get("fingerprint").is_some());

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The accept thread blocks in `accept()`, so an exchange on an idle
/// daemon is served as soon as it connects. A timed accept poll would
/// add its interval to every one of these exchanges.
#[test]
fn idle_daemon_answers_sequential_exchanges_without_polling() {
    let dir = temp_results("accept_latency");
    let server = start_server(&dir, 1);
    let addr = server.addr().to_string();
    assert_eq!(exchange(&addr, "GET", "/healthz", None).unwrap().status, 200);

    let t0 = Instant::now();
    for _ in 0..20 {
        assert_eq!(exchange(&addr, "GET", "/healthz", None).unwrap().status, 200);
    }
    let took = t0.elapsed();
    assert!(
        took < Duration::from_millis(250),
        "20 sequential /healthz exchanges took {took:?}"
    );

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// `Server::shutdown` wakes the blocked accept thread with a connection
/// to the daemon's own listener, on TCP and Unix sockets alike.
#[test]
fn idle_shutdown_wakes_the_accept_loop_promptly() {
    let dir = temp_results("idle_shutdown");
    let mut listens = vec![Listen::Tcp("127.0.0.1:0".to_string())];
    #[cfg(unix)]
    listens.push(Listen::Unix(dir.join("daemon.sock")));
    for listen in listens {
        std::fs::create_dir_all(&dir).unwrap();
        let server = Server::start(ServerConfig {
            listen: listen.clone(),
            results_dir: dir.clone(),
            workers: 2,
            ..ServerConfig::default()
        })
        .expect("daemon starts");
        // Let every daemon thread settle into its idle wait.
        std::thread::sleep(Duration::from_millis(100));
        let t0 = Instant::now();
        server.shutdown();
        let took = t0.elapsed();
        assert!(
            took < Duration::from_secs(1),
            "idle shutdown on {listen:?} took {took:?}"
        );
        if let Listen::Unix(path) = &listen {
            assert!(!path.exists(), "the socket file is removed on shutdown");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The job table keeps the 64 most recently finished jobs. An evicted
/// job's status is rebuilt from its on-disk manifest, its events are
/// gone, job counts keep every finished job, and a restarted daemon
/// never serves a previous daemon's manifest.
#[test]
fn finished_jobs_beyond_the_cap_fall_back_to_their_manifests() {
    let dir = temp_results("evict");
    let server = start_server(&dir, 2);
    let addr = server.addr().to_string();

    let total = 70u64;
    let mut first: Option<(String, String)> = None;
    let mut last = 0;
    for i in 0..total {
        let id = submit(&addr, &sleep_scenario(&format!("evict_{i}"), 0.001));
        let status = await_terminal(&addr, id);
        assert_eq!(status.get("state").unwrap().as_str(), Some("done"), "{status:?}");
        if i == 0 {
            assert_eq!(id, 1);
            let request_id = status.get("request_id").unwrap().as_str().unwrap();
            let fingerprint = status
                .get("manifest")
                .and_then(|m| m.get("fingerprint"))
                .and_then(Json::as_str)
                .unwrap();
            first = Some((request_id.to_string(), fingerprint.to_string()));
        }
        last = id;
    }
    let (request_id, fingerprint) = first.unwrap();

    let list = parse_body(&exchange(&addr, "GET", "/jobs", None).unwrap());
    assert_eq!(list.get("jobs").unwrap().as_arr().unwrap().len(), 64, "{list:?}");

    let resp = exchange(&addr, "GET", "/jobs/1", None).unwrap();
    assert_eq!(resp.status, 200, "{resp:?}");
    let status = parse_body(&resp);
    assert_eq!(status.get("job").unwrap().as_u64(), Some(1));
    assert_eq!(status.get("scenario").unwrap().as_str(), Some("evict_0"));
    assert_eq!(status.get("state").unwrap().as_str(), Some("done"), "{status:?}");
    assert_eq!(status.get("request_id").unwrap().as_str(), Some(request_id.as_str()));
    assert_eq!(
        status
            .get("manifest")
            .and_then(|m| m.get("fingerprint"))
            .and_then(Json::as_str),
        Some(fingerprint.as_str())
    );

    let events = exchange(&addr, "GET", "/jobs/1/events", None).unwrap();
    assert_eq!(events.status, 404);
    assert_eq!(
        parse_body(&events).get("error").unwrap().as_str(),
        Some("events no longer retained")
    );
    assert_eq!(
        exchange(&addr, "GET", &format!("/jobs/{}", last + 1), None)
            .unwrap()
            .status,
        404
    );

    // Counts cover every job this daemon finished, not just the 64 kept.
    let health = healthz(&addr);
    assert_eq!(
        health.get("jobs").unwrap().get("finished").unwrap().as_u64(),
        Some(total),
        "{health:?}"
    );
    let metrics = parse_body(&exchange(&addr, "GET", "/metrics.json", None).unwrap());
    assert_eq!(
        metrics
            .get("gauges")
            .and_then(|g| g.get("serve.jobs.finished"))
            .and_then(Json::as_f64),
        Some(total as f64),
        "{metrics:?}"
    );
    server.shutdown();

    // A restarted daemon has issued no ids yet: job 1 is unknown to it,
    // even though the previous daemon's manifest is still on disk.
    assert!(dir.join("jobs").join("1.run.json").exists());
    let server = start_server(&dir, 2);
    let addr = server.addr().to_string();
    assert_eq!(exchange(&addr, "GET", "/jobs/1", None).unwrap().status, 404);
    assert_eq!(exchange(&addr, "GET", "/jobs/1/events", None).unwrap().status, 404);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A resubmission whose every stage is already in the CAS finishes on
/// the connection that submitted it: the 202 arrives with the job done,
/// while the only worker is still busy and a fresh scenario waits in the
/// queue behind it.
#[test]
fn cached_resubmission_finishes_without_a_worker() {
    let dir = temp_results("cache_resolved");
    let server = start_server(&dir, 1);
    let addr = server.addr().to_string();

    let scenario = sleep_scenario("resolved", 0.02);
    let first_id = submit(&addr, &scenario);
    let first = await_terminal(&addr, first_id);
    assert_eq!(state(&first), "done", "{first:?}");
    let fingerprint = manifest_field(&first, "fingerprint").unwrap().clone();

    // The daemon's manifest file holds the very document the status
    // endpoint serves.
    let path = dir.join("jobs").join(format!("{first_id}.run.json"));
    let on_disk = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
    assert_eq!(Some(&on_disk), first.get("manifest"));

    // Occupy the one worker.
    let blocker = r#"{"schema": 2, "name": "blocker", "scale": "quick", "stages": [
        {"id": "hold", "kind": "sleep", "params": {"seconds": 4.0}}
    ]}"#;
    let blocker_id = submit(&addr, blocker);
    let deadline = Instant::now() + Duration::from_secs(30);
    while state(&status(&addr, blocker_id)) != "running" {
        assert!(Instant::now() < deadline, "the blocker never started");
        std::thread::sleep(Duration::from_millis(10));
    }

    let id = submit(&addr, &scenario);
    let resolved = status(&addr, id);
    assert_eq!(state(&resolved), "done", "{resolved:?}");
    let execution = manifest_field(&resolved, "execution").unwrap();
    assert_eq!(execution.get("executed").and_then(Json::as_u64), Some(0), "{execution:?}");
    assert_eq!(manifest_field(&resolved, "fingerprint"), Some(&fingerprint));
    let path = dir.join("jobs").join(format!("{id}.run.json"));
    let on_disk = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
    assert_eq!(Some(&on_disk), resolved.get("manifest"));

    let events = exchange(&addr, "GET", &format!("/jobs/{id}/events"), None).unwrap();
    assert_eq!(events.status, 200);
    let kinds: Vec<String> = std::str::from_utf8(&events.body)
        .unwrap()
        .lines()
        .map(|l| {
            let event = Json::parse(l).expect("each event line is a JSON document");
            event.get("event").and_then(Json::as_str).unwrap().to_string()
        })
        .collect();
    assert_eq!(kinds.first().map(String::as_str), Some("run.started"), "{kinds:?}");
    assert_eq!(kinds.last().map(String::as_str), Some("run.finished"), "{kinds:?}");
    assert_eq!(state(&status(&addr, blocker_id)), "running");

    // A scenario with stages the CAS lacks still waits for the worker.
    let fresh_id = submit(&addr, &sleep_scenario("fresh", 0.021));
    assert_eq!(state(&status(&addr, fresh_id)), "queued");
    assert_eq!(state(&status(&addr, blocker_id)), "running");

    let workers = healthz(&addr).get("workers").unwrap().clone();
    assert_eq!(workers.get("busy").and_then(Json::as_u64), Some(1), "{workers:?}");

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
