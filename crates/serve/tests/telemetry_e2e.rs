//! End-to-end tests of the live telemetry plane — the ISSUE-pinned
//! behaviors:
//!
//! * **exposition**: `/metrics` renders valid Prometheus text and
//!   `/metrics.json` a parseable registry document whose counters move
//!   when a job runs over HTTP;
//! * **history**: the sampler thread fills `/metrics/history` with
//!   timestamped NDJSON snapshots while the daemon serves;
//! * **cache-resolved jobs**: a resubmission finished on its connection
//!   moves `serve.jobs.cache_resolved_total`;
//! * **correlation**: the request id minted at accept time is
//!   followable from the `POST /runs` response through the job status
//!   document, the scheduler's stage trace spans, and the structured
//!   NDJSON log — and turning all of that telemetry on leaves the run
//!   fingerprint bit-identical to a silent run.

use obs::Json;
use serve::loadtest::exchange;
use serve::{Listen, Server, ServerConfig};
use std::path::PathBuf;
use std::time::Duration;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pv3t1d_tele_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn start_server(results: &std::path::Path, sample_interval: Duration) -> Server {
    Server::start(ServerConfig {
        listen: Listen::Tcp("127.0.0.1:0".to_string()),
        results_dir: results.to_path_buf(),
        workers: 2,
        stage_jobs: 2,
        sample_interval,
        ..ServerConfig::default()
    })
    .expect("daemon starts")
}

fn parse_body(resp: &serve::http::Response) -> Json {
    Json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap()
}

fn get(addr: &str, path: &str) -> serve::http::Response {
    let resp = exchange(addr, "GET", path, None).unwrap();
    assert_eq!(resp.status, 200, "GET {path}");
    resp
}

/// Blocks until the job's event stream closes (job terminal), then
/// returns its status document.
fn await_terminal(addr: &str, id: u64) -> Json {
    let events = exchange(addr, "GET", &format!("/jobs/{id}/events"), None).unwrap();
    assert_eq!(events.status, 200);
    parse_body(&get(addr, &format!("/jobs/{id}")))
}

fn registry(addr: &str) -> obs::MetricsRegistry {
    let doc = parse_body(&get(addr, "/metrics.json"));
    obs::MetricsRegistry::from_json(&doc).expect("metrics.json is a registry document")
}

#[test]
fn metrics_exposition_history_and_healthz_cover_the_job_lifecycle() {
    let dir = temp_dir("metrics");
    let server = start_server(&dir, Duration::from_millis(100));
    let addr = server.addr().to_string();

    // Before: the exposition is valid Prometheus text even on a daemon
    // that has served nothing but this scrape.
    let before_text = String::from_utf8(get(&addr, "/metrics").body).unwrap();
    obs::prom::validate(&before_text).expect("fresh /metrics page is valid");
    let before = registry(&addr);

    // One job over HTTP.
    let scenario = r#"{"schema": 2, "name": "tele_metrics", "scale": "quick", "stages": [
        {"id": "mx_work", "kind": "sleep", "params": {"seconds": 0.3}}
    ]}"#;
    let resp = exchange(&addr, "POST", "/runs", Some(scenario)).unwrap();
    assert_eq!(resp.status, 202);
    let id = parse_body(&resp).get("job").unwrap().as_u64().unwrap();
    let status = await_terminal(&addr, id);
    assert_eq!(status.get("state").unwrap().as_str(), Some("done"), "{status:?}");

    // After: valid exposition, counters moved, the job histogram saw
    // the run, and the live gauges describe the pool.
    let after_text = String::from_utf8(get(&addr, "/metrics").body).unwrap();
    obs::prom::validate(&after_text).expect("post-job /metrics page is valid");
    assert!(
        after_text.contains("serve_http_requests_total"),
        "sanitized counter name must appear:\n{after_text}"
    );
    let after = registry(&addr);
    assert!(
        after.counter("serve.http.requests_total").unwrap_or(0)
            > before.counter("serve.http.requests_total").unwrap_or(0),
        "request counter must move"
    );
    assert!(after.counter("serve.jobs.finished_total").unwrap_or(0) >= 1);
    assert!(after.counter("serve.jobs.done_total").unwrap_or(0) >= 1);
    let h = after
        .histograms()
        .get("serve.job.wall_seconds")
        .expect("job wall-time histogram exists");
    assert!(h.count() >= 1, "job histogram must have observed the run");
    assert_eq!(after.gauges().get("serve.workers.total"), Some(&2.0));
    if cfg!(target_os = "linux") {
        for gauge in ["serve.process.resident_bytes", "serve.process.peak_resident_bytes"] {
            let bytes = after.gauges().get(gauge).copied();
            assert!(bytes.is_some_and(|b| b > 0.0), "{gauge}: {bytes:?}");
            let exported = obs::prom::sanitize_name(gauge);
            assert!(after_text.contains(&exported), "{exported} missing:\n{after_text}");
        }
    }

    // History: the 100 ms sampler has had ample time; every NDJSON
    // line is a timestamped registry snapshot.
    std::thread::sleep(Duration::from_millis(300));
    let history = String::from_utf8(get(&addr, "/metrics/history?window=3600").body).unwrap();
    let samples: Vec<Json> = history
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| Json::parse(l).expect("history line parses"))
        .collect();
    assert!(!samples.is_empty(), "sampler must have captured snapshots");
    for sample in &samples {
        assert!(sample.get("ts_ms").and_then(Json::as_u64).is_some(), "{sample:?}");
        let snap = sample.get("metrics").expect("sample carries a registry");
        assert!(obs::MetricsRegistry::from_json(snap).is_some(), "{snap:?}");
    }
    // A broken window parameter is an HTTP 400 with a structured error,
    // never a silent whole-ring fallback: zero, negative, and
    // non-numeric values are all rejected.
    for bad in ["nope", "0", "-4"] {
        let resp = exchange(&addr, "GET", &format!("/metrics/history?window={bad}"), None)
            .unwrap();
        assert_eq!(resp.status, 400, "window={bad} must be rejected");
        let err = parse_body(&resp);
        assert!(
            err.get("error").and_then(Json::as_str).is_some_and(|e| e.contains("window")),
            "window={bad} error names the parameter: {err:?}"
        );
    }

    // Satellite: /healthz folds in CAS totals and pool occupancy.
    let health = parse_body(&get(&addr, "/healthz"));
    let cas = health.get("cas").expect("healthz carries cas totals");
    assert!(cas.get("hits").and_then(Json::as_u64).is_some(), "{health:?}");
    assert!(cas.get("misses").and_then(Json::as_u64).is_some(), "{health:?}");
    let workers = health.get("workers").expect("healthz carries the pool");
    assert_eq!(workers.get("total").unwrap().as_u64(), Some(2));
    let util = workers.get("utilization").unwrap().as_f64().unwrap();
    assert!((0.0..=1.0).contains(&util), "utilization in [0,1]: {util}");
    let latency = health.get("http_latency").expect("healthz carries quantiles");
    let p50 = latency.get("p50_ms").unwrap().as_f64().unwrap();
    let p99 = latency.get("p99_ms").unwrap().as_f64().unwrap();
    assert!(p50 <= p99, "quantiles must be ordered: {latency:?}");

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn request_id_correlates_api_trace_and_logs_with_identical_fingerprints() {
    // Unique stage ids so the span/log search below cannot match
    // telemetry from the other tests sharing this process.
    let scenario = r#"{"schema": 2, "name": "tele_corr", "scale": "quick", "stages": [
        {"id": "corr_work", "kind": "sleep", "params": {"seconds": 0.05}},
        {"id": "corr_tail", "kind": "sleep", "params": {"seconds": 0.05}, "deps": ["corr_work"]}
    ]}"#;
    let fingerprint_of = |status: &Json| {
        status
            .get("manifest")
            .and_then(|m| m.get("fingerprint"))
            .and_then(Json::as_str)
            .expect("manifest fingerprint")
            .to_string()
    };

    // Silent run: no tracer, no logger.
    let dir_silent = temp_dir("corr_silent");
    let server = start_server(&dir_silent, Duration::from_secs(3600));
    let addr = server.addr().to_string();
    let resp = exchange(&addr, "POST", "/runs", Some(scenario)).unwrap();
    assert_eq!(resp.status, 202);
    let id = parse_body(&resp).get("job").unwrap().as_u64().unwrap();
    let silent_status = await_terminal(&addr, id);
    assert_eq!(silent_status.get("state").unwrap().as_str(), Some("done"));
    let silent_fp = fingerprint_of(&silent_status);
    server.shutdown();

    // Loud run: tracer buffering spans, structured NDJSON log to a
    // file, fresh results dir so every stage actually executes.
    let dir_loud = temp_dir("corr_loud");
    let log_path = std::env::temp_dir().join(format!(
        "pv3t1d_tele_corr_{}.ndjson",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&log_path);
    obs::trace::enable_default();
    obs::log::init_file(log_path.to_str().unwrap(), obs::log::Level::Debug, 64 * 1024 * 1024)
        .expect("log file opens");

    let server = start_server(&dir_loud, Duration::from_secs(3600));
    let addr = server.addr().to_string();
    let resp = exchange(&addr, "POST", "/runs", Some(scenario)).unwrap();
    assert_eq!(resp.status, 202);
    let accepted = parse_body(&resp);
    let rid = accepted
        .get("request_id")
        .and_then(Json::as_str)
        .expect("submit response echoes the correlation id")
        .to_string();
    assert!(rid.starts_with("req-"), "minted id shape: {rid}");
    let id = accepted.get("job").unwrap().as_u64().unwrap();

    // Hop 1 → 2: the job status document carries the same id, and the
    // manifest pins it in its execution section (never in results).
    let loud_status = await_terminal(&addr, id);
    assert_eq!(loud_status.get("state").unwrap().as_str(), Some("done"));
    assert_eq!(loud_status.get("request_id").unwrap().as_str(), Some(rid.as_str()));
    let manifest = loud_status.get("manifest").unwrap();
    assert_eq!(
        manifest
            .get("execution")
            .and_then(|e| e.get("request_id"))
            .and_then(Json::as_str),
        Some(rid.as_str()),
        "manifest execution section records the id"
    );
    assert!(
        manifest.get("results").is_none_or(|r| !r.render().contains(&rid)),
        "the id must never leak into fingerprinted results"
    );
    server.shutdown();

    // Hop 3: a stage span tagged with the id is in the trace buffer.
    let trace = obs::trace::export();
    obs::trace::disable();
    let wanted_span = format!("stage:corr_work@{rid}");
    let events = trace.get("traceEvents").and_then(Json::as_arr).unwrap();
    assert!(
        events.iter().any(|e| {
            e.get("name").and_then(Json::as_str) == Some(wanted_span.as_str())
        }),
        "trace must contain the span {wanted_span:?}"
    );

    // Hop 4: a structured log line carries the id.
    obs::log::shutdown();
    let log_text = std::fs::read_to_string(&log_path).expect("log file written");
    let correlated = log_text
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| Json::parse(l).expect("every log line is valid JSON"))
        .filter(|doc| {
            doc.get("request_id").and_then(Json::as_str) == Some(rid.as_str())
        })
        .count();
    assert!(
        correlated >= 2,
        "expected job-started and job-finished log lines for {rid}: {log_text}"
    );

    // Telemetry on vs off: bit-identical fingerprints.
    let loud_fp = fingerprint_of(&loud_status);
    assert_eq!(silent_fp, loud_fp, "telemetry must not perturb results");

    let _ = std::fs::remove_file(&log_path);
    let _ = std::fs::remove_dir_all(&dir_silent);
    let _ = std::fs::remove_dir_all(&dir_loud);
}

#[test]
fn cache_resolved_resubmission_is_counted_in_the_exposition() {
    let dir = temp_dir("cache_resolved");
    let server = start_server(&dir, Duration::from_secs(3600));
    let addr = server.addr().to_string();
    let scenario = r#"{"schema": 2, "name": "tele_resolved", "scale": "quick", "stages": [
        {"id": "rs_work", "kind": "sleep", "params": {"seconds": 0.02}}
    ]}"#;
    let submit = || {
        let resp = exchange(&addr, "POST", "/runs", Some(scenario)).unwrap();
        assert_eq!(resp.status, 202);
        parse_body(&resp).get("job").unwrap().as_u64().unwrap()
    };
    let first = await_terminal(&addr, submit());
    assert_eq!(first.get("state").unwrap().as_str(), Some("done"), "{first:?}");
    let before = registry(&addr).counter("serve.jobs.cache_resolved_total").unwrap_or(0);

    // Every stage is in the CAS now: the connection resolves the job
    // before it answers.
    let id = submit();
    let status = parse_body(&get(&addr, &format!("/jobs/{id}")));
    assert_eq!(status.get("state").unwrap().as_str(), Some("done"), "{status:?}");
    assert_eq!(
        registry(&addr).counter("serve.jobs.cache_resolved_total"),
        Some(before + 1)
    );
    let text = String::from_utf8(get(&addr, "/metrics").body).unwrap();
    obs::prom::validate(&text).expect("/metrics page is valid after a cache-resolved job");
    assert!(text.contains("serve_jobs_cache_resolved_total 1"), "{text}");

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
