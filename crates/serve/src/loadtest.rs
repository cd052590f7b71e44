//! The `pv3t1d loadtest` driver: hammers a running daemon with many
//! concurrent clients, measures end-to-end request latency (submit →
//! terminal event), and writes the `serve.*` metrics into a
//! schema-versioned [`BenchReport`] (`BENCH_<label>.json`). With
//! `--compare`, [`compare`] gates the run against a committed baseline
//! such as `results/BENCH_serve.json`: `_per_s` metrics are
//! higher-is-better, `_ms` metrics lower-is-better, anything else is
//! informational.
//!
//! Request shape: every client in round `r` submits the *same*
//! scenario (a tiny sleep DAG whose params encode the round), then
//! tails `GET /jobs/<id>/events` until the stream closes. Because the
//! scenarios are identical within a round, concurrent jobs reach the
//! same content-addressed stage keys — the first executes, the rest
//! coalesce or hit the CAS — so the run exercises exactly the daemon's
//! sharing machinery, and `serve.coalesced_total` records how much of
//! the fleet's work was deduplicated.

use crate::http;
use obs::{Json, JsonError};
use std::collections::BTreeMap;
use std::io::{self, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Loadtest parameters, CLI-shaped.
#[derive(Debug, Clone)]
pub struct LoadtestConfig {
    /// Daemon TCP address (`host:port`).
    pub addr: String,
    /// Concurrent client threads.
    pub clients: usize,
    /// Requests per client (each request = submit + tail to terminal).
    pub requests: usize,
    /// The sleep-stage duration inside each submitted scenario; long
    /// enough that same-round jobs overlap in flight.
    pub work_seconds: f64,
    /// Baseline label for the report (`BENCH_<label>.json`).
    pub label: String,
    /// Recorded in the report for apples-to-apples comparisons.
    pub quick: bool,
}

impl Default for LoadtestConfig {
    fn default() -> Self {
        Self {
            addr: String::new(),
            clients: 32,
            requests: 4,
            work_seconds: 0.05,
            label: "serve".to_string(),
            quick: true,
        }
    }
}

/// What a loadtest measured.
#[derive(Debug)]
pub struct LoadtestOutcome {
    /// The `serve.*` metrics, ready for `BENCH_<label>.json`.
    pub report: BenchReport,
    /// Requests attempted.
    pub total_requests: u64,
    /// Requests that errored (non-2xx, I/O failure, or a job that did
    /// not finish `done`).
    pub failed: u64,
    /// Daemon-side coalesced-stage delta over the loadtest window.
    pub coalesced: u64,
    /// Daemon-side executed-stage delta over the loadtest window.
    pub executed: u64,
    /// Loadtest wall clock.
    pub wall_seconds: f64,
    /// Daemon-side `serve.jobs.finished_total` delta — the `/metrics`
    /// cross-check of the client-side request count.
    pub daemon_jobs_finished: u64,
    /// Daemon-side `serve.http.requests_total` delta over the window.
    pub daemon_http_requests: u64,
}

/// One round-trip HTTP exchange over a fresh connection (the daemon is
/// `Connection: close` only).
pub fn exchange(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> io::Result<http::Response> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(120)))?;
    let body = body.unwrap_or("");
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: pv3t1d\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len(),
    )?;
    stream.flush()?;
    http::read_response(&mut BufReader::new(stream))
}

/// The scenario document every client submits for round `round`: a
/// two-stage sleep DAG whose params (and therefore stage keys) are
/// shared by all clients in the round and distinct across rounds.
pub fn round_scenario(round: usize, work_seconds: f64) -> String {
    // The round index perturbs `seconds` below float-visible noise for
    // the sleep itself but enough to give each round fresh stage keys.
    // Round 0 is offset too, so its `work` stage never shares a key with
    // a plain `sleep` of `work_seconds` that is already cached (such as
    // the `warm` stage of `scenarios/serve_smoke.json`).
    let seconds = work_seconds + (round + 1) as f64 * 1e-6;
    format!(
        concat!(
            "{{\"schema\": 2, \"name\": \"lt_r{round}\", \"scale\": \"quick\", \"stages\": [",
            "{{\"id\": \"work\", \"kind\": \"sleep\", \"params\": {{\"seconds\": {seconds}}}}},",
            "{{\"id\": \"tail\", \"kind\": \"sleep\", \"params\": {{\"seconds\": 0.001}}, \"deps\": [\"work\"]}}",
            "]}}"
        ),
        round = round,
        seconds = seconds,
    )
}

/// Scrapes `/metrics.json` into a [`obs::MetricsRegistry`] so deltas of
/// the daemon's own counters can cross-check the client-side tallies.
fn registry_scrape(addr: &str) -> io::Result<obs::MetricsRegistry> {
    let resp = exchange(addr, "GET", "/metrics.json", None)?;
    if resp.status != 200 {
        return Err(io::Error::other(format!("metrics.json: HTTP {}", resp.status)));
    }
    let text = std::str::from_utf8(&resp.body).map_err(|e| {
        io::Error::new(io::ErrorKind::InvalidData, format!("metrics.json not UTF-8: {e}"))
    })?;
    let doc = Json::parse(text)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("metrics.json: {e}")))?;
    obs::MetricsRegistry::from_json(&doc).ok_or_else(|| {
        io::Error::new(io::ErrorKind::InvalidData, "metrics.json is not a registry document")
    })
}

/// Scrapes the Prometheus text exposition and validates its syntax —
/// an ill-formed `/metrics` page is a daemon bug the loadtest should
/// fail loudly on, not something a scrape consumer discovers later.
fn prometheus_check(addr: &str) -> io::Result<()> {
    let resp = exchange(addr, "GET", "/metrics", None)?;
    if resp.status != 200 {
        return Err(io::Error::other(format!("metrics: HTTP {}", resp.status)));
    }
    let text = std::str::from_utf8(&resp.body).map_err(|e| {
        io::Error::new(io::ErrorKind::InvalidData, format!("metrics not UTF-8: {e}"))
    })?;
    obs::prom::validate(text).map_err(|e| {
        io::Error::new(io::ErrorKind::InvalidData, format!("invalid /metrics exposition: {e}"))
    })
}

fn flight_totals(addr: &str) -> io::Result<(u64, u64)> {
    let resp = exchange(addr, "GET", "/healthz", None)?;
    let doc = Json::parse(std::str::from_utf8(&resp.body).map_err(|e| {
        io::Error::new(io::ErrorKind::InvalidData, format!("healthz not UTF-8: {e}"))
    })?)
    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("healthz: {e}")))?;
    let flight = doc
        .get("flight")
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "healthz missing flight"))?;
    let n = |key: &str| flight.get(key).and_then(Json::as_u64).unwrap_or(0);
    Ok((n("executed_total"), n("coalesced_total")))
}

/// One client request: submit the round's scenario, tail its event
/// stream to the end, confirm the job finished `done`. Returns the
/// end-to-end latency.
fn one_request(addr: &str, round: usize, work_seconds: f64) -> io::Result<Duration> {
    let t0 = Instant::now();
    let body = round_scenario(round, work_seconds);
    let resp = exchange(addr, "POST", "/runs", Some(&body))?;
    if resp.status != 202 {
        return Err(io::Error::other(format!("submit: HTTP {}", resp.status)));
    }
    let doc = Json::parse(std::str::from_utf8(&resp.body).unwrap_or(""))
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("submit body: {e}")))?;
    let id = doc
        .get("job")
        .and_then(Json::as_u64)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "submit body missing job id"))?;

    // Tail the close-delimited event stream; EOF = job terminal.
    let events = exchange(addr, "GET", &format!("/jobs/{id}/events"), None)?;
    if events.status != 200 {
        return Err(io::Error::other(format!("events: HTTP {}", events.status)));
    }

    let status = exchange(addr, "GET", &format!("/jobs/{id}"), None)?;
    let doc = Json::parse(std::str::from_utf8(&status.body).unwrap_or(""))
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("status body: {e}")))?;
    match doc.get("state").and_then(Json::as_str) {
        Some("done") => Ok(t0.elapsed()),
        other => Err(io::Error::other(format!("job {id} ended {other:?}"))),
    }
}

fn percentile_ms(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Runs the loadtest against a daemon at `config.addr` and aggregates
/// the `serve.*` metrics. Individual request failures are counted, not
/// fatal; only an unreachable daemon errors out.
pub fn run(config: &LoadtestConfig) -> io::Result<LoadtestOutcome> {
    let (executed_before, coalesced_before) = flight_totals(&config.addr)?;
    let registry_before = registry_scrape(&config.addr)?;
    let failed = Arc::new(AtomicU64::new(0));
    let t0 = Instant::now();
    let mut handles = Vec::new();
    for _ in 0..config.clients.max(1) {
        let addr = config.addr.clone();
        let failed = failed.clone();
        let requests = config.requests.max(1);
        let work_seconds = config.work_seconds;
        handles.push(std::thread::spawn(move || {
            let mut latencies = Vec::with_capacity(requests);
            for round in 0..requests {
                match one_request(&addr, round, work_seconds) {
                    Ok(latency) => latencies.push(latency.as_secs_f64() * 1e3),
                    Err(_) => {
                        failed.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            latencies
        }));
    }
    let mut latencies: Vec<f64> = Vec::new();
    for h in handles {
        latencies.extend(h.join().expect("loadtest client panicked"));
    }
    let wall_seconds = t0.elapsed().as_secs_f64();
    let (executed_after, coalesced_after) = flight_totals(&config.addr)?;
    prometheus_check(&config.addr)?;
    let registry_after = registry_scrape(&config.addr)?;
    let counter_delta = |name: &str| {
        registry_after
            .counter(name)
            .unwrap_or(0)
            .saturating_sub(registry_before.counter(name).unwrap_or(0))
    };
    let daemon_jobs_finished = counter_delta("serve.jobs.finished_total");
    let daemon_http_requests = counter_delta("serve.http.requests_total");

    latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let total = (config.clients.max(1) * config.requests.max(1)) as u64;
    let failed = failed.load(Ordering::Relaxed);
    let coalesced = coalesced_after.saturating_sub(coalesced_before);
    let executed = executed_after.saturating_sub(executed_before);

    let mut report = BenchReport::new(&config.label, config.quick);
    let ok = (total - failed) as f64;
    report.metrics.insert(
        "serve.requests_per_s".into(),
        if wall_seconds > 0.0 { ok / wall_seconds } else { 0.0 },
    );
    report
        .metrics
        .insert("serve.p50_ms".into(), percentile_ms(&latencies, 0.50));
    report
        .metrics
        .insert("serve.p99_ms".into(), percentile_ms(&latencies, 0.99));
    report
        .metrics
        .insert("serve.coalesced_total".into(), coalesced as f64);
    report
        .metrics
        .insert("serve.executed_total".into(), executed as f64);
    report
        .metrics
        .insert("serve.failed_requests".into(), failed as f64);
    report
        .metrics
        .insert("serve.clients".into(), config.clients as f64);

    // Cross-check: every successful client request submitted exactly
    // one job and saw it reach `done`, so the daemon's own finished
    // counter must cover them. A shortfall means the telemetry plane is
    // dropping events — warn loudly (stderr, not a hard error: the last
    // job's registry merge can land a beat after its status flips).
    let ok_count = total - failed;
    if daemon_jobs_finished < ok_count {
        eprintln!(
            "warning: daemon reported {daemon_jobs_finished} finished jobs \
             via /metrics but clients completed {ok_count} requests"
        );
    }

    Ok(LoadtestOutcome {
        report,
        total_requests: total,
        failed,
        coalesced,
        executed,
        wall_seconds,
        daemon_jobs_finished,
        daemon_http_requests,
    })
}

/// Baseline schema version, bumped on breaking layout changes.
const BENCH_SCHEMA: u64 = 1;

/// Largest baseline file [`BenchReport::read_from`] accepts. A
/// committed baseline is a few hundred bytes; the cap keeps a corrupt
/// or hostile path from pulling an unbounded file into memory.
const MAX_BASELINE_BYTES: u64 = 1 << 20;

/// One benchmark baseline: a named, schema-versioned set of metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Baseline label (`serve`, `serve_ci`, a branch name, …).
    pub label: String,
    /// Whether the run used the reduced quick shape.
    pub quick: bool,
    /// Metric name → value.
    pub metrics: BTreeMap<String, f64>,
}

impl BenchReport {
    /// An empty report.
    pub fn new(label: &str, quick: bool) -> Self {
        Self {
            label: label.to_string(),
            quick,
            metrics: BTreeMap::new(),
        }
    }

    /// Serializes to pretty-printed JSON (ends with a newline).
    pub fn to_json(&self) -> String {
        let mut metrics = Json::object();
        for (k, v) in &self.metrics {
            metrics.insert(k, Json::Num(*v));
        }
        let mut o = Json::object();
        o.insert("schema", Json::Num(BENCH_SCHEMA as f64));
        o.insert("label", Json::Str(self.label.clone()));
        o.insert("quick", Json::Bool(self.quick));
        o.insert("metrics", metrics);
        o.render_pretty()
    }

    /// Parses a report produced by [`BenchReport::to_json`]. Metric
    /// values must be finite numbers, which is all `to_json` can write.
    pub fn from_json(text: &str) -> Result<Self, JsonError> {
        let v = Json::parse(text)?;
        let bad = |msg: &str| JsonError {
            at: 0,
            msg: msg.to_string(),
        };
        let schema = v
            .get("schema")
            .and_then(Json::as_u64)
            .ok_or_else(|| bad("missing schema"))?;
        if schema != BENCH_SCHEMA {
            return Err(bad(&format!(
                "unsupported bench schema {schema} (expected {BENCH_SCHEMA})"
            )));
        }
        let mut metrics = BTreeMap::new();
        for (k, val) in v
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or_else(|| bad("missing metrics object"))?
        {
            let value = val
                .as_f64()
                .filter(|x| x.is_finite())
                .ok_or_else(|| bad("metric is not a finite number"))?;
            metrics.insert(k.clone(), value);
        }
        Ok(Self {
            label: v
                .get("label")
                .and_then(Json::as_str)
                .ok_or_else(|| bad("missing label"))?
                .to_string(),
            quick: v
                .get("quick")
                .and_then(Json::as_bool)
                .ok_or_else(|| bad("missing quick"))?,
            metrics,
        })
    }

    /// Writes the report to `path`, creating parent directories.
    pub fn write_to(&self, path: &Path) -> io::Result<()> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        std::fs::write(path, self.to_json())
    }

    /// Reads and parses a report file of at most 1 MiB; a larger file
    /// is `InvalidData`.
    pub fn read_from(path: &Path) -> io::Result<Self> {
        let mut text = String::new();
        std::fs::File::open(path)?
            .take(MAX_BASELINE_BYTES + 1)
            .read_to_string(&mut text)?;
        if text.len() as u64 > MAX_BASELINE_BYTES {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("baseline larger than {MAX_BASELINE_BYTES} bytes"),
            ));
        }
        Self::from_json(&text).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }
}

/// How a metric's value relates to "better".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Direction {
    /// Throughput-style: a drop is a regression.
    HigherIsBetter,
    /// Latency-style: a rise is a regression.
    LowerIsBetter,
    /// Context only — never a regression.
    Informational,
}

/// Classifies a metric by name: `_per_s` (`serve.requests_per_s`) is
/// higher-is-better, `_ms` (`serve.p50_ms`, `serve.p99_ms`)
/// lower-is-better, anything else informational.
fn direction_of(name: &str) -> Direction {
    if name.ends_with("_per_s") {
        Direction::HigherIsBetter
    } else if name.ends_with("_ms") {
        Direction::LowerIsBetter
    } else {
        Direction::Informational
    }
}

/// One metric's verdict in a comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct CompareLine {
    /// Metric name.
    pub name: String,
    /// Baseline value, when the baseline has the metric.
    pub base: Option<f64>,
    /// Current value, when the current run has the metric.
    pub current: Option<f64>,
    /// Percent change vs the baseline (positive = larger value).
    pub delta_pct: Option<f64>,
    /// Whether this line is a regression beyond the threshold.
    pub regressed: bool,
}

/// Diffs `current` against `base` with a `threshold_pct` noise band.
/// Returns one line per metric of either report (sorted by name) and
/// whether any gated (non-informational) metric regressed. A metric
/// new in `current` is informational.
///
/// A gated metric that cannot be compared is **treated as regressed**:
/// one missing from `current`, or one whose baseline or current value
/// is zero or non-finite. No percentage delta can be formed, and a
/// skipped or Inf/NaN delta would silently pass the gate on exactly
/// the runs most likely to be broken.
pub fn compare(
    base: &BenchReport,
    current: &BenchReport,
    threshold_pct: f64,
) -> (Vec<CompareLine>, bool) {
    let mut names: Vec<&String> = base.metrics.keys().chain(current.metrics.keys()).collect();
    names.sort();
    names.dedup();
    let lines: Vec<CompareLine> = names
        .into_iter()
        .map(|name| {
            let direction = direction_of(name);
            let b = base.metrics.get(name).copied();
            let cur = current.metrics.get(name).copied();
            let (delta_pct, regressed) = match (b, cur) {
                (Some(b), Some(c)) if b != 0.0 && b.is_finite() && c.is_finite() => {
                    let delta_pct = (c - b) / b * 100.0;
                    let regressed = match direction {
                        Direction::HigherIsBetter => delta_pct < -threshold_pct,
                        Direction::LowerIsBetter => delta_pct > threshold_pct,
                        Direction::Informational => false,
                    };
                    (Some(delta_pct), regressed)
                }
                (None, _) => (None, false),
                (Some(_), _) => (None, direction != Direction::Informational),
            };
            CompareLine {
                name: name.clone(),
                base: b,
                current: cur,
                delta_pct,
                regressed,
            }
        })
        .collect();
    let any_regressed = lines.iter().any(|l| l.regressed);
    (lines, any_regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_scenarios_are_valid_and_round_distinct() {
        let a = orchestrator::Scenario::parse(&round_scenario(0, 0.05)).unwrap();
        a.validate().unwrap();
        let b = orchestrator::Scenario::parse(&round_scenario(1, 0.05)).unwrap();
        b.validate().unwrap();
        assert_ne!(
            a.stages[0].params.render(),
            b.stages[0].params.render(),
            "rounds must produce distinct stage keys"
        );
        // Round 0's `work` stage must not hit the CAS entry that the
        // smoke scenario's root `sleep` stage leaves behind: the CI
        // loadtest runs against a daemon that already ran that scenario.
        let smoke_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios/serve_smoke.json");
        let smoke = orchestrator::Scenario::load(std::path::Path::new(smoke_path)).unwrap();
        let warm = smoke.stages.iter().find(|s| s.id == "warm").unwrap();
        let key = |sc: &orchestrator::Scenario, s: &orchestrator::StageSpec| {
            orchestrator::stage_key(&s.kind, &s.params, sc.scale, &Default::default())
        };
        assert_ne!(key(&a, &a.stages[0]), key(&smoke, warm));
    }

    #[test]
    fn percentiles_pick_sane_ranks() {
        // Nearest-rank on (n-1)·q: for 1..=100 the 0.5 rank 49.5 rounds
        // up to index 50.
        let sorted: Vec<f64> = (1..=100).map(|n| n as f64).collect();
        assert_eq!(percentile_ms(&sorted, 0.50), 51.0);
        assert_eq!(percentile_ms(&sorted, 0.99), 99.0);
        assert_eq!(percentile_ms(&[], 0.5), 0.0);
        assert_eq!(percentile_ms(&[7.0], 0.99), 7.0);
        let odd: Vec<f64> = (1..=101).map(|n| n as f64).collect();
        assert_eq!(percentile_ms(&odd, 0.50), 51.0, "odd-length median is exact");
    }

    fn sample(metrics: &[(&str, f64)]) -> BenchReport {
        let mut r = BenchReport::new("t", true);
        for (k, v) in metrics {
            r.metrics.insert(k.to_string(), *v);
        }
        r
    }

    fn scratch_file(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("pv3t1d_baseline_{tag}_{}.json", std::process::id()))
    }

    #[test]
    fn report_round_trips() {
        let r = sample(&[("a.x_per_s", 123.5), ("b_ms", 0.25)]);
        let back = BenchReport::from_json(&r.to_json()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn schema_mismatch_is_rejected() {
        let text = sample(&[]).to_json().replace("\"schema\": 1", "\"schema\": 9");
        assert!(BenchReport::from_json(&text).is_err());
    }

    #[test]
    fn committed_serve_baseline_parses() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/BENCH_serve.json");
        let base = BenchReport::read_from(&path).unwrap();
        assert_eq!(base.label, "serve");
        for gated in ["serve.requests_per_s", "serve.p50_ms", "serve.p99_ms"] {
            assert!(base.metrics.contains_key(gated), "missing {gated}");
            assert_ne!(direction_of(gated), Direction::Informational, "{gated}");
        }
        let (_, regressed) = compare(&base, &base, 0.0);
        assert!(!regressed);
    }

    #[test]
    fn oversized_baseline_is_invalid_data() {
        let path = scratch_file("oversized");
        let mut text = sample(&[("a_per_s", 1.0)]).to_json();
        text.push_str(&" ".repeat(MAX_BASELINE_BYTES as usize));
        std::fs::write(&path, &text).unwrap();
        let err = BenchReport::read_from(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        // The same document under the cap parses.
        std::fs::write(&path, text.trim_end()).unwrap();
        assert!(BenchReport::read_from(&path).is_ok());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn direction_follows_naming_convention() {
        assert_eq!(direction_of("serve.requests_per_s"), Direction::HigherIsBetter);
        assert_eq!(direction_of("serve.p50_ms"), Direction::LowerIsBetter);
        assert_eq!(direction_of("serve.p99_ms"), Direction::LowerIsBetter);
        assert_eq!(direction_of("serve.coalesced_total"), Direction::Informational);
        assert_eq!(direction_of("serve.executed_total"), Direction::Informational);
        assert_eq!(direction_of("serve.failed_requests"), Direction::Informational);
        assert_eq!(direction_of("serve.clients"), Direction::Informational);
    }

    #[test]
    fn self_comparison_never_regresses() {
        let r = sample(&[("a_per_s", 100.0), ("b_ms", 2.0), ("c", 7.0)]);
        let (lines, regressed) = compare(&r, &r, 10.0);
        assert!(!regressed);
        assert_eq!(lines.len(), 3);
        assert!(lines.iter().all(|l| l.delta_pct == Some(0.0)));
    }

    #[test]
    fn regressions_respect_direction_and_threshold() {
        let base = sample(&[("a_per_s", 100.0), ("b_ms", 2.0), ("c", 7.0)]);
        // Throughput down 50%, latency up 50%, info metric wildly off.
        let cur = sample(&[("a_per_s", 50.0), ("b_ms", 3.0), ("c", 700.0)]);
        let (_, regressed) = compare(&base, &cur, 10.0);
        assert!(regressed);
        // A generous threshold swallows both.
        let (_, regressed) = compare(&base, &cur, 60.0);
        assert!(!regressed);
        // Improvements are never regressions.
        let better = sample(&[("a_per_s", 400.0), ("b_ms", 0.5), ("c", 7.0)]);
        let (_, regressed) = compare(&base, &better, 10.0);
        assert!(!regressed);
    }

    #[test]
    fn missing_baseline_metrics_are_informational() {
        let base = sample(&[("a_per_s", 100.0)]);
        let cur = sample(&[("a_per_s", 100.0), ("new_per_s", 5.0)]);
        let (lines, regressed) = compare(&base, &cur, 10.0);
        assert!(!regressed);
        let new = lines.iter().find(|l| l.name == "new_per_s").unwrap();
        assert_eq!(new.base, None);
        assert_eq!(new.delta_pct, None);
    }

    #[test]
    fn gated_metric_missing_from_the_current_run_fails_the_gate() {
        let base = sample(&[
            ("serve.p50_ms", 80.0),
            ("serve.p99_ms", 110.0),
            ("serve.clients", 32.0),
        ]);
        let cur = sample(&[("serve.p50_ms", 80.0)]);
        let (lines, regressed) = compare(&base, &cur, 75.0);
        assert!(regressed, "a gated baseline metric the run lacks must fail");
        let p99 = lines.iter().find(|l| l.name == "serve.p99_ms").unwrap();
        assert_eq!(
            (p99.base, p99.current, p99.delta_pct),
            (Some(110.0), None, None)
        );
        assert!(p99.regressed);
        // An informational metric may go missing.
        let clients = lines.iter().find(|l| l.name == "serve.clients").unwrap();
        assert!(!clients.regressed);
    }

    #[test]
    fn zero_baseline_on_a_gated_metric_fails_the_gate() {
        // The bug this pins: a zero baseline made delta_pct Inf/NaN,
        // every threshold comparison false, and the gate silently green
        // no matter how bad the current run was.
        let base = sample(&[("a_per_s", 0.0)]);
        let cur = sample(&[("a_per_s", 100.0)]);
        let (lines, regressed) = compare(&base, &cur, 10.0);
        assert!(regressed, "zero baseline must fail a gated metric");
        assert_eq!(lines[0].delta_pct, None);
        assert!(lines[0].regressed);

        // Same for a lower-is-better metric.
        let base = sample(&[("b_ms", 0.0)]);
        let cur = sample(&[("b_ms", 5.0)]);
        let (_, regressed) = compare(&base, &cur, 10.0);
        assert!(regressed);

        // An informational metric with a zero baseline stays quiet.
        let base = sample(&[("c", 0.0)]);
        let cur = sample(&[("c", 5.0)]);
        let (lines, regressed) = compare(&base, &cur, 10.0);
        assert!(!regressed);
        assert!(!lines[0].regressed);
    }

    #[test]
    fn nonfinite_values_on_a_gated_metric_fail_the_gate() {
        // NaN baseline.
        let base = sample(&[("a_per_s", f64::NAN)]);
        let cur = sample(&[("a_per_s", 100.0)]);
        let (_, regressed) = compare(&base, &cur, 10.0);
        assert!(regressed, "NaN baseline must fail a gated metric");

        // Infinite baseline.
        let base = sample(&[("a_per_s", f64::INFINITY)]);
        let (_, regressed) = compare(&base, &cur, 10.0);
        assert!(regressed, "Inf baseline must fail a gated metric");

        // NaN current value against a sane baseline.
        let base = sample(&[("a_per_s", 100.0)]);
        let cur = sample(&[("a_per_s", f64::NAN)]);
        let (lines, regressed) = compare(&base, &cur, 10.0);
        assert!(regressed, "NaN current must fail a gated metric");
        assert_eq!(lines[0].delta_pct, None);
    }
}
