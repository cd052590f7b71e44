//! The daemon's telemetry plane: one process-wide [`MetricsRegistry`]
//! merged from every finished job plus live HTTP counters, a bounded
//! ring of timestamped registry snapshots (the `/metrics/history`
//! source), and the request-id mint that correlates one HTTP request
//! with its job, scheduler spans, progress events, and log lines.
//!
//! The registry is deliberately coarse-locked: every touch point is
//! either a request-scoped increment or a job-finish merge, both far off
//! the simulation hot path, so a plain [`Mutex`] beats sharded cleverness.

use obs::{Json, MetricsRegistry};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{SystemTime, UNIX_EPOCH};

/// Request-latency histogram shape: 50 buckets over [0, 1) seconds.
/// Daemon handlers are sub-millisecond; the tail buckets catch slow
/// submits under load. The name's `_seconds` suffix keeps it out of
/// determinism fingerprints by the registry's timing-metric rule.
pub const HTTP_SECONDS: (&str, f64, f64, usize) = ("serve.http.request_seconds", 0.0, 1.0, 50);

/// Job wall-clock histogram shape: 60 buckets over [0, 30) seconds.
pub const JOB_SECONDS: (&str, f64, f64, usize) = ("serve.job.wall_seconds", 0.0, 30.0, 60);

/// How many sampler snapshots the history ring retains (at the default
/// 1 s cadence: 10 minutes of trend data).
pub const HISTORY_CAPACITY: usize = 600;

/// Milliseconds since the Unix epoch (0 if the clock is before it).
pub fn now_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// Shared telemetry state (one per daemon, inside `Shared`).
#[derive(Debug)]
pub struct Telemetry {
    registry: Mutex<MetricsRegistry>,
    history: Mutex<VecDeque<Json>>,
    next_request: AtomicU64,
}

impl Default for Telemetry {
    fn default() -> Self {
        Self::new()
    }
}

impl Telemetry {
    /// Fresh telemetry: empty registry, empty history.
    pub fn new() -> Self {
        Self {
            registry: Mutex::new(MetricsRegistry::new()),
            history: Mutex::new(VecDeque::with_capacity(HISTORY_CAPACITY)),
            next_request: AtomicU64::new(0),
        }
    }

    /// Mints the next correlation id (`req-000001`, …). Minted once per
    /// accepted HTTP request; the id never enters cache keys or
    /// fingerprints.
    pub fn mint_request_id(&self) -> String {
        let n = self.next_request.fetch_add(1, Ordering::Relaxed) + 1;
        format!("req-{n:06}")
    }

    /// Runs `f` under the registry lock — the single mutation point for
    /// HTTP observations and job-finish merges.
    pub fn with_registry<T>(&self, f: impl FnOnce(&mut MetricsRegistry) -> T) -> T {
        f(&mut self.registry.lock().expect("telemetry registry poisoned"))
    }

    /// A copy of the base registry (live gauges are overlaid by the
    /// server's snapshot builder, which owns the rest of the state).
    pub fn registry_clone(&self) -> MetricsRegistry {
        self.registry.lock().expect("telemetry registry poisoned").clone()
    }

    /// Records one completed HTTP exchange: total + per-status-class
    /// counters and the latency histogram.
    pub fn observe_http(&self, method: &str, status: u16, seconds: f64) {
        self.with_registry(|reg| {
            reg.inc("serve.http.requests_total", 1);
            reg.inc(&format!("serve.http.responses.{}xx", status / 100), 1);
            reg.inc(&format!("serve.http.methods.{}", method.to_ascii_lowercase()), 1);
            let (name, lo, hi, n) = HTTP_SECONDS;
            reg.histogram(name, lo, hi, n).record(seconds);
        });
    }

    /// Appends one snapshot document to the history ring, evicting the
    /// oldest beyond [`HISTORY_CAPACITY`].
    pub fn push_sample(&self, sample: Json) {
        let mut ring = self.history.lock().expect("telemetry history poisoned");
        if ring.len() >= HISTORY_CAPACITY {
            ring.pop_front();
        }
        ring.push_back(sample);
    }

    /// Renders the history ring as NDJSON, newest last. `window_ms`
    /// limits output to samples whose `ts_ms` falls within the trailing
    /// window (`None` returns the whole ring).
    pub fn history_ndjson(&self, window_ms: Option<u64>) -> String {
        let cutoff = window_ms.map(|w| now_ms().saturating_sub(w));
        let ring = self.history.lock().expect("telemetry history poisoned");
        let mut out = String::new();
        for sample in ring.iter() {
            if let Some(cutoff) = cutoff {
                let ts = sample.get("ts_ms").and_then(Json::as_u64).unwrap_or(0);
                if ts < cutoff {
                    continue;
                }
            }
            out.push_str(&sample.render());
            out.push('\n');
        }
        out
    }
}

/// Parses the `window=<seconds>` query parameter of
/// `GET /metrics/history`. Returns milliseconds; `Ok(None)` when the
/// parameter is absent (serve the whole ring). A present-but-broken
/// value — non-numeric, zero, negative, or non-finite — is an `Err`
/// with a client-facing message, *not* a silent fallback: a typo'd
/// `window=6O` must come back as HTTP 400, never as the entire ring
/// pretending the filter applied.
pub fn parse_window_ms(query: &str) -> Result<Option<u64>, String> {
    for pair in query.split('&') {
        if let Some(value) = pair.strip_prefix("window=") {
            return match value.parse::<f64>() {
                Ok(seconds) if seconds.is_finite() && seconds > 0.0 => {
                    Ok(Some((seconds * 1000.0) as u64))
                }
                _ => Err(format!(
                    "query parameter window={value:?} must be a positive \
                     number of seconds"
                )),
            };
        }
    }
    Ok(None)
}

/// The `/proc/self/status` fields exported as gauges, in bytes: the
/// process's resident set and its peak.
const PROCESS_MEMORY: [(&str, &str); 2] = [
    ("VmRSS:", "serve.process.resident_bytes"),
    ("VmHWM:", "serve.process.peak_resident_bytes"),
];

/// Sets the process-memory gauges from `/proc/self/status`. A gauge whose
/// field cannot be read (no procfs, or a kernel without the field) is
/// left out rather than reported as 0.
pub(crate) fn set_process_memory(reg: &mut MetricsRegistry) {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return;
    };
    for (field, gauge) in PROCESS_MEMORY {
        if let Some(kb) = status_kb(&status, field) {
            reg.set_gauge(gauge, kb as f64 * 1024.0);
        }
    }
}

/// The value of a `kB` line of a `/proc/<pid>/status` document.
fn status_kb(status: &str, field: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        line.strip_prefix(field)?
            .trim()
            .strip_suffix("kB")?
            .trim()
            .parse()
            .ok()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_kb_reads_only_well_formed_kb_lines() {
        let status = "Name:\tpv3t1d\nVmHWM:\t  10480 kB\nVmRSS:\t   8620 kB\nThreads:\t4\nVmBad:\tlots kB\n";
        assert_eq!(status_kb(status, "VmHWM:"), Some(10_480));
        assert_eq!(status_kb(status, "VmRSS:"), Some(8_620));
        assert_eq!(status_kb(status, "Threads:"), None);
        assert_eq!(status_kb(status, "VmBad:"), None);
        assert_eq!(status_kb(status, "VmSwap:"), None);
    }

    #[test]
    fn request_ids_are_unique_and_ordered() {
        let t = Telemetry::new();
        assert_eq!(t.mint_request_id(), "req-000001");
        assert_eq!(t.mint_request_id(), "req-000002");
    }

    #[test]
    fn http_observations_accumulate() {
        let t = Telemetry::new();
        t.observe_http("GET", 200, 0.001);
        t.observe_http("POST", 202, 0.002);
        t.observe_http("GET", 404, 0.001);
        let reg = t.registry_clone();
        assert_eq!(reg.counter("serve.http.requests_total"), Some(3));
        assert_eq!(reg.counter("serve.http.responses.2xx"), Some(2));
        assert_eq!(reg.counter("serve.http.responses.4xx"), Some(1));
        assert_eq!(reg.counter("serve.http.methods.get"), Some(2));
        assert_eq!(reg.get_histogram(HTTP_SECONDS.0).unwrap().count(), 3);
    }

    #[test]
    fn history_ring_is_bounded_and_window_filters() {
        let t = Telemetry::new();
        let now = now_ms();
        for i in 0..(HISTORY_CAPACITY + 10) {
            let mut s = Json::object();
            s.insert("ts_ms", Json::Num((now - 1000 * (HISTORY_CAPACITY + 10 - i) as u64) as f64));
            s.insert("i", Json::Num(i as f64));
            t.push_sample(s);
        }
        let all = t.history_ndjson(None);
        assert_eq!(all.lines().count(), HISTORY_CAPACITY);
        // A 5-second window keeps only the newest handful.
        let recent = t.history_ndjson(Some(5_000));
        assert!(recent.lines().count() <= 6, "window must prune old samples");
        for line in recent.lines() {
            Json::parse(line).expect("history lines are valid JSON");
        }
    }

    #[test]
    fn window_parsing() {
        assert_eq!(parse_window_ms("window=60"), Ok(Some(60_000)));
        assert_eq!(parse_window_ms("window=1.5"), Ok(Some(1_500)));
        assert_eq!(parse_window_ms("other=1&window=2"), Ok(Some(2_000)));
        // Absent → the whole ring, not an error.
        assert_eq!(parse_window_ms(""), Ok(None));
        assert_eq!(parse_window_ms("other=1"), Ok(None));
        // Present but broken → an explicit error, never a silent
        // whole-ring fallback.
        for bad in ["window=nope", "window=-4", "window=0", "window=nan", "window=inf", "window="] {
            let err = parse_window_ms(bad).unwrap_err();
            assert!(err.contains("window"), "{bad}: {err}");
        }
    }
}
