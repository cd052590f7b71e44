//! The daemon's telemetry plane: one process-wide [`MetricsRegistry`]
//! merged from every finished job plus live HTTP counters, and the
//! request-id mint that correlates one HTTP request with its job,
//! scheduler spans, progress events, and log lines.
//!
//! The registry is deliberately coarse-locked: every touch point is
//! either a request-scoped increment or a job-finish merge, both far off
//! the simulation hot path, so a plain [`Mutex`] beats sharded cleverness.

use obs::MetricsRegistry;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Request-latency histogram shape: 50 buckets over [0, 1) seconds.
/// Daemon handlers are sub-millisecond; the tail buckets catch slow
/// submits under load. The name's `_seconds` suffix keeps it out of
/// determinism fingerprints by the registry's timing-metric rule.
pub const HTTP_SECONDS: (&str, f64, f64, usize) = ("serve.http.request_seconds", 0.0, 1.0, 50);

/// Job wall-clock histogram shape: 60 buckets over [0, 30) seconds.
pub const JOB_SECONDS: (&str, f64, f64, usize) = ("serve.job.wall_seconds", 0.0, 30.0, 60);

/// Shared telemetry state (one per daemon, inside `Shared`).
#[derive(Debug)]
pub struct Telemetry {
    registry: Mutex<MetricsRegistry>,
    next_request: AtomicU64,
}

impl Default for Telemetry {
    fn default() -> Self {
        Self::new()
    }
}

impl Telemetry {
    /// Fresh telemetry: an empty registry.
    pub fn new() -> Self {
        Self {
            registry: Mutex::new(MetricsRegistry::new()),
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
}
