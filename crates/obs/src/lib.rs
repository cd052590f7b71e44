//! # obs — zero-dependency observability for the pv3t1d workspace
//!
//! The paper's headline numbers (Figs. 6b, 9–12, Table 3) are statistical
//! Monte-Carlo outputs; reproducing them credibly requires instrumented
//! counters and machine-readable run records, in the spirit of
//! sim-alpha's per-stage stat accounting. This crate provides the three
//! pieces, with **no external dependencies** (the build environment has
//! no registry access, so serde & friends are off the table):
//!
//! * [`MetricsRegistry`] — named counters, gauges, and fixed-bucket
//!   [`FixedHistogram`]s, plus [`span!`]-style accumulating timers;
//! * [`Json`] — a minimal JSON value model with a deterministic
//!   serializer and a strict parser (manifests round-trip bit-exactly for
//!   finite floats);
//! * [`RunManifest`] — a JSON record of one experiment: metrics + seed,
//!   tech node, scheme, worker count, wall clock, and `git describe`
//!   provenance (figure stages fill its identity and result metrics);
//! * [`trace`] — a process-global hierarchical span tracer (thread-aware
//!   spans, instants, counters, and cycle-stamped simulator events) with
//!   a ring buffer and Chrome trace-event JSON export, near-zero cost
//!   while disabled;
//! * [`EventBus`] — an append-only, cursor-replayable progress-event log
//!   the scheduler publishes into and the `pv3t1d serve` daemon streams
//!   to clients as newline-delimited JSON;
//! * [`log`] — a leveled structured NDJSON log layer (stderr or file
//!   sink with bounded rotation) whose disabled path is one atomic load;
//! * [`prom`] — Prometheus text-format exposition for a registry, plus
//!   a strict syntax checker used by tests and CI.
//!
//! # Determinism contract
//!
//! The workspace guarantees campaign results are bit-identical whatever
//! the worker count. Manifests encode that contract:
//! [`RunManifest::deterministic_fingerprint`] renders every *result*
//! metric (bit-exact, including float bit patterns) while excluding
//! wall-clock and scheduling metrics, so `workers=1` and `workers=8` runs
//! of the same seed must produce equal fingerprints. The workspace's
//! determinism tests pin exactly that.
//!
//! # Example
//!
//! ```
//! use obs::{MetricsRegistry, RunManifest};
//!
//! let mut manifest = RunManifest::new("fig09");
//! manifest.seed = Some(20_244);
//! manifest.tech_node = Some("32nm".into());
//!
//! let m = &mut manifest.metrics;
//! m.inc("scheme.RSP-FIFO.hits", 120_000);
//! m.set_gauge("scheme.RSP-FIFO.perf", 0.991);
//! let hits_hist = m.histogram("hit_age_cycles", 0.0, 24.0 * 1024.0, 24);
//! hits_hist.record(512.0);
//!
//! let text = manifest.to_json();
//! let back = RunManifest::from_json(&text).unwrap();
//! assert_eq!(back, manifest);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cancel;
pub mod events;
pub mod json;
pub mod log;
pub mod manifest;
pub mod prom;
pub mod registry;
pub mod trace;

pub use cancel::CancelToken;
pub use events::EventBus;
pub use json::{Json, JsonError};
pub use manifest::{RunManifest, SCHEMA_VERSION};
pub use registry::{FixedHistogram, MetricsRegistry, NONFINITE_DROPPED};

/// Times a block and records it as a span in a [`MetricsRegistry`]:
/// bumps `{name}.calls` and accumulates `{name}.seconds`.
///
/// ```
/// use obs::{span, MetricsRegistry};
/// let mut m = MetricsRegistry::new();
/// let value = span!(m, "expensive.step", {
///     (0..100).sum::<u64>()
/// });
/// assert_eq!(value, 4950);
/// assert_eq!(m.counter("expensive.step.calls"), Some(1));
/// assert!(m.gauge("expensive.step.seconds").unwrap() >= 0.0);
/// ```
#[macro_export]
macro_rules! span {
    ($registry:expr, $name:expr, $body:block) => {{
        let __obs_span_start = ::std::time::Instant::now();
        let __obs_span_result = $body;
        $registry.record_span($name, __obs_span_start.elapsed());
        __obs_span_result
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_macro_times_and_returns() {
        let mut m = MetricsRegistry::new();
        let out = span!(m, "work", {
            std::thread::sleep(std::time::Duration::from_millis(2));
            7
        });
        assert_eq!(out, 7);
        assert_eq!(m.counter("work.calls"), Some(1));
        assert!(m.gauge("work.seconds").unwrap() >= 0.002);
        // Spans accumulate.
        span!(m, "work", {});
        assert_eq!(m.counter("work.calls"), Some(2));
    }
}
