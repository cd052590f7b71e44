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
//!   [`FixedHistogram`]s;
//! * [`Json`] — a minimal JSON value model with a deterministic
//!   serializer and a strict parser (registries round-trip bit-exactly
//!   for finite floats);
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
//! the worker count. Registries encode that contract:
//! [`MetricsRegistry::deterministic_fingerprint`] renders every *result*
//! metric (bit-exact, including float bit patterns) while excluding
//! wall-clock and scheduling metrics, so `workers=1` and `workers=8` runs
//! of the same seed must produce equal fingerprints. The workspace's
//! determinism tests pin exactly that.
//!
//! # Example
//!
//! ```
//! use obs::{Json, MetricsRegistry};
//!
//! let mut m = MetricsRegistry::new();
//! m.inc("scheme.RSP-FIFO.hits", 120_000);
//! m.set_gauge("scheme.RSP-FIFO.perf", 0.991);
//! m.set_gauge("campaign.speedup", 1.7); // scheduling, not a result
//! let hits_hist = m.histogram("hit_age_cycles", 0.0, 24.0 * 1024.0, 24);
//! hits_hist.record(512.0);
//!
//! let text = m.to_json().render_pretty();
//! let back = MetricsRegistry::from_json(&Json::parse(&text).unwrap()).unwrap();
//! assert_eq!(back, m);
//! assert!(!m.deterministic_fingerprint().contains("campaign.speedup"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cancel;
pub mod events;
pub mod json;
pub mod log;
pub mod prom;
pub mod registry;
pub mod trace;

pub use cancel::CancelToken;
pub use events::EventBus;
pub use json::{Json, JsonError};
pub use registry::{FixedHistogram, MetricsRegistry, NONFINITE_DROPPED};
