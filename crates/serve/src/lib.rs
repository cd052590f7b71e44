//! # serve — the `pv3t1d` CLI surface and the campaign daemon
//!
//! The workspace's batch path (`pv3t1d run`) executes one scenario and
//! exits. This crate adds the *service* path for interactive paper
//! reproduction — many clients, shared cache, long uptime:
//!
//! * [`server`] — `pv3t1d serve`: an HTTP/1.1 + JSON daemon (TCP or
//!   Unix socket) with a bounded worker pool over the
//!   [`orchestrator`] DAG scheduler, per-job cancel tokens, streaming
//!   progress events, and graceful SIGTERM drain (partial manifests,
//!   checkpointed campaigns, resumable on restart);
//! * request **coalescing** — all jobs share one
//!   [`orchestrator::FlightTable`], so concurrent requests for the
//!   same content-addressed stage key compute once and share the
//!   payload (bit-identical fingerprints by construction);
//! * [`janitor`] — a continuous CAS garbage collector holding the
//!   artifact store under a size budget (LRU eviction, freshness race
//!   guard);
//! * [`loadtest`] — `pv3t1d loadtest`: a concurrent client fleet
//!   measuring `serve.requests_per_s` / `serve.p50_ms` /
//!   `serve.p99_ms` / `serve.coalesced_total` into a
//!   `BENCH_<label>.json` baseline, gated by `--compare`;
//! * [`http`] — the zero-dependency HTTP/1.1 subset both sides speak.
//!
//! The `pv3t1d` binary (run/plan/gc/ls/report/trace/validate/serve/
//! loadtest) lives here too, since it needs both the orchestrator
//! and the daemon.

#![warn(missing_docs)]

pub mod http;
pub mod janitor;
pub mod jobs;
pub mod loadtest;
pub mod server;
pub mod telemetry;

pub use jobs::{JobState, JobTable};
pub use loadtest::{LoadtestConfig, LoadtestOutcome};
pub use server::{Listen, Server, ServerConfig};
