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
//! * [`http`] — the zero-dependency HTTP/1.1 subset the daemon speaks,
//!   and [`http::exchange`], a one-request client for it.
//!
//! The `pv3t1d` binary (run/plan/gc/ls/report/trace/validate/serve)
//! lives here too, since it needs both the orchestrator and the daemon.

#![warn(missing_docs)]

pub mod http;
pub mod janitor;
pub mod jobs;
pub mod server;
pub mod telemetry;

/// perfbench's `serve_mixed` workload imports [`http::exchange`] from
/// this path.
pub mod loadtest {
    pub use crate::http::exchange;
}

pub use jobs::{JobState, JobTable};
pub use server::{Listen, Server, ServerConfig};
