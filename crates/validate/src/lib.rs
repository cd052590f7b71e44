//! Golden-model differential validation for the `pv3t1d` cache simulator.
//!
//! Part of the `pv3t1d` workspace (MICRO 2007 3T1D-cache reproduction).
//! The cycle-level [`cachesim::DataCache`] earns its performance with
//! priority queues, epoch-staled events, flattened recency arrays, and
//! batched retention counters — exactly the machinery where subtle bugs
//! hide. This crate re-implements the same line-level semantics as
//! [`GoldenCache`], an intentionally naive reference model (whole-cache
//! scans, per-line refresh bookkeeping, nested `Vec`s), replays the same
//! instruction trace into both over identical access schedules, and
//! reports any per-counter divergence.
//!
//! # Quick start
//!
//! ```
//! use cachesim::Scheme;
//! use uarch::TraceSource;
//! use validate::{named_retention, run_differential};
//! use workloads::{SpecBenchmark, SyntheticTrace};
//!
//! let mut trace = SyntheticTrace::new(SpecBenchmark::Gcc.profile(), 42);
//! let instrs = (0..2_000).map(|_| trace.next_instr());
//! let retention = named_retention("mixed", 1024).unwrap();
//! let report = run_differential(instrs, Scheme::no_refresh_lru(), retention, 0);
//! assert!(report.within_tolerance(), "{}", report.render_text());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod golden;
pub mod harness;

pub use golden::{GoldenCache, GoldenCounters};
pub use harness::{
    default_schemes, demand_of, dut_counters, named_retention, run_differential,
    run_differential_models, run_differential_with, scheme_by_name, validate_trace,
    DivergenceReport, DivergenceRow, TraceValidateError, DRAIN_CYCLES, ISSUE_WIDTH,
    RETENTION_NAMES,
};
