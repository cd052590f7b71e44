//! Seeded synthetic SPEC2000-like instruction-trace generators.
//!
//! Part of the `pv3t1d` workspace (MICRO 2007 3T1D-cache reproduction).
//! The paper evaluates on eight SPEC2000 benchmarks via SimPoint samples;
//! this crate substitutes calibrated statistical workload models (see
//! DESIGN.md, substitution #2): each [`SpecBenchmark`] maps to a
//! [`Profile`] — instruction mix, dependency distances, branch-site mix,
//! and an LRU-stack temporal-reuse model — from which [`SyntheticTrace`]
//! produces a deterministic instruction stream for the [`uarch`] pipeline.
//!
//! # Quick start
//!
//! ```
//! use workloads::{SpecBenchmark, SyntheticTrace};
//! use uarch::TraceSource;
//!
//! let mut trace = SyntheticTrace::new(SpecBenchmark::Mcf.profile(), 42);
//! let instr = trace.next_instr();
//! let _ = instr.op;
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod profile;
pub mod replay;
pub mod stream;
pub mod trace;

pub use analysis::{analyze, StackDistanceProfiler, TraceStats};
pub use profile::{Profile, SpecBenchmark};
pub use replay::{RecordedTrace, ReplayTrace};
pub use stream::{
    record_bench_to_path, record_synthetic, TraceError, TraceMeta, TraceReader, TraceWriter,
};
pub use trace::SyntheticTrace;
