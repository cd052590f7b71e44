//! Cycle-level out-of-order superscalar CPU model (Alpha 21264 /
//! POWER4-class) for cache-architecture studies.
//!
//! Part of the `pv3t1d` workspace (MICRO 2007 3T1D-cache reproduction);
//! stands in for the paper's `sim-alpha` simulator. The machine is the
//! Table 2 baseline: 4-wide out-of-order with an 80-entry ROB, 20/15-entry
//! INT/FP issue queues, 32-entry load and store queues, 4 INT + 2 FP
//! units, and a 21264 tournament branch predictor. Memory operations go
//! through a [`cachesim::DataCache`], whose refresh-induced port stealing
//! back-pressures the pipeline — the paper's central performance coupling.
//!
//! The predictor, the ITLB and the I-cache depend on the trace alone, so a
//! [`FrontEnd`] resolves them ahead of the pipeline into 16-byte
//! [`Fetched`] records, which [`Pipeline::run`] consumes.
//!
//! # Quick start
//!
//! ```
//! use cachesim::DataCache;
//! use uarch::instr::Instruction;
//! use uarch::sim::simulate;
//!
//! let mut cache = DataCache::ideal();
//! let mut trace = || Instruction::int_alu();
//! let result = simulate(&mut trace, &mut cache, 10_000);
//! assert!(result.ipc() > 3.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bpred;
mod calendar;
pub mod config;
pub mod front;
pub mod instr;
pub mod sim;
pub mod tlb;

pub use config::MachineConfig;
pub use front::{FetchSource, Fetched, FrontEnd};
pub use instr::{Instruction, OpClass, TraceSource};
pub use sim::{simulate, Pipeline, SimResult};
