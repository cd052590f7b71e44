//! # pv3t1d — Process Variation Tolerant 3T1D-Based Cache Architectures
//!
//! A from-scratch Rust reproduction of *Liang, Canal, Wei, Brooks,
//! "Process Variation Tolerant 3T1D-Based Cache Architectures"*
//! (MICRO 2007): replacing the 6T-SRAM L1 data cache of an out-of-order
//! processor with a 3T1D dynamic-memory cache whose process variation
//! lumps into per-line *retention times*, absorbed architecturally by
//! retention-aware refresh and placement schemes.
//!
//! This umbrella crate re-exports the five workspace layers:
//!
//! * [`vlsi`] — devices, 6T/3T1D cell models, Monte-Carlo process
//!   variation (die-to-die + quad-tree correlated within-die), leakage
//!   and dynamic power;
//! * [`cachesim`] — the cycle-level 64 KB L1D with retention tracking,
//!   the global/none/partial/full refresh engines and the LRU / DSP /
//!   RSP-FIFO / RSP-LRU placement policies;
//! * [`uarch`] — the Table 2 out-of-order core (sim-alpha substitute)
//!   with a 21264 tournament predictor;
//! * [`workloads`] — calibrated synthetic SPEC2000-like trace generators
//!   and the chunked streaming trace-file container;
//! * [`validate`] — the golden-model differential harness: a naive
//!   reference cache replayed against [`cachesim`] over identical access
//!   schedules, with per-counter divergence reports;
//! * [`t3cache`] — the paper's evaluation machinery: chip populations,
//!   scheme evaluation normalized to ideal 6T, the §5 sensitivity sweep,
//!   and Table 3;
//! * [`obs`] — the zero-dependency observability layer: metrics
//!   registry, JSON run manifests, and the determinism fingerprint the
//!   test suite compares across worker counts.
//!
//! # Quick start
//!
//! ```no_run
//! use pv3t1d::prelude::*;
//!
//! // Fabricate 100 severely-varied 32 nm chips.
//! let pop = ChipPopulation::generate(
//!     TechNode::N32, VariationCorner::Severe.params(), 100, 42);
//!
//! // Evaluate the paper's best scheme on the worst chip.
//! let eval = Evaluator::new(EvalConfig::default());
//! let ideal = eval.run_ideal(4);
//! let (perf, power) =
//!     eval.evaluate_chip(pop.select(ChipGrade::Bad), Scheme::rsp_fifo(), &ideal);
//! println!("bad chip, RSP-FIFO: {perf:.3}x perf, {power:.2}x dynamic power");
//! ```
//!
//! See `DESIGN.md` for the system inventory and `EXPERIMENTS.md` for the
//! per-figure reproduction results; the binaries in `pv3t1d-bench`
//! regenerate every table and figure of the paper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use cachesim;
pub use obs;
pub use t3cache;
pub use uarch;
pub use validate;
pub use vlsi;
pub use workloads;

/// Convenient re-exports of the types most experiments touch.
pub mod prelude {
    pub use cachesim::{
        AccessKind, CacheConfig, CounterSpec, DataCache, Geometry, RefreshPolicy,
        ReplacementPolicy, RetentionProfile, Scheme,
    };
    pub use t3cache::{
        ChipGrade, ChipModel, ChipPopulation, EvalConfig, Evaluator, SensitivitySweep,
    };
    pub use obs::MetricsRegistry;
    pub use uarch::{sim::simulate_warmed, Instruction, MachineConfig, TraceSource};
    pub use vlsi::{ChipFactory, TechNode, VariationCorner, VariationParams};
    pub use validate::{run_differential, DivergenceReport, GoldenCache};
    pub use workloads::{Profile, SpecBenchmark, SyntheticTrace, TraceReader, TraceWriter};
}
