//! Process-variation-tolerant 3T1D cache architectures — the paper's
//! primary contribution (MICRO 2007 reproduction).
//!
//! This crate ties the workspace together: Monte-Carlo chip samples from
//! [`vlsi`] become per-line retention profiles for the [`cachesim`] L1D,
//! which is driven by the [`uarch`] out-of-order core over [`workloads`]
//! benchmark streams. On top of that substrate it implements the paper's
//! evaluation machinery:
//!
//! * [`campaign`] — the parallel Monte-Carlo campaign engine fanning
//!   independent `(chip, scheme)` work units across a worker pool with
//!   serial-identical output;
//! * [`chip`] — architecture-facing chip models, populations, and the
//!   good/median/bad exemplar selection of §4.3;
//! * [`evaluate`] — scheme × chip × benchmark-suite evaluation with the
//!   paper's normalization against an ideal 6T design;
//! * [`sensitivity`] — the §5 µ–σ/µ retention sweep (Fig. 12);
//! * [`table3`] — the per-node design-comparison table.
//!
//! # Quick start
//!
//! Evaluate the paper's best scheme (RSP-FIFO) on a severely varied chip:
//!
//! ```no_run
//! use t3cache::chip::{ChipGrade, ChipPopulation};
//! use t3cache::evaluate::{EvalConfig, Evaluator};
//! use cachesim::Scheme;
//! use vlsi::{TechNode, VariationCorner};
//!
//! let pop = ChipPopulation::generate(
//!     TechNode::N32, VariationCorner::Severe.params(), 100, 42);
//! let eval = Evaluator::new(EvalConfig::default());
//! let ideal = eval.run_ideal(4);
//! let (perf, power) =
//!     eval.evaluate_chip(pop.select(ChipGrade::Bad), Scheme::rsp_fifo(), &ideal);
//! println!("bad chip under RSP-FIFO: perf {perf:.3}, dyn power {power:.2}x");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod chip;
pub mod evaluate;
pub mod rescue;
pub mod sensitivity;
pub mod table3;
pub mod wordlevel;

pub use campaign::{evaluate_grid, map_indexed, CampaignReport, CampaignResult};
pub use chip::{ChipGrade, ChipModel, ChipPopulation};
pub use rescue::{cache_yield, rescue_report, RescueMechanism, RescueReport};
pub use wordlevel::{line_level_demand, word_level_demand, word_vs_line, RefreshDemand};
pub use evaluate::{BenchRun, EvalConfig, Evaluator, SuiteResult, UnitEval};
pub use sensitivity::{design_point, synthetic_profile, SensitivityPoint, SensitivitySweep};
pub use table3::{cache_power_saving, table3_rows, Design, Table3Row};
