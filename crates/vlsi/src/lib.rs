//! Device, circuit, and process-variation models for 6T SRAM and 3T1D
//! DRAM on-chip memories.
//!
//! This crate is the physical substrate of the `pv3t1d` workspace — a
//! from-scratch reproduction of *Liang, Canal, Wei, Brooks, "Process
//! Variation Tolerant 3T1D-Based Cache Architectures" (MICRO 2007)*. It
//! replaces the paper's Hspice + Predictive-Technology-Model flow with
//! calibrated closed-form models (see `DESIGN.md` at the workspace root):
//!
//! * [`tech`] — the 65/45/32 nm technology nodes of Table 1;
//! * [`transistor`] — alpha-power-law drive and subthreshold/DIBL leakage;
//! * [`cell6t`] — 6T SRAM read delay and read-stability (bit-flip) model;
//! * [`cell3t1d`] — the 3T1D cell: storage decay, boosted read, and the
//!   paper's central quantity, the per-cell **retention time**;
//! * [`variation`], [`quadtree`], [`montecarlo`] — die-to-die and
//!   spatially correlated within-die Monte-Carlo sampling of whole chips;
//! * [`leakage`], [`power`] — static and dynamic power accounting;
//! * [`array`](mod@array) — the 8×(256×256b) sub-array geometry of the paper's L1D;
//! * [`units`], [`math`], [`stats`] — SI newtypes, normal-distribution
//!   primitives, and descriptive statistics shared by the workspace.
//!
//! # Quick start
//!
//! Sample a 32 nm chip under typical variation and inspect its cache
//! retention:
//!
//! ```
//! use vlsi::montecarlo::ChipFactory;
//! use vlsi::tech::TechNode;
//! use vlsi::variation::VariationCorner;
//!
//! let factory = ChipFactory::new(TechNode::N32, VariationCorner::Typical.params(), 1);
//! let chip = factory.chip(0);
//! let retention = chip.cache_retention();
//! assert!(retention.ns() > 400.0 && retention.ns() < 6000.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod array;
pub mod calib;
pub mod cell3t1d;
pub mod cell6t;
pub mod leakage;
pub mod math;
pub mod montecarlo;
pub mod power;
pub mod quadtree;
pub mod stats;
pub mod tech;
pub mod transistor;
pub mod units;
pub mod variation;
pub mod wire;

pub use array::ArrayLayout;
pub use montecarlo::{Chip, ChipFactory};
pub use tech::{OperatingPoint, TechNode};
pub use units::{Energy, Frequency, Power, Time, Voltage};
pub use variation::{DeviceDeviation, VariationCorner, VariationParams};
