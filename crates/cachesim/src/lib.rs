//! Cycle-level set-associative cache simulator with retention-time
//! tracking, refresh engines, and retention-aware replacement.
//!
//! Part of the `pv3t1d` workspace (MICRO 2007 3T1D-cache reproduction).
//! The centerpiece is [`DataCache`], a model of the paper's 64 KB 4-way
//! L1 data cache built from 3T1D dynamic cells: every line carries a
//! finite, per-line *retention time* (from [`vlsi`]'s Monte-Carlo chip
//! samples), and the cache implements the paper's full scheme space —
//! global refresh, no/partial/full line-level refresh, and the LRU / DSP /
//! RSP-FIFO / RSP-LRU placement policies — with explicit port contention
//! so refresh overhead feeds back into processor performance.
//!
//! # Quick start
//!
//! ```
//! use cachesim::{AccessKind, CacheConfig, DataCache, RetentionProfile, Scheme};
//!
//! // A uniform-retention 3T1D cache with the paper's best scheme.
//! let cfg = CacheConfig::paper(Scheme::rsp_fifo());
//! let profile = RetentionProfile::uniform_cycles(10_000, 1024);
//! let mut cache = DataCache::new(cfg, profile);
//!
//! let miss = cache.access(0, 0x1000, AccessKind::Load).unwrap();
//! assert!(!miss.hit);
//! let hit = cache.access(10, 0x1000, AccessKind::Load).unwrap();
//! assert!(hit.hit);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod geometry;
pub mod l2;
pub mod policy;
mod queue;
pub mod replay;
pub mod retention;
pub mod stats;

pub use cache::{AccessKind, AccessResult, CacheConfig, DataCache, PortBusy};
pub use geometry::Geometry;
pub use l2::TagCache;
pub use policy::{RefreshPolicy, ReplacementPolicy, Scheme, WritePolicy};
pub use replay::{AccessReplayer, DemandSink};
pub use retention::{CounterSpec, RetentionProfile};
pub use stats::CacheStats;
