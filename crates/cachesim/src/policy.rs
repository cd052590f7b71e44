//! Refresh and replacement policies (§4.3.1–§4.3.3).
//!
//! The paper's design space is the cross-product of refresh policies
//! (no-refresh, partial-refresh, full-refresh, plus the coarse-grained
//! §4.1 global scheme) and placement policies (LRU, dead-sensitive DSP,
//! retention-sensitive RSP-FIFO / RSP-LRU). RSP policies carry an
//! *intrinsic* refresh (blocks are rewritten when shuffled between ways),
//! so they are not combined with an explicit refresh policy.

use std::fmt;

/// How (and whether) lines are refreshed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RefreshPolicy {
    /// Never refresh: lines are evicted when their retention expires;
    /// dirty data is written back to the L2 (§4.3.1 "No-refresh").
    #[default]
    None,
    /// Refresh only lines whose quantized lifetime is below the threshold,
    /// keeping each alive until its age exceeds the threshold; longer-lived
    /// lines expire naturally (§4.3.1 "Partial-refresh").
    Partial {
        /// Guaranteed minimum lifetime in cycles (the paper uses 6 K).
        threshold_cycles: u64,
    },
    /// Refresh every line before it expires, forever (§4.3.1
    /// "Full-refresh").
    Full,
    /// The §4.1/§4.2 coarse scheme: a global counter triggers a whole-cache
    /// refresh pass sized by the worst line's retention. Chips with any
    /// dead line cannot use this scheme (§4.3).
    Global,
}

impl RefreshPolicy {
    /// The paper's partial-refresh threshold: 6 K cycles (§4.3.3).
    pub fn partial_6k() -> Self {
        RefreshPolicy::Partial {
            threshold_cycles: 6_000,
        }
    }
}

impl fmt::Display for RefreshPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RefreshPolicy::None => f.write_str("no-refresh"),
            RefreshPolicy::Partial { threshold_cycles } => {
                write!(f, "partial-refresh({threshold_cycles})")
            }
            RefreshPolicy::Full => f.write_str("full-refresh"),
            RefreshPolicy::Global => f.write_str("global-refresh"),
        }
    }
}

/// How victim ways are chosen and where new blocks are placed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ReplacementPolicy {
    /// Conventional least-recently-used; unaware of dead lines (§4.3.2).
    #[default]
    Lru,
    /// Dead-Sensitive Placement: LRU that never allocates into dead ways.
    /// If every way of a set is dead, accesses to that set miss to the L2.
    Dsp,
    /// Retention-Sensitive Placement, FIFO flavor: ways ordered by
    /// descending retention; a new block takes the longest-retention way
    /// and existing blocks shift down one rank (an intrinsic refresh).
    RspFifo,
    /// Retention-Sensitive Placement, LRU flavor: the most recently
    /// accessed block is kept in the longest-retention way (shuffling on
    /// hits as well as fills).
    RspLru,
}

impl ReplacementPolicy {
    /// Whether this policy carries an intrinsic refresh (and therefore is
    /// not combined with an explicit refresh policy — §4.3.3).
    pub fn has_intrinsic_refresh(&self) -> bool {
        matches!(self, ReplacementPolicy::RspFifo | ReplacementPolicy::RspLru)
    }
}

impl fmt::Display for ReplacementPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplacementPolicy::Lru => f.write_str("LRU"),
            ReplacementPolicy::Dsp => f.write_str("DSP"),
            ReplacementPolicy::RspFifo => f.write_str("RSP-FIFO"),
            ReplacementPolicy::RspLru => f.write_str("RSP-LRU"),
        }
    }
}

/// How stores propagate to the next level (§4.3.1: "write-through caches
/// do not require any action" when lines expire).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum WritePolicy {
    /// Dirty lines written back on eviction/expiry (the paper's baseline).
    #[default]
    WriteBack,
    /// Every store also goes to the L2: lines are never dirty, so expiry
    /// needs no write-back action (at the cost of store traffic).
    WriteThrough,
}

impl fmt::Display for WritePolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WritePolicy::WriteBack => f.write_str("write-back"),
            WritePolicy::WriteThrough => f.write_str("write-through"),
        }
    }
}

/// A complete retention scheme: refresh × replacement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Scheme {
    /// The refresh policy.
    pub refresh: RefreshPolicy,
    /// The replacement/placement policy.
    pub replacement: ReplacementPolicy,
}

impl Scheme {
    /// Creates a scheme, enforcing the paper's valid combinations.
    ///
    /// # Panics
    ///
    /// Panics if an RSP placement is combined with an explicit per-line
    /// refresh policy (they already refresh intrinsically), or if the
    /// global refresh is combined with a retention-aware placement (the
    /// global scheme predates and precludes per-line knowledge).
    pub fn new(refresh: RefreshPolicy, replacement: ReplacementPolicy) -> Self {
        if replacement.has_intrinsic_refresh() {
            assert!(
                matches!(refresh, RefreshPolicy::None),
                "RSP placements use intrinsic refresh; combine with RefreshPolicy::None"
            );
        }
        if matches!(refresh, RefreshPolicy::Global) {
            assert!(
                matches!(replacement, ReplacementPolicy::Lru),
                "the global scheme uses a conventional LRU cache"
            );
        }
        Self {
            refresh,
            replacement,
        }
    }

    /// §4.3.3's representative simple scheme: no-refresh / LRU.
    pub fn no_refresh_lru() -> Self {
        Self::new(RefreshPolicy::None, ReplacementPolicy::Lru)
    }

    /// §4.3.3's representative mid scheme: partial-refresh(6K) / DSP.
    pub fn partial_refresh_dsp() -> Self {
        Self::new(RefreshPolicy::partial_6k(), ReplacementPolicy::Dsp)
    }

    /// §4.3.3's representative best scheme: RSP-FIFO.
    pub fn rsp_fifo() -> Self {
        Self::new(RefreshPolicy::None, ReplacementPolicy::RspFifo)
    }

    /// The RSP-LRU scheme.
    pub fn rsp_lru() -> Self {
        Self::new(RefreshPolicy::None, ReplacementPolicy::RspLru)
    }

    /// The §4.1 global-refresh scheme.
    pub fn global() -> Self {
        Self::new(RefreshPolicy::Global, ReplacementPolicy::Lru)
    }

    /// The eight line-level combinations evaluated in Fig. 9: the six
    /// {no,partial,full}×{LRU,DSP} crosses plus RSP-FIFO and RSP-LRU.
    pub fn figure9_schemes() -> Vec<Scheme> {
        let mut v = Vec::new();
        for refresh in [
            RefreshPolicy::None,
            RefreshPolicy::partial_6k(),
            RefreshPolicy::Full,
        ] {
            for replacement in [ReplacementPolicy::Lru, ReplacementPolicy::Dsp] {
                v.push(Scheme::new(refresh, replacement));
            }
        }
        v.push(Scheme::rsp_fifo());
        v.push(Scheme::rsp_lru());
        v
    }
}

impl fmt::Display for Scheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.replacement.has_intrinsic_refresh() {
            write!(f, "{}", self.replacement)
        } else {
            write!(f, "{}/{}", self.refresh, self.replacement)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure9_has_eight_schemes() {
        let schemes = Scheme::figure9_schemes();
        assert_eq!(schemes.len(), 8);
        // All distinct.
        for (i, a) in schemes.iter().enumerate() {
            for b in &schemes[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    #[should_panic(expected = "intrinsic refresh")]
    fn rsp_with_refresh_rejected() {
        let _ = Scheme::new(RefreshPolicy::Full, ReplacementPolicy::RspFifo);
    }

    #[test]
    #[should_panic(expected = "global scheme")]
    fn global_with_dsp_rejected() {
        let _ = Scheme::new(RefreshPolicy::Global, ReplacementPolicy::Dsp);
    }

    #[test]
    fn intrinsic_refresh_flags() {
        assert!(ReplacementPolicy::RspFifo.has_intrinsic_refresh());
        assert!(ReplacementPolicy::RspLru.has_intrinsic_refresh());
        assert!(!ReplacementPolicy::Dsp.has_intrinsic_refresh());
    }

    #[test]
    fn display_names() {
        assert_eq!(Scheme::no_refresh_lru().to_string(), "no-refresh/LRU");
        assert_eq!(Scheme::rsp_fifo().to_string(), "RSP-FIFO");
        assert_eq!(
            Scheme::partial_refresh_dsp().to_string(),
            "partial-refresh(6000)/DSP"
        );
        assert_eq!(Scheme::global().to_string(), "global-refresh/LRU");
    }
}
