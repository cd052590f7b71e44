//! TLB model (Table 2: 128-entry, fully associative), used for both the
//! data and the instruction TLB.
//!
//! Loads and stores translate through the DTLB in the pipeline at issue; a
//! miss adds a fixed page-walk penalty to the access latency (the 21264
//! handles these in PALcode, but the cost is modeled as overlappable
//! latency here). Instruction fetch translates each new fetch block's PC
//! through the ITLB in the [`crate::front::FrontEnd`]; a miss stalls fetch
//! for the same page-walk penalty.

/// A fully-associative, true-LRU translation lookaside buffer.
#[derive(Debug, Clone)]
pub struct Tlb {
    /// Pages in LRU order, most recent first.
    entries: Vec<u64>,
    capacity: usize,
    page_shift: u32,
    hits: u64,
    misses: u64,
}

impl Tlb {
    /// Creates a TLB with `capacity` entries over pages of
    /// `2^page_shift` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or the page shift is unreasonable.
    pub fn new(capacity: usize, page_shift: u32) -> Self {
        assert!(capacity > 0, "TLB needs capacity");
        assert!((10..=30).contains(&page_shift), "unreasonable page size");
        Self {
            entries: Vec::with_capacity(capacity),
            capacity,
            page_shift,
            hits: 0,
            misses: 0,
        }
    }

    /// The Table 2 data TLB: 128 entries, 8 KB pages.
    pub fn paper_dtlb() -> Self {
        Self::new(128, 13)
    }

    /// Translates `addr`, updating LRU state. Returns `true` on a hit.
    ///
    /// Most accesses repeat the most recent page, so that entry is checked
    /// before the scan; a hit there leaves the LRU order as it is.
    pub fn access(&mut self, addr: u64) -> bool {
        let page = addr >> self.page_shift;
        if self.entries.first() == Some(&page) {
            self.hits += 1;
            true
        } else if let Some(pos) = self.entries.iter().position(|&p| p == page) {
            self.entries[..=pos].rotate_right(1);
            self.hits += 1;
            true
        } else {
            if self.entries.len() == self.capacity {
                self.entries.pop();
            }
            self.entries.insert(0, page);
            self.misses += 1;
            false
        }
    }

    /// Hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Miss rate in [0, 1].
    pub fn miss_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_after_fill() {
        let mut tlb = Tlb::new(4, 13);
        assert!(!tlb.access(0x0000));
        assert!(tlb.access(0x1000), "same 8KB page");
        assert!(tlb.access(0x1FFF));
        assert!(!tlb.access(0x2000), "next page");
        assert_eq!(tlb.hits(), 2);
        assert_eq!(tlb.misses(), 2);
    }

    #[test]
    fn lru_eviction_order() {
        let mut tlb = Tlb::new(2, 13);
        let page = |i: u64| i << 13;
        tlb.access(page(1));
        tlb.access(page(2));
        tlb.access(page(1)); // 1 is MRU
        tlb.access(page(3)); // evicts 2
        assert!(tlb.access(page(1)));
        assert!(!tlb.access(page(2)));
    }

    #[test]
    fn capacity_is_respected() {
        let mut tlb = Tlb::new(8, 13);
        for i in 0..100u64 {
            tlb.access(i << 13);
        }
        // Last 8 pages resident.
        for i in 92..100u64 {
            assert!(tlb.access(i << 13), "page {i}");
        }
        assert!(!tlb.access(0));
    }

    #[test]
    fn miss_rate_accounting() {
        let mut tlb = Tlb::paper_dtlb();
        assert_eq!(tlb.miss_rate(), 0.0);
        tlb.access(0);
        assert_eq!(tlb.miss_rate(), 1.0);
        tlb.access(0);
        assert_eq!(tlb.miss_rate(), 0.5);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        let _ = Tlb::new(0, 13);
    }
}
