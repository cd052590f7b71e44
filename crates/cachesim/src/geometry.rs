//! Logical cache geometry and address decomposition.
//!
//! Distinct from [`vlsi::ArrayLayout`] (the *physical* sub-array tiling):
//! this module handles the set/way/tag arithmetic of a set-associative
//! cache, parameterized so the Fig. 11 associativity sweep (1/2/4/8-way)
//! can reuse one implementation.
//!
//! # Examples
//!
//! ```
//! use cachesim::geometry::Geometry;
//!
//! let g = Geometry::paper_l1d(); // 64 KB, 4-way, 64 B blocks
//! assert_eq!(g.sets(), 256);
//! assert_eq!(g.lines(), 1024);
//! ```

use std::fmt;

/// Shape of a set-associative cache.
///
/// Every dimension is a power of two, so the constructor stores the log2
/// of the block size, the set count and the associativity once, and every
/// address split is a shift and a mask rather than an integer divide.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Geometry {
    size_bytes: u32,
    block_bytes: u32,
    ways: u32,
    /// log2 of `block_bytes`.
    block_shift: u32,
    /// log2 of the set count.
    set_shift: u32,
    /// log2 of `ways`.
    way_shift: u32,
}

impl Geometry {
    /// Creates a geometry.
    ///
    /// # Panics
    ///
    /// Panics unless all parameters are powers of two, the block divides
    /// the size, and at least one set results.
    pub fn new(size_bytes: u32, block_bytes: u32, ways: u32) -> Self {
        assert!(size_bytes.is_power_of_two(), "size must be a power of two");
        assert!(block_bytes.is_power_of_two(), "block must be a power of two");
        assert!(ways.is_power_of_two(), "ways must be a power of two");
        assert!(block_bytes >= 8 && block_bytes <= size_bytes, "invalid block size");
        let lines = size_bytes / block_bytes;
        assert!(lines >= ways, "fewer lines than ways");
        Self {
            size_bytes,
            block_bytes,
            ways,
            block_shift: block_bytes.trailing_zeros(),
            set_shift: (lines / ways).trailing_zeros(),
            way_shift: ways.trailing_zeros(),
        }
    }

    /// The paper's L1 data cache: 64 KB, 512-bit (64 B) blocks, 4-way.
    pub fn paper_l1d() -> Self {
        Self::new(64 * 1024, 64, 4)
    }

    /// The paper's L1 with a different associativity (Fig. 11 sweep).
    pub fn paper_l1d_with_ways(ways: u32) -> Self {
        Self::new(64 * 1024, 64, ways)
    }

    /// The baseline 2 MB 4-way L2 (Table 2).
    pub fn paper_l2() -> Self {
        Self::new(2 * 1024 * 1024, 64, 4)
    }

    /// Total capacity in bytes.
    pub fn size_bytes(&self) -> u32 {
        self.size_bytes
    }

    /// Block (line) size in bytes.
    pub fn block_bytes(&self) -> u32 {
        self.block_bytes
    }

    /// Associativity.
    pub fn ways(&self) -> u32 {
        self.ways
    }

    /// Number of sets.
    pub fn sets(&self) -> u32 {
        1 << self.set_shift
    }

    /// Total number of lines.
    pub fn lines(&self) -> u32 {
        1 << (self.set_shift + self.way_shift)
    }

    /// The set index for a byte address.
    pub fn set_of(&self, addr: u64) -> u32 {
        ((addr >> self.block_shift) & ((1u64 << self.set_shift) - 1)) as u32
    }

    /// The tag for a byte address.
    pub fn tag_of(&self, addr: u64) -> u64 {
        addr >> (self.block_shift + self.set_shift)
    }

    /// The block-aligned base address for a byte address.
    pub fn block_base(&self, addr: u64) -> u64 {
        addr & !(self.block_bytes as u64 - 1)
    }

    /// Reconstructs a representative address from `(tag, set)`.
    pub fn address_of(&self, tag: u64, set: u32) -> u64 {
        ((tag << self.set_shift).wrapping_add(set as u64)) << self.block_shift
    }

    /// Flat line index for `(set, way)`: `set × ways + way`. This is the
    /// index into per-line retention maps.
    ///
    /// # Panics
    ///
    /// Panics if `set` or `way` are out of range.
    pub fn line_index(&self, set: u32, way: u32) -> u32 {
        assert!(set < self.sets(), "set {set} out of range");
        assert!(way < self.ways, "way {way} out of range");
        (set << self.way_shift) | way
    }
}

impl fmt::Display for Geometry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}KB {}-way {}B-blocks",
            self.size_bytes / 1024,
            self.ways,
            self.block_bytes
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_l1d_shape() {
        let g = Geometry::paper_l1d();
        assert_eq!(g.sets(), 256);
        assert_eq!(g.lines(), 1024);
        assert_eq!(g.ways(), 4);
        assert_eq!(g.block_bytes(), 64);
    }

    #[test]
    fn associativity_sweep_preserves_lines() {
        for ways in [1, 2, 4, 8] {
            let g = Geometry::paper_l1d_with_ways(ways);
            assert_eq!(g.lines(), 1024);
            assert_eq!(g.sets() * g.ways(), 1024);
        }
    }

    #[test]
    fn address_round_trip() {
        let g = Geometry::paper_l1d();
        for addr in [0u64, 64, 4096, 0xdead_b000, u32::MAX as u64 * 64] {
            let tag = g.tag_of(addr);
            let set = g.set_of(addr);
            let rebuilt = g.address_of(tag, set);
            assert_eq!(g.tag_of(rebuilt), tag);
            assert_eq!(g.set_of(rebuilt), set);
            assert_eq!(g.block_base(rebuilt), rebuilt);
        }
    }

    #[test]
    fn same_block_same_set_and_tag() {
        let g = Geometry::paper_l1d();
        let a = 0x1234_5678u64;
        let b = g.block_base(a) + 63;
        assert_eq!(g.set_of(a), g.set_of(b));
        assert_eq!(g.tag_of(a), g.tag_of(b));
    }

    #[test]
    fn line_index_is_dense() {
        let g = Geometry::paper_l1d();
        let mut seen = vec![false; g.lines() as usize];
        for set in 0..g.sets() {
            for way in 0..g.ways() {
                let idx = g.line_index(set, way) as usize;
                assert!(!seen[idx]);
                seen[idx] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn shifts_match_the_divide_arithmetic() {
        let mut addr = 0x9e37_79b9_7f4a_7c15u64;
        let shapes = [
            (64 * 1024, 64, 1),
            (64 * 1024, 64, 8),
            (2 << 20, 64, 4),
            (512, 8, 2),
            (256, 256, 1),
        ];
        for (size, block, ways) in shapes {
            let g = Geometry::new(size, block, ways);
            assert_eq!(g.lines(), size / block);
            let (block, sets) = (block as u64, (size / block / ways) as u64);
            assert_eq!(g.sets() as u64, sets);
            for _ in 0..1000 {
                addr = addr
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                assert_eq!(g.set_of(addr) as u64, (addr / block) % sets);
                assert_eq!(g.tag_of(addr), addr / block / sets);
                let (tag, set) = (addr >> 40, g.set_of(addr));
                assert_eq!(g.address_of(tag, set), (tag * sets + set as u64) * block);
                let way = (addr % ways as u64) as u32;
                assert_eq!(g.line_index(set, way), set * ways + way);
            }
        }
    }

    #[test]
    fn l2_shape() {
        let g = Geometry::paper_l2();
        assert_eq!(g.sets(), 8192);
        assert_eq!(g.lines(), 32 * 1024);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        let _ = Geometry::new(48 * 1024, 64, 4);
    }

    #[test]
    fn display_format() {
        assert_eq!(Geometry::paper_l1d().to_string(), "64KB 4-way 64B-blocks");
    }
}
