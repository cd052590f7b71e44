//! Physical organization of the cache array (§3.2).
//!
//! The paper's L1 data cache is 64 KB with 512-bit blocks, divided into 8
//! sub-arrays of 256×256 bits arranged on the die; every *pair* of
//! sub-arrays shares 64 sense amplifiers and combines to hold the 512-bit
//! blocks, so a cache line occupies one row across a sub-array pair and the
//! cache holds 4 pairs × 256 rows = 1024 lines.
//!
//! [`ArrayLayout`] captures this geometry plus the mapping from a line and
//! bit position to normalized die coordinates, which is what couples the
//! spatially correlated variation field to individual cells.

/// Physical geometry of the cache data array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ArrayLayout {
    /// Number of sub-arrays (8 in the paper).
    pub subarrays: u32,
    /// Rows per sub-array (256).
    pub rows: u32,
    /// Bit columns per sub-array (256).
    pub cols: u32,
    /// Tag/state bits stored per line alongside the data (address tag,
    /// valid, dirty, replacement state), also built from the same cells.
    pub tag_bits: u32,
    /// Sense amplifiers shared by each sub-array pair (64): determines the
    /// refresh bandwidth of 64 bits/cycle.
    pub sense_amps_per_pair: u32,
}

impl ArrayLayout {
    /// The paper's 64 KB L1 data-cache layout.
    pub const PAPER_L1D: ArrayLayout = ArrayLayout {
        subarrays: 8,
        rows: 256,
        cols: 256,
        tag_bits: 24,
        sense_amps_per_pair: 64,
    };

    /// Number of sub-array pairs.
    pub fn pairs(&self) -> u32 {
        self.subarrays / 2
    }

    /// Data bits in one cache line (one row across a sub-array pair).
    pub fn bits_per_line(&self) -> u32 {
        2 * self.cols
    }

    /// Total cache lines.
    pub fn lines(&self) -> u32 {
        self.pairs() * self.rows
    }

    /// Total number of memory cells (data + per-line tag/state bits).
    pub fn total_cells(&self) -> u64 {
        self.lines() as u64 * (self.bits_per_line() + self.tag_bits) as u64
    }

    /// Cells whose retention matters for one line (data + tag).
    pub fn cells_per_line(&self) -> u32 {
        self.bits_per_line() + self.tag_bits
    }

    /// Normalized die coordinates of a cell.
    ///
    /// Sub-arrays tile a `pairs × 2` grid (4×2 for the paper layout): the
    /// pair index selects the grid column, and each pair's two sub-arrays
    /// stack vertically. Rows and columns then locate the cell within its
    /// sub-array. Tag bits (bit index ≥ data bits) sit at the row edge.
    ///
    /// # Panics
    ///
    /// Panics if `line` or `bit` are out of range.
    pub fn cell_position(&self, line: u32, bit: u32) -> (f64, f64) {
        assert!(line < self.lines(), "line {line} out of range");
        assert!(bit < self.cells_per_line(), "bit {bit} out of range");
        let pair = line / self.rows;
        let row = line % self.rows;
        // Which sub-array of the pair, and the column within it. Tag bits
        // live at the end of the second sub-array's row.
        let bit = bit.min(self.bits_per_line() - 1);
        let (sub, col) = if bit < self.cols {
            (0, bit)
        } else {
            (1, bit - self.cols)
        };
        let grid_w = self.pairs() as f64;
        let x = (pair as f64 + (col as f64 + 0.5) / self.cols as f64) / grid_w;
        let y = (sub as f64 + (row as f64 + 0.5) / self.rows as f64) / 2.0;
        (x, y)
    }

    /// Normalized die coordinates of a sub-array center, for fast-path
    /// models that treat correlated variation as constant per sub-array.
    ///
    /// # Panics
    ///
    /// Panics if `subarray` is out of range.
    pub fn subarray_center(&self, subarray: u32) -> (f64, f64) {
        assert!(subarray < self.subarrays, "subarray {subarray} out of range");
        let pair = subarray / 2;
        let sub = subarray % 2;
        (
            (pair as f64 + 0.5) / self.pairs() as f64,
            (sub as f64 + 0.5) / 2.0,
        )
    }
}

impl Default for ArrayLayout {
    fn default() -> Self {
        Self::PAPER_L1D
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tech::TechNode;

    #[test]
    fn paper_layout_dimensions() {
        let l = ArrayLayout::PAPER_L1D;
        assert_eq!(l.pairs(), 4);
        assert_eq!(l.bits_per_line(), 512);
        assert_eq!(l.lines(), 1024);
        assert_eq!(l.lines() * l.bits_per_line() / 8, 64 * 1024);
        assert_eq!(l.cells_per_line(), 536);
        assert_eq!(l.total_cells(), 1024 * 536);
    }

    #[test]
    fn refresh_timing_matches_section_4_1() {
        let l = ArrayLayout::PAPER_L1D;
        // A line refreshes through the pair's shared sense amps: 512 bits /
        // 64 amps = 8 cycles, the `refresh_cycles` of cachesim's paper
        // config. Pairs refresh in parallel (the refresh is "encapsulated
        // into each sub-array"), so a full pass is one pair's 256 lines ×
        // 8 cycles = 2K cycles, 476.3 ns at 4.3 GHz.
        let line_cycles = l.bits_per_line().div_ceil(l.sense_amps_per_pair);
        assert_eq!(line_cycles, 8);
        let pass_cycles = u64::from(l.rows * line_cycles);
        assert_eq!(pass_cycles, 2048);
        let t = TechNode::N32.clock_period() * pass_cycles as f64;
        assert!((t.ns() - 476.3).abs() < 0.5, "pass time {} ns", t.ns());
    }

    #[test]
    fn cell_positions_are_in_unit_square() {
        let l = ArrayLayout::PAPER_L1D;
        for line in [0, 1, 255, 256, 1023] {
            for bit in [0, 255, 256, 511, 535] {
                let (x, y) = l.cell_position(line, bit);
                assert!((0.0..=1.0).contains(&x), "x={x}");
                assert!((0.0..=1.0).contains(&y), "y={y}");
            }
        }
    }

    #[test]
    fn lines_in_different_pairs_are_far_apart() {
        let l = ArrayLayout::PAPER_L1D;
        let (x0, _) = l.cell_position(0, 0);
        let (x3, _) = l.cell_position(3 * 256, 0); // pair 3
        assert!((x3 - x0).abs() > 0.5);
    }

    #[test]
    fn same_line_spans_its_pair_vertically() {
        let l = ArrayLayout::PAPER_L1D;
        let (_, y_first_half) = l.cell_position(0, 10);
        let (_, y_second_half) = l.cell_position(0, 300);
        assert!(y_first_half < 0.5);
        assert!(y_second_half >= 0.5);
    }

    #[test]
    fn subarray_centers_distinct() {
        let l = ArrayLayout::PAPER_L1D;
        let mut centers: Vec<(f64, f64)> = (0..l.subarrays).map(|s| l.subarray_center(s)).collect();
        centers.sort_by(|a, b| a.partial_cmp(b).unwrap());
        centers.dedup_by(|a, b| a == b);
        assert_eq!(centers.len(), 8);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_line_panics() {
        let _ = ArrayLayout::PAPER_L1D.cell_position(1024, 0);
    }
}
