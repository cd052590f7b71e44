//! Structure-of-arrays batch kernels for the Monte-Carlo hot path.
//!
//! The scalar sampling loops in [`super`] walk the cache cell-by-cell, and
//! each cell pays for a quad-tree descent, a [`cell_position`] solve, and a
//! scalar retention call on top of its two normal draws. This module
//! restructures that work into contiguous `Vec<f64>` *planes* indexed
//! `line * cells_per_line + bit`:
//!
//! * the correlated ΔL/L plane is a **gather**: the quad-tree collapses to
//!   its finest-level [`leaf_totals`] once per chip, and a per-layout leaf
//!   LUT (built once per process, shared across all chips of a layout) maps
//!   every cell straight to its leaf — no per-cell descent, no per-cell
//!   trigonometry of coordinates;
//! * the random-dopant Vth planes are filled line-at-a-time straight from
//!   the RNG stream; and
//! * the retention solve runs as [`RetentionSolver::retention_slice`], a
//!   tight loop over the three planes. The 3T1D line kernel,
//!   [`line_retentions`], goes further: a per-chip `RetentionScreen`
//!   certifies most cells as no lower than their line's running minimum,
//!   and only the rest take the exact solve.
//!
//! **Determinism contract.** Every kernel consumes the chip's RNG streams
//! draw-for-draw like its scalar counterpart and produces bit-identical
//! results — pinned by golden tests against the scalar reference paths
//! (which remain in [`super`] precisely to serve as that reference). The
//! subtle case is the line loop's dead-line early exit: the scalar path
//! stops drawing mid-line when a line is proven dead. The batch kernel
//! draws the whole line, and on the first dead cell `j` rewinds to a
//! snapshot of the generator taken at line start and re-consumes exactly
//! the `2 * (j + 1)` normals the scalar path would have, leaving the
//! stream position identical for every subsequent line.
//!
//! [`cell_position`]: crate::array::ArrayLayout::cell_position
//! [`leaf_totals`]: crate::quadtree::QuadTreeField::leaf_totals
//! [`RetentionSolver::retention_slice`]: crate::cell3t1d::RetentionSolver::retention_slice

use super::{Chip, WordRetentionMap, RETENTION_PURPOSE, WORD_RETENTION_PURPOSE};
use crate::array::ArrayLayout;
use crate::cell3t1d::RetentionSolver;
use crate::celltech::CellTechnology;
use crate::math::{fill_standard_normals, sample_standard_normal};
use crate::quadtree::QuadTreeField;
use crate::units::Time;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Contiguous per-cell deviation planes for one chip, indexed
/// `line * cells_per_line + bit`.
///
/// `dl` holds the total (die-to-die + correlated within-die) ΔL/L at each
/// cell; `dvth1` / `dvth2` hold the write- and read-transistor random
/// dopant Vth deviations in volts (σ already applied).
#[derive(Debug, Clone, PartialEq)]
pub struct DeviationPlanes {
    lines: usize,
    cells_per_line: usize,
    /// Correlated + die-to-die ΔL/L per cell.
    pub dl: Vec<f64>,
    /// Write transistor (T1) random Vth deviation per cell, in volts.
    pub dvth1: Vec<f64>,
    /// Read transistor (T2) random Vth deviation per cell, in volts.
    pub dvth2: Vec<f64>,
}

impl DeviationPlanes {
    /// Number of cache lines covered.
    pub fn lines(&self) -> usize {
        self.lines
    }

    /// Cells per line (data bits + tag bits).
    pub fn cells_per_line(&self) -> usize {
        self.cells_per_line
    }

    /// The index range of one line's cells within each plane.
    pub fn row(&self, line: usize) -> std::ops::Range<usize> {
        let base = line * self.cells_per_line;
        base..base + self.cells_per_line
    }
}

/// Per-layout gather LUT: for each `(line, bit)` cell, the finest-level
/// quad-tree leaf its die position falls in. Building it costs one full
/// `cell_position` sweep, so it is cached process-wide per
/// `(layout, levels)` — every chip of the same geometry shares it.
fn leaf_lut(layout: &ArrayLayout, levels: usize) -> Arc<Vec<u32>> {
    type LutCache = Mutex<HashMap<(ArrayLayout, usize), Arc<Vec<u32>>>>;
    static CACHE: OnceLock<LutCache> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    let key = (*layout, levels);
    if let Some(lut) = cache.lock().unwrap().get(&key) {
        return Arc::clone(lut);
    }
    let lines = layout.lines();
    let cells = layout.cells_per_line();
    let mut lut = Vec::with_capacity(lines as usize * cells as usize);
    for line in 0..lines {
        for bit in 0..cells {
            let (x, y) = layout.cell_position(line, bit);
            lut.push(QuadTreeField::leaf_index_at(levels, x, y) as u32);
        }
    }
    let lut = Arc::new(lut);
    cache
        .lock()
        .unwrap()
        .entry(key)
        .or_insert_with(|| Arc::clone(&lut))
        .clone()
}

/// The chip's full ΔL/L plane, gathered from the quad-tree leaf totals.
///
/// `dl_plane(chip)[line * cells_per_line + bit]` is bit-identical to
/// `chip.dl_at(x, y)` at that cell's position.
pub fn dl_plane(chip: &Chip) -> Vec<f64> {
    let lut = leaf_lut(&chip.layout, chip.field.levels());
    let leaf_dl = leaf_dl(chip);
    lut.iter().map(|&leaf| leaf_dl[leaf as usize]).collect()
}

/// Batch equivalent of the scalar per-line retention sampling: returns the
/// per-line minimum retention, bit-identical to
/// [`Chip::line_retentions_scalar`] including RNG stream consumption.
///
/// Only a cell that could lower its line's running minimum is solved
/// exactly; the `RetentionScreen` certifies that every other cell's
/// retention is at least that minimum, so the `<` fold never sees it.
pub fn line_retentions(chip: &Chip) -> Vec<Time> {
    let _span = obs::trace::span_with("vlsi", || format!("batch.retention:chip{}", chip.index));
    let (out, exact_solves) = screened_line_retentions(chip);
    let cells = out.len() * chip.layout.cells_per_line() as usize;
    obs::trace::counter("batch.retention", cells as f64);
    obs::trace::counter("batch.exact_solves", exact_solves as f64);
    out
}

/// [`line_retentions`] plus the number of cells it solved exactly.
fn screened_line_retentions(chip: &Chip) -> (Vec<Time>, u64) {
    let solver = RetentionSolver::new(chip.node);
    let sigma_vth = chip.params.sigma_vth(chip.node).volts();
    let lut = leaf_lut(&chip.layout, chip.field.levels());
    let leaf_dl = leaf_dl(chip);
    let screen = RetentionScreen::new(&solver, &leaf_dl, sigma_vth);
    let cells = chip.layout.cells_per_line() as usize;
    let mut exact_solves = 0u64;
    let out = fold_lines(chip, |line, normals| {
        let leaves = &lut[line * cells..(line + 1) * cells];
        let mut min_ret = Time::from_us(f64::INFINITY);
        for (bit, &leaf) in leaves.iter().enumerate() {
            let dvth1 = sigma_vth * normals[2 * bit];
            let dvth2 = sigma_vth * normals[2 * bit + 1];
            let dl = leaf_dl[leaf as usize];
            if screen.clears(leaf as usize, dvth1, solver.ln_floor(dl, dvth2), min_ret) {
                continue;
            }
            exact_solves += 1;
            let r = solver.retention(dl, dvth1, dvth2);
            if r < min_ret {
                min_ret = r;
                if min_ret == Time::ZERO {
                    return (min_ret, Some(bit));
                }
            }
        }
        (min_ret, None)
    });
    (out, exact_solves)
}

/// [`line_retentions`] for an arbitrary [`CellTechnology`]: the same RNG
/// streams, min-fold, and dead-line rewind, with every cell solved by the
/// technology's slice kernel and its [`line_scale`] applied after the
/// fold.
///
/// For the 3T1D technology at the nominal operating point this is
/// bit-identical to [`line_retentions`] (the retention scale and line
/// scale are both exactly 1.0, and IEEE `x * 1.0 == x`).
///
/// [`line_scale`]: CellTechnology::line_scale
pub fn line_retentions_with(chip: &Chip, tech: &dyn CellTechnology) -> Vec<Time> {
    let _span = obs::trace::span_with("vlsi", || format!("batch.retention:chip{}", chip.index));
    let lines = chip.layout.lines();
    let cells = chip.layout.cells_per_line() as usize;
    let sigma_vth = chip.params.sigma_vth(chip.node).volts();
    let dl = dl_plane(chip);
    let mut dvth1 = vec![0.0f64; cells];
    let mut dvth2 = vec![0.0f64; cells];
    let mut rets: Vec<Time> = Vec::with_capacity(cells);
    let out = fold_lines(chip, |line, normals| {
        for bit in 0..cells {
            dvth1[bit] = sigma_vth * normals[2 * bit];
            dvth2[bit] = sigma_vth * normals[2 * bit + 1];
        }
        let base = line * cells;
        tech.retention_slice(&dl[base..base + cells], &dvth1, &dvth2, &mut rets);
        // Same reduction as the scalar loop, dead-line break included.
        let mut min_ret = Time::from_us(f64::INFINITY);
        for (bit, &r) in rets.iter().enumerate() {
            if r < min_ret {
                min_ret = r;
                if min_ret == Time::ZERO {
                    return (min_ret, Some(bit));
                }
            }
        }
        (min_ret, None)
    });
    obs::trace::counter("batch.retention", (out.len() * cells) as f64);
    out.into_iter()
        .enumerate()
        .map(|(line, t)| t * tech.line_scale(line as u32, lines))
        .collect()
}

/// The line loop both line kernels share: draws each line's `2 · cells`
/// normals on the retention stream, lets `fold_line(line, normals)`
/// reduce them to the line's minimum retention and the first dead cell
/// (if any), and rewinds the stream after a dead line.
fn fold_lines(
    chip: &Chip,
    mut fold_line: impl FnMut(usize, &[f64]) -> (Time, Option<usize>),
) -> Vec<Time> {
    let lines = chip.layout.lines() as usize;
    let cells = chip.layout.cells_per_line() as usize;
    let mut rng = chip.rng_for(RETENTION_PURPOSE);
    let mut normals = vec![0.0f64; 2 * cells];
    let mut out = Vec::with_capacity(lines);
    let mut normals_drawn = 0u64;
    for line in 0..lines {
        // Snapshot lets a dead line rewind to the scalar path's stream
        // position (see the module-level determinism contract).
        let snapshot = rng.clone();
        fill_standard_normals(&mut rng, &mut normals);
        let (min_ret, dead_at) = fold_line(line, &normals);
        match dead_at {
            Some(j) if j + 1 < cells => {
                // The scalar path stopped after cell j's two draws; replay
                // exactly those from the snapshot.
                rng = snapshot;
                for _ in 0..2 * (j + 1) {
                    let _ = sample_standard_normal(&mut rng);
                }
                normals_drawn += 2 * (j as u64 + 1);
            }
            _ => normals_drawn += 2 * cells as u64,
        }
        out.push(min_ret);
    }
    obs::trace::counter("batch.sample", normals_drawn as f64);
    out
}

/// Half-width of the screened ΔVth₁ range, in σ. Cells beyond it (about
/// two in a billion) are always solved exactly.
const SCREEN_SIGMAS: f64 = 6.0;
/// ΔVth₁ bins across the screened range.
const SCREEN_BINS: usize = 256;
/// Relative slack on the screen's bound. It only has to absorb the
/// interpolated `exp`'s ~1e-11 seams (see
/// [`RetentionSolver::write_path_bounds`]); the rest is headroom.
const SCREEN_SLACK: f64 = 1.0 - 1e-6;

/// Certified lower bounds on cell retention, per (quad-tree leaf, ΔVth₁
/// bin) of one chip.
///
/// All cells of a leaf share one ΔL/L, so a cell's retention is
/// `τ(ΔVth₁) · (ln V₀(ΔVth₁) − floor(ΔVth₂))`, where τ rises and `ln V₀`
/// falls with ΔVth₁. For the cells of one bin, τ at the bin's low edge
/// and `ln V₀` at its high edge therefore bound both factors from below.
/// The read-path floor is computed exactly per cell, so
/// `τ_lo · (ln V₀_lo − floor) · SCREEN_SLACK` is at most the cell's exact
/// retention. When that bound reaches the line's running minimum, the
/// cell can neither lower the minimum nor be dead, so skipping its solve
/// leaves the fold unchanged.
struct RetentionScreen {
    /// `(τ_lo, ln V₀_lo)` at index `leaf * SCREEN_BINS + bin`.
    bounds: Vec<(f64, f64)>,
    /// Low edge of bin 0, in volts, and bins per volt.
    lo: f64,
    bins_per_volt: f64,
}

impl RetentionScreen {
    fn new(solver: &RetentionSolver, leaf_dl: &[f64], sigma_vth: f64) -> Self {
        let lo = -SCREEN_SIGMAS * sigma_vth;
        let width = 2.0 * SCREEN_SIGMAS * sigma_vth / SCREEN_BINS as f64;
        // Each bin's edges are pushed out by a millionth of a bin, so a
        // cell that rounding places in a neighbouring bin index is still
        // inside the range its bounds cover.
        let pad = width * 1e-6;
        let mut bounds = Vec::with_capacity(leaf_dl.len() * SCREEN_BINS);
        for &dl in leaf_dl {
            for k in 0..SCREEN_BINS {
                let edge = lo + k as f64 * width;
                bounds.push(solver.write_path_bounds(dl, edge - pad, edge + width + pad));
            }
        }
        Self {
            bounds,
            lo,
            bins_per_volt: 1.0 / width,
        }
    }

    /// Whether the cell in `leaf` with T1 deviation `dvth1` and read-path
    /// floor `ln_floor` certainly has a retention of at least `min_ret`.
    /// A cell outside the screened range, or one whose bound falls short
    /// (NaN included), is not cleared.
    #[inline]
    fn clears(&self, leaf: usize, dvth1: f64, ln_floor: f64, min_ret: Time) -> bool {
        let t = (dvth1 - self.lo) * self.bins_per_volt;
        if !(t >= 0.0 && t < SCREEN_BINS as f64) {
            return false;
        }
        let (tau_lo, ln_v0_lo) = self.bounds[leaf * SCREEN_BINS + t as usize];
        tau_lo * (ln_v0_lo - ln_floor) * SCREEN_SLACK >= min_ret.value()
    }
}

/// Each quad-tree leaf's total ΔL/L: die-to-die plus correlated
/// within-die, bit-identical to [`dl_plane`] at every cell of the leaf.
fn leaf_dl(chip: &Chip) -> Vec<f64> {
    let d2d = chip.d2d_dl_frac;
    chip.field.leaf_totals().iter().map(|&t| d2d + t).collect()
}

/// Samples the chip's full deviation planes on the word-retention RNG
/// stream (which, unlike the line stream, consumes both normals of every
/// cell unconditionally — so the whole plane can be drawn up front).
pub fn sample_word_planes(chip: &Chip) -> DeviationPlanes {
    let _span = obs::trace::span_with("vlsi", || format!("batch.sample:chip{}", chip.index));
    let lines = chip.layout.lines() as usize;
    let cells = chip.layout.cells_per_line() as usize;
    let sigma_vth = chip.params.sigma_vth(chip.node).volts();
    let mut rng = chip.rng_for(WORD_RETENTION_PURPOSE);
    let mut normals = vec![0.0f64; 2 * cells];
    let mut dvth1 = vec![0.0f64; lines * cells];
    let mut dvth2 = vec![0.0f64; lines * cells];
    for line in 0..lines {
        fill_standard_normals(&mut rng, &mut normals);
        let base = line * cells;
        for bit in 0..cells {
            dvth1[base + bit] = sigma_vth * normals[2 * bit];
            dvth2[base + bit] = sigma_vth * normals[2 * bit + 1];
        }
    }
    obs::trace::counter("batch.sample", 2.0 * (lines * cells) as f64);
    DeviationPlanes {
        lines,
        cells_per_line: cells,
        dl: dl_plane(chip),
        dvth1,
        dvth2,
    }
}

/// Reduces precomputed deviation planes to a [`WordRetentionMap`]:
/// solve every cell with the slice kernel, then fold per word/tag slot in
/// the scalar path's order. Output-identical to the scalar word map (the
/// scalar fast path merely elides solves for already-dead slots, which
/// cannot change the fold).
///
/// # Panics
///
/// Panics unless `words_per_line` divides the line's data bits, or if the
/// planes' geometry does not match the chip's layout.
pub fn word_retention_map_from_planes(
    chip: &Chip,
    planes: &DeviationPlanes,
    words_per_line: u32,
) -> WordRetentionMap {
    let _span = obs::trace::span_with("vlsi", || format!("batch.retention:chip{}", chip.index));
    let bits = chip.layout.bits_per_line();
    assert!(
        words_per_line >= 1 && bits.is_multiple_of(words_per_line),
        "words_per_line must divide {bits}"
    );
    let lines = chip.layout.lines() as usize;
    let cells = chip.layout.cells_per_line() as usize;
    assert!(
        planes.lines == lines && planes.cells_per_line == cells,
        "plane geometry mismatch"
    );
    let bits_per_word = (bits / words_per_line) as usize;
    let bits = bits as usize;
    let solver = RetentionSolver::new(chip.node);
    let mut rets: Vec<Time> = Vec::with_capacity(cells);
    let mut words = Vec::with_capacity(lines);
    let mut tags = Vec::with_capacity(lines);
    for line in 0..lines {
        let row = planes.row(line);
        solver.retention_slice(
            &planes.dl[row.clone()],
            &planes.dvth1[row.clone()],
            &planes.dvth2[row],
            &mut rets,
        );
        let mut word_min = vec![Time::from_us(f64::INFINITY); words_per_line as usize];
        let mut tag_min = Time::from_us(f64::INFINITY);
        for (bit, &ret) in rets.iter().enumerate() {
            let slot = if bit < bits {
                &mut word_min[bit / bits_per_word]
            } else {
                &mut tag_min
            };
            if ret < *slot {
                *slot = ret;
            }
        }
        words.push(word_min);
        tags.push(tag_min);
    }
    obs::trace::counter("batch.retention", (lines * cells) as f64);
    WordRetentionMap { words, tags }
}

/// Batch word-retention map: [`sample_word_planes`] +
/// [`word_retention_map_from_planes`]. Bit-identical to the scalar
/// [`Chip::word_retention_map`] product.
pub fn word_retention_map(chip: &Chip, words_per_line: u32) -> WordRetentionMap {
    let planes = sample_word_planes(chip);
    word_retention_map_from_planes(chip, &planes, words_per_line)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::montecarlo::ChipFactory;
    use crate::tech::TechNode;
    use crate::variation::VariationCorner;

    #[test]
    fn dl_plane_matches_dl_at_exactly() {
        let f = ChipFactory::new(TechNode::N32, VariationCorner::Typical.params(), 5);
        let chip = f.chip(0);
        let plane = dl_plane(&chip);
        let layout = *chip.layout();
        let cells = layout.cells_per_line() as usize;
        for line in (0..layout.lines()).step_by(97) {
            for bit in (0..layout.cells_per_line()).step_by(13) {
                let (x, y) = layout.cell_position(line, bit);
                assert_eq!(
                    plane[line as usize * cells + bit as usize],
                    chip.dl_at(x, y),
                    "line {line} bit {bit}"
                );
            }
        }
    }

    #[test]
    fn batch_line_retentions_bit_identical_across_corners_and_nodes() {
        // The tentpole golden test: batch vs scalar, exact equality,
        // including Severe corners where dead-line rewind is exercised.
        for node in [TechNode::N65, TechNode::N45, TechNode::N32] {
            for corner in [VariationCorner::Typical, VariationCorner::Severe] {
                let f = ChipFactory::new(node, corner.params(), 71);
                for i in 0..2 {
                    let chip = f.chip(i);
                    assert_eq!(
                        line_retentions(&chip),
                        chip.line_retentions_scalar(),
                        "{node} {corner:?} chip {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn batch_word_map_bit_identical_to_scalar() {
        for corner in [VariationCorner::Typical, VariationCorner::Severe] {
            let f = ChipFactory::new(TechNode::N32, corner.params(), 17);
            let chip = f.chip(1);
            let mut rng = chip.rng_for(WORD_RETENTION_PURPOSE);
            let scalar = chip.word_map_with_rng(8, &mut rng, true);
            assert_eq!(word_retention_map(&chip, 8), scalar, "{corner:?}");
        }
    }

    #[test]
    fn dead_line_rewind_keeps_stream_aligned() {
        // Severe corner produces dead lines; if the rewind were wrong every
        // line after the first dead one would diverge from the scalar path.
        let f = ChipFactory::new(TechNode::N32, VariationCorner::Severe.params(), 17);
        for i in 0..4 {
            let chip = f.chip(i);
            let batch = line_retentions(&chip);
            let dead = batch.iter().filter(|t| **t == Time::ZERO).count();
            assert_eq!(batch, chip.line_retentions_scalar(), "chip {i} ({dead} dead)");
        }
    }

    #[test]
    fn tech_path_at_nominal_is_bit_identical_to_the_baseline() {
        use crate::celltech::{CellTechKind, T3t1dTech};
        use crate::tech::OperatingPoint;
        let f = ChipFactory::new(TechNode::N32, VariationCorner::Severe.params(), 23);
        let chip = f.chip(0);
        let tech = T3t1dTech::new(TechNode::N32, OperatingPoint::nominal(TechNode::N32));
        assert_eq!(line_retentions_with(&chip, &tech), line_retentions(&chip));
        // Other technologies consume the streams identically, so their line
        // counts (and hence downstream geometry) always agree.
        for kind in CellTechKind::ALL {
            let t = kind.build(TechNode::N32, OperatingPoint::nominal(TechNode::N32));
            assert_eq!(
                line_retentions_with(&chip, t.as_ref()).len(),
                chip.layout().lines() as usize
            );
        }
    }

    #[test]
    fn screen_skips_most_exact_solves() {
        // A screen that never clears a cell would still be bit-identical;
        // this pins that it actually saves the solves.
        for corner in [VariationCorner::Typical, VariationCorner::Severe] {
            let f = ChipFactory::new(TechNode::N32, corner.params(), 11);
            let chip = f.chip(0);
            let (rets, exact) = screened_line_retentions(&chip);
            assert_eq!(rets, chip.line_retentions_scalar(), "{corner:?}");
            let cells = chip.layout().total_cells();
            assert!(
                (exact as f64) < 0.05 * cells as f64,
                "{corner:?}: {exact} exact solves of {cells} cells"
            );
        }
    }

    #[test]
    fn leaf_lut_is_shared_across_chips() {
        let f = ChipFactory::new(TechNode::N32, VariationCorner::Typical.params(), 3);
        let a = leaf_lut(f.layout(), 3);
        let b = leaf_lut(f.layout(), 3);
        assert!(Arc::ptr_eq(&a, &b), "same layout must share one LUT");
    }
}
