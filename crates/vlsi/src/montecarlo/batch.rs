//! Structure-of-arrays batch kernels for the Monte-Carlo hot path.
//!
//! The scalar sampling loops in [`super`] walk the cache cell-by-cell, and
//! each cell pays for a quad-tree descent, a [`cell_position`] solve, and a
//! scalar retention call on top of its two normal draws. This module
//! restructures that work into contiguous `Vec<f64>` *planes* indexed
//! `line * cells_per_line + bit`:
//!
//! * the correlated ΔL/L is a **gather**: the quad-tree collapses to its
//!   finest-level [`leaf_totals`] once per chip, and per-layout leaf runs
//!   (built once per process, shared across all chips of a layout) split
//!   each line into runs of consecutive cells that share a leaf — four
//!   per line on the paper layout — so a line kernel reads a leaf's ΔL/L
//!   once per run, with no per-cell descent and no per-cell coordinates;
//! * the random-dopant Vth deviations are read line-at-a-time from a
//!   `PairStream`: the polar method's accepted `(u, s)` pairs, drawn in
//!   fixed blocks; and
//! * the word-map kernel's retention solve runs as
//!   [`RetentionSolver::retention_slice`], a tight loop over the three
//!   planes. The line kernel, [`line_retentions`], goes further: a
//!   per-chip `RetentionScreen`
//!   certifies most cells as no lower than their line's running minimum,
//!   first from bounds on the cell's normals (a table over `s` brackets
//!   the polar scale `√(−2 ln s / s)`), then from the exact normals, and
//!   only the rest take the exact solve.
//!
//! **Determinism contract.** Every kernel consumes the chip's RNG streams
//! draw-for-draw like its scalar counterpart and produces bit-identical
//! results — pinned by golden tests against the scalar reference paths
//! (which remain in [`super`] precisely to serve as that reference). The
//! k-th pair a `PairStream` yields is the candidate the k-th
//! [`sample_standard_normal`] call on the same generator accepts, so
//! `polar_normal(u, s)` of it is that call's value bit for bit: rejection
//! only filters the raw candidates, whatever the block size. The scalar
//! line loop stops drawing mid-line when a line is proven dead; a batch
//! line kernel reads the same prefix of the pair stream and leaves the
//! rest of the line's pairs unread, so the next line starts at the pair
//! the scalar path's next draw would return.
//!
//! [`sample_standard_normal`]: crate::math::sample_standard_normal
//! [`cell_position`]: crate::array::ArrayLayout::cell_position
//! [`leaf_totals`]: crate::quadtree::QuadTreeField::leaf_totals
//! [`RetentionSolver::retention_slice`]: crate::cell3t1d::RetentionSolver::retention_slice

use super::{Chip, WordRetentionMap, RETENTION_PURPOSE, WORD_RETENTION_PURPOSE};
use crate::array::ArrayLayout;
use crate::cell3t1d::RetentionSolver;
use crate::math::{polar_accepts, polar_candidate, polar_normal, polar_scale};
use crate::quadtree::QuadTreeField;
use crate::units::Time;
use rand::rngs::SmallRng;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Contiguous per-cell deviation planes for one chip, indexed
/// `line * cells_per_line + bit`.
///
/// `dl` holds the total (die-to-die + correlated within-die) ΔL/L at each
/// cell; `dvth1` / `dvth2` hold the write- and read-transistor random
/// dopant Vth deviations in volts (σ already applied).
struct DeviationPlanes {
    lines: usize,
    cells_per_line: usize,
    /// Correlated + die-to-die ΔL/L per cell.
    dl: Vec<f64>,
    /// Write transistor (T1) random Vth deviation per cell, in volts.
    dvth1: Vec<f64>,
    /// Read transistor (T2) random Vth deviation per cell, in volts.
    dvth2: Vec<f64>,
}

impl DeviationPlanes {
    /// The index range of one line's cells within each plane.
    fn row(&self, line: usize) -> std::ops::Range<usize> {
        let base = line * self.cells_per_line;
        base..base + self.cells_per_line
    }
}

/// Per-layout gather runs: each line's cells split into runs of
/// consecutive bits that fall in one finest-level quad-tree leaf. At the
/// chips' [`QUADTREE_LEVELS`] a line of the paper layout has four runs,
/// two in each sub-array of its pair, where a per-cell table would hold
/// 536 leaf indices. Building them costs one full `cell_position` sweep,
/// so they are cached process-wide per `(layout, levels)` — every chip of
/// the same geometry shares them.
///
/// [`QUADTREE_LEVELS`]: super::QUADTREE_LEVELS
struct LeafRuns {
    /// `(end_bit, leaf)` of every line's runs, line after line: a run
    /// covers the bits from the previous run's end (0 at a line's first
    /// run) up to `end_bit`, exclusive.
    runs: Vec<(u32, u32)>,
    /// `runs[starts[line]..starts[line + 1]]` are `line`'s runs.
    starts: Vec<usize>,
}

impl LeafRuns {
    fn get(layout: &ArrayLayout, levels: usize) -> Arc<Self> {
        type RunsCache = Mutex<HashMap<(ArrayLayout, usize), Arc<LeafRuns>>>;
        static CACHE: OnceLock<RunsCache> = OnceLock::new();
        let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
        let key = (*layout, levels);
        let lock = || cache.lock().expect("no thread panics holding the leaf-runs cache");
        if let Some(runs) = lock().get(&key) {
            return Arc::clone(runs);
        }
        let runs = Arc::new(Self::new(layout, levels));
        lock()
            .entry(key)
            .or_insert_with(|| Arc::clone(&runs))
            .clone()
    }

    fn new(layout: &ArrayLayout, levels: usize) -> Self {
        let mut runs: Vec<(u32, u32)> = Vec::new();
        let mut starts = vec![0];
        for line in 0..layout.lines() {
            let first = runs.len();
            for bit in 0..layout.cells_per_line() {
                let (x, y) = layout.cell_position(line, bit);
                let leaf = QuadTreeField::leaf_index_at(levels, x, y) as u32;
                match runs[first..].last_mut() {
                    Some((end, last)) if *last == leaf => *end = bit + 1,
                    _ => runs.push((bit + 1, leaf)),
                }
            }
            starts.push(runs.len());
        }
        Self { runs, starts }
    }

    /// `line`'s runs.
    fn line(&self, line: usize) -> &[(u32, u32)] {
        &self.runs[self.starts[line]..self.starts[line + 1]]
    }

    /// The leaf of every cell, in `line * cells_per_line + bit` order.
    fn cell_leaves(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.starts.len() - 1).flat_map(move |line| {
            let mut start = 0;
            self.line(line).iter().flat_map(move |&(end, leaf)| {
                let len = (end - start) as usize;
                start = end;
                std::iter::repeat_n(leaf as usize, len)
            })
        })
    }
}

/// The chip's full ΔL/L plane, gathered from the quad-tree leaf totals.
///
/// `dl_plane(chip)[line * cells_per_line + bit]` is bit-identical to
/// `chip.dl_at(x, y)` at that cell's position.
fn dl_plane(chip: &Chip) -> Vec<f64> {
    let runs = LeafRuns::get(&chip.layout, chip.field.levels());
    let leaf_dl = leaf_dl(chip);
    let mut plane = Vec::with_capacity(chip.layout.total_cells() as usize);
    plane.extend(runs.cell_leaves().map(|leaf| leaf_dl[leaf]));
    plane
}

/// Batch equivalent of the scalar per-line retention sampling: returns the
/// per-line minimum retention, bit-identical to the test-only scalar
/// reference `Chip::line_retentions_scalar` including RNG stream
/// consumption.
///
/// Only a cell that could lower its line's running minimum is solved
/// exactly; the `RetentionScreen` certifies that every other cell's
/// retention is at least that minimum, so the `<` fold never sees it.
/// The screen first sees the cell's normals as intervals from the
/// `PolarScaleBounds` table; only a cell it cannot clear that way pays
/// for the exact normals (`ln`, `sqrt`, a divide) and the exact-value
/// screen.
pub fn line_retentions(chip: &Chip) -> Vec<Time> {
    let _span = obs::trace::span_with("vlsi", || format!("batch.retention:chip{}", chip.index));
    let (out, counts) = screened_line_retentions(chip);
    let cells = out.len() * chip.layout.cells_per_line() as usize;
    obs::trace::counter("batch.retention", cells as f64);
    obs::trace::counter("batch.exact_normals", counts.exact_normals as f64);
    obs::trace::counter("batch.exact_solves", counts.exact_solves as f64);
    out
}

/// How much exact work [`line_retentions`] did on one chip.
#[derive(Default)]
struct ScreenCounts {
    /// Normals whose polar transform was evaluated (two per cell).
    exact_normals: u64,
    /// Cells solved exactly.
    exact_solves: u64,
}

/// [`line_retentions`] plus the exact work it did.
fn screened_line_retentions(chip: &Chip) -> (Vec<Time>, ScreenCounts) {
    let solver = RetentionSolver::new(chip.node);
    let sigma_vth = chip.params.sigma_vth(chip.node).volts();
    let runs = LeafRuns::get(&chip.layout, chip.field.levels());
    let leaf_dl = leaf_dl(chip);
    let screen = RetentionScreen::new(&solver, &leaf_dl, sigma_vth);
    let scale = PolarScaleBounds::get();
    let mut counts = ScreenCounts::default();
    let out = fold_lines(chip, |line, pairs| {
        let mut min_ret = Time::from_us(f64::INFINITY);
        let mut start = 0;
        for &(end, leaf) in runs.line(line) {
            let end = end as usize;
            let cells = (start..end).zip(pairs[2 * start..2 * end].chunks_exact(2));
            start = end;
            let dl = leaf_dl[leaf as usize];
            let leaf_screen = screen.leaf(leaf as usize);
            for (bit, cell) in cells {
                let ((u1, s1), (u2, s2)) = (cell[0], cell[1]);
                if let (Some(g1), Some(g2)) = (scale.bounds(s1), scale.bounds(s2)) {
                    let (z1_lo, z1_hi) = normal_range(u1, g1);
                    let floor_hi = solver.ln_floor(dl, sigma_vth * normal_range(u2, g2).1);
                    let (lo, hi) = (sigma_vth * z1_lo, sigma_vth * z1_hi);
                    if leaf_screen.clears(lo, hi, floor_hi, min_ret) {
                        continue;
                    }
                }
                counts.exact_normals += 2;
                let dvth1 = sigma_vth * polar_normal(u1, s1);
                let dvth2 = sigma_vth * polar_normal(u2, s2);
                if leaf_screen.clears(dvth1, dvth1, solver.ln_floor(dl, dvth2), min_ret) {
                    continue;
                }
                counts.exact_solves += 1;
                let r = solver.retention(dl, dvth1, dvth2);
                if r < min_ret {
                    min_ret = r;
                    if min_ret == Time::ZERO {
                        return (min_ret, Some(bit));
                    }
                }
            }
        }
        (min_ret, None)
    });
    (out, counts)
}

/// The range of `u · g` over `g ∈ [g_lo, g_hi]`. Multiplying by a fixed
/// `u` is monotone under IEEE rounding, so for any `g` in the bracket,
/// the computed `u * g` lies in the returned range.
#[inline]
fn normal_range(u: f64, (g_lo, g_hi): (f64, f64)) -> (f64, f64) {
    let (a, b) = (u * g_lo, u * g_hi);
    (a.min(b), a.max(b))
}

/// Evaluates one line's normals exactly from its `2 · cells` pairs, in
/// the scalar visit order (T1 then T2 per cell), as Vth deviations in
/// volts.
fn fill_dvth(pairs: &[(f64, f64)], sigma_vth: f64, dvth1: &mut [f64], dvth2: &mut [f64]) {
    for ((cell, d1), d2) in pairs.chunks_exact(2).zip(dvth1).zip(dvth2) {
        *d1 = sigma_vth * polar_normal(cell[0].0, cell[0].1);
        *d2 = sigma_vth * polar_normal(cell[1].0, cell[1].1);
    }
}

/// The line loop of [`line_retentions`]: shows `fold_line(line, pairs)`
/// the next `2 · cells` pairs of the retention stream, and lets it reduce
/// them to the line's minimum retention and the first dead cell (if any).
/// A dead line at cell `j` consumes only its first `2 · (j + 1)` pairs,
/// like the scalar path's draws; the rest stay unread for the next line.
fn fold_lines(
    chip: &Chip,
    mut fold_line: impl FnMut(usize, &[(f64, f64)]) -> (Time, Option<usize>),
) -> Vec<Time> {
    let lines = chip.layout.lines() as usize;
    let cells = chip.layout.cells_per_line() as usize;
    let mut pairs = PairStream::new(chip.rng_for(RETENTION_PURPOSE));
    let mut out = Vec::with_capacity(lines);
    let mut normals_drawn = 0u64;
    for line in 0..lines {
        let (min_ret, dead_at) = fold_line(line, pairs.peek(2 * cells));
        let used = dead_at.map_or(2 * cells, |j| 2 * (j + 1));
        pairs.consume(used);
        normals_drawn += used as u64;
        out.push(min_ret);
    }
    obs::trace::counter("batch.sample", normals_drawn as f64);
    out
}

/// Raw polar candidates a [`PairStream`] draws per refill.
const PAIR_BLOCK: usize = 64;

/// The accepted `(u, s)` pairs of the polar method on one RNG stream, in
/// draw order: the k-th pair read is the one the k-th
/// [`sample_standard_normal`] call on the same generator accepts.
///
/// Candidates are drawn [`PAIR_BLOCK`] at a time, and rejection only
/// filters them, so the block size cannot change which pair comes k-th.
/// The generator runs ahead of the pairs read, so the stream owns it.
///
/// [`sample_standard_normal`]: crate::math::sample_standard_normal
struct PairStream {
    rng: SmallRng,
    pairs: Vec<(f64, f64)>,
    /// Index of the first unread pair.
    pos: usize,
}

impl PairStream {
    fn new(rng: SmallRng) -> Self {
        Self {
            rng,
            pairs: Vec::new(),
            pos: 0,
        }
    }

    /// The next `n` unread pairs, drawing blocks as needed. They stay
    /// unread until [`PairStream::consume`].
    fn peek(&mut self, n: usize) -> &[(f64, f64)] {
        if self.pairs.len() - self.pos < n {
            self.pairs.drain(..self.pos);
            self.pos = 0;
            while self.pairs.len() < n {
                self.refill();
            }
        }
        &self.pairs[self.pos..self.pos + n]
    }

    /// Marks the first `n` unread pairs as read.
    fn consume(&mut self, n: usize) {
        assert!(n <= self.pairs.len() - self.pos, "consuming unpeeked pairs");
        self.pos += n;
    }

    /// Appends the accepted candidates of one block. Every candidate is
    /// written; a rejected one is overwritten by the next.
    fn refill(&mut self) {
        let mut n = self.pairs.len();
        self.pairs.resize(n + PAIR_BLOCK, (0.0, 0.0));
        for _ in 0..PAIR_BLOCK {
            let (u, s) = polar_candidate(&mut self.rng);
            self.pairs[n] = (u, s);
            n += polar_accepts(s) as usize;
        }
        self.pairs.truncate(n);
    }
}

/// Mantissa bits of `s` that, with its exponent, index a
/// [`PolarScaleBounds`] cell: 2⁸ cells per octave.
const SCALE_MANTISSA_BITS: u32 = 8;
/// Octaves of `s` the table covers: `[2⁻²⁵, 1)`. An accepted `s` falls
/// below that about three times in 10⁸.
const SCALE_OCTAVES: u64 = 25;
/// Shift that leaves a positive `f64`'s exponent and top mantissa bits.
const SCALE_SHIFT: u32 = 52 - SCALE_MANTISSA_BITS;
/// Index bits of the table's floor, `2⁻²⁵`.
const SCALE_FIRST: u64 = (1023 - SCALE_OCTAVES) << SCALE_MANTISSA_BITS;
/// Relative padding on each bound. The computed `polar_scale` is within
/// a few ulps (~1e-15) of the true, monotone `g`; this covers that.
const SCALE_PAD: f64 = 1e-12;

/// `[g_lo, g_hi]` brackets on the polar scale `g(s) = √(−2 ln s / s)`
/// for every cell of `s` values that share an exponent and their top
/// [`SCALE_MANTISSA_BITS`] mantissa bits. `g` decreases on `(0, 1)`, so a
/// cell's bounds are `g` at its two edges, padded by [`SCALE_PAD`].
/// Built once per process: 6,400 cells, 100 KB.
struct PolarScaleBounds {
    bounds: Vec<(f64, f64)>,
}

impl PolarScaleBounds {
    fn get() -> &'static Self {
        static TABLE: OnceLock<PolarScaleBounds> = OnceLock::new();
        TABLE.get_or_init(Self::new)
    }

    fn new() -> Self {
        let edge = |k: u64| f64::from_bits((SCALE_FIRST + k) << SCALE_SHIFT);
        let bounds = (0..SCALE_OCTAVES << SCALE_MANTISSA_BITS)
            .map(|k| {
                let g_lo = polar_scale(edge(k + 1)) * (1.0 - SCALE_PAD);
                let g_hi = polar_scale(edge(k)) * (1.0 + SCALE_PAD);
                (g_lo, g_hi)
            })
            .collect();
        Self { bounds }
    }

    /// `(g_lo, g_hi)` with `g_lo ≤ polar_scale(s) ≤ g_hi` for an accepted
    /// `s`, or `None` when `s` is below the table's floor.
    #[inline]
    fn bounds(&self, s: f64) -> Option<(f64, f64)> {
        let k = (s.to_bits() >> SCALE_SHIFT).wrapping_sub(SCALE_FIRST);
        self.bounds.get(k as usize).copied()
    }
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
/// and `ln V₀` at its high edge therefore bound both factors from below;
/// for a ΔVth₁ range spanning several bins, τ's bound from the lowest bin
/// and `ln V₀`'s from the highest do. The read-path floor rises with
/// ΔVth₂, so its value at an upper bound on ΔVth₂ bounds it from above.
/// Then `τ_lo · (ln V₀_lo − floor) · SCREEN_SLACK` is at most the cell's
/// exact retention. When that bound reaches the line's running minimum,
/// the cell can neither lower the minimum nor be dead, so skipping its
/// solve leaves the fold unchanged.
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

    /// The screen of the cells in `leaf`.
    #[inline]
    fn leaf(&self, leaf: usize) -> LeafScreen<'_> {
        LeafScreen {
            bounds: &self.bounds[leaf * SCREEN_BINS..(leaf + 1) * SCREEN_BINS],
            lo: self.lo,
            bins_per_volt: self.bins_per_volt,
        }
    }
}

/// One leaf's row of a [`RetentionScreen`].
struct LeafScreen<'a> {
    /// `(τ_lo, ln V₀_lo)` by ΔVth₁ bin.
    bounds: &'a [(f64, f64)],
    lo: f64,
    bins_per_volt: f64,
}

impl LeafScreen<'_> {
    /// Whether every cell of the leaf with a T1 deviation in
    /// `[dvth1_lo, dvth1_hi]` and a read-path floor of at most `ln_floor`
    /// certainly has a retention of at least `min_ret`. τ's bound comes
    /// from the bin of the range's low end, `ln V₀`'s from the bin of its
    /// high end. A range leaving the screened span, or a bound that falls
    /// short (NaN included), is not cleared.
    #[inline]
    fn clears(&self, dvth1_lo: f64, dvth1_hi: f64, ln_floor: f64, min_ret: Time) -> bool {
        let t_lo = (dvth1_lo - self.lo) * self.bins_per_volt;
        let t_hi = (dvth1_hi - self.lo) * self.bins_per_volt;
        if !(t_lo >= 0.0 && t_hi < SCREEN_BINS as f64) {
            return false;
        }
        let (tau_lo, _) = self.bounds[t_lo as usize];
        let (_, ln_v0_lo) = self.bounds[t_hi as usize];
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
fn sample_word_planes(chip: &Chip) -> DeviationPlanes {
    let _span = obs::trace::span_with("vlsi", || format!("batch.sample:chip{}", chip.index));
    let lines = chip.layout.lines() as usize;
    let cells = chip.layout.cells_per_line() as usize;
    let sigma_vth = chip.params.sigma_vth(chip.node).volts();
    let mut pairs = PairStream::new(chip.rng_for(WORD_RETENTION_PURPOSE));
    let mut dvth1 = vec![0.0f64; lines * cells];
    let mut dvth2 = vec![0.0f64; lines * cells];
    for (d1, d2) in dvth1.chunks_exact_mut(cells).zip(dvth2.chunks_exact_mut(cells)) {
        fill_dvth(pairs.peek(2 * cells), sigma_vth, d1, d2);
        pairs.consume(2 * cells);
    }
    let normals = 2.0 * (lines * cells) as f64;
    obs::trace::counter("batch.sample", normals);
    obs::trace::counter("batch.exact_normals", normals);
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
fn word_retention_map_from_planes(
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

/// Batch word-retention map: samples the chip's deviation planes on the
/// word-retention stream, then solves and folds them per word/tag slot.
/// Bit-identical to the scalar [`Chip::word_retention_map`] product.
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
        // including Severe corners where dead lines cut the stream short.
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
        // Severe corner produces dead lines; if a dead line consumed the
        // wrong number of pairs, every line after the first dead one would
        // diverge from the scalar path.
        let f = ChipFactory::new(TechNode::N32, VariationCorner::Severe.params(), 17);
        for i in 0..4 {
            let chip = f.chip(i);
            let batch = line_retentions(&chip);
            let dead = batch.iter().filter(|t| **t == Time::ZERO).count();
            assert_eq!(batch, chip.line_retentions_scalar(), "chip {i} ({dead} dead)");
        }
    }

    #[test]
    fn screen_skips_most_exact_solves() {
        // A screen that never clears a cell would still be bit-identical;
        // this pins that it actually saves the solves, and that the
        // interval check spares most cells their exact normals.
        for corner in [VariationCorner::Typical, VariationCorner::Severe] {
            let f = ChipFactory::new(TechNode::N32, corner.params(), 11);
            let chip = f.chip(0);
            let (rets, counts) = screened_line_retentions(&chip);
            assert_eq!(rets, chip.line_retentions_scalar(), "{corner:?}");
            let cells = chip.layout().total_cells();
            let ScreenCounts {
                exact_normals,
                exact_solves,
            } = counts;
            assert!(
                (exact_solves as f64) < 0.05 * cells as f64,
                "{corner:?}: {exact_solves} exact solves of {cells} cells"
            );
            // Two normals per cell that fell through the interval check.
            assert!(
                (exact_normals as f64) < 0.05 * 2.0 * cells as f64,
                "{corner:?}: {exact_normals} exact normals for {cells} cells"
            );
        }
    }

    #[test]
    fn polar_scale_table_brackets_the_exact_normal() {
        use rand::SeedableRng;
        let table = PolarScaleBounds::get();
        let inside = |u: f64, s: f64| {
            let (lo, hi) = normal_range(u, table.bounds(s).expect("s above the floor"));
            let z = polar_normal(u, s);
            assert!(lo <= z && z <= hi, "u {u} s {s}: {z} outside [{lo}, {hi}]");
        };
        let us = [1.0 - f64::EPSILON, 0.999, 0.5, 1e-3, 0.0, -0.3, -0.75, -1.0];
        // Both edges of every cell: its first `s` and the last one below
        // the next cell's first.
        for k in 0..SCALE_OCTAVES << SCALE_MANTISSA_BITS {
            let first = f64::from_bits((SCALE_FIRST + k) << SCALE_SHIFT);
            let last = f64::from_bits(((SCALE_FIRST + k + 1) << SCALE_SHIFT) - 1);
            for s in [first, last] {
                for u in us {
                    inside(u, s);
                }
            }
        }
        let mut rng = SmallRng::seed_from_u64(0x5eed);
        let mut accepted = 0;
        while accepted < 200_000 {
            let (u, s) = polar_candidate(&mut rng);
            if polar_accepts(s) && s >= 2f64.powi(-(SCALE_OCTAVES as i32)) {
                inside(u, s);
                accepted += 1;
            }
        }
        // Below the floor there is no bound, so such a cell takes the
        // exact path.
        let floor = 2f64.powi(-(SCALE_OCTAVES as i32));
        for s in [f64::from_bits(floor.to_bits() - 1), floor / 2.0, 1e-300, f64::MIN_POSITIVE] {
            assert_eq!(table.bounds(s), None, "s {s}");
        }
        assert!(table.bounds(floor).is_some());
    }

    #[test]
    fn pair_stream_matches_repeated_normal_draws() {
        use crate::math::sample_standard_normal;
        use rand::SeedableRng;
        let rng = SmallRng::seed_from_u64(0xfeed);
        let mut reference = rng.clone();
        let mut pairs = PairStream::new(rng);
        // 37 pairs a "line" is not a multiple of the block; every third
        // line is cut short, leaving its tail for the next.
        const LINE: usize = 37;
        assert_ne!(LINE % PAIR_BLOCK, 0);
        let mut read = 0;
        for line in 0..2_000 {
            let used = if line % 3 == 0 { line % LINE + 1 } else { LINE };
            for &(u, s) in &pairs.peek(LINE)[..used] {
                let want = sample_standard_normal(&mut reference);
                assert_eq!(polar_normal(u, s).to_bits(), want.to_bits(), "pair {read}");
                read += 1;
            }
            pairs.consume(used);
        }
        assert!(read > 20 * PAIR_BLOCK, "only {read} pairs read");
    }

    #[test]
    fn leaf_runs_expand_to_every_cells_leaf() {
        let layout = ArrayLayout::PAPER_L1D;
        for levels in [1, 3, 8] {
            let runs = LeafRuns::new(&layout, levels);
            let want: Vec<usize> = (0..layout.lines())
                .flat_map(|line| (0..layout.cells_per_line()).map(move |bit| (line, bit)))
                .map(|(line, bit)| {
                    let (x, y) = layout.cell_position(line, bit);
                    QuadTreeField::leaf_index_at(levels, x, y)
                })
                .collect();
            assert_eq!(runs.cell_leaves().collect::<Vec<_>>(), want, "levels {levels}");
            if levels == crate::montecarlo::QUADTREE_LEVELS {
                assert!((0..layout.lines() as usize).all(|line| runs.line(line).len() == 4));
            }
            for line in 0..layout.lines() as usize {
                let line_runs = runs.line(line);
                assert_eq!(line_runs.last().unwrap().0, layout.cells_per_line(), "line {line}");
                assert!(line_runs.windows(2).all(|w| w[0].1 != w[1].1), "line {line}: split run");
            }
        }
    }

    #[test]
    fn leaf_runs_are_shared_across_chips() {
        let f = ChipFactory::new(TechNode::N32, VariationCorner::Typical.params(), 3);
        let a = LeafRuns::get(f.layout(), 3);
        let b = LeafRuns::get(f.layout(), 3);
        assert!(Arc::ptr_eq(&a, &b), "same layout must share one set of runs");
    }
}
