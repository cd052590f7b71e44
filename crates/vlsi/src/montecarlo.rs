//! Monte-Carlo chip sampling (§3.1).
//!
//! A [`ChipFactory`] deterministically generates [`Chip`] samples for a
//! technology node and variation scenario. Each chip carries:
//!
//! * a die-to-die gate-length shift (one Gaussian per chip),
//! * a 3-level quad-tree field of correlated within-die gate-length
//!   variation over the cache footprint, and
//! * a seed from which per-device random-dopant Vth deviations are drawn.
//!
//! From these the chip exposes the architectural products the paper's
//! evaluation consumes: per-line 3T1D retention times, the 6T worst-case
//! access time / frequency multiplier, and cache leakage power.
//!
//! Chip `k` of a factory is reproducible: it depends only on
//! `(base_seed, k)`, never on the order in which products are queried.
//!
//! # Examples
//!
//! ```
//! use vlsi::montecarlo::ChipFactory;
//! use vlsi::tech::TechNode;
//! use vlsi::variation::VariationCorner;
//!
//! let factory = ChipFactory::new(TechNode::N32, VariationCorner::Typical.params(), 42);
//! let chip = factory.chip(0);
//! let retentions = chip.line_retentions();
//! assert_eq!(retentions.len(), 1024);
//! ```

use crate::array::ArrayLayout;
use crate::cell3t1d;
#[cfg(test)]
use crate::cell3t1d::RetentionSolver;
use crate::cell6t::{self, CellSize};
use crate::leakage;
use crate::math::{sample_min_of_normals, sample_standard_normal};
use crate::quadtree::QuadTreeField;
use crate::tech::TechNode;
use crate::units::{Power, Time, Voltage};
use crate::variation::{DeviceDeviation, VariationParams};
use rand::rngs::SmallRng;
#[cfg(test)]
use rand::RngCore;
use rand::SeedableRng;
use std::sync::OnceLock;

pub mod batch;

/// Quad-tree depth used throughout (the paper's 3-level model).
pub const QUADTREE_LEVELS: usize = 3;

/// Deterministic generator of chip samples.
#[derive(Debug, Clone)]
pub struct ChipFactory {
    node: TechNode,
    params: VariationParams,
    layout: ArrayLayout,
    base_seed: u64,
}

impl ChipFactory {
    /// Creates a factory for `node` under the given variation parameters,
    /// using the paper's L1D array layout.
    pub fn new(node: TechNode, params: VariationParams, base_seed: u64) -> Self {
        Self::with_layout(node, params, ArrayLayout::PAPER_L1D, base_seed)
    }

    /// Creates a factory with a custom array layout.
    pub fn with_layout(
        node: TechNode,
        params: VariationParams,
        layout: ArrayLayout,
        base_seed: u64,
    ) -> Self {
        Self {
            node,
            params,
            layout,
            base_seed,
        }
    }

    /// The factory's technology node.
    pub fn node(&self) -> TechNode {
        self.node
    }

    /// The factory's variation parameters.
    pub fn params(&self) -> &VariationParams {
        &self.params
    }

    /// The array layout chips are built with.
    pub fn layout(&self) -> &ArrayLayout {
        &self.layout
    }

    /// Generates chip sample `index` (deterministic in `(base_seed, index)`).
    pub fn chip(&self, index: u32) -> Chip {
        let chip_seed = splitmix(self.base_seed ^ ((index as u64) << 32 | 0x9e37_79b9));
        let mut rng = SmallRng::seed_from_u64(chip_seed);
        let d2d_dl_frac = self.params.sigma_l_d2d_frac * sample_standard_normal(&mut rng);
        let field = QuadTreeField::sample(QUADTREE_LEVELS, self.params.sigma_l_wid_frac, &mut rng);
        Chip {
            node: self.node,
            params: self.params,
            layout: self.layout,
            index,
            d2d_dl_frac,
            field,
            cell_seed: splitmix(chip_seed),
            retentions: OnceLock::new(),
            word_map: OnceLock::new(),
        }
    }

    /// Generates the first `count` chips.
    pub fn chips(&self, count: u32) -> Vec<Chip> {
        (0..count).map(|i| self.chip(i)).collect()
    }
}

/// SplitMix64 finalizer for deriving independent sub-seeds.
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One fabricated chip instance: the variation state of its L1D cache.
///
/// Expensive architectural products (the 557 k-cell retention samplings) are
/// memoized per instance: the retention field of a physical chip is a fact
/// about the silicon, so the first query samples it and every later query is
/// O(1). Cloning a chip clones any already-materialized products with it.
#[derive(Debug, Clone)]
pub struct Chip {
    node: TechNode,
    params: VariationParams,
    layout: ArrayLayout,
    index: u32,
    d2d_dl_frac: f64,
    field: QuadTreeField,
    cell_seed: u64,
    /// Memoized [`Chip::line_retentions`] product.
    retentions: OnceLock<Vec<Time>>,
    /// Memoized [`Chip::word_retention_map`] product, keyed by the
    /// granularity it was first requested at.
    word_map: OnceLock<(u32, WordRetentionMap)>,
}

impl Chip {
    /// The chip's index within its factory.
    pub fn index(&self) -> u32 {
        self.index
    }

    /// The chip's technology node.
    pub fn node(&self) -> TechNode {
        self.node
    }

    /// The array layout.
    pub fn layout(&self) -> &ArrayLayout {
        &self.layout
    }

    /// The chip's die-to-die gate-length deviation (ΔL/L).
    pub fn d2d_dl_frac(&self) -> f64 {
        self.d2d_dl_frac
    }

    /// Total (die-to-die + correlated within-die) ΔL/L at die coordinates.
    pub fn dl_at(&self, x: f64, y: f64) -> f64 {
        self.d2d_dl_frac + self.field.value_at(x, y)
    }

    fn rng_for(&self, purpose: u64) -> SmallRng {
        SmallRng::seed_from_u64(splitmix(self.cell_seed ^ purpose))
    }

    // -- 3T1D products -----------------------------------------------------

    /// Per-line retention times: for each of the cache's lines, the minimum
    /// retention over its data and tag cells (the line must hold every bit).
    ///
    /// Memoized: the first call samples the retention field through the
    /// SoA [`batch`] kernels; later calls return a copy of the cached
    /// product in O(lines). Use [`Chip::line_retentions_cached`] for the
    /// copy-free O(1) view.
    pub fn line_retentions(&self) -> Vec<Time> {
        self.line_retentions_cached().to_vec()
    }

    /// Borrowed view of the memoized per-line retention product. The first
    /// call on a chip samples ~557 k cells via the [`batch`] kernels;
    /// every later call is O(1).
    pub fn line_retentions_cached(&self) -> &[Time] {
        self.retentions.get_or_init(|| batch::line_retentions(self))
    }

    /// The scalar per-cell reference path through the per-node
    /// [`RetentionSolver`]: same stream contract and same solver as the
    /// [`batch`] kernels, cell-at-a-time. Never cached. Test-only: the
    /// unit tests pin the batch product bit-identical against this.
    #[cfg(test)]
    pub(crate) fn line_retentions_scalar(&self) -> Vec<Time> {
        let solver = RetentionSolver::new(self.node);
        self.sample_line_retentions(|dl, dvth1, dvth2| solver.retention(dl, dvth1, dvth2))
    }

    /// Per-line retention times under an arbitrary cell technology at its
    /// operating point, through the SoA [`batch`] kernels. Never cached —
    /// sweep stages evaluate many `(technology, operating point)` pairs per
    /// chip, so the caller owns any memoization. For the 3T1D technology at
    /// the nominal operating point this is bit-identical to
    /// [`Chip::line_retentions`].
    pub fn line_retentions_tech(&self, tech: &dyn crate::celltech::CellTechnology) -> Vec<Time> {
        batch::line_retentions_with(self, tech)
    }

    /// The scalar reference for [`Chip::line_retentions_tech`]: the same
    /// stream contract, cell-at-a-time through the technology's scalar
    /// solve, with the per-line [`line_scale`] applied after the fold.
    /// Never cached. Test-only: a unit proptest pins the batch product
    /// against it.
    ///
    /// [`line_scale`]: crate::celltech::CellTechnology::line_scale
    #[cfg(test)]
    pub(crate) fn line_retentions_tech_scalar(
        &self,
        tech: &dyn crate::celltech::CellTechnology,
    ) -> Vec<Time> {
        let lines = self.layout.lines();
        let raw =
            self.sample_line_retentions(|dl, dvth1, dvth2| tech.retention(dl, dvth1, dvth2));
        raw.into_iter()
            .enumerate()
            .map(|(line, t)| t * tech.line_scale(line as u32, lines))
            .collect()
    }

    /// The exact reference path: every cell solved with
    /// [`cell3t1d::retention_time`], never cached. Consumes the RNG stream
    /// draw-for-draw like the fast path; the test-suite pins the two
    /// against each other (the memoization golden test).
    pub fn line_retentions_uncached(&self) -> Vec<Time> {
        self.sample_line_retentions(|dl, dvth1, dvth2| {
            let t1 = DeviceDeviation {
                dl_frac: dl,
                dvth_random: Voltage::new(dvth1),
            };
            let t2 = DeviceDeviation {
                dl_frac: dl,
                dvth_random: Voltage::new(dvth2),
            };
            cell3t1d::retention_time(self.node, t1, t2)
        })
    }

    /// Shared sampling loop behind both retention paths: draws each cell's
    /// T1/T2 random-dopant deviations in a fixed stream order and lets
    /// `ret` solve the cell. A line that is already dead stops scanning
    /// early — the skipped draws are part of the stream contract both
    /// paths share.
    fn sample_line_retentions(&self, mut ret: impl FnMut(f64, f64, f64) -> Time) -> Vec<Time> {
        let mut rng = self.rng_for(RETENTION_PURPOSE);
        let sigma_vth = self.params.sigma_vth(self.node).volts();
        let lines = self.layout.lines();
        let cells = self.layout.cells_per_line();
        let mut out = Vec::with_capacity(lines as usize);
        for line in 0..lines {
            let mut min_ret = Time::from_us(f64::INFINITY);
            // The correlated field is constant along spans of the row;
            // sample it per cell position (cheap: quadtree lookup).
            for bit in 0..cells {
                let (x, y) = self.layout.cell_position(line, bit);
                let dl = self.dl_at(x, y);
                let dvth1 = sigma_vth * sample_standard_normal(&mut rng);
                let dvth2 = sigma_vth * sample_standard_normal(&mut rng);
                let r = ret(dl, dvth1, dvth2);
                if r < min_ret {
                    min_ret = r;
                    if min_ret == Time::ZERO {
                        break; // line already dead; no need to scan further
                    }
                }
            }
            out.push(min_ret);
        }
        out
    }

    /// Per-word retention map: for each line, the minimum retention of
    /// each of its `words_per_line` data words plus the line's tag-cell
    /// retention. Within the map, a line's retention is exactly
    /// `min(tag, min over words)` — the granularity the (unstudied)
    /// word-level refresh of §4.3.1 would exploit.
    ///
    /// Drawn from an independent RNG stream of the same distribution as
    /// [`Chip::line_retentions`].
    ///
    /// Memoized like [`Chip::line_retentions`] (keyed by the granularity of
    /// the first request; other granularities are computed fresh).
    ///
    /// # Panics
    ///
    /// Panics unless `words_per_line` divides the line's data bits.
    pub fn word_retention_map(&self, words_per_line: u32) -> WordRetentionMap {
        let (cached_wpl, map) = self
            .word_map
            .get_or_init(|| (words_per_line, self.sample_word_retention_map(words_per_line)));
        if *cached_wpl == words_per_line {
            map.clone()
        } else {
            self.sample_word_retention_map(words_per_line)
        }
    }

    fn sample_word_retention_map(&self, words_per_line: u32) -> WordRetentionMap {
        batch::word_retention_map(self, words_per_line)
    }

    /// Core scalar word-map sampling loop — the reference the batch word
    /// kernel is pinned against (test-only since the batch migration).
    ///
    /// Unlike the line loop, a dead word must not stop the scan (its
    /// neighbors' words are still live), so the fast path elides only the
    /// per-cell *solve* once the target word (or tag) is already dead —
    /// while **always consuming both normal draws**, keeping the RNG stream
    /// position after every cell independent of `skip_dead_solves`. The
    /// test-suite pins both the resulting map and the draw count against
    /// the no-skip reference.
    #[cfg(test)]
    fn word_map_with_rng<R: RngCore>(
        &self,
        words_per_line: u32,
        rng: &mut R,
        skip_dead_solves: bool,
    ) -> WordRetentionMap {
        let bits = self.layout.bits_per_line();
        assert!(
            words_per_line >= 1 && bits.is_multiple_of(words_per_line),
            "words_per_line must divide {bits}"
        );
        let bits_per_word = bits / words_per_line;
        let solver = RetentionSolver::new(self.node);
        let sigma_vth = self.params.sigma_vth(self.node).volts();
        let lines = self.layout.lines();
        let cells = self.layout.cells_per_line();
        let mut words = Vec::with_capacity(lines as usize);
        let mut tags = Vec::with_capacity(lines as usize);
        for line in 0..lines {
            let mut word_min = vec![Time::from_us(f64::INFINITY); words_per_line as usize];
            let mut tag_min = Time::from_us(f64::INFINITY);
            for bit in 0..cells {
                let dvth1 = sigma_vth * sample_standard_normal(rng);
                let dvth2 = sigma_vth * sample_standard_normal(rng);
                let slot = if bit < bits {
                    &mut word_min[(bit / bits_per_word) as usize]
                } else {
                    &mut tag_min
                };
                if skip_dead_solves && *slot == Time::ZERO {
                    continue; // draws above keep the stream aligned
                }
                let (x, y) = self.layout.cell_position(line, bit);
                let dl = self.dl_at(x, y);
                let ret = solver.retention(dl, dvth1, dvth2);
                if ret < *slot {
                    *slot = ret;
                }
            }
            words.push(word_min);
            tags.push(tag_min);
        }
        WordRetentionMap { words, tags }
    }

    /// The whole-cache retention time: the minimum line retention. This is
    /// what the §4.2 global refresh scheme must respect ("the memory cell
    /// with the shortest retention time determines the retention time of
    /// the entire structure").
    pub fn cache_retention(&self) -> Time {
        self.line_retentions_cached()
            .iter()
            .copied()
            .fold(Time::from_us(f64::INFINITY), Time::min)
    }

    // -- 6T products --------------------------------------------------------

    /// Worst-case 6T array access time over all cells, for a cell sizing.
    ///
    /// Uses the exact-min order-statistic shortcut for the random-dopant
    /// component within each correlated region (one draw per region instead
    /// of 64 K), which is statistically identical for a monotone model.
    pub fn worst_6t_access(&self, size: CellSize) -> Time {
        let mut rng = self.rng_for(0x6700 + size_tag(size));
        let sigma_vth = self.params.sigma_vth(self.node).volts() * size.sigma_scale();
        let cells_per_region = (self.layout.rows as u64 * self.layout.cols as u64) / 8;
        let mut worst = Time::ZERO;
        for sub in 0..self.layout.subarrays {
            let (cx, cy) = self.layout.subarray_center(sub);
            // The finest quad-tree level splits each sub-array into regions;
            // evaluate the field at jittered points to cover them.
            for region in 0..8u32 {
                let jx = cx + 0.1 * ((region % 4) as f64 - 1.5) / 4.0;
                let jy = cy + 0.2 * ((region / 4) as f64 - 0.5);
                let dl = self.dl_at(jx, jy) * size.length_sigma_scale();
                // Slowest cell has the *highest* Vth: max of n normals
                // = −min of n normals.
                let worst_z = -sample_min_of_normals(&mut rng, cells_per_region.max(1));
                let dev = DeviceDeviation {
                    dl_frac: dl,
                    dvth_random: Voltage::new(sigma_vth * worst_z),
                };
                let t = cell6t::access_time(self.node, size, dev);
                if t > worst {
                    worst = t;
                }
            }
        }
        worst
    }

    /// The chip frequency multiplier when built with a 6T cache of the
    /// given cell size: the latency-critical L1 sets the clock (§2.1).
    /// Capped at 1.05× — faster-than-nominal chips are clocked near
    /// nominal, matching the Fig. 6a axis.
    pub fn frequency_multiplier_6t(&self, size: CellSize) -> f64 {
        cell6t::frequency_multiplier(self.node, self.worst_6t_access(size)).min(1.05)
    }

    // -- Leakage products ----------------------------------------------------

    /// Total 6T cache leakage power for this chip (Fig. 7a sample).
    ///
    /// Analytic within-region aggregation: each correlated region
    /// contributes `N·P_nom·exp(DIBL(dl))·E[exp(−ΔVth/nvT)]`, with the
    /// random-dopant expectation taken in closed form (exact in the large-N
    /// limit; the cache has ~70 K cells per region).
    pub fn leakage_6t(&self, size: CellSize) -> Power {
        self.aggregate_leakage(size.sigma_scale(), size.length_sigma_scale(), |dev| {
            leakage::cell_leakage_6t(self.node, dev)
        })
    }

    /// Total 3T1D cache leakage power for this chip (Fig. 7b sample).
    pub fn leakage_3t1d(&self) -> Power {
        self.aggregate_leakage(1.0, 1.0, |dev| leakage::cell_leakage_3t1d(self.node, dev))
    }

    fn aggregate_leakage(
        &self,
        sigma_scale: f64,
        length_scale: f64,
        cell_leak: impl Fn(DeviceDeviation) -> Power,
    ) -> Power {
        let sigma_vth = self.params.sigma_vth(self.node).volts() * sigma_scale;
        let nvt = crate::transistor::N_SUBTHRESHOLD
            * crate::tech::OperatingPoint::nominal(self.node).thermal_voltage().volts();
        // E[exp(−ΔVth/nvT)] over the random-dopant Gaussian.
        let random_mean_mult = ((sigma_vth / nvt).powi(2) / 2.0).exp();
        let cells_per_subarray = self.layout.total_cells() / self.layout.subarrays as u64;
        let mut total = Power::ZERO;
        for sub in 0..self.layout.subarrays {
            let (cx, cy) = self.layout.subarray_center(sub);
            let dl = self.dl_at(cx, cy) * length_scale;
            let dev = DeviceDeviation {
                dl_frac: dl,
                dvth_random: Voltage::ZERO,
            };
            total += cell_leak(dev) * (cells_per_subarray as f64 * random_mean_mult);
        }
        leakage::with_periphery(self.node, total)
    }
}

const fn size_tag(size: CellSize) -> u64 {
    match size {
        CellSize::X1 => 1,
        CellSize::X2 => 2,
    }
}

/// RNG purpose tag for the retention sampling stream.
const RETENTION_PURPOSE: u64 = 0x3717_D000;

/// RNG purpose tag for the word-granularity retention stream.
const WORD_RETENTION_PURPOSE: u64 = 0x3717_D001;

/// Word-granularity retention data for a whole cache
/// (see [`Chip::word_retention_map`]).
#[derive(Debug, Clone, PartialEq)]
pub struct WordRetentionMap {
    /// `words[line][word]`: minimum retention of each data word.
    pub words: Vec<Vec<Time>>,
    /// `tags[line]`: minimum retention of the line's tag/state cells.
    pub tags: Vec<Time>,
}

impl WordRetentionMap {
    /// The line-granularity retention implied by this map:
    /// `min(tag, min over words)`.
    pub fn line_retention(&self, line: usize) -> Time {
        self.words[line]
            .iter()
            .fold(self.tags[line], |acc, &w| acc.min(w))
    }

    /// Number of lines covered.
    pub fn lines(&self) -> usize {
        self.words.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::celltech::CellTechKind;
    use crate::stats::Summary;
    use crate::tech::OperatingPoint;
    use crate::variation::VariationCorner;
    use proptest::prelude::*;

    fn typical_factory(seed: u64) -> ChipFactory {
        ChipFactory::new(TechNode::N32, VariationCorner::Typical.params(), seed)
    }

    #[test]
    fn chips_are_deterministic() {
        let f = typical_factory(7);
        let a = f.chip(3).line_retentions();
        let b = f.chip(3).line_retentions();
        assert_eq!(a, b);
        // And independent of sibling queries.
        let chip = f.chip(3);
        let _ = chip.leakage_6t(CellSize::X1);
        assert_eq!(chip.line_retentions(), a);
    }

    #[test]
    fn different_chips_differ() {
        let f = typical_factory(7);
        assert_ne!(f.chip(0).line_retentions(), f.chip(1).line_retentions());
    }

    #[test]
    fn no_variation_chip_is_nominal() {
        let f = ChipFactory::new(TechNode::N32, VariationParams::NONE, 1);
        let chip = f.chip(0);
        let ret = chip.cache_retention();
        assert!((ret.ns() - 6000.0).abs() < 1.0, "ret={} ns", ret.ns());
        assert!((chip.frequency_multiplier_6t(CellSize::X1) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn typical_retention_is_reduced_by_min_statistics() {
        let f = typical_factory(11);
        let mut s = Summary::new();
        for i in 0..12 {
            s.push(f.chip(i).cache_retention().ns());
        }
        // Paper: median-chip cache retention ≈1900 ns at 32 nm, histogram
        // spanning ≈476–3094 ns. Allow a generous band for 12 chips.
        assert!(
            s.mean() > 1000.0 && s.mean() < 3000.0,
            "mean cache retention {} ns",
            s.mean()
        );
        assert!(s.max() < 6000.0, "must be below nominal");
    }

    #[test]
    fn typical_has_no_dead_lines() {
        let f = typical_factory(13);
        for i in 0..4 {
            let dead = f
                .chip(i)
                .line_retentions()
                .iter()
                .filter(|t| **t == Time::ZERO)
                .count();
            assert_eq!(dead, 0, "chip {i} has {dead} dead lines");
        }
    }

    #[test]
    fn severe_produces_dead_lines_on_some_chips() {
        let f = ChipFactory::new(TechNode::N32, VariationCorner::Severe.params(), 17);
        let mut total_dead = 0usize;
        for i in 0..20 {
            total_dead += f
                .chip(i)
                .line_retentions()
                .iter()
                .filter(|t| **t == Time::ZERO)
                .count();
        }
        assert!(total_dead > 0, "severe corner should kill some lines");
    }

    #[test]
    fn frequency_loss_band_matches_fig6a() {
        let f = typical_factory(23);
        let mut s1 = Summary::new();
        let mut s2 = Summary::new();
        for i in 0..20 {
            let chip = f.chip(i);
            s1.push(chip.frequency_multiplier_6t(CellSize::X1));
            s2.push(chip.frequency_multiplier_6t(CellSize::X2));
        }
        // 1X: mostly 10–20 % loss. 2X: within ~3 % of nominal.
        assert!(
            s1.mean() > 0.78 && s1.mean() < 0.92,
            "1X mean freq {}",
            s1.mean()
        );
        assert!(
            s2.mean() > 0.95 && s2.mean() <= 1.05,
            "2X mean freq {}",
            s2.mean()
        );
        assert!(s2.mean() > s1.mean());
    }

    #[test]
    fn leakage_distribution_shape() {
        let f = typical_factory(29);
        let golden = leakage::golden_cache_leakage_6t(TechNode::N32, f.layout().total_cells());
        let mut over_1_5 = 0;
        let n = 60;
        let mut ratios_3t = Vec::new();
        for i in 0..n {
            let chip = f.chip(i);
            let r6 = chip.leakage_6t(CellSize::X1).value() / golden.value();
            if r6 > 1.5 {
                over_1_5 += 1;
            }
            ratios_3t.push(chip.leakage_3t1d().value() / golden.value());
        }
        // Fig. 7a: a large fraction of 1X-6T chips leak >1.5× golden.
        assert!(
            over_1_5 as f64 / n as f64 > 0.2,
            "only {over_1_5}/{n} chips over 1.5×"
        );
        // Fig. 7b: 3T1D stays low; only a small fraction above golden, none
        // beyond ≈4×.
        let over_golden = ratios_3t.iter().filter(|r| **r > 1.0).count();
        assert!(
            (over_golden as f64 / n as f64) < 0.35,
            "3T1D over-golden fraction {over_golden}/{n}"
        );
        let max3 = ratios_3t.iter().cloned().fold(0.0, f64::max);
        assert!(max3 < 6.0, "3T1D max ratio {max3}");
    }

    #[test]
    fn worst_6t_access_is_deterministic_and_ordered() {
        let f = typical_factory(53);
        let chip = f.chip(1);
        let a = chip.worst_6t_access(CellSize::X1);
        let b = chip.worst_6t_access(CellSize::X1);
        assert_eq!(a, b, "same chip, same product");
        // The worst cell is never faster than nominal, and the 2X cell's
        // worst case is better than the 1X cell's.
        assert!(a >= TechNode::N32.sram_access_nominal() * 0.95);
        let x2 = chip.worst_6t_access(CellSize::X2);
        assert!(x2 <= a);
    }

    #[test]
    fn leakage_is_independent_of_query_order() {
        let f = typical_factory(57);
        let c1 = f.chip(4);
        let l_first = c1.leakage_3t1d();
        let _ = c1.line_retentions();
        let l_after = c1.leakage_3t1d();
        assert_eq!(l_first, l_after);
        // And a freshly reconstructed chip agrees.
        let c2 = f.chip(4);
        assert_eq!(c2.leakage_3t1d(), l_first);
    }

    #[test]
    fn word_map_is_consistent_and_finer_than_lines() {
        let f = typical_factory(41);
        let chip = f.chip(0);
        let map = chip.word_retention_map(8);
        assert_eq!(map.lines(), 1024);
        for line in 0..1024usize {
            assert_eq!(map.words[line].len(), 8);
            let line_ret = map.line_retention(line);
            // Every word retains at least as long as the whole line.
            for &w in &map.words[line] {
                assert!(w >= line_ret);
            }
            assert!(map.tags[line] >= line_ret);
        }
        // Word-level granularity exposes real slack: the mean word
        // retention exceeds the mean line retention.
        let mean_line: f64 = (0..1024)
            .map(|l| map.line_retention(l).ns())
            .sum::<f64>()
            / 1024.0;
        let mean_word: f64 = map
            .words
            .iter()
            .flatten()
            .map(|t| t.ns())
            .sum::<f64>()
            / (1024.0 * 8.0);
        assert!(mean_word > mean_line * 1.1, "word {mean_word} vs line {mean_line}");
    }

    #[test]
    fn word_map_is_deterministic() {
        let f = typical_factory(43);
        assert_eq!(f.chip(2).word_retention_map(8), f.chip(2).word_retention_map(8));
    }

    /// Counts the u64 words a wrapped generator hands out.
    struct CountingRng<'a> {
        inner: &'a mut SmallRng,
        draws: u64,
    }

    impl RngCore for CountingRng<'_> {
        fn next_u32(&mut self) -> u32 {
            self.draws += 1;
            self.inner.next_u32()
        }
        fn next_u64(&mut self) -> u64 {
            self.draws += 1;
            self.inner.next_u64()
        }
        fn fill_bytes(&mut self, dest: &mut [u8]) {
            self.inner.fill_bytes(dest)
        }
    }

    #[test]
    fn memoized_fast_path_matches_exact_reference() {
        // Golden test: the memoized solver-based product must match the
        // exact per-cell `cell3t1d::retention_time` path — dead lines
        // exactly, live lines to solver accuracy.
        for corner in [VariationCorner::Typical, VariationCorner::Severe] {
            let f = ChipFactory::new(TechNode::N32, corner.params(), 71);
            for i in 0..3 {
                let chip = f.chip(i);
                let fast = chip.line_retentions();
                let exact = chip.line_retentions_uncached();
                assert_eq!(fast.len(), exact.len());
                for (line, (a, b)) in fast.iter().zip(&exact).enumerate() {
                    assert_eq!(
                        (*a == Time::ZERO),
                        (*b == Time::ZERO),
                        "chip {i} line {line}: dead/alive mismatch ({} vs {} ns)",
                        a.ns(),
                        b.ns()
                    );
                    let tol = (1e-9 * b.ns()).max(1e-6);
                    assert!(
                        (a.ns() - b.ns()).abs() <= tol,
                        "chip {i} line {line}: fast {} vs exact {} ns",
                        a.ns(),
                        b.ns()
                    );
                }
            }
        }
    }

    #[test]
    fn line_retentions_are_memoized() {
        let f = typical_factory(91);
        let chip = f.chip(0);
        let first = chip.line_retentions_cached();
        let second = chip.line_retentions_cached();
        // Same allocation ⇒ the second call touched no RNG and did no
        // sampling: it is O(1).
        assert!(
            std::ptr::eq(first.as_ptr(), second.as_ptr()),
            "second call must return the cached slice"
        );
        assert_eq!(chip.line_retentions(), first.to_vec());
    }

    #[test]
    fn word_map_skip_consumes_identical_draws() {
        // Severe corner → plenty of dead cells for the skip path to elide.
        let f = ChipFactory::new(TechNode::N32, VariationCorner::Severe.params(), 17);
        let chip = f.chip(1);

        let mut rng_skip = chip.rng_for(WORD_RETENTION_PURPOSE);
        let mut counted_skip = CountingRng {
            inner: &mut rng_skip,
            draws: 0,
        };
        let skip = chip.word_map_with_rng(8, &mut counted_skip, true);
        let skip_draws = counted_skip.draws;

        let mut rng_full = chip.rng_for(WORD_RETENTION_PURPOSE);
        let mut counted_full = CountingRng {
            inner: &mut rng_full,
            draws: 0,
        };
        let full = chip.word_map_with_rng(8, &mut counted_full, false);
        let full_draws = counted_full.draws;

        assert_eq!(
            skip_draws, full_draws,
            "dead-solve skipping must not change RNG consumption"
        );
        assert_eq!(skip, full, "skip path must produce an identical map");
        // Floor: every cell consumes two normals of ≥2 words each.
        let cells =
            chip.layout().lines() as u64 * chip.layout().cells_per_line() as u64;
        assert!(
            skip_draws >= 4 * cells,
            "draw count {skip_draws} below the 2-normals-per-cell floor"
        );
        // The public (memoized) product agrees with both.
        assert_eq!(chip.word_retention_map(8), skip);
    }

    #[test]
    fn word_map_other_granularity_bypasses_cache() {
        let f = typical_factory(43);
        let chip = f.chip(2);
        let m8 = chip.word_retention_map(8);
        let m4 = chip.word_retention_map(4);
        assert_eq!(m8.words[0].len(), 8);
        assert_eq!(m4.words[0].len(), 4);
        // Same stream and cells → the line-granularity projections agree
        // exactly whatever the word grouping.
        for line in [0usize, 100, 1023] {
            assert_eq!(m8.line_retention(line), m4.line_retention(line));
        }
    }

    #[test]
    fn d2d_shift_moves_whole_chip() {
        let f = typical_factory(31);
        // Find chips with clearly different d2d corners and compare their
        // cache retentions: the shorter-channel chip should retain less.
        let chips = f.chips(40);
        let mut best: Option<&Chip> = None;
        let mut worst: Option<&Chip> = None;
        for c in &chips {
            if best.is_none() || c.d2d_dl_frac() > best.unwrap().d2d_dl_frac() {
                best = Some(c);
            }
            if worst.is_none() || c.d2d_dl_frac() < worst.unwrap().d2d_dl_frac() {
                worst = Some(c);
            }
        }
        let (best, worst) = (best.unwrap(), worst.unwrap());
        assert!(best.d2d_dl_frac() > worst.d2d_dl_frac() + 0.05);
        // Compare mean line retention (a stable whole-chip signal, unlike
        // the min which carries heavy order-statistic noise).
        let mean_ret = |c: &Chip| {
            let r = c.line_retentions();
            r.iter().map(|t| t.ns()).sum::<f64>() / r.len() as f64
        };
        let (b, w) = (mean_ret(best), mean_ret(worst));
        assert!(
            b > w,
            "longer channels must retain longer: best {b} ns vs worst {w} ns"
        );
    }

    fn node_strategy() -> impl Strategy<Value = TechNode> {
        prop_oneof![
            Just(TechNode::N65),
            Just(TechNode::N45),
            Just(TechNode::N32)
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn batched_tech_line_retentions_match_scalar(node in node_strategy(),
                                                     seed in 0u64..1_000_000,
                                                     vdd_mv in 550f64..1150.0,
                                                     temp in 0.0f64..125.0) {
            // The SoA batch kernel must be bit-identical to the cell-at-a-time
            // scalar reference for every technology, at off-nominal operating
            // points, under both variation corners.
            let layout = ArrayLayout {
                subarrays: 2,
                rows: 4,
                cols: 16,
                tag_bits: 2,
                sense_amps_per_pair: 8,
            };
            let op = OperatingPoint::nominal(node)
                .with_vdd(Voltage::from_mv(vdd_mv))
                .with_temp_c(temp);
            for params in [VariationParams::TYPICAL, VariationParams::SEVERE] {
                let chip = ChipFactory::with_layout(node, params, layout, seed).chip(0);
                for kind in CellTechKind::ALL {
                    let tech = kind.build(node, op);
                    let batch = chip.line_retentions_tech(tech.as_ref());
                    let scalar = chip.line_retentions_tech_scalar(tech.as_ref());
                    prop_assert_eq!(batch.len(), scalar.len());
                    for (i, (b, s)) in batch.iter().zip(scalar.iter()).enumerate() {
                        prop_assert_eq!(b, s, "{} line {}", kind.slug(), i);
                    }
                }
            }
        }
    }

    proptest! {
        // Each case samples two 34k-cell chips twice; fewer cases keep the
        // unoptimized test build quick.
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn screened_line_retentions_match_scalar(node in node_strategy(),
                                                 seed in 0u64..1_000_000,
                                                 sigma_scale in 0.5f64..1.6) {
            // The screened kernel skips the exact solve of every cell it can
            // certify as no lower than its line's running minimum. It must
            // still be bit-identical to the scalar path that solves every
            // cell, with dead lines and stream rewinds common at the upper
            // sigma scales. Full-width lines, fewer rows.
            let layout = ArrayLayout { rows: 16, ..ArrayLayout::PAPER_L1D };
            for params in [VariationParams::TYPICAL, VariationParams::SEVERE] {
                let params = params.scaled(sigma_scale);
                let chip = ChipFactory::with_layout(node, params, layout, seed).chip(0);
                let screened = batch::line_retentions(&chip);
                let scalar = chip.line_retentions_scalar();
                prop_assert_eq!(screened.len(), scalar.len());
                for (i, (a, b)) in screened.iter().zip(scalar.iter()).enumerate() {
                    prop_assert_eq!(a, b, "sigma x{} line {}", sigma_scale, i);
                }
            }
        }
    }
}
