//! Architecture-facing chip models and Monte-Carlo populations.
//!
//! [`ChipModel`] wraps a [`vlsi::Chip`] sample and exposes exactly what
//! the cache architecture consumes: the per-line [`RetentionProfile`] at
//! the node's clock, dead-line statistics, the 6T frequency multipliers,
//! and leakage power. [`ChipPopulation`] generates the paper's 100-chip
//! Monte-Carlo batches and selects the §4.3 *good/median/bad* exemplars.

use cachesim::{CounterSpec, RetentionProfile};
use vlsi::cell6t::CellSize;
use vlsi::montecarlo::{Chip, ChipFactory};
use vlsi::stats::median;
use vlsi::tech::TechNode;
use vlsi::units::{Power, Time};
use vlsi::variation::VariationParams;

/// One fabricated chip, as the cache architecture sees it.
#[derive(Debug, Clone)]
pub struct ChipModel {
    node: TechNode,
    index: u32,
    retention_times: Vec<Time>,
    profile: RetentionProfile,
    freq_mult_1x: f64,
    freq_mult_2x: f64,
    leakage_6t_1x: Power,
    leakage_3t1d: Power,
}

impl ChipModel {
    /// Builds the architecture-facing model of one chip sample.
    pub fn new(chip: &Chip) -> Self {
        let node = chip.node();
        let retention_times = chip.line_retentions();
        let profile = RetentionProfile::from_times(&retention_times, node.chip_frequency());
        Self {
            node,
            index: chip.index(),
            profile,
            freq_mult_1x: chip.frequency_multiplier_6t(CellSize::X1),
            freq_mult_2x: chip.frequency_multiplier_6t(CellSize::X2),
            leakage_6t_1x: chip.leakage_6t(CellSize::X1),
            leakage_3t1d: chip.leakage_3t1d(),
            retention_times,
        }
    }

    /// The technology node.
    pub fn node(&self) -> TechNode {
        self.node
    }

    /// The chip's index within its population.
    pub fn index(&self) -> u32 {
        self.index
    }

    /// Per-line physical retention times.
    pub fn retention_times(&self) -> &[Time] {
        &self.retention_times
    }

    /// The per-line retention profile in core cycles.
    pub fn retention_profile(&self) -> &RetentionProfile {
        &self.profile
    }

    /// The whole-cache retention (worst line) — what the global scheme
    /// must refresh within.
    pub fn cache_retention(&self) -> Time {
        self.retention_times
            .iter()
            .fold(Time::from_us(f64::INFINITY), |a, &b| a.min(b))
    }

    /// Mean line retention — a stable whole-chip quality signal used for
    /// good/median/bad ranking.
    pub fn mean_line_retention(&self) -> Time {
        let sum: f64 = self.retention_times.iter().map(|t| t.value()).sum();
        Time::new(sum / self.retention_times.len() as f64)
    }

    /// Fraction of lines dead under a counter spec.
    pub fn dead_line_fraction(&self, counter: &CounterSpec) -> f64 {
        self.profile.dead_fraction(counter)
    }

    /// The chip-sized counter spec (§4.3.1's per-chip `N` selection).
    pub fn counter_spec(&self) -> CounterSpec {
        CounterSpec::for_profile(&self.profile)
    }

    /// Fraction of lines dead under the chip's own counter sizing.
    pub fn dead_fraction(&self) -> f64 {
        self.profile.dead_fraction(&self.counter_spec())
    }

    /// Chip frequency multiplier if built with a 6T cache of `size`.
    pub fn frequency_multiplier_6t(&self, size: CellSize) -> f64 {
        match size {
            CellSize::X1 => self.freq_mult_1x,
            CellSize::X2 => self.freq_mult_2x,
        }
    }

    /// Cache leakage power with 1X 6T cells.
    pub fn leakage_6t(&self) -> Power {
        self.leakage_6t_1x
    }

    /// Cache leakage power with 3T1D cells.
    pub fn leakage_3t1d(&self) -> Power {
        self.leakage_3t1d
    }
}

/// The §4.3 chip exemplars.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChipGrade {
    /// Longest-retention process corner.
    Good,
    /// The median chip.
    Median,
    /// Shortest-retention corner (most dead lines).
    Bad,
}

impl std::fmt::Display for ChipGrade {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChipGrade::Good => f.write_str("good"),
            ChipGrade::Median => f.write_str("median"),
            ChipGrade::Bad => f.write_str("bad"),
        }
    }
}

/// A deterministic Monte-Carlo population of chips.
#[derive(Debug, Clone)]
pub struct ChipPopulation {
    node: TechNode,
    chips: Vec<ChipModel>,
}

impl ChipPopulation {
    /// Generates `count` chips for a node and variation scenario, fanning
    /// the per-chip Monte-Carlo sampling across the campaign worker pool.
    ///
    /// Chip `i`'s RNG streams are seeded from `(seed, i)` alone, so the
    /// population is identical whatever the worker count (pinned by the
    /// campaign determinism tests).
    pub fn generate(node: TechNode, params: VariationParams, count: u32, seed: u64) -> Self {
        Self::generate_with_workers(node, params, count, seed, crate::campaign::worker_count())
    }

    /// [`ChipPopulation::generate`] with an explicit worker count.
    pub fn generate_with_workers(
        node: TechNode,
        params: VariationParams,
        count: u32,
        seed: u64,
        workers: usize,
    ) -> Self {
        let factory = ChipFactory::new(node, params, seed);
        let (chips, _report) = crate::campaign::map_indexed_with_workers(
            count as usize,
            workers,
            |i| ChipModel::new(&factory.chip(i as u32)),
        );
        Self { node, chips }
    }

    /// The technology node.
    pub fn node(&self) -> TechNode {
        self.node
    }

    /// All chips.
    pub fn chips(&self) -> &[ChipModel] {
        &self.chips
    }

    /// Number of chips.
    pub fn len(&self) -> usize {
        self.chips.len()
    }

    /// Whether the population is empty.
    pub fn is_empty(&self) -> bool {
        self.chips.is_empty()
    }

    /// Selects a chip by grade, ranking by mean line retention (the §4.3
    /// "process corners that result in longest/shortest retention time").
    ///
    /// # Panics
    ///
    /// Panics if the population is empty.
    pub fn select(&self, grade: ChipGrade) -> &ChipModel {
        assert!(!self.chips.is_empty(), "empty population");
        let mut order: Vec<usize> = (0..self.chips.len()).collect();
        order.sort_by(|&a, &b| {
            self.chips[a]
                .mean_line_retention()
                .partial_cmp(&self.chips[b].mean_line_retention())
                .expect("retention times are finite")
        });
        let idx = match grade {
            ChipGrade::Bad => order[0],
            ChipGrade::Median => order[order.len() / 2],
            ChipGrade::Good => order[order.len() - 1],
        };
        &self.chips[idx]
    }

    /// Fraction of chips that must be discarded under the global scheme
    /// (at least one line with effectively zero usable retention, or a
    /// cache retention too short to fit a refresh pass — §4.3 reports
    /// ≈80 % under severe variation).
    pub fn global_scheme_discard_fraction(&self, cfg: &cachesim::CacheConfig) -> f64 {
        if self.chips.is_empty() {
            return 0.0;
        }
        let discarded = self
            .chips
            .iter()
            .filter(|c| !cachesim::DataCache::global_scheme_feasible(c.retention_profile(), cfg))
            .count();
        discarded as f64 / self.chips.len() as f64
    }

    /// Median cache retention across the population.
    ///
    /// # Panics
    ///
    /// Panics if the population is empty.
    pub fn median_cache_retention(&self) -> Time {
        let vals: Vec<f64> = self.chips.iter().map(|c| c.cache_retention().ns()).collect();
        Time::from_ns(median(&vals))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vlsi::variation::VariationCorner;

    fn small_pop(corner: VariationCorner) -> ChipPopulation {
        ChipPopulation::generate(TechNode::N32, corner.params(), 12, 99)
    }

    #[test]
    fn population_is_deterministic() {
        let a = small_pop(VariationCorner::Typical);
        let b = small_pop(VariationCorner::Typical);
        assert_eq!(a.len(), 12);
        for (x, y) in a.chips().iter().zip(b.chips()) {
            assert_eq!(x.retention_times(), y.retention_times());
        }
    }

    #[test]
    fn grades_are_ordered() {
        let pop = small_pop(VariationCorner::Severe);
        let good = pop.select(ChipGrade::Good);
        let median = pop.select(ChipGrade::Median);
        let bad = pop.select(ChipGrade::Bad);
        assert!(good.mean_line_retention() >= median.mean_line_retention());
        assert!(median.mean_line_retention() >= bad.mean_line_retention());
        // Dead lines follow the same ordering (more dead on bad chips).
        let spec = CounterSpec::default();
        assert!(bad.dead_line_fraction(&spec) >= median.dead_line_fraction(&spec));
    }

    #[test]
    fn severe_bad_chip_has_many_dead_lines() {
        let pop = small_pop(VariationCorner::Severe);
        let bad = pop.select(ChipGrade::Bad);
        let frac = bad.dead_line_fraction(&CounterSpec::default());
        assert!(frac > 0.05, "bad chip dead fraction {frac}");
        assert!(frac < 0.6, "bad chip dead fraction {frac}");
    }

    #[test]
    fn typical_chips_mostly_survive_global_scheme() {
        let pop = small_pop(VariationCorner::Typical);
        let cfg = cachesim::CacheConfig::paper(cachesim::Scheme::global());
        let frac = pop.global_scheme_discard_fraction(&cfg);
        assert!(frac < 0.35, "typical discard fraction {frac}");
    }

    #[test]
    fn severe_chips_mostly_discarded_under_global_scheme() {
        let pop = small_pop(VariationCorner::Severe);
        let cfg = cachesim::CacheConfig::paper(cachesim::Scheme::global());
        let frac = pop.global_scheme_discard_fraction(&cfg);
        assert!(frac > 0.6, "severe discard fraction {frac}");
    }

    #[test]
    fn profile_matches_retention_times() {
        let pop = small_pop(VariationCorner::Typical);
        let chip = &pop.chips()[0];
        let clock = TechNode::N32.chip_frequency();
        for (i, t) in chip.retention_times().iter().enumerate().take(20) {
            let expect = (t.value() * clock.value()) as u64;
            assert_eq!(chip.retention_profile().cycles(i as u32), expect);
        }
    }

    #[test]
    fn frequency_multipliers_sane() {
        let pop = small_pop(VariationCorner::Typical);
        for c in pop.chips() {
            let f1 = c.frequency_multiplier_6t(CellSize::X1);
            let f2 = c.frequency_multiplier_6t(CellSize::X2);
            assert!(f1 > 0.6 && f1 <= 1.05);
            assert!(f2 > 0.8 && f2 <= 1.05);
            assert!(f2 >= f1 * 0.95);
        }
    }

    #[test]
    fn leakage_3t1d_below_6t() {
        let pop = small_pop(VariationCorner::Typical);
        for c in pop.chips() {
            assert!(c.leakage_3t1d().value() < c.leakage_6t().value());
        }
    }
}
