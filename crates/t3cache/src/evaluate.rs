//! End-to-end scheme evaluation: chip × scheme × benchmark suite → IPC
//! and dynamic power, normalized against the ideal-6T baseline.
//!
//! This is the measurement loop behind Figs. 6b, 9, 10 and 11: each
//! retention scheme is run over the eight SPEC2000-like workloads on the
//! Table 2 machine, and performance/power are reported relative to an
//! ideal (variation-free, infinite-retention) 6T cache on the same
//! machine, exactly as the paper normalizes.

use crate::chip::ChipModel;
use cachesim::{CacheConfig, CacheStats, DataCache, Geometry, RetentionProfile, Scheme};
use uarch::sim::{simulate_warmed_with, SimResult};
use uarch::MachineConfig;
use vlsi::power::MemKind;
use vlsi::stats::harmonic_mean;
use vlsi::tech::{OperatingPoint, TechNode};
use vlsi::units::{Power, Time};
use std::sync::OnceLock;
use workloads::{RecordedTrace, SpecBenchmark};

/// Configuration of an evaluation campaign.
#[derive(Debug, Clone)]
pub struct EvalConfig {
    /// Technology node (sets clock frequency and energies).
    pub node: TechNode,
    /// Measured instructions per benchmark.
    pub instructions: u64,
    /// Warmup instructions per benchmark (caches + predictors).
    pub warmup: u64,
    /// Base seed; each benchmark derives its own stream deterministically.
    pub seed: u64,
    /// The benchmark subset to run (default: all eight).
    pub benchmarks: Vec<SpecBenchmark>,
    /// Machine configuration (default: Table 2; override for ablations).
    pub machine: MachineConfig,
}

impl Default for EvalConfig {
    fn default() -> Self {
        Self {
            node: TechNode::N32,
            instructions: 200_000,
            warmup: 100_000,
            seed: 7,
            benchmarks: SpecBenchmark::ALL.to_vec(),
            machine: MachineConfig::TABLE2,
        }
    }
}

impl EvalConfig {
    /// A reduced configuration for quick tests.
    pub fn quick() -> Self {
        Self {
            instructions: 50_000,
            warmup: 25_000,
            ..Self::default()
        }
    }

    /// The operating point the suite runs at: the node's nominal corner,
    /// whose clock is bit-identical to `node.chip_frequency()`.
    pub fn op(&self) -> OperatingPoint {
        OperatingPoint::nominal(self.node)
    }
}

/// One benchmark's measured results under one cache configuration.
#[derive(Debug, Clone)]
pub struct BenchRun {
    /// The benchmark.
    pub bench: SpecBenchmark,
    /// Pipeline results for the measured window.
    pub sim: SimResult,
    /// Cache statistics for the measured window.
    pub cache: CacheStats,
}

/// Suite results across the benchmark set.
#[derive(Debug, Clone)]
pub struct SuiteResult {
    /// Technology node the suite ran at.
    pub node: TechNode,
    /// Operating point the suite ran at (the node's nominal corner).
    pub op: OperatingPoint,
    /// Per-benchmark runs.
    pub runs: Vec<BenchRun>,
}

impl SuiteResult {
    /// Per-benchmark IPCs, in run order.
    pub fn per_bench_ipc(&self) -> Vec<f64> {
        self.runs.iter().map(|r| r.sim.ipc()).collect()
    }

    /// Harmonic-mean IPC — the paper's single-number aggregation.
    pub fn hm_ipc(&self) -> f64 {
        harmonic_mean(&self.per_bench_ipc())
    }

    /// Harmonic-mean BIPS at the suite's clock scaled by `freq_mult`
    /// (1.0 for 3T1D and ideal designs; the 6T multiplier otherwise).
    /// Uses the operating point's frequency, which at the nominal point is
    /// the node clock the paper assumes.
    pub fn hm_bips(&self, freq_mult: f64) -> f64 {
        self.hm_ipc() * self.op.freq.ghz() * freq_mult
    }

    /// Total simulated wall-clock time across the suite, at the operating
    /// point's clock period.
    pub fn total_time(&self) -> Time {
        let cycles: u64 = self.runs.iter().map(|r| r.sim.cycles).sum();
        self.op.clock_period() * cycles as f64
    }

    /// Mean dynamic power over the whole suite for a memory kind.
    pub fn mean_dynamic_power(&self, kind: MemKind) -> Power {
        let mut energy = vlsi::units::Energy::ZERO;
        for r in &self.runs {
            energy += r.cache.energy_events().total_energy(self.node, kind);
        }
        energy.average_power(self.total_time())
    }

    /// Performance normalized against a baseline suite: harmonic mean of
    /// per-benchmark IPC ratios (×`freq_mult` for frequency-scaled chips).
    ///
    /// # Panics
    ///
    /// Panics if the two suites ran different benchmark sets.
    pub fn normalized_performance(&self, baseline: &SuiteResult, freq_mult: f64) -> f64 {
        assert_eq!(self.runs.len(), baseline.runs.len(), "mismatched suites");
        let ratios: Vec<f64> = self
            .runs
            .iter()
            .zip(&baseline.runs)
            .map(|(a, b)| {
                assert_eq!(a.bench, b.bench, "mismatched benchmark order");
                a.sim.ipc() * freq_mult / b.sim.ipc()
            })
            .collect();
        harmonic_mean(&ratios)
    }

    /// The worst per-benchmark performance ratio against a baseline (the
    /// paper's "worst-case benchmark" annotation in Fig. 6b).
    pub fn worst_bench_performance(&self, baseline: &SuiteResult) -> (SpecBenchmark, f64) {
        self.runs
            .iter()
            .zip(&baseline.runs)
            .map(|(a, b)| (a.bench, a.sim.ipc() / b.sim.ipc()))
            .min_by(|x, y| x.1.partial_cmp(&y.1).expect("finite ratios"))
            .expect("non-empty suite")
    }

    /// Dynamic power normalized against a baseline suite (self measured as
    /// `kind`, baseline as ideal 6T SRAM).
    pub fn normalized_dynamic_power(&self, baseline: &SuiteResult, kind: MemKind) -> f64 {
        self.mean_dynamic_power(kind).value()
            / baseline.mean_dynamic_power(MemKind::Sram6t).value()
    }

    /// Aggregate miss rate over the suite.
    pub fn miss_rate(&self) -> f64 {
        let mut total = CacheStats::default();
        for r in &self.runs {
            total.merge(&r.cache);
        }
        total.miss_rate()
    }
}

/// Runs benchmark suites against cache configurations.
///
/// The benchmark instruction streams depend only on the configuration (not
/// on the cache under test), and so do the branch predictor, ITLB and
/// I-cache outcomes, which are fed in trace order. The evaluator therefore
/// records each stream **once** on first use, as the front-end-resolved
/// records the pipeline consumes, and replays the shared read-only
/// recording for every subsequent suite — including concurrent suites in
/// a [`crate::campaign`] run, where the lazily-initialized recordings are
/// shared across worker threads.
#[derive(Debug, Clone)]
pub struct Evaluator {
    cfg: EvalConfig,
    /// Per-benchmark recorded streams, in `cfg.benchmarks` order; recorded
    /// lazily by the first suite run (thread-safe, recorded exactly once).
    traces: OnceLock<Vec<RecordedTrace>>,
}

impl Evaluator {
    /// Creates an evaluator.
    pub fn new(cfg: EvalConfig) -> Self {
        Self {
            cfg,
            traces: OnceLock::new(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &EvalConfig {
        &self.cfg
    }

    /// The shared per-benchmark recordings, recording them on first use.
    ///
    /// The recorded prefix covers warmup + measurement plus the pipeline's
    /// bounded in-flight tail (the ROB caps fetch-ahead); [`ReplayTrace`]
    /// panics rather than wrap if that invariant is ever violated.
    ///
    /// [`ReplayTrace`]: workloads::ReplayTrace
    fn recorded_traces(&self) -> &[RecordedTrace] {
        if let Some(traces) = self.traces.get() {
            obs::trace::instant("t3cache", "trace_memo.hit");
            return traces;
        }
        obs::trace::instant("t3cache", "trace_memo.miss");
        self.traces.get_or_init(|| {
            let _record_span = obs::trace::span("t3cache", "trace_memo.record");
            let slack = 2 * self.cfg.machine.rob_entries as u64 + 1024;
            let len = self.cfg.warmup + self.cfg.instructions + slack;
            self.cfg
                .benchmarks
                .iter()
                .enumerate()
                .map(|(i, &bench)| {
                    RecordedTrace::record(
                        bench.profile(),
                        self.cfg.seed ^ ((i as u64 + 1) << 20),
                        len,
                    )
                })
                .collect()
        })
    }

    /// Records the shared benchmark streams now if they aren't already
    /// (idempotent). Campaigns call this before fanning out so worker
    /// timings measure evaluation, not the one-off recording.
    pub fn warm_traces(&self) {
        let _ = self.recorded_traces();
    }

    /// Runs the suite, building a fresh cache per benchmark via `make`.
    pub fn run_suite(&self, mut make: impl FnMut() -> DataCache) -> SuiteResult {
        let runs = self
            .cfg
            .benchmarks
            .iter()
            .zip(self.recorded_traces())
            .map(|(&bench, recorded)| {
                let mut trace = recorded.replay();
                let mut cache = make();
                let (sim, cache_stats) = simulate_warmed_with(
                    self.cfg.machine,
                    &mut trace,
                    &mut cache,
                    self.cfg.warmup,
                    self.cfg.instructions,
                );
                BenchRun {
                    bench,
                    sim,
                    cache: cache_stats,
                }
            })
            .collect();
        SuiteResult {
            node: self.cfg.node,
            op: self.cfg.op(),
            runs,
        }
    }

    /// The ideal-6T baseline at a given associativity.
    pub fn run_ideal(&self, ways: u32) -> SuiteResult {
        let cfg = CacheConfig {
            geometry: Geometry::paper_l1d_with_ways(ways),
            ..CacheConfig::paper(Scheme::default())
        };
        self.run_suite(|| DataCache::new(cfg, RetentionProfile::Infinite))
    }

    /// A 3T1D chip under a retention scheme at a given associativity.
    ///
    /// # Panics
    ///
    /// Panics if the scheme is `Global` and the chip is infeasible for it
    /// (check [`DataCache::global_scheme_feasible`] first).
    pub fn run_scheme(
        &self,
        profile: &RetentionProfile,
        scheme: Scheme,
        ways: u32,
    ) -> SuiteResult {
        // Size the line counters to the chip, per §4.3.1 ("larger
        // retention time requires larger N").
        self.run_scheme_custom(profile, scheme, ways, cachesim::CounterSpec::for_profile(profile))
    }

    /// Like [`Evaluator::run_scheme`] with an explicit line-counter spec —
    /// the §5 sensitivity sweep scales the counter step `N` with the mean
    /// retention, as the paper prescribes.
    pub fn run_scheme_custom(
        &self,
        profile: &RetentionProfile,
        scheme: Scheme,
        ways: u32,
        counter: cachesim::CounterSpec,
    ) -> SuiteResult {
        let cfg = CacheConfig {
            geometry: Geometry::paper_l1d_with_ways(ways),
            counter,
            ..CacheConfig::paper(scheme)
        };
        self.run_suite(|| DataCache::new(cfg, profile.clone()))
    }

    /// Evaluates one chip under one scheme (4-way), normalized against the
    /// provided ideal baseline. Returns `(normalized perf, normalized
    /// dynamic power)`.
    pub fn evaluate_chip(
        &self,
        chip: &ChipModel,
        scheme: Scheme,
        ideal: &SuiteResult,
    ) -> (f64, f64) {
        let u = self.evaluate_chip_full(chip, scheme, ideal);
        (u.perf, u.power)
    }

    /// [`Evaluator::evaluate_chip`] keeping the full counter detail: the
    /// normalized numbers plus the suite-aggregated cache and pipeline
    /// counters, so campaigns can surface *why* a scheme won or lost in
    /// their run manifests.
    pub fn evaluate_chip_full(
        &self,
        chip: &ChipModel,
        scheme: Scheme,
        ideal: &SuiteResult,
    ) -> UnitEval {
        let suite = self.run_scheme(chip.retention_profile(), scheme, 4);
        let mut cache = CacheStats::default();
        let mut sim = SimResult::default();
        for run in &suite.runs {
            cache.merge(&run.cache);
            sim.merge(&run.sim);
        }
        UnitEval {
            perf: suite.normalized_performance(ideal, 1.0),
            power: suite.normalized_dynamic_power(ideal, MemKind::Dram3t1d),
            hm_ipc: suite.hm_ipc(),
            cache,
            sim,
        }
    }
}

/// One `(chip, scheme)` evaluation with its full counter detail.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UnitEval {
    /// Performance normalized against the ideal-6T baseline.
    pub perf: f64,
    /// Dynamic power normalized against the ideal-6T baseline.
    pub power: f64,
    /// Harmonic-mean IPC over the suite.
    pub hm_ipc: f64,
    /// Cache counters summed across the suite's benchmarks.
    pub cache: CacheStats,
    /// Pipeline counters summed across the suite's benchmarks.
    pub sim: SimResult,
}

impl UnitEval {
    /// Exports the unit's numbers and both counter layers under `prefix`.
    pub fn export(&self, m: &mut obs::MetricsRegistry, prefix: &str) {
        m.set_gauge(&format!("{prefix}.perf"), self.perf);
        m.set_gauge(&format!("{prefix}.power"), self.power);
        m.set_gauge(&format!("{prefix}.hm_ipc"), self.hm_ipc);
        self.cache.export(m, &format!("{prefix}.cache"));
        self.sim.export(m, &format!("{prefix}.pipe"));
    }

    /// Merges another unit's raw counters into this one. The normalized
    /// numbers (`perf`, `power`, `hm_ipc`) are ratios and do not sum —
    /// they are left untouched; the caller recomputes summary gauges.
    pub fn merge_counters(&mut self, o: &UnitEval) {
        self.cache.merge(&o.cache);
        self.sim.merge(&o.sim);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachesim::RefreshPolicy;

    fn quick_eval() -> Evaluator {
        let mut cfg = EvalConfig::quick();
        cfg.benchmarks = vec![SpecBenchmark::Gzip, SpecBenchmark::Mcf];
        Evaluator::new(cfg)
    }

    #[test]
    fn ideal_suite_is_deterministic() {
        let e = quick_eval();
        let a = e.run_ideal(4);
        let b = e.run_ideal(4);
        assert_eq!(a.hm_ipc(), b.hm_ipc());
        assert!(a.hm_ipc() > 0.3);
    }

    #[test]
    fn self_normalization_is_unity() {
        let e = quick_eval();
        let ideal = e.run_ideal(4);
        assert!((ideal.normalized_performance(&ideal, 1.0) - 1.0).abs() < 1e-12);
        assert!(
            (ideal.normalized_dynamic_power(&ideal, MemKind::Sram6t) - 1.0).abs() < 1e-12
        );
    }

    #[test]
    fn long_retention_3t1d_matches_ideal_closely() {
        let e = quick_eval();
        let ideal = e.run_ideal(4);
        // 30 µs retention at 4.3 GHz ≈ 129 K cycles: virtually no expiry.
        let profile = RetentionProfile::uniform_cycles(129_000, 1024);
        let suite = e.run_scheme(&profile, Scheme::no_refresh_lru(), 4);
        let perf = suite.normalized_performance(&ideal, 1.0);
        assert!(perf > 0.97, "perf {perf}");
    }

    #[test]
    fn short_retention_no_refresh_hurts() {
        let e = quick_eval();
        let ideal = e.run_ideal(4);
        // 2 K-cycle retention: heavy expiry under no-refresh/LRU.
        let profile = RetentionProfile::uniform_cycles(2_000, 1024);
        let suite = e.run_scheme(&profile, Scheme::no_refresh_lru(), 4);
        let perf = suite.normalized_performance(&ideal, 1.0);
        assert!(perf < 0.995, "perf {perf}");
        // And it costs extra L2 energy.
        let p = suite.normalized_dynamic_power(&ideal, MemKind::Dram3t1d);
        assert!(p > 1.0, "power {p}");
    }

    #[test]
    fn global_scheme_near_ideal_without_variation() {
        // §4.1: global refresh costs <1 % performance at nominal retention.
        let e = Evaluator::new(EvalConfig {
            benchmarks: vec![SpecBenchmark::Gzip, SpecBenchmark::Crafty],
            ..EvalConfig::quick()
        });
        let ideal = e.run_ideal(4);
        // 6000 ns at 4.3 GHz = 25.8 K cycles.
        let profile = RetentionProfile::uniform_cycles(25_800, 1024);
        let suite = e.run_scheme(&profile, Scheme::global(), 4);
        let perf = suite.normalized_performance(&ideal, 1.0);
        assert!(perf > 0.985, "global-scheme perf {perf}");
        assert!(suite.runs.iter().all(|r| r.cache.global_passes > 0));
    }

    #[test]
    fn full_refresh_beats_no_refresh_on_short_retention() {
        let e = quick_eval();
        let profile = RetentionProfile::uniform_cycles(9_000, 1024);
        let nr = e.run_scheme(&profile, Scheme::no_refresh_lru(), 4);
        let fr = e.run_scheme(
            &profile,
            Scheme::new(RefreshPolicy::Full, cachesim::ReplacementPolicy::Lru),
            4,
        );
        assert!(fr.hm_ipc() >= nr.hm_ipc() * 0.98, "full {} vs none {}", fr.hm_ipc(), nr.hm_ipc());
    }

    #[test]
    fn worst_bench_is_below_mean() {
        let e = quick_eval();
        let ideal = e.run_ideal(4);
        let profile = RetentionProfile::uniform_cycles(4_000, 1024);
        let suite = e.run_scheme(&profile, Scheme::no_refresh_lru(), 4);
        let (bench, worst) = suite.worst_bench_performance(&ideal);
        let mean = suite.normalized_performance(&ideal, 1.0);
        assert!(worst <= mean + 1e-9, "{bench} worst {worst} vs mean {mean}");
    }

    #[test]
    fn suite_miss_rate_aggregates_runs() {
        let e = quick_eval();
        let ideal = e.run_ideal(4);
        let rate = ideal.miss_rate();
        assert!(rate > 0.0 && rate < 0.5, "rate {rate}");
        // Aggregated rate sits between the per-run extremes.
        let rates: Vec<f64> = ideal.runs.iter().map(|r| r.cache.miss_rate()).collect();
        let lo = rates.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = rates.iter().cloned().fold(0.0f64, f64::max);
        assert!(rate >= lo && rate <= hi);
    }

    #[test]
    fn per_bench_ipc_matches_runs() {
        let e = quick_eval();
        let suite = e.run_ideal(4);
        let ipcs = suite.per_bench_ipc();
        assert_eq!(ipcs.len(), suite.runs.len());
        for (ipc, run) in ipcs.iter().zip(&suite.runs) {
            assert_eq!(*ipc, run.sim.ipc());
        }
        // Harmonic mean below max, above min.
        let hm = suite.hm_ipc();
        assert!(hm <= ipcs.iter().cloned().fold(0.0f64, f64::max) + 1e-12);
        assert!(hm >= ipcs.iter().cloned().fold(f64::INFINITY, f64::min) - 1e-12);
    }

    #[test]
    fn evaluate_chip_wrapper_matches_manual_path() {
        let pop = crate::chip::ChipPopulation::generate(
            TechNode::N32,
            vlsi::VariationCorner::Severe.params(),
            4,
            77,
        );
        let chip = pop.select(crate::chip::ChipGrade::Median);
        let e = quick_eval();
        let ideal = e.run_ideal(4);
        let (perf, power) = e.evaluate_chip(chip, Scheme::rsp_fifo(), &ideal);
        let suite = e.run_scheme(chip.retention_profile(), Scheme::rsp_fifo(), 4);
        assert_eq!(perf, suite.normalized_performance(&ideal, 1.0));
        assert_eq!(power, suite.normalized_dynamic_power(&ideal, MemKind::Dram3t1d));
    }

    #[test]
    fn frequency_multiplier_scales_normalized_perf() {
        let e = quick_eval();
        let ideal = e.run_ideal(4);
        let perf = ideal.normalized_performance(&ideal, 0.84);
        assert!((perf - 0.84).abs() < 1e-9);
    }
}
