//! The §5 sensitivity study: performance vs retention-time µ and σ/µ.
//!
//! The paper sweeps the mean retention µ (2 K–30 K cycles) and the
//! within-die coefficient of variation σ/µ (5–35 %) of the per-line
//! retention distribution — ignoring die-to-die effects — and plots the
//! resulting performance surface for the three representative line-level
//! schemes (Fig. 12). Dead lines (retention below one counter step) are
//! the dominant performance limiter at high σ/µ.

use crate::evaluate::{Evaluator, SuiteResult};
use cachesim::{CounterSpec, RetentionProfile, Scheme};
use vlsi::math::sample_normal;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Builds a synthetic per-line retention profile with the given mean (in
/// cycles) and coefficient of variation, Gaussian truncated at zero —
/// the §5 abstraction of within-die variation.
///
/// # Panics
///
/// Panics if `mu_cycles` is zero or `sigma_over_mu` is negative.
pub fn synthetic_profile(
    mu_cycles: u64,
    sigma_over_mu: f64,
    lines: u32,
    seed: u64,
) -> RetentionProfile {
    assert!(mu_cycles > 0, "mean retention must be positive");
    assert!(sigma_over_mu >= 0.0, "sigma/mu must be non-negative");
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5e45);
    let sigma = mu_cycles as f64 * sigma_over_mu;
    let per_line = (0..lines)
        .map(|_| sample_normal(&mut rng, mu_cycles as f64, sigma).max(0.0) as u64)
        .collect();
    RetentionProfile::PerLine(per_line)
}

/// Locates a *real design* on the µ–σ/µ surface: samples chips at a node
/// and variation corner, applies the supply-voltage retention factor, and
/// returns `(µ in cycles, σ/µ)` of the per-line retention distribution —
/// the Fig. 12 "design point" annotations (e.g. point 2 ≈ 45 nm typical at
/// 1.1 V; point 4 ≈ 32 nm severe at 1.1 V).
pub fn design_point(
    node: vlsi::TechNode,
    params: &vlsi::VariationParams,
    vdd: vlsi::Voltage,
    chips: u32,
    seed: u64,
) -> (u64, f64) {
    use vlsi::cell3t1d::retention_vdd_factor;
    use vlsi::montecarlo::ChipFactory;
    use vlsi::stats::Summary;

    let factory = ChipFactory::new(node, *params, seed);
    let factor = retention_vdd_factor(node, vdd);
    let clock = node.chip_frequency().value();
    let mut s = Summary::new();
    for i in 0..chips {
        for t in factory.chip(i).line_retentions() {
            s.push(t.value() * factor * clock);
        }
    }
    (s.mean().max(0.0) as u64, s.cv())
}

/// One point of the µ–σ/µ surface.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SensitivityPoint {
    /// Mean retention in cycles.
    pub mu_cycles: u64,
    /// Coefficient of variation of retention.
    pub sigma_over_mu: f64,
    /// Normalized performance (vs ideal 6T), averaged over sample chips.
    pub performance: f64,
    /// Mean dead-line fraction of the sampled chips.
    pub dead_fraction: f64,
}

/// The µ–σ/µ sweep driver.
#[derive(Debug, Clone)]
pub struct SensitivitySweep {
    /// Mean retentions to sweep (cycles).
    pub mus: Vec<u64>,
    /// σ/µ ratios to sweep.
    pub ratios: Vec<f64>,
    /// Synthetic chips sampled per grid point.
    pub chips_per_point: u32,
    /// Base seed.
    pub seed: u64,
}

impl SensitivitySweep {
    /// The paper's grid: µ ∈ 2K–30K cycles, σ/µ ∈ 5–35 %.
    pub fn paper_grid() -> Self {
        Self {
            mus: vec![2_000, 6_000, 10_000, 14_000, 18_000, 22_000, 26_000, 30_000],
            ratios: vec![0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35],
            chips_per_point: 3,
            seed: 31,
        }
    }

    /// A coarse grid for tests.
    pub fn coarse() -> Self {
        Self {
            mus: vec![2_000, 14_000, 30_000],
            ratios: vec![0.05, 0.35],
            chips_per_point: 1,
            seed: 31,
        }
    }

    /// Runs the sweep for one scheme, normalizing each point against the
    /// given ideal baseline. Points are returned in row-major order
    /// (µ outer, σ/µ inner).
    ///
    /// Each grid point is one independent work unit — its synthetic
    /// profiles are seeded from `(seed, µ, σ/µ, chip)` alone — fanned
    /// across the [`crate::campaign`] worker pool; the returned points are
    /// in the same row-major order as a serial double loop, bit-identical.
    pub fn run(
        &self,
        eval: &Evaluator,
        scheme: Scheme,
        ideal: &SuiteResult,
    ) -> Vec<SensitivityPoint> {
        // One counter design across the surface: the standard 1024-cycle
        // step (so the dead-line threshold is a fixed physical quantity —
        // the source of the σ/µ > 25 % cliff) with enough bits to cover
        // the largest µ without clamping.
        let counter = CounterSpec {
            step_cycles: 1024,
            bits: 5,
        };
        eval.warm_traces();
        let n_ratios = self.ratios.len();
        crate::campaign::map_indexed(self.mus.len() * n_ratios, |i| {
            let mu = self.mus[i / n_ratios];
            let ratio = self.ratios[i % n_ratios];
            let mut perf_sum = 0.0;
            let mut dead_sum = 0.0;
            for c in 0..self.chips_per_point {
                let profile = synthetic_profile(
                    mu,
                    ratio,
                    1024,
                    self.seed ^ (mu << 8) ^ ((ratio * 1000.0) as u64) ^ (c as u64) << 40,
                );
                dead_sum += profile.dead_fraction(&counter);
                let suite = eval.run_scheme_custom(&profile, scheme, 4, counter);
                perf_sum += suite.normalized_performance(ideal, 1.0);
            }
            SensitivityPoint {
                mu_cycles: mu,
                sigma_over_mu: ratio,
                performance: perf_sum / self.chips_per_point as f64,
                dead_fraction: dead_sum / self.chips_per_point as f64,
            }
        })
        .0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluate::EvalConfig;
    use workloads::SpecBenchmark;

    #[test]
    fn synthetic_profile_statistics() {
        let p = synthetic_profile(10_000, 0.2, 1024, 1);
        if let RetentionProfile::PerLine(v) = &p {
            let mean: f64 = v.iter().map(|&x| x as f64).sum::<f64>() / v.len() as f64;
            assert!((mean - 10_000.0).abs() < 400.0, "mean {mean}");
            let var: f64 = v
                .iter()
                .map(|&x| (x as f64 - mean).powi(2))
                .sum::<f64>()
                / v.len() as f64;
            let cv = var.sqrt() / mean;
            assert!((cv - 0.2).abs() < 0.03, "cv {cv}");
        } else {
            panic!("expected per-line profile");
        }
    }

    #[test]
    fn high_cv_creates_dead_lines() {
        // With the fixed 1024-cycle dead threshold, σ/µ = 35 % at a small
        // µ puts a meaningful tail below one counter step, while σ/µ = 5 %
        // leaves every line alive. This is the Fig. 12 cliff mechanism.
        let counter = CounterSpec {
            step_cycles: 1024,
            bits: 5,
        };
        let p = synthetic_profile(2_500, 0.35, 1024, 2);
        assert!(p.dead_fraction(&counter) > 0.02);
        let p = synthetic_profile(2_500, 0.05, 1024, 3);
        assert_eq!(p.dead_fraction(&counter), 0.0);
    }

    #[test]
    fn design_points_order_as_the_paper_describes() {
        use vlsi::{TechNode, VariationCorner, Voltage};
        // Point 1→2→3: scaling 65→45→32 nm at fixed voltage shrinks µ.
        let p65 = design_point(TechNode::N65, &VariationCorner::Typical.params(),
                               TechNode::N65.vdd(), 2, 9);
        let p45 = design_point(TechNode::N45, &VariationCorner::Typical.params(),
                               TechNode::N45.vdd(), 2, 9);
        let p32 = design_point(TechNode::N32, &VariationCorner::Typical.params(),
                               TechNode::N32.vdd(), 2, 9);
        assert!(p65.0 > p45.0 && p45.0 > p32.0, "{p65:?} {p45:?} {p32:?}");
        // Point 3 vs 5: lowering the rail shrinks µ further.
        let p32_low = design_point(TechNode::N32, &VariationCorner::Typical.params(),
                                   Voltage::new(0.9), 2, 9);
        assert!(p32_low.0 < p32.0);
        // Severe variation widens σ/µ (point 4 vs point 3).
        let p32_sev = design_point(TechNode::N32, &VariationCorner::Severe.params(),
                                   TechNode::N32.vdd(), 2, 9);
        assert!(p32_sev.1 > p32.1);
    }

    #[test]
    fn determinism() {
        let a = synthetic_profile(8_000, 0.25, 64, 9);
        let b = synthetic_profile(8_000, 0.25, 64, 9);
        assert_eq!(a, b);
    }

    #[test]
    fn sweep_shows_mu_and_cv_trends() {
        let eval = Evaluator::new(EvalConfig {
            benchmarks: vec![SpecBenchmark::Gzip],
            instructions: 30_000,
            warmup: 15_000,
            ..EvalConfig::quick()
        });
        let ideal = eval.run_ideal(4);
        let sweep = SensitivitySweep::coarse();
        let pts = sweep.run(&eval, Scheme::partial_refresh_dsp(), &ideal);
        assert_eq!(pts.len(), 6);
        // Larger µ at fixed σ/µ=5% helps (first ratio of each µ row).
        let low_mu = pts[0].performance;
        let high_mu = pts[4].performance;
        assert!(
            high_mu >= low_mu - 0.02,
            "µ trend: {low_mu} vs {high_mu}"
        );
        // At µ=2K, σ/µ=35% is no better than 5 % (dead lines).
        assert!(pts[1].performance <= pts[0].performance + 0.02);
        assert!(pts[1].dead_fraction >= pts[0].dead_fraction);
    }
}
