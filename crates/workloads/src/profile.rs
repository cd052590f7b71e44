//! Statistical profiles of the eight SPEC2000 benchmarks (§3.2).
//!
//! The paper simulates crafty, applu, fma3d, gcc, gzip, mcf, mesa and
//! twolf — the Phansalkar et al. subset that represents all of SPEC2000 —
//! with sim-alpha over SimPoint samples. We cannot ship SPEC, so each
//! benchmark becomes a *profile*: instruction mix, dependency-distance
//! distribution, branch-behavior mix, and a block-level temporal-reuse
//! model, calibrated so the synthetic streams land in the published
//! ranges for L1D miss rate, IPC and branch misprediction, and so the
//! aggregate reference-age CDF reproduces Fig. 1 (≈90 % of references
//! within 6 K cycles of the line's load).

use std::fmt;

/// The eight simulated SPEC2000 benchmarks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SpecBenchmark {
    /// 173.applu — FP, structured-grid solver.
    Applu,
    /// 186.crafty — INT, chess; branchy, cache-friendly.
    Crafty,
    /// 191.fma3d — FP, crash simulation.
    Fma3d,
    /// 176.gcc — INT, compiler; large code footprint.
    Gcc,
    /// 164.gzip — INT, compression.
    Gzip,
    /// 181.mcf — INT, network simplex; notoriously memory-bound.
    Mcf,
    /// 177.mesa — FP, software rendering; very cache-friendly.
    Mesa,
    /// 300.twolf — INT, place & route; irregular pointer accesses.
    Twolf,
}

impl SpecBenchmark {
    /// All eight benchmarks in the paper's Fig. 1 order.
    pub const ALL: [SpecBenchmark; 8] = [
        SpecBenchmark::Applu,
        SpecBenchmark::Crafty,
        SpecBenchmark::Fma3d,
        SpecBenchmark::Gcc,
        SpecBenchmark::Gzip,
        SpecBenchmark::Mcf,
        SpecBenchmark::Mesa,
        SpecBenchmark::Twolf,
    ];

    /// The calibrated profile for this benchmark.
    pub fn profile(self) -> Profile {
        Profile::of(self)
    }
}

impl fmt::Display for SpecBenchmark {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SpecBenchmark::Applu => "applu",
            SpecBenchmark::Crafty => "crafty",
            SpecBenchmark::Fma3d => "fma3d",
            SpecBenchmark::Gcc => "gcc",
            SpecBenchmark::Gzip => "gzip",
            SpecBenchmark::Mcf => "mcf",
            SpecBenchmark::Mesa => "mesa",
            SpecBenchmark::Twolf => "twolf",
        };
        f.write_str(s)
    }
}

impl std::str::FromStr for SpecBenchmark {
    type Err = String;

    /// Parses the [`fmt::Display`] form (`"gzip"`), case-insensitively —
    /// run manifests and CLI flags round-trip through this.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let lower = s.trim().to_ascii_lowercase();
        SpecBenchmark::ALL
            .iter()
            .copied()
            .find(|b| b.to_string() == lower)
            .ok_or_else(|| format!("unknown benchmark {s:?}"))
    }
}

/// Statistical parameters of one benchmark's instruction stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Profile {
    /// The benchmark this profile models.
    pub bench: SpecBenchmark,
    /// Fraction of loads.
    pub frac_load: f64,
    /// Fraction of stores.
    pub frac_store: f64,
    /// Fraction of branches.
    pub frac_branch: f64,
    /// Fraction of floating-point ops.
    pub frac_fp: f64,
    /// Fraction of integer multiplies.
    pub frac_intmul: f64,
    /// Probability that an op depends on a recent producer.
    pub dep_prob: f64,
    /// Mean dependency distance (geometric).
    pub dep_mean: f64,
    /// Probability a memory reference reuses a recently-touched block.
    pub near_reuse: f64,
    /// Mean LRU-stack depth of near reuses (geometric, in blocks).
    pub near_mean: f64,
    /// Probability of a mid-range reuse (uniform over `mid_range`).
    pub mid_reuse: f64,
    /// Depth range of mid reuses (blocks).
    pub mid_range: u32,
    /// Probability of a far reuse: a block outside the L1 but within the
    /// L2-resident working set (an L1 miss that hits the L2).
    pub far_reuse: f64,
    /// Distinct 64 B blocks in the benchmark's working footprint.
    pub footprint_blocks: u32,
    /// Fraction of branch instances from loop-closing branches.
    pub loop_branch_frac: f64,
    /// Fraction of branch instances that are data-dependent (random).
    pub random_branch_frac: f64,
    /// Taken bias of the random branches.
    pub random_branch_bias: f64,
    /// Mean loop trip count of the loop branches.
    pub loop_trip: u32,
    /// Instruction-cache misses per instruction.
    pub icache_miss_rate: f64,
}

impl Profile {
    /// The calibrated profile of a benchmark.
    ///
    /// Calibration targets (loose bands checked by tests): L1D miss rate
    /// and IPC in the published range for a 64 KB 4-way cache, and the
    /// Fig. 1 aggregate reuse shape.
    pub fn of(bench: SpecBenchmark) -> Profile {
        use SpecBenchmark::*;
        match bench {
            Applu => Profile {
                bench,
                frac_load: 0.26,
                frac_store: 0.08,
                frac_branch: 0.03,
                frac_fp: 0.32,
                frac_intmul: 0.01,
                dep_prob: 0.55,
                dep_mean: 8.0,
                near_reuse: 0.87,
                near_mean: 10.0,
                mid_reuse: 0.114,
                mid_range: 900,
                far_reuse: 0.012,
                footprint_blocks: 500_000,
                loop_branch_frac: 0.85,
                random_branch_frac: 0.05,
                random_branch_bias: 0.7,
                loop_trip: 24,
                icache_miss_rate: 0.0002,
            },
            Crafty => Profile {
                bench,
                frac_load: 0.28,
                frac_store: 0.07,
                frac_branch: 0.12,
                frac_fp: 0.0,
                frac_intmul: 0.01,
                dep_prob: 0.55,
                dep_mean: 5.0,
                near_reuse: 0.92,
                near_mean: 14.0,
                mid_reuse: 0.072,
                mid_range: 600,
                far_reuse: 0.006,
                footprint_blocks: 25_000,
                loop_branch_frac: 0.45,
                random_branch_frac: 0.12,
                random_branch_bias: 0.62,
                loop_trip: 10,
                icache_miss_rate: 0.002,
            },
            Fma3d => Profile {
                bench,
                frac_load: 0.27,
                frac_store: 0.10,
                frac_branch: 0.05,
                frac_fp: 0.30,
                frac_intmul: 0.0,
                dep_prob: 0.55,
                dep_mean: 7.0,
                near_reuse: 0.88,
                near_mean: 12.0,
                mid_reuse: 0.104,
                mid_range: 800,
                far_reuse: 0.012,
                footprint_blocks: 400_000,
                loop_branch_frac: 0.7,
                random_branch_frac: 0.1,
                random_branch_bias: 0.75,
                loop_trip: 16,
                icache_miss_rate: 0.003,
            },
            Gcc => Profile {
                bench,
                frac_load: 0.25,
                frac_store: 0.11,
                frac_branch: 0.15,
                frac_fp: 0.0,
                frac_intmul: 0.005,
                dep_prob: 0.55,
                dep_mean: 5.0,
                near_reuse: 0.90,
                near_mean: 16.0,
                mid_reuse: 0.086,
                mid_range: 900,
                far_reuse: 0.010,
                footprint_blocks: 120_000,
                loop_branch_frac: 0.35,
                random_branch_frac: 0.15,
                random_branch_bias: 0.6,
                loop_trip: 6,
                icache_miss_rate: 0.006,
            },
            Gzip => Profile {
                bench,
                frac_load: 0.22,
                frac_store: 0.08,
                frac_branch: 0.13,
                frac_fp: 0.0,
                frac_intmul: 0.0,
                dep_prob: 0.58,
                dep_mean: 4.5,
                near_reuse: 0.91,
                near_mean: 12.0,
                mid_reuse: 0.079,
                mid_range: 700,
                far_reuse: 0.008,
                footprint_blocks: 27_000,
                loop_branch_frac: 0.55,
                random_branch_frac: 0.13,
                random_branch_bias: 0.55,
                loop_trip: 12,
                icache_miss_rate: 0.0005,
            },
            Mcf => Profile {
                bench,
                frac_load: 0.32,
                frac_store: 0.09,
                frac_branch: 0.12,
                frac_fp: 0.0,
                frac_intmul: 0.0,
                dep_prob: 0.65,
                dep_mean: 3.5,
                near_reuse: 0.74,
                near_mean: 8.0,
                mid_reuse: 0.14,
                mid_range: 1300,
                far_reuse: 0.085,
                footprint_blocks: 1_500_000,
                loop_branch_frac: 0.3,
                random_branch_frac: 0.17,
                random_branch_bias: 0.65,
                loop_trip: 8,
                icache_miss_rate: 0.0003,
            },
            Mesa => Profile {
                bench,
                frac_load: 0.24,
                frac_store: 0.09,
                frac_branch: 0.08,
                frac_fp: 0.22,
                frac_intmul: 0.01,
                dep_prob: 0.5,
                dep_mean: 6.0,
                near_reuse: 0.955,
                near_mean: 8.0,
                mid_reuse: 0.038,
                mid_range: 400,
                far_reuse: 0.005,
                footprint_blocks: 15_000,
                loop_branch_frac: 0.7,
                random_branch_frac: 0.08,
                random_branch_bias: 0.8,
                loop_trip: 32,
                icache_miss_rate: 0.001,
            },
            Twolf => Profile {
                bench,
                frac_load: 0.27,
                frac_store: 0.07,
                frac_branch: 0.13,
                frac_fp: 0.02,
                frac_intmul: 0.005,
                dep_prob: 0.65,
                dep_mean: 4.0,
                near_reuse: 0.83,
                near_mean: 12.0,
                mid_reuse: 0.115,
                mid_range: 1200,
                far_reuse: 0.030,
                footprint_blocks: 300_000,
                loop_branch_frac: 0.35,
                random_branch_frac: 0.19,
                random_branch_bias: 0.6,
                loop_trip: 7,
                icache_miss_rate: 0.001,
            },
        }
    }

    /// Fraction of plain integer-ALU instructions (the remainder).
    pub fn frac_int_alu(&self) -> f64 {
        1.0 - self.frac_load
            - self.frac_store
            - self.frac_branch
            - self.frac_fp
            - self.frac_intmul
    }
}

/// Builder for custom workload profiles (beyond the eight SPEC models).
///
/// Starts from an existing profile (default: gzip-like) and lets each
/// statistical knob be overridden; [`ProfileBuilder::build`] validates the
/// result.
///
/// # Examples
///
/// ```
/// use workloads::profile::{ProfileBuilder, SpecBenchmark};
///
/// let streaming = ProfileBuilder::from(SpecBenchmark::Gzip.profile())
///     .near_reuse(0.5)
///     .far_reuse(0.02)
///     .footprint_blocks(2_000_000)
///     .build()
///     .unwrap();
/// assert!(streaming.frac_int_alu() > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct ProfileBuilder {
    profile: Profile,
}

/// Error from [`ProfileBuilder::build`]: which constraint failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BuildProfileError(pub &'static str);

impl std::fmt::Display for BuildProfileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid workload profile: {}", self.0)
    }
}

impl std::error::Error for BuildProfileError {}

impl From<Profile> for ProfileBuilder {
    fn from(profile: Profile) -> Self {
        Self { profile }
    }
}

impl Default for ProfileBuilder {
    fn default() -> Self {
        Self::from(SpecBenchmark::Gzip.profile())
    }
}

impl ProfileBuilder {
    /// Starts from the gzip-like baseline.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the load fraction.
    pub fn frac_load(mut self, v: f64) -> Self {
        self.profile.frac_load = v;
        self
    }

    /// Sets the store fraction.
    pub fn frac_store(mut self, v: f64) -> Self {
        self.profile.frac_store = v;
        self
    }

    /// Sets the branch fraction.
    pub fn frac_branch(mut self, v: f64) -> Self {
        self.profile.frac_branch = v;
        self
    }

    /// Sets the floating-point fraction.
    pub fn frac_fp(mut self, v: f64) -> Self {
        self.profile.frac_fp = v;
        self
    }

    /// Sets the near-reuse probability.
    pub fn near_reuse(mut self, v: f64) -> Self {
        self.profile.near_reuse = v;
        self
    }

    /// Sets the mid-range reuse probability.
    pub fn mid_reuse(mut self, v: f64) -> Self {
        self.profile.mid_reuse = v;
        self
    }

    /// Sets the far (L2-range) reuse probability.
    pub fn far_reuse(mut self, v: f64) -> Self {
        self.profile.far_reuse = v;
        self
    }

    /// Sets the working footprint in 64 B blocks.
    pub fn footprint_blocks(mut self, v: u32) -> Self {
        self.profile.footprint_blocks = v;
        self
    }

    /// Sets the dependency probability and mean distance.
    pub fn dependencies(mut self, prob: f64, mean: f64) -> Self {
        self.profile.dep_prob = prob;
        self.profile.dep_mean = mean;
        self
    }

    /// Validates and produces the profile.
    ///
    /// # Errors
    ///
    /// Returns an error naming the violated constraint: fractions must be
    /// non-negative, the instruction mix must leave room for ALU ops, the
    /// reuse mix must sum below 1, and the footprint must be non-trivial.
    pub fn build(self) -> Result<Profile, BuildProfileError> {
        let p = self.profile;
        let fracs = [
            p.frac_load,
            p.frac_store,
            p.frac_branch,
            p.frac_fp,
            p.frac_intmul,
        ];
        if fracs.iter().any(|f| *f < 0.0 || *f > 1.0) {
            return Err(BuildProfileError("instruction fractions must be in [0,1]"));
        }
        if p.frac_int_alu() <= 0.0 {
            return Err(BuildProfileError("instruction mix exceeds 100%"));
        }
        if p.near_reuse < 0.0 || p.mid_reuse < 0.0 || p.far_reuse < 0.0 {
            return Err(BuildProfileError("reuse probabilities must be non-negative"));
        }
        if p.near_reuse + p.mid_reuse + p.far_reuse >= 1.0 {
            return Err(BuildProfileError("reuse mix must leave room for cold refs"));
        }
        if p.footprint_blocks < 16 {
            return Err(BuildProfileError("footprint must cover at least 16 blocks"));
        }
        if !(0.0..1.0).contains(&p.dep_prob) || p.dep_mean < 1.5 {
            return Err(BuildProfileError("dependency parameters out of range"));
        }
        if p.loop_branch_frac + p.random_branch_frac > 1.0 {
            return Err(BuildProfileError("branch-site mix exceeds 100%"));
        }
        Ok(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_round_trips_through_from_str() {
        for b in SpecBenchmark::ALL {
            assert_eq!(b.to_string().parse::<SpecBenchmark>().unwrap(), b);
        }
        assert_eq!("GZIP".parse::<SpecBenchmark>().unwrap(), SpecBenchmark::Gzip);
        assert!("bzip2".parse::<SpecBenchmark>().is_err());
    }

    #[test]
    fn all_profiles_are_well_formed() {
        for b in SpecBenchmark::ALL {
            let p = b.profile();
            assert!(p.frac_int_alu() > 0.0, "{b}: mix over 100%");
            let frac_mem = p.frac_load + p.frac_store;
            assert!(frac_mem > 0.2 && frac_mem < 0.5, "{b}");
            assert!(p.near_reuse + p.mid_reuse < 1.0, "{b}");
            assert!(p.footprint_blocks > 1_000, "{b}");
            assert!(
                p.loop_branch_frac + p.random_branch_frac <= 1.0,
                "{b}: branch mix"
            );
            assert!(p.dep_prob > 0.0 && p.dep_prob < 1.0, "{b}");
        }
    }

    #[test]
    fn mcf_is_the_memory_hog() {
        let mcf = SpecBenchmark::Mcf.profile();
        for b in SpecBenchmark::ALL {
            if b != SpecBenchmark::Mcf {
                let p = b.profile();
                assert!(mcf.footprint_blocks >= p.footprint_blocks, "{b}");
                assert!(mcf.near_reuse <= p.near_reuse, "{b}");
            }
        }
    }

    #[test]
    fn mesa_is_the_cache_friendliest() {
        let mesa = SpecBenchmark::Mesa.profile();
        assert!(mesa.near_reuse >= 0.94);
        assert!(mesa.footprint_blocks <= 40_000);
    }

    #[test]
    fn builder_round_trips_valid_profiles() {
        for b in SpecBenchmark::ALL {
            let rebuilt = ProfileBuilder::from(b.profile()).build().unwrap();
            assert_eq!(rebuilt, b.profile());
        }
    }

    #[test]
    fn builder_rejects_bad_mixes() {
        assert!(ProfileBuilder::new().frac_load(0.9).frac_fp(0.3).build().is_err());
        assert!(ProfileBuilder::new().near_reuse(0.95).mid_reuse(0.1).build().is_err());
        assert!(ProfileBuilder::new().footprint_blocks(2).build().is_err());
        assert!(ProfileBuilder::new().dependencies(1.5, 4.0).build().is_err());
        let err = ProfileBuilder::new().frac_load(-0.1).build().unwrap_err();
        assert!(err.to_string().contains("fractions"));
    }

    #[test]
    fn builder_customization_sticks() {
        let p = ProfileBuilder::new()
            .near_reuse(0.5)
            .far_reuse(0.05)
            .footprint_blocks(1_000_000)
            .build()
            .unwrap();
        assert_eq!(p.near_reuse, 0.5);
        assert_eq!(p.footprint_blocks, 1_000_000);
    }

    #[test]
    fn display_names_match_the_paper() {
        let names: Vec<String> = SpecBenchmark::ALL.iter().map(|b| b.to_string()).collect();
        assert_eq!(
            names,
            ["applu", "crafty", "fma3d", "gcc", "gzip", "mcf", "mesa", "twolf"]
        );
    }
}
