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
    /// Target instruction-cache misses per instruction. It sets the
    /// generator's far-jump probability; the misses themselves come from
    /// the front end's L1I on the far jumps' new code blocks.
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
    fn display_names_match_the_paper() {
        let names: Vec<String> = SpecBenchmark::ALL.iter().map(|b| b.to_string()).collect();
        assert_eq!(
            names,
            ["applu", "crafty", "fma3d", "gcc", "gzip", "mcf", "mesa", "twolf"]
        );
    }
}
