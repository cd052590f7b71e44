//! Property-based tests for the synthetic workload generators.

use proptest::prelude::*;
use uarch::instr::{OpClass, TraceSource};
use workloads::{SpecBenchmark, SyntheticTrace};

fn bench_strategy() -> impl Strategy<Value = SpecBenchmark> {
    prop_oneof![
        Just(SpecBenchmark::Applu),
        Just(SpecBenchmark::Crafty),
        Just(SpecBenchmark::Fma3d),
        Just(SpecBenchmark::Gcc),
        Just(SpecBenchmark::Gzip),
        Just(SpecBenchmark::Mcf),
        Just(SpecBenchmark::Mesa),
        Just(SpecBenchmark::Twolf),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn traces_are_deterministic_per_seed(bench in bench_strategy(), seed in any::<u64>()) {
        let mut a = SyntheticTrace::new(bench.profile(), seed);
        let mut b = SyntheticTrace::new(bench.profile(), seed);
        for _ in 0..500 {
            prop_assert_eq!(a.next_instr(), b.next_instr());
        }
    }

    #[test]
    fn instructions_are_well_formed(bench in bench_strategy(), seed in any::<u64>()) {
        let p = bench.profile();
        let mut t = SyntheticTrace::new(p, seed);
        for _ in 0..2_000 {
            let i = t.next_instr();
            match i.op {
                OpClass::Load | OpClass::Store => {
                    let addr = i.addr.expect("mem op needs an address");
                    prop_assert_eq!(addr % 8, 0, "word aligned");
                    prop_assert!(addr / 64 < p.footprint_blocks as u64 + 1,
                        "address inside the declared footprint");
                    prop_assert!(!i.taken);
                }
                OpClass::Branch => prop_assert!(i.addr.is_none()),
                _ => {
                    prop_assert!(i.addr.is_none());
                    prop_assert!(!i.taken);
                }
            }
            if let Some(d) = i.src1 {
                prop_assert!((1..=64).contains(&d));
            }
            if let Some(d) = i.src2 {
                prop_assert!((1..=64).contains(&d));
            }
        }
    }

    #[test]
    fn mix_fractions_converge(bench in bench_strategy()) {
        let p = bench.profile();
        let mut t = SyntheticTrace::new(p, 7);
        let n = 30_000;
        let mut loads = 0usize;
        let mut branches = 0usize;
        for _ in 0..n {
            match t.next_instr().op {
                OpClass::Load => loads += 1,
                OpClass::Branch => branches += 1,
                _ => {}
            }
        }
        prop_assert!((loads as f64 / n as f64 - p.frac_load).abs() < 0.02);
        prop_assert!((branches as f64 / n as f64 - p.frac_branch).abs() < 0.02);
    }

    #[test]
    fn different_seeds_diverge(bench in bench_strategy(), seed in any::<u64>()) {
        let mut a = SyntheticTrace::new(bench.profile(), seed);
        let mut b = SyntheticTrace::new(bench.profile(), seed.wrapping_add(1));
        let mut same = 0;
        for _ in 0..200 {
            if a.next_instr() == b.next_instr() {
                same += 1;
            }
        }
        prop_assert!(same < 200, "seeds must change the stream");
    }
}
