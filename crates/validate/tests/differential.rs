//! Differential armor: the cycle-level `DataCache` and the naive golden
//! model must agree counter-for-counter on every line-level scheme, over
//! synthetic benchmark traces and adversarial generated ones —
//! port-conflict bursts, majority-dead chips, refresh-deadline edges.

use cachesim::{
    CacheConfig, CounterSpec, DataCache, Geometry, RetentionProfile, Scheme,
};
use proptest::prelude::*;
use uarch::instr::{Instruction, TraceSource};
use validate::{
    default_schemes, named_retention, run_differential, run_differential_models,
    run_differential_with, GoldenCache,
};
use workloads::{SpecBenchmark, SyntheticTrace};

fn synthetic_instrs(bench: SpecBenchmark, seed: u64, len: u64) -> Vec<Instruction> {
    let mut t = SyntheticTrace::new(bench.profile(), seed);
    (0..len).map(|_| t.next_instr()).collect()
}

/// The acceptance-criteria matrix: all 8 synthetic profiles × the three
/// §4.3.3 representative schemes, zero per-counter divergence.
#[test]
fn all_profiles_and_schemes_have_zero_divergence() {
    let retention = named_retention("mixed", 1024).unwrap();
    for bench in SpecBenchmark::ALL {
        let instrs = synthetic_instrs(bench, 42, 4_000);
        for (name, scheme) in default_schemes() {
            let report =
                run_differential(instrs.iter().copied(), scheme, retention.clone(), 0);
            assert!(
                report.within_tolerance(),
                "{bench} × {name}:\n{}",
                report.render_text()
            );
            assert!(report.accesses > 0, "{bench} produced no memory accesses");
        }
    }
}

/// The remaining line-level schemes (RSP-LRU's promotion swaps, full
/// refresh under LRU) get the same treatment on a subset of benches.
#[test]
fn extended_schemes_have_zero_divergence() {
    let retention = named_retention("mixed", 1024).unwrap();
    for bench in [SpecBenchmark::Gcc, SpecBenchmark::Mcf, SpecBenchmark::Twolf] {
        let instrs = synthetic_instrs(bench, 7, 4_000);
        for name in ["rsp-lru", "full-lru"] {
            let scheme = validate::scheme_by_name(name).unwrap();
            let report =
                run_differential(instrs.iter().copied(), scheme, retention.clone(), 0);
            assert!(
                report.within_tolerance(),
                "{bench} × {name}:\n{}",
                report.render_text()
            );
        }
    }
}

/// Majority-dead chips exercise the DSP/RSP dead-way avoidance, the
/// all-ways-dead uncached path, and instant-expiry LRU pathology.
#[test]
fn majority_dead_chips_have_zero_divergence() {
    let retention = named_retention("half-dead", 1024).unwrap();
    for bench in [SpecBenchmark::Gzip, SpecBenchmark::Applu] {
        let instrs = synthetic_instrs(bench, 11, 4_000);
        for (name, scheme) in default_schemes() {
            let report =
                run_differential(instrs.iter().copied(), scheme, retention.clone(), 0);
            assert!(
                report.within_tolerance(),
                "{bench} × {name}:\n{}",
                report.render_text()
            );
        }
    }
}

/// The harness must *detect* divergence, not just bless agreement: LRU
/// fills dead ways on a half-dead chip, DSP never does, so a mismatched
/// pair of models cannot agree on `dead_way_events`.
#[test]
fn mismatched_models_are_reported_as_divergent() {
    let retention = named_retention("half-dead", 1024).unwrap();
    let cfg_lru = CacheConfig::paper(Scheme::no_refresh_lru());
    let cfg_dsp = CacheConfig::paper(Scheme::partial_refresh_dsp());
    let mut dut = DataCache::new(cfg_lru, retention.clone());
    let mut golden = GoldenCache::new(cfg_dsp, retention);
    let instrs = synthetic_instrs(SpecBenchmark::Mcf, 5, 3_000);
    let report = run_differential_models(&mut dut, &mut golden, instrs, 0);
    assert!(
        !report.within_tolerance(),
        "LRU vs DSP on a half-dead chip must diverge:\n{}",
        report.render_text()
    );
    let dead_way = report
        .rows
        .iter()
        .find(|r| r.counter == "dead_way_events")
        .unwrap();
    assert!(dead_way.dut > 0 && dead_way.golden == 0, "{}", report.render_text());
    // ...and the tolerance knob downgrades everything to acceptable.
    let tol = report.max_divergence();
    assert!(report.rows.iter().all(|r| r.delta() <= tol));
}

/// A generated trace over a tiny cache: every access lands in one of a
/// few sets, so port-conflict bursts, evictions, and expiries are dense.
#[derive(Debug, Clone, Copy)]
struct Op {
    gap: u8,
    set: u8,
    tag: u8,
    store: bool,
}

fn op_strategy(max_gap: u8) -> impl Strategy<Value = Op> {
    (0u8..max_gap, any::<u8>(), 0u8..10, any::<bool>()).prop_map(|(gap, set, tag, store)| Op {
        gap,
        set,
        tag,
        store,
    })
}

/// Dense schedules (gap can be 0) provoke same-cycle port conflicts.
fn burst_trace_strategy() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(op_strategy(3), 1..600)
}

fn sparse_trace_strategy() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(op_strategy(50), 1..300)
}

/// Small test geometry: 4 KB / 64 B / 4-way → 16 sets, 64 lines.
fn small_cfg(scheme: Scheme) -> CacheConfig {
    CacheConfig {
        geometry: Geometry::new(4_096, 64, 4),
        ..CacheConfig::paper(scheme)
    }
}

fn ops_to_instrs(cfg: &CacheConfig, ops: &[Op]) -> Vec<Instruction> {
    let g = cfg.geometry;
    let mut out = Vec::new();
    for op in ops {
        // `gap` filler instructions advance the issue slot between
        // accesses; gap 0 packs accesses into the same slot.
        for _ in 0..op.gap {
            out.push(Instruction::int_alu());
        }
        let addr = g.address_of(op.tag as u64, op.set as u32 % g.sets());
        out.push(if op.store {
            Instruction::store(addr, None)
        } else {
            Instruction::load(addr, None)
        });
    }
    out
}

/// Retention patterns aimed at the refresh-deadline edge cases: values
/// straddling the counter quantization step (1024), the refresh guard
/// (512), and the dead threshold.
fn retention_strategy(lines: usize) -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(
        prop_oneof![
            0u64..700,          // dead lines
            900u64..1_200,      // straddles one counter step
            1_500u64..2_600,    // short-lived: partial refresh targets
            5_000u64..9_000,    // around the partial threshold (6000)
            20_000u64..60_000,  // long-lived
        ],
        lines,
    )
}

fn scheme_strategy() -> impl Strategy<Value = Scheme> {
    prop_oneof![
        Just(Scheme::no_refresh_lru()),
        Just(Scheme::partial_refresh_dsp()),
        Just(Scheme::rsp_fifo()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Port-conflict bursts: dense same-slot accesses, arbitrary chips.
    #[test]
    fn burst_traces_never_diverge(ops in burst_trace_strategy(),
                                  rets in retention_strategy(64),
                                  scheme in scheme_strategy()) {
        let cfg = small_cfg(scheme);
        let instrs = ops_to_instrs(&cfg, &ops);
        let report = run_differential_with(
            cfg, instrs, RetentionProfile::PerLine(rets), 0);
        prop_assert!(report.within_tolerance(), "{}", report.render_text());
    }

    /// Majority-dead chips (> 50 % of lines dead) under sparse traffic:
    /// expiry processing and dead-way paths dominate.
    #[test]
    fn mostly_dead_chips_never_diverge(ops in sparse_trace_strategy(),
                                       seed in any::<u8>(),
                                       scheme in scheme_strategy()) {
        let cfg = small_cfg(scheme);
        // 5 of every 8 lines dead, phase-shifted by the seed.
        let rets: Vec<u64> = (0..64u64)
            .map(|i| match (i + seed as u64) % 8 {
                0 => 500,
                1 => 30_000,
                2 => 800,
                3 => 20_000,
                4 => 300,
                5 => 900,
                6 => 15_000,
                _ => 600,
            })
            .collect();
        let instrs = ops_to_instrs(&cfg, &ops);
        let report = run_differential_with(
            cfg, instrs, RetentionProfile::PerLine(rets), 0);
        prop_assert!(report.within_tolerance(), "{}", report.render_text());
    }

    /// Refresh-deadline edges: full refresh with retentions close to the
    /// guard and quantization boundaries, plus long idle jumps so expiry
    /// and refresh backlogs land in single `advance` calls.
    #[test]
    fn refresh_deadline_edges_never_diverge(ops in sparse_trace_strategy(),
                                            rets in retention_strategy(64),
                                            full in any::<bool>()) {
        let scheme = if full {
            validate::scheme_by_name("full-lru").unwrap()
        } else {
            Scheme::partial_refresh_dsp()
        };
        let cfg = small_cfg(scheme);
        let instrs = ops_to_instrs(&cfg, &ops);
        let report = run_differential_with(
            cfg, instrs, RetentionProfile::PerLine(rets), 0);
        prop_assert!(report.within_tolerance(), "{}", report.render_text());
    }

    /// Coarser counter quantization changes every usable-lifetime value;
    /// the models must track each other through the spec, not just the
    /// default.
    #[test]
    fn counter_spec_variations_never_diverge(ops in sparse_trace_strategy(),
                                             rets in retention_strategy(64),
                                             bits in 2u32..5,
                                             scheme in scheme_strategy()) {
        let mut cfg = small_cfg(scheme);
        cfg.counter = CounterSpec { step_cycles: 2_048, bits };
        let instrs = ops_to_instrs(&cfg, &ops);
        let report = run_differential_with(
            cfg, instrs, RetentionProfile::PerLine(rets), 0);
        prop_assert!(report.within_tolerance(), "{}", report.render_text());
    }
}

/// A dirty fill into a dead way expires in the cycle it is made
/// (usable 0, so deadline = fill cycle). The golden model must drain it
/// at the very next access in the same issue slot, exactly as the engine
/// under test does, even though no earlier access left any key due.
#[test]
fn same_cycle_dead_way_dirty_fill_is_drained_at_the_next_access() {
    use cachesim::{AccessKind, AccessReplayer};
    use validate::{dut_counters, DRAIN_CYCLES};

    for name in ["no-refresh-lru", "full-lru"] {
        let cfg = small_cfg(validate::scheme_by_name(name).unwrap());
        // Every line dead: below one counter step, so usable is 0.
        let retention = RetentionProfile::PerLine(vec![500; cfg.geometry.lines() as usize]);
        let mut dut = DataCache::new(cfg, retention.clone());
        let mut golden = GoldenCache::new(cfg, retention);
        let (mut rep_dut, mut rep_golden) = (AccessReplayer::new(), AccessReplayer::new());
        let addr = cfg.geometry.address_of(1, 0);
        let schedule = [
            (10, AccessKind::Store), // tag miss, dirty fill of a dead way
            (10, AccessKind::Load),  // same slot: the fill is already due
            (11, AccessKind::Load),  // one slot later
        ];
        for (k, &(slot, kind)) in schedule.iter().enumerate() {
            let r_dut = rep_dut.step(&mut dut, slot, addr, kind);
            let r_golden = rep_golden.step(&mut golden, slot, addr, kind);
            assert_eq!(r_dut, r_golden, "{name}: access {k} result");
            assert_eq!(
                rep_dut.cycle(),
                rep_golden.cycle(),
                "{name}: access {k} cycle"
            );
            assert_eq!(
                dut_counters(&dut),
                *golden.counters(),
                "{name}: after access {k}"
            );
        }
        assert_eq!(
            golden.counters().dead_way_events,
            3,
            "{name}: every fill hit a dead way"
        );
        let drain_at = rep_dut.cycle() + DRAIN_CYCLES;
        dut.advance(drain_at);
        golden.advance(drain_at);
        assert_eq!(
            dut_counters(&dut),
            *golden.counters(),
            "{name}: after drain"
        );
    }
}
