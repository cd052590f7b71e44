//! Golden regression pinning every pipeline and cache counter of single
//! benchmark runs: each `SimResult` field (the value-age histogram
//! included) and each `CacheStats` field, for gzip and mcf at quick scale.
//!
//! The configurations cover the ideal cache, three retention schemes on
//! the median chip of a severe 32 nm population, and one in-order run, so
//! the out-of-order scheduler, the in-order scan, port retries, replay
//! flushes and the dispatch-blocked and ROB-full stall counts all sit
//! under a pin. (Neither benchmark fills both issue queues; the uarch
//! test `issue_queue_full_stalls_are_counted_exactly` pins that count.)
//! Any change to the cycle loop that is meant to be a pure speed-up must
//! leave these values untouched.
//!
//! If a deliberate model change moves them, re-derive the table with
//! `cargo test -p pv3t1d-t3cache --test golden_pipeline -- --nocapture`
//! (the test prints every run's row and full counters) and update it in
//! the same commit as the model change.

use cachesim::{CacheStats, Scheme};
use t3cache::chip::{ChipGrade, ChipPopulation};
use t3cache::evaluate::{EvalConfig, Evaluator, SuiteResult};
use uarch::sim::SimResult;
use uarch::MachineConfig;
use vlsi::tech::TechNode;
use vlsi::variation::VariationCorner;
use workloads::SpecBenchmark;

/// (configuration, benchmark, cycles, port retries, replay flushes,
/// FNV-1a of the `Debug` text of the run's `(SimResult, CacheStats)`).
/// The digest covers every field; the three counts are spelled out so a
/// failure says at a glance whether timing moved.
const GOLDEN: &[(&str, &str, u64, u64, u64, u64)] = &[
    ("ideal", "gzip", 54484, 1097, 0, 0x64d59a372377169a),
    ("ideal", "mcf", 154783, 1336, 0, 0xab75aee65a1af413),
    (
        "no-refresh-lru",
        "gzip",
        56942,
        996,
        288,
        0xdd667f350cc534dc,
    ),
    (
        "no-refresh-lru",
        "mcf",
        160714,
        1147,
        1652,
        0xc9759fc56b83f233,
    ),
    ("partial-dsp", "gzip", 55578, 1262, 96, 0xfc99cd39a6f61634),
    ("partial-dsp", "mcf", 157933, 1687, 789, 0x6ea40ca5af650726),
    ("rsp-fifo", "gzip", 55174, 1235, 39, 0x51888ff67bbadfb9),
    ("rsp-fifo", "mcf", 156907, 4646, 359, 0x4aa507d12adb9ff8),
    (
        "in-order rsp-fifo",
        "gzip",
        85838,
        677,
        50,
        0x2798b67cafafe47e,
    ),
    (
        "in-order rsp-fifo",
        "mcf",
        391098,
        1395,
        471,
        0x3583d074cb3fbe72,
    ),
];

/// FNV-1a 64 over a byte string.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

fn evaluator(machine: MachineConfig) -> Evaluator {
    Evaluator::new(EvalConfig {
        benchmarks: vec![SpecBenchmark::Gzip, SpecBenchmark::Mcf],
        machine,
        ..EvalConfig::quick()
    })
}

#[test]
fn pipeline_and_cache_counters_are_pinned() {
    let pop = ChipPopulation::generate(TechNode::N32, VariationCorner::Severe.params(), 8, 20_244);
    let profile = pop.select(ChipGrade::Median).retention_profile();
    let ooo = evaluator(MachineConfig::TABLE2);
    let in_order = evaluator(MachineConfig::table2_in_order());

    let suites: Vec<(&str, SuiteResult)> = vec![
        ("ideal", ooo.run_ideal(4)),
        (
            "no-refresh-lru",
            ooo.run_scheme(profile, Scheme::no_refresh_lru(), 4),
        ),
        (
            "partial-dsp",
            ooo.run_scheme(profile, Scheme::partial_refresh_dsp(), 4),
        ),
        ("rsp-fifo", ooo.run_scheme(profile, Scheme::rsp_fifo(), 4)),
        (
            "in-order rsp-fifo",
            in_order.run_scheme(profile, Scheme::rsp_fifo(), 4),
        ),
    ];

    let mut measured = Vec::new();
    for (label, suite) in &suites {
        for run in &suite.runs {
            let pair: (SimResult, CacheStats) = (run.sim, run.cache);
            let digest = fnv1a64(format!("{pair:?}").as_bytes());
            let bench = run.bench.to_string();
            println!(
                "(\"{label}\", \"{bench}\", {}, {}, {}, 0x{digest:016x}),",
                run.sim.cycles, run.sim.port_retries, run.sim.replay_flushes
            );
            println!("    // {pair:?}");
            measured.push((
                label.to_string(),
                bench,
                run.sim.cycles,
                run.sim.port_retries,
                run.sim.replay_flushes,
                digest,
            ));
        }
    }

    // The configurations must exercise what they are here to pin.
    let by_label = |l: &str| {
        suites
            .iter()
            .find(|(n, _)| *n == l)
            .map(|(_, s)| s)
            .unwrap()
    };
    let sum =
        |s: &SuiteResult, f: fn(&SimResult) -> u64| s.runs.iter().map(|r| f(&r.sim)).sum::<u64>();
    assert!(
        sum(by_label("rsp-fifo"), |r| r.port_retries) > 0,
        "no port retries pinned"
    );
    assert!(
        sum(by_label("no-refresh-lru"), |r| r.replay_flushes) > 0,
        "no replay flushes pinned"
    );
    assert!(sum(by_label("ideal"), |r| r.dispatch_blocked_cycles) > 0);
    assert!(sum(by_label("ideal"), |r| r.rob_full_stalls) > 0);

    assert_eq!(measured.len(), GOLDEN.len(), "configuration set changed");
    for (m, g) in measured.iter().zip(GOLDEN) {
        let (label, bench, cycles, retries, flushes, digest) = m;
        assert_eq!(
            (label.as_str(), bench.as_str()),
            (g.0, g.1),
            "run order changed"
        );
        assert_eq!(
            (*cycles, *retries, *flushes),
            (g.2, g.3, g.4),
            "{label}/{bench}: cycles, port retries or replay flushes drifted"
        );
        assert_eq!(
            *digest, g.5,
            "{label}/{bench}: a pipeline or cache counter drifted"
        );
    }
}
