//! Golden regression pinning every pipeline and cache counter of single
//! benchmark runs: each `SimResult` field (the value-age histogram
//! included) and each `CacheStats` field, at quick scale.
//!
//! The first table covers gzip and mcf under the ideal cache and three
//! retention schemes on the median chip of a severe 32 nm population, out
//! of order, plus the ideal cache, no-refresh/LRU and RSP-FIFO in order.
//! So both issue disciplines, port retries, replay flushes
//! (no-refresh/LRU drives the most) and the dispatch-blocked and ROB-full
//! stall counts all sit under a pin. (Neither benchmark fills both issue
//! queues; the uarch test `issue_queue_full_stalls_are_counted_exactly`
//! pins that count.) The second table widens the pin: the six other
//! benchmarks under the ideal cache and RSP-FIFO, and gzip and mcf under
//! RSP-LRU (promotion line moves) and full refresh (the refresh queue).
//! Any change to the cycle loop that is meant to be a pure speed-up must
//! leave these values untouched.
//!
//! If a deliberate model change moves them, re-derive the table with
//! `cargo test -p pv3t1d-t3cache --test golden_pipeline -- --nocapture`
//! (the test prints every run's row and full counters) and update it in
//! the same commit as the model change.

use cachesim::{CacheStats, RefreshPolicy, ReplacementPolicy, RetentionProfile, Scheme};
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
    ("in-order ideal", "gzip", 81462, 657, 0, 0xf64fce15275b450e),
    ("in-order ideal", "mcf", 379124, 1068, 0, 0x8e95624b3b9b752f),
    (
        "in-order no-refresh-lru",
        "gzip",
        88314,
        654,
        304,
        0x2c51e0bb24af3cea,
    ),
    (
        "in-order no-refresh-lru",
        "mcf",
        400543,
        1066,
        1865,
        0xf5d15723a9250996,
    ),
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

/// The wider pin, in the same row format: the six other benchmarks under
/// the ideal cache and RSP-FIFO, then gzip and mcf under RSP-LRU and full
/// refresh with LRU placement, all out of order on the same chip.
const GOLDEN_WIDE: &[(&str, &str, u64, u64, u64, u64)] = &[
    ("ideal", "applu", 58843, 1693, 0, 0x1fa38d01d1ef7c29),
    ("ideal", "crafty", 50566, 1425, 0, 0x7ba7b2ec3d67f06b),
    ("ideal", "fma3d", 60555, 2019, 0, 0x166c415a74f08c99),
    ("ideal", "gcc", 67877, 1775, 0, 0x377727e4d6a31aac),
    ("ideal", "mesa", 39490, 1531, 0, 0x724b4468a702bf8d),
    ("ideal", "twolf", 107031, 999, 0, 0x853bf30f8952338b),
    ("rsp-fifo", "applu", 60163, 2806, 106, 0x412765541a9a8a56),
    ("rsp-fifo", "crafty", 51356, 1627, 78, 0x8cb438b16a64d910),
    ("rsp-fifo", "fma3d", 61439, 2923, 96, 0x9dbf32fcc0cf84cc),
    ("rsp-fifo", "gcc", 68635, 2386, 60, 0x1d8e9b3cdd5e1fbe),
    ("rsp-fifo", "mesa", 39757, 1569, 17, 0x8ded440d0ab8b0fa),
    ("rsp-fifo", "twolf", 108688, 2113, 188, 0x064357ee5fcb865a),
    ("rsp-lru", "gzip", 55312, 3507, 41, 0x4fa3320551eac551),
    ("rsp-lru", "mcf", 157042, 6794, 362, 0x0549a5fb1a29e66d),
    ("full-lru", "gzip", 55211, 5047, 0, 0x9e0aa5d18b22fd78),
    ("full-lru", "mcf", 157139, 5437, 0, 0x62b3b8b237d9573f),
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

/// The two benchmarks every configuration of the first table runs.
const PAIR: [SpecBenchmark; 2] = [SpecBenchmark::Gzip, SpecBenchmark::Mcf];

fn evaluator(benchmarks: &[SpecBenchmark], machine: MachineConfig) -> Evaluator {
    Evaluator::new(EvalConfig {
        benchmarks: benchmarks.to_vec(),
        machine,
        ..EvalConfig::quick()
    })
}

/// The median chip of a severe 32 nm population.
fn median_chip() -> RetentionProfile {
    let pop = ChipPopulation::generate(TechNode::N32, VariationCorner::Severe.params(), 8, 20_244);
    pop.select(ChipGrade::Median).retention_profile().clone()
}

type Row = (String, String, u64, u64, u64, u64);

/// Prints every run's golden row and full counters, and returns the rows.
fn measure(suites: &[(&str, SuiteResult)]) -> Vec<Row> {
    let mut measured = Vec::new();
    for (label, suite) in suites {
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
    measured
}

/// Asserts the measured rows equal a golden table, row by row.
fn check(measured: &[Row], golden: &[(&str, &str, u64, u64, u64, u64)]) {
    assert_eq!(measured.len(), golden.len(), "configuration set changed");
    for (m, g) in measured.iter().zip(golden) {
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

#[test]
fn pipeline_and_cache_counters_are_pinned() {
    let profile = median_chip();
    let ooo = evaluator(&PAIR, MachineConfig::TABLE2);
    let in_order = evaluator(&PAIR, MachineConfig::table2_in_order());

    let suites: Vec<(&str, SuiteResult)> = vec![
        ("ideal", ooo.run_ideal(4)),
        (
            "no-refresh-lru",
            ooo.run_scheme(&profile, Scheme::no_refresh_lru(), 4),
        ),
        (
            "partial-dsp",
            ooo.run_scheme(&profile, Scheme::partial_refresh_dsp(), 4),
        ),
        ("rsp-fifo", ooo.run_scheme(&profile, Scheme::rsp_fifo(), 4)),
        ("in-order ideal", in_order.run_ideal(4)),
        (
            "in-order no-refresh-lru",
            in_order.run_scheme(&profile, Scheme::no_refresh_lru(), 4),
        ),
        (
            "in-order rsp-fifo",
            in_order.run_scheme(&profile, Scheme::rsp_fifo(), 4),
        ),
    ];
    let measured = measure(&suites);

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

    check(&measured, GOLDEN);
}

#[test]
fn other_benchmarks_and_schemes_are_pinned() {
    let profile = median_chip();
    let others: Vec<SpecBenchmark> = SpecBenchmark::ALL
        .into_iter()
        .filter(|b| !PAIR.contains(b))
        .collect();
    let wide = evaluator(&others, MachineConfig::TABLE2);
    let pair = evaluator(&PAIR, MachineConfig::TABLE2);
    let full_lru = Scheme::new(RefreshPolicy::Full, ReplacementPolicy::Lru);

    let suites: Vec<(&str, SuiteResult)> = vec![
        ("ideal", wide.run_ideal(4)),
        ("rsp-fifo", wide.run_scheme(&profile, Scheme::rsp_fifo(), 4)),
        ("rsp-lru", pair.run_scheme(&profile, Scheme::rsp_lru(), 4)),
        ("full-lru", pair.run_scheme(&profile, full_lru, 4)),
    ];
    let measured = measure(&suites);

    // RSP-LRU must move lines and full refresh must refresh them.
    let cache_sum = |l: &str, f: fn(&CacheStats) -> u64| {
        let (_, s) = suites.iter().find(|(n, _)| *n == l).unwrap();
        s.runs.iter().map(|r| f(&r.cache)).sum::<u64>()
    };
    assert!(
        cache_sum("rsp-lru", |c| c.line_moves) > 0,
        "no line moves pinned"
    );
    assert!(
        cache_sum("full-lru", |c| c.refreshes) > 0,
        "no refreshes pinned"
    );

    check(&measured, GOLDEN_WIDE);
}
