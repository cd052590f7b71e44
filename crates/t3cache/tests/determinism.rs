//! The PR's headline determinism contract, end to end: an identical
//! campaign on one worker and on eight workers must produce bit-identical
//! merged results AND bit-identical exported metrics — scheduling may only
//! change the timing metrics, which the fingerprint excludes by naming
//! convention.

use cachesim::Scheme;
use t3cache::campaign::{evaluate_grid_with_workers, map_indexed_with_workers};
use t3cache::chip::{ChipModel, ChipPopulation};
use t3cache::evaluate::{EvalConfig, Evaluator};
use vlsi::tech::TechNode;
use vlsi::variation::VariationCorner;
use workloads::SpecBenchmark;

fn small_campaign(workers: usize) -> (t3cache::campaign::CampaignResult, Vec<String>, Evaluator) {
    let pop = ChipPopulation::generate(TechNode::N32, VariationCorner::Severe.params(), 4, 20_244);
    let chips: Vec<&ChipModel> = pop.chips().iter().collect();
    let schemes = [
        Scheme::no_refresh_lru(),
        Scheme::partial_refresh_dsp(),
        Scheme::rsp_fifo(),
    ];
    let eval = Evaluator::new(EvalConfig {
        benchmarks: vec![SpecBenchmark::Gzip, SpecBenchmark::Mcf],
        ..EvalConfig::quick()
    });
    let ideal = eval.run_ideal(4);
    let result = evaluate_grid_with_workers(&eval, &chips, &schemes, &ideal, workers);
    let labels = schemes.iter().map(|s| s.to_string()).collect();
    (result, labels, eval)
}

#[test]
fn campaign_one_vs_eight_workers_is_bit_identical() {
    let (serial, labels, _) = small_campaign(1);
    let (parallel, _, _) = small_campaign(8);

    // Merged per-unit results: bit-exact f64 equality, not tolerance.
    assert_eq!(serial.grid.len(), parallel.grid.len());
    for (s, (row_s, row_p)) in serial.grid.iter().zip(&parallel.grid).enumerate() {
        for (c, (a, b)) in row_s.iter().zip(row_p).enumerate() {
            assert_eq!(
                a.perf.to_bits(),
                b.perf.to_bits(),
                "perf diverged at scheme {s} chip {c}"
            );
            assert_eq!(
                a.power.to_bits(),
                b.power.to_bits(),
                "power diverged at scheme {s} chip {c}"
            );
            assert_eq!(a.cache, b.cache, "cache counters diverged at {s}/{c}");
            assert_eq!(a.sim, b.sim, "pipeline counters diverged at {s}/{c}");
        }
    }

    // The scheduling telemetry is the one thing allowed to differ.
    assert_eq!(serial.report.workers, 1);
    assert_eq!(parallel.report.workers, 8.min(serial.report.units));

    // Metrics-level contract: export both runs, serialize and parse them
    // back, and compare the result-metric fingerprints byte for byte.
    let mut fingerprints = Vec::new();
    for result in [&serial, &parallel] {
        let mut metrics = obs::MetricsRegistry::new();
        result.export(&mut metrics, &labels);
        result.report.export(&mut metrics);
        let text = metrics.to_json().render();
        let back = obs::MetricsRegistry::from_json(&obs::Json::parse(&text).unwrap()).unwrap();
        fingerprints.push(back.deterministic_fingerprint());
    }
    assert!(!fingerprints[0].is_empty(), "fingerprint must cover result metrics");
    assert_eq!(
        fingerprints[0], fingerprints[1],
        "result metrics must not depend on the worker count"
    );
}

#[test]
fn tracing_cannot_change_results_and_sees_the_whole_stack() {
    // Capture-on vs capture-off runs of the same campaign must fingerprint
    // bit-identically: tracing is observation only.
    let fingerprint = |result: &t3cache::campaign::CampaignResult, labels: &[String]| {
        let mut metrics = obs::MetricsRegistry::new();
        result.export(&mut metrics, labels);
        metrics.deterministic_fingerprint()
    };

    let (base, labels, _) = small_campaign(2);
    let fp_off = fingerprint(&base, &labels);

    obs::trace::enable(1 << 16);
    let (traced, labels_on, _) = small_campaign(2);
    obs::trace::disable();
    let doc = obs::trace::export();
    obs::trace::clear();
    let fp_on = fingerprint(&traced, &labels_on);
    assert_eq!(
        fp_off, fp_on,
        "enabling the tracer must not perturb campaign results"
    );

    // The one capture must hold events from the whole stack: campaign
    // orchestration (t3cache), the pipeline (uarch), and cache domain
    // events (cachesim) — plus at least two distinct domain event types.
    use std::collections::BTreeSet;
    let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
    let cats: BTreeSet<&str> = events
        .iter()
        .filter_map(|e| e.get("cat").and_then(obs::Json::as_str))
        .collect();
    for cat in ["t3cache", "uarch", "cachesim"] {
        assert!(cats.contains(cat), "no {cat} events in {cats:?}");
    }
    let domain: BTreeSet<&str> = events
        .iter()
        .filter_map(|e| e.get("name").and_then(obs::Json::as_str))
        .filter(|n| {
            [
                "refresh.issued",
                "refresh.completed",
                "line.dead",
                "eviction.retention",
                "stall.run",
                "port.retry",
                "replay.flush",
            ]
            .contains(n)
        })
        .collect();
    assert!(
        domain.len() >= 2,
        "expected at least two domain event types, got {domain:?}"
    );
}

#[test]
fn map_indexed_merge_order_is_worker_count_invariant() {
    // The raw engine primitive behind every campaign: results land in
    // submission order regardless of which worker computed them.
    for workers in [2, 3, 8, 16] {
        let (serial, _) = map_indexed_with_workers(37, 1, |i| (i, i * i));
        let (parallel, report) = map_indexed_with_workers(37, workers, |i| (i, i * i));
        assert_eq!(serial, parallel, "worker count {workers} reordered results");
        assert_eq!(report.per_worker_units.iter().sum::<usize>(), 37);
    }
}
