//! The campaign fan-out must pay off on a multi-CPU host: the same grid
//! on two workers runs at least 1.5× as fast as on one.
//!
//! A timing check, so it is `#[ignore]`d and meant for an optimized
//! build on an otherwise idle machine:
//!
//! ```text
//! cargo test --release -p pv3t1d-t3cache --test parallel_speedup -- --ignored --nocapture
//! ```
//!
//! On a host with fewer than two CPUs it passes without measuring.

use cachesim::Scheme;
use std::time::Instant;
use t3cache::campaign::evaluate_grid_with_workers;
use t3cache::chip::{ChipModel, ChipPopulation};
use t3cache::evaluate::{EvalConfig, Evaluator};
use vlsi::tech::TechNode;
use vlsi::variation::VariationCorner;
use workloads::SpecBenchmark;

/// Floor on two-worker over one-worker campaign throughput; generous
/// room below the ideal 2× for noisy shared runners.
const SPEEDUP_FLOOR: f64 = 1.5;

#[test]
#[ignore = "timing check; run in release with --ignored"]
fn two_workers_beat_one_by_the_floor() {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cpus < 2 {
        println!("{cpus} CPU: speedup floor not applicable");
        return;
    }
    let pop = ChipPopulation::generate(TechNode::N32, VariationCorner::Typical.params(), 4, 9_001);
    let chips: Vec<&ChipModel> = pop.chips().iter().collect();
    let schemes = [Scheme::no_refresh_lru(), Scheme::rsp_fifo()];
    let eval = Evaluator::new(EvalConfig {
        benchmarks: vec![SpecBenchmark::Gzip],
        instructions: 20_000,
        warmup: 5_000,
        ..EvalConfig::quick()
    });
    eval.warm_traces();
    let ideal = eval.run_ideal(4);

    let seconds = |workers: usize| {
        let t0 = Instant::now();
        let _ = evaluate_grid_with_workers(&eval, &chips, &schemes, &ideal, workers);
        t0.elapsed().as_secs_f64()
    };
    let (serial, parallel) = (seconds(1), seconds(2));
    let speedup = serial / parallel;
    println!("cpus={cpus} 1 worker {serial:.3}s, 2 workers {parallel:.3}s, speedup {speedup:.3}");
    assert!(
        speedup >= SPEEDUP_FLOOR,
        "campaign speedup {speedup:.3} at 2 workers is below the {SPEEDUP_FLOOR} floor"
    );
}
