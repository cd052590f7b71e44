//! Calibration bands for the synthetic benchmark profiles.
//!
//! These tests pin the emergent behavior of each profile on the Table 2
//! machine with an ideal cache: L1D miss rate, IPC, and branch
//! misprediction rate must stay inside loose bands around the published
//! SPEC2000 characteristics, and the per-benchmark ordering the paper's
//! arguments rely on (mcf memory-bound, mesa cache-friendly, ≈30 % average
//! port utilization) must hold.

use cachesim::DataCache;
use uarch::sim::simulate_warmed;
use workloads::{SpecBenchmark, SyntheticTrace};

struct Measured {
    ipc: f64,
    miss_rate: f64,
    mispredict: f64,
    refs_per_cycle: f64,
    cdf6k: f64,
}

fn measure(bench: SpecBenchmark, seed: u64) -> Measured {
    let mut trace = SyntheticTrace::new(bench.profile(), seed);
    let mut cache = DataCache::ideal();
    let (r, stats) = simulate_warmed(&mut trace, &mut cache, 60_000, 120_000);
    let cdf = stats.hit_age_cdf();
    Measured {
        ipc: r.ipc(),
        miss_rate: stats.miss_rate(),
        mispredict: r.mispredict_rate(),
        refs_per_cycle: stats.accesses() as f64 / r.cycles as f64,
        cdf6k: cdf.get(5).map(|x| x.1).unwrap_or(0.0),
    }
}

fn band(bench: SpecBenchmark, lo: f64, hi: f64, v: f64, what: &str) {
    assert!(
        v >= lo && v <= hi,
        "{bench} {what} = {v:.4}, expected [{lo}, {hi}]"
    );
}

#[test]
fn miss_rate_bands() {
    for (bench, lo, hi) in [
        (SpecBenchmark::Applu, 0.015, 0.05),
        (SpecBenchmark::Crafty, 0.004, 0.025),
        (SpecBenchmark::Fma3d, 0.012, 0.045),
        (SpecBenchmark::Gcc, 0.012, 0.045),
        (SpecBenchmark::Gzip, 0.007, 0.035),
        (SpecBenchmark::Mcf, 0.10, 0.24),
        (SpecBenchmark::Mesa, 0.002, 0.02),
        (SpecBenchmark::Twolf, 0.04, 0.12),
    ] {
        band(bench, lo, hi, measure(bench, 11).miss_rate, "miss rate");
    }
}

#[test]
fn ipc_bands() {
    for (bench, lo, hi) in [
        (SpecBenchmark::Applu, 0.7, 1.4),
        (SpecBenchmark::Crafty, 0.95, 1.7),
        (SpecBenchmark::Fma3d, 0.65, 1.3),
        (SpecBenchmark::Gcc, 0.65, 1.3),
        (SpecBenchmark::Gzip, 0.9, 1.6),
        (SpecBenchmark::Mcf, 0.2, 0.7),
        (SpecBenchmark::Mesa, 1.1, 2.0),
        (SpecBenchmark::Twolf, 0.3, 0.85),
    ] {
        band(bench, lo, hi, measure(bench, 12).ipc, "IPC");
    }
}

#[test]
fn mispredict_bands() {
    for (bench, lo, hi) in [
        (SpecBenchmark::Applu, 0.005, 0.13),
        (SpecBenchmark::Crafty, 0.05, 0.18),
        (SpecBenchmark::Gcc, 0.05, 0.16),
        (SpecBenchmark::Mesa, 0.005, 0.08),
    ] {
        band(bench, lo, hi, measure(bench, 13).mispredict, "mispredict rate");
    }
}

#[test]
fn mcf_is_memory_bound_and_mesa_is_not() {
    let mcf = measure(SpecBenchmark::Mcf, 14);
    let mesa = measure(SpecBenchmark::Mesa, 14);
    assert!(mcf.miss_rate > 8.0 * mesa.miss_rate);
    assert!(mesa.ipc > 2.5 * mcf.ipc);
}

#[test]
fn average_port_utilization_is_moderate() {
    // §4.1: "cache traffic is usually no more than 30% on average" —
    // the refresh-hiding headroom argument depends on this.
    let mut total = 0.0;
    for bench in SpecBenchmark::ALL {
        total += measure(bench, 15).refs_per_cycle;
    }
    let avg = total / 8.0;
    assert!(avg > 0.15 && avg < 0.45, "avg port traffic {avg}");
}

#[test]
fn figure1_shape_most_references_are_young() {
    // Fig. 1: on average ≈90 % of references land within 6 K cycles of the
    // line's load; allow a generous band for the scaled-down windows.
    let mut total = 0.0;
    for bench in SpecBenchmark::ALL {
        let m = measure(bench, 16);
        assert!(m.cdf6k > 0.6, "{bench} cdf@6k {}", m.cdf6k);
        total += m.cdf6k;
    }
    let avg = total / 8.0;
    assert!(avg > 0.75, "average cdf@6k {avg}");
}
