//! Workload stages: Figure 1 (cache reference age CDF) and the synthetic
//! workload calibration report behind DESIGN.md substitution #2. Both run
//! each benchmark through the Table 2 machine with an ideal cache, so the
//! numbers reflect program behavior, not retention.
//!
//! Fig. 1 paper shape: most references land within the first 6 K cycles
//! of a line's lifetime (≈90 % on average), with the CDF flattening past
//! ≈10 K.

use super::StageOutput;
use crate::RunScale;
use cachesim::DataCache;
use std::fmt::Write as _;
use uarch::sim::simulate_warmed;
use workloads::{analyze, SpecBenchmark, SyntheticTrace};

/// Runs Figure 1: percentage of cache references vs cycles since the line
/// was loaded, per benchmark plus the average.
pub fn fig01(scale: &RunScale) -> StageOutput {
    let mut out = StageOutput::new("fig01");
    out.seed = Some(1);
    out.banner(
        "Figure 1",
        "cache reference age CDF (cycles since line load)",
    );

    let marks = [2_048u64, 4_096, 6_144, 10_240, 15_360, 20_480];
    let _ = writeln!(
        out.text,
        "{:<8} {}",
        "bench",
        marks
            .iter()
            .map(|m| format!("{:>8}", format!("<{}k", m / 1024)))
            .collect::<String>()
    );

    let mut avg = vec![0.0f64; marks.len()];
    for bench in SpecBenchmark::ALL {
        let mut trace = SyntheticTrace::new(bench.profile(), 1);
        let mut cache = DataCache::ideal();
        let icache = trace.icache_miss_rate();
        let (_, stats) = simulate_warmed(
            &mut trace,
            &mut cache,
            scale.warmup,
            scale.instructions * 2,
            icache,
        );
        let cdf = stats.hit_age_cdf();
        let at = |cycles: u64| -> f64 {
            cdf.iter()
                .find(|(bound, _)| *bound >= cycles)
                .map(|(_, f)| *f)
                .unwrap_or(1.0)
        };
        let row: Vec<f64> = marks.iter().map(|&m| at(m)).collect();
        stats.export(&mut out.metrics, &format!("cache.{bench}"));
        for (&m, &f) in marks.iter().zip(&row) {
            out.metrics
                .set_gauge(&format!("cdf.{bench}.under_{}k", m / 1024), f);
        }
        let _ = writeln!(
            out.text,
            "{:<8} {}",
            bench.to_string(),
            row.iter()
                .map(|f| format!("{:>7.1}%", f * 100.0))
                .collect::<String>()
        );
        for (a, r) in avg.iter_mut().zip(&row) {
            *a += r / 8.0;
        }
    }
    let _ = writeln!(
        out.text,
        "{:<8} {}",
        "average",
        avg.iter()
            .map(|f| format!("{:>7.1}%", f * 100.0))
            .collect::<String>()
    );
    let _ = writeln!(out.text);
    out.compare(
        "average fraction of references within 6K cycles",
        avg[2],
        "~0.90 (Fig. 1)",
    );
    out.compare(
        "average fraction within 20K cycles",
        avg[5],
        "~0.97+ (Fig. 1 tail)",
    );
    out
}

/// Runs the workload calibration report: measured properties of each
/// synthetic benchmark stream — on the trace itself (mix, stack
/// distances, footprint) and on the Table 2 machine with an ideal cache
/// (IPC, miss rate, mispredicts, reference rate, L2 filtering) — plus the
/// suite's harmonic-mean IPC.
pub fn workload_report(scale: &RunScale) -> StageOutput {
    let mut out = StageOutput::new("workload_report");
    out.banner("Workloads", "synthetic SPEC2000 profile calibration report");
    let _ = writeln!(
        out.text,
        "{:<8} {:>6} {:>6} {:>6} {:>8} {:>7} {:>7} {:>7} {:>8} {:>8} {:>8} {:>8} {:>7}",
        "bench",
        "load%",
        "store%",
        "br%",
        "footprnt",
        "near%",
        "cold%",
        "IPC",
        "missrate",
        "mispred",
        "dtlbMPKI",
        "refs/cyc",
        "L2/L1"
    );
    let mut ipcs = Vec::new();
    for bench in SpecBenchmark::ALL {
        let mut t = SyntheticTrace::new(bench.profile(), 11);
        let s = analyze(&mut t, scale.instructions);

        let mut trace = SyntheticTrace::new(bench.profile(), 11);
        let mut cache = DataCache::ideal();
        let icache = trace.icache_miss_rate();
        let (r, cs) = simulate_warmed(
            &mut trace,
            &mut cache,
            scale.warmup,
            scale.instructions,
            icache,
        );
        let _ = writeln!(
            out.text,
            "{:<8} {:>5.1}% {:>5.1}% {:>5.1}% {:>8} {:>6.1}% {:>6.2}% {:>7.3} {:>7.2}% {:>7.2}% {:>8.2} {:>8.3} {:>7.2}",
            bench.to_string(),
            s.frac_load * 100.0,
            s.frac_store * 100.0,
            s.frac_branch * 100.0,
            s.footprint_blocks,
            s.near_fraction() * 100.0,
            s.cold_fraction() * 100.0,
            r.ipc(),
            cs.miss_rate() * 100.0,
            r.mispredict_rate() * 100.0,
            r.dtlb_misses as f64 * 1000.0 / r.instructions as f64,
            cs.accesses() as f64 / r.cycles as f64,
            cs.l2_misses as f64 / cs.misses().max(1) as f64
        );
        ipcs.push(r.ipc());
    }
    let hm = ipcs.len() as f64 / ipcs.iter().map(|x| 1.0 / x).sum::<f64>();
    let _ = writeln!(
        out.text,
        "harmonic-mean IPC: {hm:.3}  (target ≈0.97; BIPS@4.3GHz = {:.2})",
        hm * 4.3
    );
    let _ = writeln!(
        out.text,
        "\npublished SPEC2000 reference points (64KB 4-way L1D, 21264-class):"
    );
    let _ = writeln!(
        out.text,
        "  mcf miss ~15-24%, twolf ~5-9%, mesa <1%; IPC: mesa/crafty high, mcf lowest;"
    );
    let _ = writeln!(
        out.text,
        "  INT mispredicts 5-13%, FP 1-8%. See workloads::profile for the targets."
    );
    out
}
