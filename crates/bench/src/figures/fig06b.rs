//! Figure 6b stage: 3T1D cache retention-time distribution under typical
//! variation, with performance and dynamic power vs retention time under
//! the global refresh scheme.
//!
//! Paper shape: chip retention spans ≈476–3094 ns; performance stays
//! within ≈2 % of ideal above ≈700 ns with a knee near 500 ns; total
//! dynamic power runs 1.3–2.25× ideal (refresh share growing as retention
//! shrinks); 97 % of chips lose <2 %.

use super::StageOutput;
use crate::{bar, min, RunScale};
use cachesim::{CacheConfig, DataCache, Scheme};
use std::fmt::Write as _;
use t3cache::campaign::map_indexed;
use t3cache::chip::ChipModel;
use t3cache::evaluate::Evaluator;
use vlsi::montecarlo::ChipFactory;
use vlsi::power::MemKind;
use vlsi::stats::Histogram;
use vlsi::tech::TechNode;
use vlsi::variation::VariationCorner;

/// One simulated pick: either discarded by the global-scheme feasibility
/// check or a full measurement row.
enum PickRow {
    Discarded {
        retention_ns: f64,
    },
    Measured {
        retention_ns: f64,
        perf: f64,
        worst_bench: String,
        worst: f64,
        normal_dyn: f64,
        refresh_dyn: f64,
        total_dyn: f64,
    },
}

/// Runs the Figure 6b retention/performance/power study at the given
/// scale.
pub fn run(scale: &RunScale) -> StageOutput {
    let mut out = StageOutput::new("fig06b");
    out.seed = Some(20_241);
    out.tech_node = Some(TechNode::N32.to_string());
    out.scheme = Some(Scheme::global().to_string());
    out.banner(
        "Figure 6b",
        "3T1D retention distribution, performance and dynamic power (typical, 32 nm, global refresh)",
    );
    let factory = ChipFactory::new(TechNode::N32, VariationCorner::Typical.params(), 20_241);

    // Retention histogram over the Monte-Carlo population. Chip sampling
    // fans out over contiguous index shards (one per worker) and runs the
    // SoA batch kernels per chip; chip i depends only on (base_seed, i),
    // so the histogram is identical whatever the shard count.
    let (models, _) = map_indexed(scale.mc_chips.min(160) as usize, |i| {
        ChipModel::new(&factory.chip(i as u32))
    });
    let mut models = models;
    let mut hist = Histogram::new(357.0, 3213.0, 12); // 238-ns bins on the paper's tick grid
    for chip in &models {
        hist.push(chip.cache_retention().ns());
    }
    let _ = writeln!(out.text, "retention (ns)  chip probability");
    for (center, frac) in hist.iter() {
        let _ = writeln!(out.text, "{center:>12.0}  {frac:>6.3} {}", bar(frac / 0.25, 30));
    }
    let _ = writeln!(
        out.text,
        "  (underflow {} / overflow {} of {})",
        hist.underflow(),
        hist.overflow(),
        hist.total()
    );
    let retention_sum: f64 = models.iter().map(|c| c.cache_retention().ns()).sum();
    out.metrics.put_histogram(
        "retention_ns",
        obs::FixedHistogram::from_buckets(
            357.0,
            3213.0,
            hist.counts().to_vec(),
            hist.underflow(),
            hist.overflow(),
            retention_sum,
        ),
    );

    // Performance & power vs retention: pick chips spanning the range.
    models.sort_by(|a, b| {
        a.cache_retention()
            .partial_cmp(&b.cache_retention())
            .expect("finite")
    });
    let picks: Vec<&ChipModel> = (0..scale.sim_chips.min(12))
        .map(|k| {
            let idx =
                (k as usize * (models.len() - 1)) / (scale.sim_chips.min(12) as usize - 1).max(1);
            &models[idx]
        })
        .collect();

    let eval = Evaluator::new(scale.eval_config(TechNode::N32));
    let ideal = eval.run_ideal(4);
    let cfg = CacheConfig::paper(Scheme::global());

    let (rows, _) = map_indexed(picks.len(), |i| {
        let chip = picks[i];
        let retention_ns = chip.cache_retention().ns();
        if !DataCache::global_scheme_feasible(chip.retention_profile(), &cfg) {
            return PickRow::Discarded { retention_ns };
        }
        let suite = eval.run_scheme(chip.retention_profile(), Scheme::global(), 4);
        let perf = suite.normalized_performance(&ideal, 1.0);
        let (wb, worst) = suite.worst_bench_performance(&ideal);
        let total = suite.normalized_dynamic_power(&ideal, MemKind::Dram3t1d);
        // Split: recompute without refresh events to estimate the share.
        let mut no_refresh = 0.0;
        let mut refresh_only = 0.0;
        for r in &suite.runs {
            let mut ev = r.cache.energy_events();
            let refreshes = ev.line_refreshes;
            ev.line_refreshes = 0;
            no_refresh += ev.total_energy(suite.node, MemKind::Dram3t1d).value();
            ev.line_refreshes = refreshes;
            ev.accesses = 0;
            ev.extra_l2_accesses = 0;
            ev.line_moves = 0;
            refresh_only += ev.total_energy(suite.node, MemKind::Dram3t1d).value();
        }
        let base = ideal.mean_dynamic_power(MemKind::Sram6t).value() * suite.total_time().value();
        PickRow::Measured {
            retention_ns,
            perf,
            worst_bench: wb.to_string(),
            worst,
            normal_dyn: no_refresh / base,
            refresh_dyn: refresh_only / base,
            total_dyn: total,
        }
    });

    let _ = writeln!(out.text);
    let _ = writeln!(
        out.text,
        "{:>12} {:>8} {:>10} {:>12} {:>12} {:>12}",
        "retention", "perf", "worst-bench", "normal dyn", "refresh dyn", "total dyn"
    );
    let mut all_perf = Vec::new();
    let mut all_retentions = Vec::new();
    for row in &rows {
        match row {
            PickRow::Discarded { retention_ns } => {
                let _ = writeln!(
                    out.text,
                    "{retention_ns:>10.0}ns  -- discarded (retention below refresh-pass feasibility) --"
                );
            }
            PickRow::Measured {
                retention_ns,
                perf,
                worst_bench,
                worst,
                normal_dyn,
                refresh_dyn,
                total_dyn,
            } => {
                all_perf.push(*perf);
                all_retentions.push(*retention_ns);
                let slug = format!("pick.{retention_ns:04.0}ns");
                out.metrics.set_gauge(&format!("{slug}.perf"), *perf);
                out.metrics.set_gauge(&format!("{slug}.total_dyn"), *total_dyn);
                out.metrics.set_gauge(&format!("{slug}.refresh_dyn"), *refresh_dyn);
                let _ = writeln!(
                    out.text,
                    "{:>10.0}ns {:>8.3} {:>4} {:>5.3} {:>12.2} {:>12.2} {:>12.2}",
                    retention_ns, perf, worst_bench, worst, normal_dyn, refresh_dyn, total_dyn
                );
            }
        }
    }

    let _ = writeln!(out.text);
    if !all_perf.is_empty() {
        out.compare(
            "worst simulated chip performance",
            min(&all_perf),
            ">=0.94 above the knee (Fig. 6b)",
        );
        // Population-weighted "<2% loss" fraction: the simulated picks span
        // the retention range uniformly, so map the 0.98-crossing back onto
        // the full Monte-Carlo population.
        let crossing = all_retentions
            .iter()
            .zip(&all_perf)
            .filter(|(_, p)| **p > 0.98)
            .map(|(r, _)| *r)
            .fold(f64::INFINITY, f64::min);
        let pop_within = models
            .iter()
            .filter(|c| c.cache_retention().ns() >= crossing)
            .count() as f64
            / models.len() as f64;
        out.compare(
            "population fraction losing <2% (weighted)",
            pop_within,
            "~0.97",
        );
    }
    out
}
