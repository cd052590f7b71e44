//! Extension stages: the paper's intro claims dynamic cells suit
//! "on-chip memory structures within the processor core such as register
//! files and caches" but evaluates only the D-cache. These two stages
//! probe the claim for the other structures.
//!
//! * [`icache`] (`extension_icache`) replays the instruction-fetch stream
//!   (the workload model's basic-block PCs) through the same
//!   retention-aware cache model configured as the Table 2 I-cache, on
//!   severely varied chips. Measured verdict: fetch blocks are
//!   re-referenced over *longer* timescales than the hot data (loop
//!   bodies return after whole program phases), so a retention-limited
//!   L1I loses a few percent of hit rate on varied chips — but every
//!   expiry recovery is a cheap read-only L2 re-fetch, and the RSP/DSP
//!   machinery carries over unchanged.
//! * [`regfile`] (`extension_regfile`) measures the *operand value ages*
//!   the Table 2 pipeline produces — the time between a value being
//!   written (producer completes) and read (consumer issues) — against
//!   3T1D retention times (cf. Liang & Brooks, MICRO'06). A register
//!   value only needs to survive until its last read or until the
//!   architectural register is overwritten; an age histogram bounded by a
//!   few hundred cycles means a 3T1D register file needs essentially no
//!   refresh at all, even on the worst chips.

use super::StageOutput;
use crate::RunScale;
use cachesim::{AccessKind, CacheConfig, CounterSpec, DataCache, RetentionProfile, Scheme};
use std::fmt::Write as _;
use t3cache::chip::{ChipGrade, ChipPopulation};
use uarch::instr::TraceSource;
use uarch::sim::simulate_warmed;
use vlsi::tech::TechNode;
use vlsi::variation::VariationCorner;
use workloads::{SpecBenchmark, SyntheticTrace};

/// Replays fetch-block transitions of `n` instructions through a cache,
/// at ≈1.25 cycles per instruction. Returns (hit rate, expiry misses).
fn run_fetch_stream(cache: &mut DataCache, bench: SpecBenchmark, n: u64) -> (f64, u64) {
    let mut trace = SyntheticTrace::new(bench.profile(), 17);
    let mut last_block = u64::MAX;
    let mut cycle = 0u64;
    for i in 0..n {
        let instr = trace.next_instr();
        cycle = i + i / 4; // ≈0.8 IPC fetch pacing
        let block = instr.pc / 64;
        if block != last_block {
            last_block = block;
            let _ = cache.access(cycle, instr.pc & !63, AccessKind::Load);
        }
    }
    cache.advance(cycle + 1);
    let s = cache.stats();
    (s.hits as f64 / s.accesses().max(1) as f64, s.expiry_misses)
}

/// Runs the 3T1D instruction-cache extension at the given scale.
pub fn icache(scale: &RunScale) -> StageOutput {
    let mut out = StageOutput::new("extension_icache");
    out.seed = Some(20_251);
    out.tech_node = Some(TechNode::N32.to_string());
    out.banner(
        "Extension: 3T1D instruction cache",
        "fetch streams through retention-aware 64KB L1I (severe, 32 nm)",
    );
    let pop = ChipPopulation::generate(
        TechNode::N32,
        VariationCorner::Severe.params(),
        scale.sim_chips.max(40),
        20_251,
    );
    let chip = pop.select(ChipGrade::Median);
    let _ = writeln!(
        out.text,
        "median chip: {:.1}% dead lines, cache retention {:.0} ns",
        chip.dead_fraction() * 100.0,
        chip.cache_retention().ns()
    );
    let _ = writeln!(out.text);
    let _ = writeln!(
        out.text,
        "{:<8} {:>12} {:>14} {:>14} {:>12}",
        "bench", "ideal hit%", "3T1D RSP hit%", "3T1D LRU hit%", "expiry (LRU)"
    );

    let n = scale.instructions * 2;
    let mut worst_drop: f64 = 0.0;
    for bench in [
        SpecBenchmark::Gcc,
        SpecBenchmark::Crafty,
        SpecBenchmark::Mesa,
        SpecBenchmark::Mcf,
    ] {
        let mut ideal = DataCache::new(
            CacheConfig::paper(Scheme::default()),
            RetentionProfile::Infinite,
        );
        let (h_ideal, _) = run_fetch_stream(&mut ideal, bench, n);

        let counter = CounterSpec::for_profile(chip.retention_profile());
        let mut cfg = CacheConfig::paper(Scheme::rsp_fifo());
        cfg.counter = counter;
        let mut rsp = DataCache::new(cfg, chip.retention_profile().clone());
        let (h_rsp, _) = run_fetch_stream(&mut rsp, bench, n);

        let mut cfg = CacheConfig::paper(Scheme::no_refresh_lru());
        cfg.counter = counter;
        let mut lru = DataCache::new(cfg, chip.retention_profile().clone());
        let (h_lru, expiry) = run_fetch_stream(&mut lru, bench, n);

        worst_drop = worst_drop.max(h_ideal - h_rsp);
        let _ = writeln!(
            out.text,
            "{:<8} {:>11.2}% {:>13.2}% {:>13.2}% {:>12}",
            bench.to_string(),
            h_ideal * 100.0,
            h_rsp * 100.0,
            h_lru * 100.0,
            expiry
        );
    }
    let _ = writeln!(out.text);
    out.compare(
        "worst fetch hit-rate drop, RSP-FIFO vs ideal",
        worst_drop,
        "a few % — code returns after long phases",
    );
    let _ = writeln!(
        out.text,
        "\nmeasured caveat to the paper's generality claim: code re-reference\n\
         intervals exceed the hot-data ages of Fig. 1, so an L1I built from\n\
         3T1D cells pays a few percent of fetch hit rate on varied chips.\n\
         The losses are benign (read-only lines: expiry costs one L2 re-fetch,\n\
         never a write-back) and RSP placement recovers part of the gap."
    );
    out
}

/// Runs the 3T1D register-file extension at the given scale.
pub fn regfile(scale: &RunScale) -> StageOutput {
    let mut out = StageOutput::new("extension_regfile");
    out.seed = Some(20_252);
    out.tech_node = Some(TechNode::N32.to_string());
    out.banner(
        "Extension: 3T1D register files",
        "operand value ages vs retention (Table 2 machine)",
    );

    let mut hist = [0u64; 16];
    for bench in SpecBenchmark::ALL {
        let mut trace = SyntheticTrace::new(bench.profile(), 23);
        let mut cache = DataCache::ideal();
        let icache = trace.icache_miss_rate();
        let (r, _) = simulate_warmed(
            &mut trace,
            &mut cache,
            scale.warmup,
            scale.instructions,
            icache,
        );
        for (h, v) in hist.iter_mut().zip(r.value_age_hist.iter()) {
            *h += v;
        }
    }
    let total: u64 = hist.iter().sum();
    let _ = writeln!(
        out.text,
        "operand value age at consumption (all 8 benchmarks):"
    );
    let _ = writeln!(
        out.text,
        "{:>16} {:>12} {:>10}",
        "age (cycles)", "reads", "cum %"
    );
    let mut acc = 0u64;
    let mut cum_at_1k = 0.0;
    for (i, &c) in hist.iter().enumerate() {
        acc += c;
        let hi = 1u64 << (i + 1);
        let cum = acc as f64 / total as f64;
        if hi <= 1024 {
            cum_at_1k = cum;
        }
        if c > 0 {
            let _ = writeln!(out.text, "{:>13} .. {:>12} {:>9.3}%", hi, c, cum * 100.0);
        }
    }

    let _ = writeln!(out.text);
    // Worst severe chip's cache retention, as a conservative stand-in for
    // a register file built from the same cells (a register cell is larger
    // and better-margined, so this underestimates its retention).
    let pop = ChipPopulation::generate(
        TechNode::N32,
        VariationCorner::Severe.params(),
        scale.sim_chips.min(40),
        20_252,
    );
    let bad = pop.select(ChipGrade::Bad);
    // "Alive" per the chip's own counter sizing (near-dead lines below one
    // counter step would be remapped, exactly like dead cache lines).
    let step_ns = bad.counter_spec().step_cycles as f64 / 4.3;
    let alive_ns: Vec<f64> = bad
        .retention_times()
        .iter()
        .map(|t| t.ns())
        .filter(|ns| *ns >= step_ns)
        .collect();
    let worst_alive_cycles = crate::min(&alive_ns) * 4.3;
    out.compare(
        "operand reads consumed within 1K cycles",
        cum_at_1k,
        "~all: register lifetimes are tiny",
    );
    out.compare(
        "worst alive 3T1D retention on the bad chip (cycles)",
        worst_alive_cycles,
        "far above the value lifetimes",
    );
    let _ = writeln!(
        out.text,
        "\na 3T1D register file therefore needs no refresh machinery at all —\n\
         only dead-entry remapping (a handful of spare physical registers),\n\
         which the rename stage already knows how to do. This is the\n\
         register-file result of Liang & Brooks (MICRO'06), recovered here"
    );
    let _ = writeln!(out.text, "from the cache study's own infrastructure.");
    out
}
