//! The differential driver: replay one instruction stream into the
//! simulator under test and the golden model over *identical* access
//! schedules, then diff every counter.
//!
//! Both models sit behind [`cachesim::AccessReplayer`]s fed the same
//! `(slot, addr, kind)` demand schedule derived from the trace's memory
//! instructions ([`ISSUE_WIDTH`] instructions per issue slot), so a
//! behavioral divergence shows up twice: immediately as a per-access
//! [`cachesim::AccessResult`] mismatch, and cumulatively as per-counter
//! deltas in the [`DivergenceReport`].

use crate::golden::{GoldenCache, GoldenCounters};
use cachesim::{
    AccessKind, AccessReplayer, CacheConfig, DataCache, RetentionProfile, Scheme,
};
use obs::Json;
use std::path::Path;
use uarch::instr::{Instruction, OpClass};
use workloads::{TraceError, TraceReader};

/// Demand-schedule density: instructions per issue slot (a 4-wide core).
pub const ISSUE_WIDTH: u64 = 4;

/// Cycles both models idle after the last access so in-flight refresh and
/// expiry work settles before counters are compared.
pub const DRAIN_CYCLES: u64 = 65_536;

/// One counter's values in both models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DivergenceRow {
    /// Counter name (shared with [`GoldenCounters::rows`]).
    pub counter: &'static str,
    /// Value in the simulator under test.
    pub dut: u64,
    /// Value in the golden model.
    pub golden: u64,
}

impl DivergenceRow {
    /// Absolute difference between the two models.
    pub fn delta(&self) -> u64 {
        self.dut.abs_diff(self.golden)
    }
}

/// Outcome of one differential run.
#[derive(Debug, Clone, PartialEq)]
pub struct DivergenceReport {
    /// Human-readable scheme label.
    pub scheme: String,
    /// Demand accesses replayed into each model.
    pub accesses: u64,
    /// Accesses whose `AccessResult` (hit/latency/expired) differed.
    pub result_mismatches: u64,
    /// Maximum tolerated absolute per-counter divergence.
    pub tolerance: u64,
    /// Every compared counter.
    pub rows: Vec<DivergenceRow>,
}

impl DivergenceReport {
    /// Rows whose divergence exceeds the tolerance.
    pub fn divergent_rows(&self) -> Vec<&DivergenceRow> {
        self.rows
            .iter()
            .filter(|r| r.delta() > self.tolerance)
            .collect()
    }

    /// The largest per-counter divergence (result mismatches included).
    pub fn max_divergence(&self) -> u64 {
        self.rows
            .iter()
            .map(DivergenceRow::delta)
            .max()
            .unwrap_or(0)
            .max(self.result_mismatches)
    }

    /// Whether every counter (and the per-access results) stayed within
    /// tolerance.
    pub fn within_tolerance(&self) -> bool {
        self.max_divergence() <= self.tolerance
    }

    /// The report as a JSON object (for artifacts and the CLI `--report`).
    pub fn to_json(&self) -> Json {
        let mut counters = Json::object();
        for row in &self.rows {
            let mut o = Json::object();
            o.insert("dut", Json::Num(row.dut as f64));
            o.insert("golden", Json::Num(row.golden as f64));
            o.insert("delta", Json::Num(row.delta() as f64));
            counters.insert(row.counter, o);
        }
        let mut obj = Json::object();
        obj.insert("scheme", Json::Str(self.scheme.clone()));
        obj.insert("accesses", Json::Num(self.accesses as f64));
        obj.insert("result_mismatches", Json::Num(self.result_mismatches as f64));
        obj.insert("tolerance", Json::Num(self.tolerance as f64));
        obj.insert("within_tolerance", Json::Bool(self.within_tolerance()));
        obj.insert("max_divergence", Json::Num(self.max_divergence() as f64));
        obj.insert("counters", counters);
        obj
    }

    /// A compact human-readable table of the report.
    pub fn render_text(&self) -> String {
        let mut out = format!(
            "scheme {}: {} accesses, {} result mismatches, tolerance {}\n",
            self.scheme, self.accesses, self.result_mismatches, self.tolerance
        );
        for row in &self.rows {
            let marker = if row.delta() > self.tolerance {
                "  DIVERGED"
            } else {
                ""
            };
            out.push_str(&format!(
                "  {:<28} dut {:>12} golden {:>12} delta {:>8}{}\n",
                row.counter,
                row.dut,
                row.golden,
                row.delta(),
                marker
            ));
        }
        let verdict = if self.within_tolerance() {
            "OK: models agree"
        } else {
            "FAIL: models diverged"
        };
        out.push_str(&format!(
            "  max divergence {} -> {verdict}\n",
            self.max_divergence()
        ));
        out
    }
}

/// Extracts the comparable counters from the simulator under test.
///
/// `dead_lines` is the sum of the dead-age histogram (each retention loss
/// records exactly one bucket entry); `stall_runs` the sum of the
/// stall-run histogram (one entry per completed rejection run).
pub fn dut_counters(cache: &DataCache) -> GoldenCounters {
    let s = cache.stats();
    GoldenCounters {
        loads: s.loads,
        stores: s.stores,
        hits: s.hits,
        tag_misses: s.tag_misses,
        expiry_misses: s.expiry_misses,
        dead_way_events: s.dead_way_events,
        all_ways_dead_misses: s.all_ways_dead_misses,
        l2_misses: s.l2_misses,
        l2_hits: cache.l2().hits(),
        refreshes: s.refreshes,
        line_moves: s.line_moves,
        writebacks: s.writebacks,
        expiry_writebacks: s.expiry_writebacks,
        writeback_stall_refreshes: s.writeback_stall_refreshes,
        port_conflicts: s.port_conflicts,
        blocked_cycles: s.blocked_cycles,
        refresh_overruns: s.refresh_overruns,
        dead_lines: s.dead_age_hist.iter().sum(),
        stall_runs: s.stall_run_hist.iter().sum(),
    }
}

/// Maps an instruction stream to the demand-access schedule both models
/// replay: memory instructions with a resolved address, issued at
/// `instruction_index / ISSUE_WIDTH`.
pub fn demand_of(index: u64, instr: &Instruction) -> Option<(u64, u64, AccessKind)> {
    if !instr.op.is_mem() {
        return None;
    }
    let addr = instr.addr?;
    let kind = match instr.op {
        OpClass::Store => AccessKind::Store,
        _ => AccessKind::Load,
    };
    Some((index / ISSUE_WIDTH, addr, kind))
}

/// Replays `instrs` into a paper-configured [`DataCache`] and the golden
/// model and diffs them. See [`run_differential_with`].
pub fn run_differential<I>(
    instrs: I,
    scheme: Scheme,
    retention: RetentionProfile,
    tolerance: u64,
) -> DivergenceReport
where
    I: IntoIterator<Item = Instruction>,
{
    run_differential_with(CacheConfig::paper(scheme), instrs, retention, tolerance)
}

/// Replays `instrs` into a [`DataCache`] with an arbitrary configuration
/// (small property-test geometries included) and the golden model, over
/// identical access schedules, drains both, and diffs every counter.
///
/// Streaming: instructions are consumed one at a time, so a multi-GB
/// trace-file iterator validates in constant memory.
pub fn run_differential_with<I>(
    cfg: CacheConfig,
    instrs: I,
    retention: RetentionProfile,
    tolerance: u64,
) -> DivergenceReport
where
    I: IntoIterator<Item = Instruction>,
{
    let mut dut = DataCache::new(cfg, retention.clone());
    let mut golden = GoldenCache::new(cfg, retention);
    run_differential_models(&mut dut, &mut golden, instrs, tolerance)
}

/// Why [`validate_trace`] returned no report.
#[derive(Debug)]
pub enum TraceValidateError {
    /// The trace file could not be opened, or its header is bad.
    Open(TraceError),
    /// A record could not be read: an I/O error, or a corrupt or cut
    /// chunk. No report is made over the records before it.
    Read(TraceError),
}

/// Streams the recorded trace at `path` through both models (see
/// [`run_differential_with`]), reading at most `max_records` records
/// (0 = all). The reader decodes chunk by chunk, so even a multi-GB trace
/// validates in one forward pass in constant memory.
pub fn validate_trace(
    path: impl AsRef<Path>,
    cfg: CacheConfig,
    retention: RetentionProfile,
    tolerance: u64,
    max_records: u64,
) -> Result<DivergenceReport, TraceValidateError> {
    let mut reader = TraceReader::open(path).map_err(TraceValidateError::Open)?;
    let mut read_err = None;
    let stream = std::iter::from_fn(|| match reader.next_record() {
        Ok(r) => r,
        Err(e) => {
            read_err = Some(e);
            None
        }
    });
    let limit = if max_records > 0 {
        max_records as usize
    } else {
        usize::MAX
    };
    let report = run_differential_with(cfg, stream.take(limit), retention, tolerance);
    match read_err {
        Some(e) => Err(TraceValidateError::Read(e)),
        None => Ok(report),
    }
}

/// The core differential loop over caller-built models — exposed so tests
/// can deliberately mismatch the two (e.g. different retention profiles)
/// and assert the harness *detects* divergence.
pub fn run_differential_models<I>(
    dut: &mut DataCache,
    golden: &mut GoldenCache,
    instrs: I,
    tolerance: u64,
) -> DivergenceReport
where
    I: IntoIterator<Item = Instruction>,
{
    let mut rep_dut = AccessReplayer::new();
    let mut rep_golden = AccessReplayer::new();

    let mut accesses = 0u64;
    let mut result_mismatches = 0u64;
    for (j, instr) in instrs.into_iter().enumerate() {
        let Some((slot, addr, kind)) = demand_of(j as u64, &instr) else {
            continue;
        };
        let r_dut = rep_dut.step(dut, slot, addr, kind);
        let r_golden = rep_golden.step(golden, slot, addr, kind);
        accesses += 1;
        if r_dut != r_golden {
            result_mismatches += 1;
        }
    }

    // Let pending refresh/expiry work settle identically in both models.
    let drain_at = rep_dut.cycle().max(rep_golden.cycle()) + DRAIN_CYCLES;
    dut.advance(drain_at);
    golden.advance(drain_at);

    let d = dut_counters(dut);
    let g = *golden.counters();
    let rows = d
        .rows()
        .into_iter()
        .zip(g.rows())
        .map(|((counter, dv), (_, gv))| DivergenceRow {
            counter,
            dut: dv,
            golden: gv,
        })
        .collect();

    DivergenceReport {
        scheme: dut.config().scheme.to_string(),
        accesses,
        result_mismatches,
        tolerance,
        rows,
    }
}

/// The §4.3.3 representative schemes the validation harness runs by
/// default, with stable CLI names.
pub fn default_schemes() -> Vec<(&'static str, Scheme)> {
    vec![
        ("no-refresh-lru", Scheme::no_refresh_lru()),
        ("partial-dsp", Scheme::partial_refresh_dsp()),
        ("rsp-fifo", Scheme::rsp_fifo()),
    ]
}

/// Resolves a CLI scheme name (the [`default_schemes`] names plus
/// `rsp-lru` and `full-lru`).
pub fn scheme_by_name(name: &str) -> Option<Scheme> {
    use cachesim::{RefreshPolicy, ReplacementPolicy};
    match name {
        "no-refresh-lru" => Some(Scheme::no_refresh_lru()),
        "partial-dsp" => Some(Scheme::partial_refresh_dsp()),
        "rsp-fifo" => Some(Scheme::rsp_fifo()),
        "rsp-lru" => Some(Scheme::rsp_lru()),
        "full-lru" => Some(Scheme::new(RefreshPolicy::Full, ReplacementPolicy::Lru)),
        _ => None,
    }
}

/// Known names for [`named_retention`].
pub const RETENTION_NAMES: [&str; 4] = ["infinite", "uniform", "mixed", "half-dead"];

/// Deterministic named retention profiles for validation runs:
///
/// * `infinite` — the 6T SRAM reference (never expires);
/// * `uniform` — every line retains 20 000 cycles;
/// * `mixed` — varied short/long retentions, 25 % dead lines;
/// * `half-dead` — 62.5 % dead lines (the worst-case chip class).
pub fn named_retention(name: &str, lines: u32) -> Result<RetentionProfile, String> {
    const MIXED: [u64; 8] = [1_500, 3_000, 700, 6_000, 12_000, 25_000, 900, 48_000];
    const HALF_DEAD: [u64; 8] = [500, 30_000, 800, 20_000, 300, 900, 15_000, 600];
    match name {
        "infinite" => Ok(RetentionProfile::Infinite),
        "uniform" => Ok(RetentionProfile::PerLine(vec![20_000; lines as usize])),
        "mixed" => Ok(RetentionProfile::PerLine(
            (0..lines).map(|i| MIXED[i as usize % 8]).collect(),
        )),
        "half-dead" => Ok(RetentionProfile::PerLine(
            (0..lines).map(|i| HALF_DEAD[i as usize % 8]).collect(),
        )),
        other => Err(format!(
            "unknown retention profile {other:?} (expected one of {})",
            RETENTION_NAMES.join(", ")
        )),
    }
}
