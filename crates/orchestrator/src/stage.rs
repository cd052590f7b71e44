//! Stage kinds: what a scenario's `kind` strings resolve to.
//!
//! Every stage is a pure function `(params, input payloads, scale) →
//! payload`, where payloads are [`obs::Json`] values. Purity is the load-
//! bearing property: the content-addressed cache assumes a stage's
//! payload is fully determined by its fingerprint (kind, params, scale,
//! input digests), so stage payloads must never contain wall-clock,
//! worker-count, hostname, or git state. The bench crate's
//! [`StageOutput`](bench_harness::figures::StageOutput) carries results
//! only for exactly this reason, and
//! [`obs::MetricsRegistry::without_timing`] is applied as
//! defense-in-depth. This module is the only way the paper's experiments
//! run: a figure stage's payload `text` is the figure as rendered.
//!
//! Kinds:
//!
//! * every figure, table, ablation and extension stage of
//!   [`bench_harness::figures::STAGES`] (`fig01`, …, `fig12_surface`,
//!   `table1`, `table3`, `sec21_*`, `sec41`, `temperature_margin`,
//!   `workload_report`, `ablation*`, `extension_*`) — the one place the
//!   paper's experiments are run;
//! * `chip_campaign` — a Monte-Carlo chip population ([`ChipFactory`])
//!   reduced to its per-chip cache retention times;
//! * `retention_map` — a fixed-bucket histogram over a `chip_campaign`
//!   payload's retention times;
//! * `report` — aggregates the `compare.*` gauges of its dependencies
//!   into one measured-vs-paper table;
//! * `trace_validate` — replays a recorded instruction trace through the
//!   cycle-level simulator and the golden reference model and reports the
//!   per-counter divergence (the trace file participates in the cache
//!   key by content digest, see [`effective_params`]);
//! * `dvfs_point` — one `(cell technology, operating point)` cell of the
//!   DVFS sweep grid: yield, retention, timing feasibility, and the
//!   median chip's suite performance at that clock and rail;
//! * `dvfs_frontier` — joins its `dvfs_point` dependencies into the
//!   Pareto frontier on the (throughput, leakage) plane;
//! * `sleep` / `fail` — timeout- and failure-injection kinds for the
//!   scheduler's own test suite.

use crate::cas::StageCheckpoint;
use bench_harness::RunScale;
use obs::{CancelToken, Json};
use std::collections::BTreeMap;
use std::sync::Arc;
use t3cache::campaign::{map_indexed_with_hooks, worker_count, UnitHooks};
use t3cache::chip::ChipModel;
use t3cache::dvfs::{evaluate_point, pareto_frontier, render_frontier, DvfsPointConfig, DvfsPointResult};
use vlsi::celltech::CellTechKind;
use vlsi::montecarlo::ChipFactory;
use vlsi::tech::{OperatingPoint, TechNode, SIM_TEMPERATURE_C};
use vlsi::units::{Energy, Frequency, Power, Time, Voltage};
use vlsi::variation::VariationCorner;

/// Stage fingerprint schema: folded into every cache key, so bumping it
/// (on any change to a stage's payload layout) invalidates all cached
/// artifacts at once.
pub const STAGE_SCHEMA: u64 = 1;

/// The non-figure stage kinds.
const BUILTIN_KINDS: [&str; 9] = [
    "chip_campaign",
    "retention_map",
    "report",
    "trace_validate",
    "dvfs_point",
    "dvfs_frontier",
    "sleep",
    "fail",
    "flaky",
];

/// The params a stage is actually fingerprinted and executed with.
///
/// For `trace_validate` the `trace` param names a file whose *content*
/// determines the payload, so the bytes' digest is folded in as a
/// `trace_digest` param — same path with different content misses the
/// cache, different path with identical content hits it. An unreadable
/// file digests to `null`; execution then fails before anything is
/// cached, so the placeholder never names a payload. All other kinds
/// pass their params through unchanged.
pub fn effective_params(kind: &str, params: &Json) -> Json {
    if kind != "trace_validate" || params.as_obj().is_none() {
        return params.clone();
    }
    let digest = params
        .get("trace")
        .and_then(Json::as_str)
        .and_then(|path| std::fs::read(path).ok())
        .map(|bytes| crate::hash::content_hash(&bytes));
    let mut p = params.clone();
    p.insert("trace_digest", digest.map_or(Json::Null, Json::Str));
    p
}

/// Every known stage kind, sorted.
pub fn known_kinds() -> Vec<&'static str> {
    let mut v: Vec<&'static str> = BUILTIN_KINDS.into();
    v.extend(bench_harness::figures::stage_names());
    v.sort_unstable();
    v
}

/// Whether `kind` names a runnable stage.
pub fn is_known(kind: &str) -> bool {
    BUILTIN_KINDS.contains(&kind) || bench_harness::figures::stage_fn(kind).is_some()
}

/// Everything a stage execution sees.
#[derive(Debug)]
pub struct StageCtx<'a> {
    /// The stage's `params` object from the scenario.
    pub params: &'a Json,
    /// Dependency payloads, keyed by dependency stage id.
    pub inputs: &'a BTreeMap<String, Json>,
    /// The scenario's run scale.
    pub scale: RunScale,
    /// Per-unit checkpoint keyed on this stage's cache fingerprint, when
    /// the scheduler is running with the cache enabled. Stages with a
    /// campaign shape stream completed units into it and replay them on
    /// the next attempt; other stages ignore it.
    pub checkpoint: Option<Arc<StageCheckpoint>>,
    /// Cooperative cancellation: long stages should poll this between
    /// units and bail out with an `Err` once set. Never set in tests and
    /// cached replans; the CLI's signal handler sets it on SIGINT/SIGTERM.
    pub cancel: CancelToken,
}

impl StageCtx<'_> {
    fn str_param(&self, key: &str, default: &str) -> Result<String, String> {
        match self.params.get(key) {
            None => Ok(default.to_string()),
            Some(v) => v
                .as_str()
                .map(str::to_string)
                .ok_or_else(|| format!("param {key:?} must be a string")),
        }
    }

    fn u64_param(&self, key: &str, default: u64) -> Result<u64, String> {
        match self.params.get(key) {
            None => Ok(default),
            Some(v) => v
                .as_u64()
                .ok_or_else(|| format!("param {key:?} must be a non-negative integer")),
        }
    }

    fn f64_param(&self, key: &str, default: f64) -> Result<f64, String> {
        match self.params.get(key) {
            None => Ok(default),
            Some(v) => match v.as_f64() {
                Some(x) if x.is_finite() => Ok(x),
                _ => Err(format!("param {key:?} must be a finite number")),
            },
        }
    }
}

/// Runs one stage to its payload. `Err` is a *stage failure* (bad
/// params, missing inputs); the scheduler additionally catches panics
/// from inside the simulation kernels.
pub fn execute(kind: &str, ctx: &StageCtx<'_>) -> Result<Json, String> {
    if let Some(f) = bench_harness::figures::stage_fn(kind) {
        return Ok(figure_payload(kind, f(&ctx.scale)));
    }
    match kind {
        "chip_campaign" => chip_campaign(ctx),
        "retention_map" => retention_map(ctx),
        "report" => report(ctx),
        "trace_validate" => trace_validate(ctx),
        "dvfs_point" => dvfs_point(ctx),
        "dvfs_frontier" => dvfs_frontier(ctx),
        "sleep" => sleep(ctx),
        "fail" => fail(ctx),
        "flaky" => flaky(ctx),
        other => Err(format!("unknown stage kind {other:?}")),
    }
}

/// Reduces a figure stage's [`StageOutput`] to a cacheable payload:
/// name/seed/node/scheme identity, timing-stripped metrics, and the
/// deterministic text rendering.
fn figure_payload(kind: &str, out: bench_harness::figures::StageOutput) -> Json {
    let mut p = Json::object();
    p.insert("kind", Json::Str(kind.to_string()));
    p.insert("name", Json::Str(out.name));
    p.insert("seed", out.seed.map_or(Json::Null, |s| Json::Num(s as f64)));
    p.insert("tech_node", out.tech_node.map_or(Json::Null, Json::Str));
    p.insert("scheme", out.scheme.map_or(Json::Null, Json::Str));
    p.insert("metrics", out.metrics.without_timing().to_json());
    p.insert("text", Json::Str(out.text));
    p
}

/// `chip_campaign`: generates a Monte-Carlo chip population and exports
/// the per-chip whole-cache retention times (ns) plus summary stats.
/// Params: `node` (65nm/45nm/32nm, default 32nm), `corner`
/// (none/typical/severe, default severe), `chips` (default
/// `scale.mc_chips`), `seed` (default 20245), `unit_sleep_ms` (default
/// 0 — artificial per-chip delay, for crash-recovery tests that need a
/// campaign slow enough to interrupt).
///
/// Each chip is one campaign unit: unit `i`'s randomness derives from
/// `(seed, i)` alone inside [`ChipFactory`], so completed units stream
/// into the stage checkpoint as they finish and replay bit-identically
/// on resume. When the campaign is cancelled mid-run the stage returns
/// an `Err` — partial results are never a payload, but every completed
/// unit is already on disk.
fn chip_campaign(ctx: &StageCtx<'_>) -> Result<Json, String> {
    let node: TechNode = ctx.str_param("node", "32nm")?.parse()?;
    let corner: VariationCorner = ctx.str_param("corner", "severe")?.parse()?;
    let chips = ctx.u64_param("chips", u64::from(ctx.scale.mc_chips))?;
    if chips == 0 || chips > 1_000_000 {
        return Err(format!("param \"chips\" = {chips} out of range [1, 1e6]"));
    }
    let seed = ctx.u64_param("seed", 20_245)?;
    let unit_sleep_ms = ctx.f64_param("unit_sleep_ms", 0.0)?;
    if !(0.0..=60_000.0).contains(&unit_sleep_ms) {
        return Err(format!(
            "param \"unit_sleep_ms\" = {unit_sleep_ms} out of range [0, 60000]"
        ));
    }

    let factory = ChipFactory::new(node, corner.params(), seed);
    let n = chips as usize;
    let checkpoint = ctx.checkpoint.as_deref();
    let resume = |i: usize| {
        checkpoint
            .and_then(|cp| cp.load_unit(i))
            .and_then(|unit| unit.get("retention_ns").and_then(Json::as_f64))
    };
    let persist = |i: usize, v: &f64| {
        if let Some(cp) = checkpoint {
            let mut unit = Json::object();
            unit.insert("retention_ns", Json::Num(*v));
            cp.store_unit(i, &unit);
        }
    };
    let hooks = UnitHooks {
        resume: Some(&resume),
        persist: Some(&persist),
        cancel: Some(&ctx.cancel),
    };
    let pacing = std::time::Duration::from_secs_f64(unit_sleep_ms / 1000.0);
    let (slots, _report) = map_indexed_with_hooks(n, worker_count(), hooks, |i| {
        if !pacing.is_zero() {
            std::thread::sleep(pacing);
        }
        ChipModel::new(&factory.chip(i as u32)).cache_retention().ns()
    });
    let done = slots.iter().filter(|s| s.is_some()).count();
    if done < n {
        return Err(format!(
            "cancelled after {done}/{n} units (completed units are checkpointed)"
        ));
    }
    let retention_ns: Vec<f64> = slots.into_iter().flatten().collect();
    let mean = retention_ns.iter().sum::<f64>() / retention_ns.len() as f64;
    // The ns → seconds → ns round trip is deliberate: it reproduces
    // `ChipPopulation::median_cache_retention().ns()` bit-for-bit, so
    // payloads match artifacts cached by earlier versions of this stage.
    let median_ns = vlsi::units::Time::from_ns(vlsi::stats::median(&retention_ns)).ns();

    let mut p = Json::object();
    p.insert("kind", Json::Str("chip_campaign".into()));
    p.insert("node", Json::Str(node.to_string()));
    p.insert("corner", Json::Str(corner.to_string()));
    p.insert("chips", Json::Num(chips as f64));
    p.insert("seed", Json::Num(seed as f64));
    p.insert(
        "retention_ns",
        Json::Arr(retention_ns.iter().map(|&v| Json::Num(v)).collect()),
    );
    p.insert("median_ns", Json::Num(median_ns));
    p.insert("mean_ns", Json::Num(mean));
    p.insert("min_ns", Json::Num(bench_harness::min(&retention_ns)));
    p.insert("max_ns", Json::Num(bench_harness::max(&retention_ns)));
    Ok(p)
}

/// `retention_map`: bins a `chip_campaign` payload's `retention_ns`
/// into a fixed-bucket histogram. Params: `lo_ns` (default 0), `hi_ns`
/// (default 3000), `bins` (default 12), `threshold_ns` (default 700 —
/// the paper's nominal access+refresh feasibility bound).
fn retention_map(ctx: &StageCtx<'_>) -> Result<Json, String> {
    let lo = ctx.f64_param("lo_ns", 0.0)?;
    let hi = ctx.f64_param("hi_ns", 3000.0)?;
    let bins = ctx.u64_param("bins", 12)? as usize;
    let threshold = ctx.f64_param("threshold_ns", 700.0)?;
    if hi <= lo || bins == 0 || bins > 10_000 {
        return Err(format!(
            "bad histogram shape: lo_ns={lo}, hi_ns={hi}, bins={bins}"
        ));
    }

    let mut sources = ctx
        .inputs
        .iter()
        .filter_map(|(id, payload)| payload.get("retention_ns").and_then(Json::as_arr).map(|a| (id, a)));
    let (source_id, arr) = sources
        .next()
        .ok_or("retention_map needs a dependency with a \"retention_ns\" array")?;
    if sources.next().is_some() {
        return Err("retention_map needs exactly one retention_ns-bearing dependency".into());
    }
    let values: Vec<f64> = arr.iter().filter_map(Json::as_f64).collect();
    if values.len() != arr.len() || values.is_empty() {
        return Err(format!(
            "dependency {source_id:?} has a malformed retention_ns array"
        ));
    }

    let width = (hi - lo) / bins as f64;
    let mut buckets = vec![0u64; bins];
    let (mut underflow, mut overflow) = (0u64, 0u64);
    for &v in &values {
        if v < lo {
            underflow += 1;
        } else if v >= hi {
            overflow += 1;
        } else {
            let i = (((v - lo) / width) as usize).min(bins - 1);
            buckets[i] += 1;
        }
    }

    let mut p = Json::object();
    p.insert("kind", Json::Str("retention_map".into()));
    p.insert("source", Json::Str(source_id.clone()));
    p.insert("lo_ns", Json::Num(lo));
    p.insert("hi_ns", Json::Num(hi));
    p.insert(
        "buckets",
        Json::Arr(buckets.iter().map(|&c| Json::Num(c as f64)).collect()),
    );
    p.insert("underflow", Json::Num(underflow as f64));
    p.insert("overflow", Json::Num(overflow as f64));
    p.insert("count", Json::Num(values.len() as f64));
    p.insert(
        "mean_ns",
        Json::Num(values.iter().sum::<f64>() / values.len() as f64),
    );
    p.insert("threshold_ns", Json::Num(threshold));
    p.insert(
        "frac_above_threshold",
        Json::Num(bench_harness::frac_above(&values, threshold)),
    );
    Ok(p)
}

/// `report`: collects every dependency's `compare.*` gauges (the
/// measured-vs-paper checkpoints each figure stage records) into one
/// table, plus a plain-text rendering.
fn report(ctx: &StageCtx<'_>) -> Result<Json, String> {
    if ctx.inputs.is_empty() {
        return Err("report needs at least one dependency".into());
    }
    let mut stages = Json::object();
    let mut text = String::from("measured-vs-paper checkpoints by stage\n");
    let mut total = 0usize;
    for (id, payload) in ctx.inputs {
        let mut entry = Json::object();
        entry.insert(
            "kind",
            payload.get("kind").cloned().unwrap_or(Json::Null),
        );
        let mut compares = Json::object();
        if let Some(gauges) = payload
            .get("metrics")
            .and_then(|m| m.get("gauges"))
            .and_then(Json::as_obj)
        {
            for (name, value) in gauges {
                if let Some(slug) = name.strip_prefix("compare.") {
                    compares.insert(slug, value.clone());
                    if let Some(v) = value.as_f64() {
                        text.push_str(&format!("  {id:<18} {slug:<40} {v:>12.4}\n"));
                        total += 1;
                    }
                }
            }
        }
        entry.insert("compares", compares);
        stages.insert(id, entry);
    }
    text.push_str(&format!("  total checkpoints: {total}\n"));

    let mut p = Json::object();
    p.insert("kind", Json::Str("report".into()));
    p.insert("stages", stages);
    p.insert("checkpoints", Json::Num(total as f64));
    p.insert("text", Json::Str(text));
    Ok(p)
}

/// `trace_validate`: streams a recorded instruction trace (param
/// `trace`, a file in the [`workloads`] stream container format) through
/// the cycle-level [`cachesim::DataCache`] and the naive golden model of
/// the `validate` crate, and reports the per-counter divergence for each
/// requested scheme. Params: `schemes` (comma-separated
/// [`validate::scheme_by_name`] names, default the three representative
/// schemes), `retention` (named profile, default `mixed`), `tolerance`
/// (max tolerated absolute divergence, default 0), `max_records` (cap on
/// replayed records, 0 = whole trace), `strict` (default 1 — divergence
/// beyond tolerance is a stage *failure*, so nothing divergent is ever
/// cached as a good artifact).
///
/// The trace file's bytes are part of the stage fingerprint via
/// [`effective_params`]; the payload repeats the digest it validated.
fn trace_validate(ctx: &StageCtx<'_>) -> Result<Json, String> {
    let path = ctx.str_param("trace", "")?;
    if path.is_empty() {
        return Err("trace_validate needs a \"trace\" file path param".into());
    }
    let retention_name = ctx.str_param("retention", "mixed")?;
    let tolerance = ctx.u64_param("tolerance", 0)?;
    let max_records = ctx.u64_param("max_records", 0)?;
    let strict = ctx.u64_param("strict", 1)? != 0;
    let scheme_names: Vec<String> = match ctx.str_param("schemes", "")?.as_str() {
        "" => validate::default_schemes()
            .iter()
            .map(|(n, _)| n.to_string())
            .collect(),
        list => list.split(',').map(|s| s.trim().to_string()).collect(),
    };

    let bytes = std::fs::read(&path).map_err(|e| format!("reading trace {path:?}: {e}"))?;
    let digest = crate::hash::content_hash(&bytes);
    let (meta, total) = {
        let r = workloads::TraceReader::open(&path)
            .map_err(|e| format!("opening trace {path:?}: {e}"))?;
        (r.meta().clone(), r.total_records())
    };

    let mut schemes = Json::object();
    let mut divergent: Vec<String> = Vec::new();
    let mut max_div = 0u64;
    for name in &scheme_names {
        let scheme = validate::scheme_by_name(name)
            .ok_or_else(|| format!("unknown scheme {name:?}"))?;
        let cfg = cachesim::CacheConfig::paper(scheme);
        let retention = validate::named_retention(&retention_name, cfg.geometry.lines())?;
        // One forward pass per scheme over a fresh reader.
        let report = validate::validate_trace(&path, cfg, retention, tolerance, max_records)
            .map_err(|e| match e {
                validate::TraceValidateError::Open(e) => format!("opening trace {path:?}: {e}"),
                validate::TraceValidateError::Read(e) => format!("reading trace {path:?}: {e}"),
            })?;
        if ctx.cancel.is_cancelled() {
            return Err(format!("cancelled after scheme {name}"));
        }
        max_div = max_div.max(report.max_divergence());
        if !report.within_tolerance() {
            divergent.push(name.clone());
        }
        schemes.insert(name, report.to_json());
    }

    if strict && !divergent.is_empty() {
        return Err(format!(
            "models diverged beyond tolerance {tolerance} for scheme(s) {} \
             (max divergence {max_div})",
            divergent.join(", ")
        ));
    }

    let mut p = Json::object();
    p.insert("kind", Json::Str("trace_validate".into()));
    p.insert("trace", Json::Str(path));
    p.insert("trace_digest", Json::Str(digest));
    p.insert("trace_name", Json::Str(meta.name));
    p.insert("trace_seed", Json::Num(meta.seed as f64));
    p.insert("total_records", Json::Num(total as f64));
    p.insert("retention", Json::Str(retention_name));
    p.insert("tolerance", Json::Num(tolerance as f64));
    p.insert("max_divergence", Json::Num(max_div as f64));
    p.insert("within_tolerance", Json::Bool(divergent.is_empty()));
    p.insert("schemes", schemes);
    Ok(p)
}

/// `dvfs_point`: evaluates one `(cell technology, operating point)`
/// grid cell — fabricates a Monte-Carlo population in that technology,
/// sizes counters per chip, and runs the median chip's benchmark suite
/// at the cell's clock and rail. Params: `node` (default 32nm),
/// `technology` ([`CellTechKind`] slug, default `3t1d`), `corner`
/// (default severe), `vdd` / `freq_ghz` / `temp_c` (defaulting to the
/// node's nominal corner — scenario grid expansion injects all three,
/// so every cell's coordinates live in its cache key), `chips` (default
/// `scale.mc_chips`), `seed` (default 20245).
fn dvfs_point(ctx: &StageCtx<'_>) -> Result<Json, String> {
    let node: TechNode = ctx.str_param("node", "32nm")?.parse()?;
    let kind: CellTechKind = ctx.str_param("technology", "3t1d")?.parse()?;
    let corner: VariationCorner = ctx.str_param("corner", "severe")?.parse()?;
    let vdd = ctx.f64_param("vdd", node.vdd().volts())?;
    let freq_ghz = ctx.f64_param("freq_ghz", node.chip_frequency().ghz())?;
    let temp_c = ctx.f64_param("temp_c", SIM_TEMPERATURE_C)?;
    if !(0.1..=2.0).contains(&vdd) {
        return Err(format!("param \"vdd\" = {vdd} out of range [0.1, 2]"));
    }
    if !(0.01..=20.0).contains(&freq_ghz) {
        return Err(format!(
            "param \"freq_ghz\" = {freq_ghz} out of range [0.01, 20]"
        ));
    }
    if !(-55.0..=150.0).contains(&temp_c) {
        return Err(format!(
            "param \"temp_c\" = {temp_c} out of range [-55, 150]"
        ));
    }
    let chips = ctx.u64_param("chips", u64::from(ctx.scale.mc_chips))?;
    if chips == 0 || chips > 100_000 {
        return Err(format!("param \"chips\" = {chips} out of range [1, 1e5]"));
    }
    let seed = ctx.u64_param("seed", 20_245)?;

    let op = OperatingPoint {
        vdd: Voltage::new(vdd),
        freq: Frequency::from_ghz(freq_ghz),
        temp_c,
    };
    let cfg = DvfsPointConfig {
        node,
        kind,
        op,
        params: corner.params(),
        chips: chips as u32,
        seed,
        eval: ctx.scale.eval_config(node),
    };
    let r = evaluate_point(&cfg);

    let mut p = Json::object();
    p.insert("kind", Json::Str("dvfs_point".into()));
    p.insert("node", Json::Str(node.to_string()));
    p.insert("corner", Json::Str(corner.to_string()));
    p.insert("technology", Json::Str(kind.slug().to_string()));
    p.insert("slug", Json::Str(r.slug()));
    p.insert("vdd", Json::Num(op.vdd.volts()));
    p.insert("freq_ghz", Json::Num(op.freq.ghz()));
    p.insert("temp_c", Json::Num(op.temp_c));
    p.insert("chips", Json::Num(chips as f64));
    p.insert("seed", Json::Num(seed as f64));
    p.insert("yield_fraction", Json::Num(r.yield_fraction));
    p.insert("mean_dead_fraction", Json::Num(r.mean_dead_fraction));
    p.insert("median_retention_ns", Json::Num(r.median_cache_retention.ns()));
    p.insert("access_ps", Json::Num(r.access_time.ps()));
    p.insert("timing_feasible", Json::Bool(r.timing_feasible));
    p.insert("normalized_perf", Json::Num(r.normalized_perf));
    p.insert("bips", Json::Num(r.bips));
    p.insert("leakage_mw", Json::Num(r.leakage.mw()));
    p.insert("refresh_energy_pj", Json::Num(r.refresh_energy_per_line.pj()));
    p.insert("needs_refresh", Json::Bool(r.needs_refresh));
    Ok(p)
}

/// Rehydrates a [`DvfsPointResult`] from a `dvfs_point` payload.
fn dvfs_payload_point(id: &str, p: &Json) -> Result<DvfsPointResult, String> {
    let num = |key: &str| {
        p.get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("dependency {id:?} missing number {key:?}"))
    };
    let flag = |key: &str| {
        p.get(key)
            .and_then(Json::as_bool)
            .ok_or_else(|| format!("dependency {id:?} missing boolean {key:?}"))
    };
    let kind: CellTechKind = p
        .get("technology")
        .and_then(Json::as_str)
        .ok_or_else(|| format!("dependency {id:?} missing string \"technology\""))?
        .parse()?;
    Ok(DvfsPointResult {
        kind,
        op: OperatingPoint {
            vdd: Voltage::new(num("vdd")?),
            freq: Frequency::from_ghz(num("freq_ghz")?),
            temp_c: num("temp_c")?,
        },
        yield_fraction: num("yield_fraction")?,
        mean_dead_fraction: num("mean_dead_fraction")?,
        median_cache_retention: Time::from_ns(num("median_retention_ns")?),
        access_time: Time::from_ps(num("access_ps")?),
        timing_feasible: flag("timing_feasible")?,
        normalized_perf: num("normalized_perf")?,
        bips: num("bips")?,
        leakage: Power::from_mw(num("leakage_mw")?),
        refresh_energy_per_line: Energy::from_pj(num("refresh_energy_pj")?),
        needs_refresh: flag("needs_refresh")?,
    })
}

/// `dvfs_frontier`: joins every `dvfs_point` dependency into one grid
/// report and marks the Pareto frontier on the (BIPS, leakage) plane.
/// Dependencies that are not `dvfs_point` payloads are ignored, so a
/// frontier can ride the same DAG as figure stages; at least one grid
/// cell is required. Rows follow dependency-id order (deterministic —
/// the inputs map is sorted).
fn dvfs_frontier(ctx: &StageCtx<'_>) -> Result<Json, String> {
    let mut ids: Vec<&str> = Vec::new();
    let mut points: Vec<DvfsPointResult> = Vec::new();
    for (id, payload) in ctx.inputs {
        if payload.get("kind").and_then(Json::as_str) != Some("dvfs_point") {
            continue;
        }
        points.push(dvfs_payload_point(id, payload)?);
        ids.push(id);
    }
    if points.is_empty() {
        return Err("dvfs_frontier needs at least one dvfs_point dependency".into());
    }
    let frontier = pareto_frontier(&points);
    let text = render_frontier(&points);

    let mut rows = Vec::with_capacity(points.len());
    for ((id, point), &on_frontier) in ids.iter().zip(&points).zip(&frontier) {
        let mut row = Json::object();
        row.insert("source", Json::Str((*id).to_string()));
        row.insert("slug", Json::Str(point.slug()));
        row.insert("yield_fraction", Json::Num(point.yield_fraction));
        row.insert("timing_feasible", Json::Bool(point.timing_feasible));
        row.insert("bips", Json::Num(point.bips));
        row.insert("leakage_mw", Json::Num(point.leakage.mw()));
        row.insert("bips_per_watt", Json::Num(point.bips_per_watt()));
        row.insert("on_frontier", Json::Bool(on_frontier));
        rows.push(row);
    }
    let frontier_size = frontier.iter().filter(|&&f| f).count();

    let mut p = Json::object();
    p.insert("kind", Json::Str("dvfs_frontier".into()));
    p.insert("points", Json::Arr(rows));
    p.insert("count", Json::Num(points.len() as f64));
    p.insert("frontier_size", Json::Num(frontier_size as f64));
    p.insert("text", Json::Str(text));
    Ok(p)
}

/// `sleep`: sleeps `seconds` (default 0.05) — the scheduler test suite's
/// controllable slow stage. The payload records only the *requested*
/// duration, keeping it deterministic.
fn sleep(ctx: &StageCtx<'_>) -> Result<Json, String> {
    let seconds = ctx.f64_param("seconds", 0.05)?;
    if !(0.0..=3600.0).contains(&seconds) {
        return Err(format!("param \"seconds\" = {seconds} out of range [0, 3600]"));
    }
    std::thread::sleep(std::time::Duration::from_secs_f64(seconds));
    let mut p = Json::object();
    p.insert("kind", Json::Str("sleep".into()));
    p.insert("seconds", Json::Num(seconds));
    Ok(p)
}

/// `fail`: fails on purpose — `mode: "panic"` (default) panics like a
/// crashed simulation kernel; `mode: "error"` returns a stage error.
/// Exists so failure isolation is testable without breaking a real
/// stage.
fn fail(ctx: &StageCtx<'_>) -> Result<Json, String> {
    let message = ctx.str_param("message", "injected failure")?;
    match ctx.str_param("mode", "panic")?.as_str() {
        "panic" => panic!("{message}"),
        "error" => Err(message),
        other => Err(format!("unknown fail mode {other:?}")),
    }
}

/// `flaky`: deterministic *transient* failure injection for the
/// scheduler's retry tests. The required `marker` param names a file:
/// when it does not exist the stage creates it and fails (the first
/// attempt); when it exists the stage succeeds (any retry). The success
/// payload is constant, so the purity contract holds for the payload
/// that actually lands in the cache.
fn flaky(ctx: &StageCtx<'_>) -> Result<Json, String> {
    let marker = ctx.str_param("marker", "")?;
    if marker.is_empty() {
        return Err("flaky needs a \"marker\" file path param".into());
    }
    if std::path::Path::new(&marker).exists() {
        let mut p = Json::object();
        p.insert("kind", Json::Str("flaky".into()));
        Ok(p)
    } else {
        std::fs::write(&marker, b"first attempt\n")
            .map_err(|e| format!("flaky cannot write marker {marker:?}: {e}"))?;
        Err("injected transient failure (marker created; a retry succeeds)".into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx<'a>(params: &'a Json, inputs: &'a BTreeMap<String, Json>) -> StageCtx<'a> {
        StageCtx {
            params,
            inputs,
            scale: RunScale::QUICK,
            checkpoint: None,
            cancel: CancelToken::new(),
        }
    }

    #[test]
    fn every_registered_kind_is_known() {
        for kind in known_kinds() {
            assert!(is_known(kind), "{kind}");
        }
        assert!(!is_known("nope"));
        assert_eq!(
            known_kinds().len(),
            BUILTIN_KINDS.len() + bench_harness::figures::STAGES.len()
        );
    }

    #[test]
    fn chip_campaign_payload_is_deterministic() {
        let params = Json::parse(r#"{"chips": 6, "seed": 99, "corner": "typical"}"#).unwrap();
        let inputs = BTreeMap::new();
        let a = execute("chip_campaign", &ctx(&params, &inputs)).unwrap();
        let b = execute("chip_campaign", &ctx(&params, &inputs)).unwrap();
        assert_eq!(a.render(), b.render());
        assert_eq!(a.get("retention_ns").unwrap().as_arr().unwrap().len(), 6);
        assert!(a.get("median_ns").unwrap().as_f64().unwrap() > 0.0);
    }

    #[test]
    fn retention_map_bins_its_input() {
        let params = Json::parse(r#"{"lo_ns": 0, "hi_ns": 10, "bins": 2, "threshold_ns": 5}"#)
            .unwrap();
        let mut inputs = BTreeMap::new();
        inputs.insert(
            "chips".to_string(),
            Json::parse(r#"{"retention_ns": [1.0, 2.0, 7.0, 11.0, -1.0]}"#).unwrap(),
        );
        let p = execute("retention_map", &ctx(&params, &inputs)).unwrap();
        let buckets: Vec<u64> = p
            .get("buckets")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|b| b.as_u64().unwrap())
            .collect();
        assert_eq!(buckets, vec![2, 1]);
        assert_eq!(p.get("underflow").unwrap().as_u64(), Some(1));
        assert_eq!(p.get("overflow").unwrap().as_u64(), Some(1));
        assert_eq!(p.get("frac_above_threshold").unwrap().as_f64(), Some(0.4));

        // No retention-bearing input → stage error, not panic.
        let empty = BTreeMap::new();
        assert!(execute("retention_map", &ctx(&params, &empty)).is_err());
    }

    #[test]
    fn report_collects_compare_gauges() {
        let params = Json::object();
        let mut inputs = BTreeMap::new();
        inputs.insert(
            "figx".to_string(),
            Json::parse(
                r#"{"kind": "fig09",
                    "metrics": {"gauges": {"compare.perf": 0.97, "scheme.x": 1.0}}}"#,
            )
            .unwrap(),
        );
        let p = execute("report", &ctx(&params, &inputs)).unwrap();
        assert_eq!(p.get("checkpoints").unwrap().as_u64(), Some(1));
        let compares = p
            .get("stages")
            .unwrap()
            .get("figx")
            .unwrap()
            .get("compares")
            .unwrap();
        assert_eq!(compares.get("perf").unwrap().as_f64(), Some(0.97));
        assert!(compares.get("scheme.x").is_none());
    }

    #[test]
    fn chip_campaign_checkpoints_and_resumes_bit_identically() {
        let dir = std::env::temp_dir().join(format!(
            "pv3t1d_stage_ckpt_{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let store = crate::cas::ArtifactStore::new(&dir);
        let params = Json::parse(r#"{"chips": 6, "seed": 99, "corner": "typical"}"#).unwrap();
        let inputs = BTreeMap::new();
        let reference = execute("chip_campaign", &ctx(&params, &inputs)).unwrap();

        // First checkpointed run computes and persists every unit.
        let cp = Arc::new(StageCheckpoint::new(store.clone(), "stagekey", "chip_campaign"));
        let c = StageCtx {
            checkpoint: Some(cp.clone()),
            ..ctx(&params, &inputs)
        };
        let first = execute("chip_campaign", &c).unwrap();
        assert_eq!(first.render(), reference.render());
        assert_eq!(cp.stored(), 6);

        // Second run replays every unit from the checkpoint, bit-exactly.
        let cp = Arc::new(StageCheckpoint::new(store, "stagekey", "chip_campaign"));
        let c = StageCtx {
            checkpoint: Some(cp.clone()),
            ..ctx(&params, &inputs)
        };
        let second = execute("chip_campaign", &c).unwrap();
        assert_eq!(second.render(), reference.render());
        assert_eq!(cp.resumed(), 6);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cancelled_chip_campaign_is_a_stage_error() {
        let params = Json::parse(r#"{"chips": 4, "seed": 1}"#).unwrap();
        let inputs = BTreeMap::new();
        let token = CancelToken::new();
        token.cancel();
        let c = StageCtx {
            cancel: token,
            ..ctx(&params, &inputs)
        };
        let err = execute("chip_campaign", &c).unwrap_err();
        assert!(err.contains("cancelled"), "{err}");
    }

    fn temp_trace(tag: &str, len: u64) -> std::path::PathBuf {
        let path = std::env::temp_dir().join(format!(
            "pv3t1d_stage_trace_{tag}_{}.pvtrace",
            std::process::id()
        ));
        workloads::record_bench_to_path(workloads::SpecBenchmark::Gcc, 7, len, &path)
            .expect("recording a trace");
        path
    }

    #[test]
    fn trace_validate_agrees_on_a_recorded_trace() {
        let path = temp_trace("ok", 1_200);
        let mut params = Json::object();
        params.insert("trace", Json::Str(path.display().to_string()));
        params.insert("retention", Json::Str("mixed".into()));
        let inputs = BTreeMap::new();
        let p = execute("trace_validate", &ctx(&params, &inputs)).unwrap();
        assert_eq!(p.get("within_tolerance").and_then(Json::as_bool), Some(true));
        assert_eq!(p.get("max_divergence").and_then(Json::as_u64), Some(0));
        assert_eq!(p.get("total_records").and_then(Json::as_u64), Some(1_200));
        let schemes = p.get("schemes").and_then(Json::as_obj).unwrap();
        assert_eq!(schemes.len(), 3);
        // The payload pins the trace content it validated.
        let digest = crate::hash::content_hash(&std::fs::read(&path).unwrap());
        assert_eq!(p.get("trace_digest").and_then(Json::as_str), Some(digest.as_str()));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn trace_validate_rejects_bad_params() {
        let path = temp_trace("bad", 64);
        let inputs = BTreeMap::new();
        for (tag, params) in [
            ("no trace", Json::object()),
            ("missing file", {
                let mut p = Json::object();
                p.insert("trace", Json::Str("/nonexistent/x.pvtrace".into()));
                p
            }),
            ("unknown scheme", {
                let mut p = Json::object();
                p.insert("trace", Json::Str(path.display().to_string()));
                p.insert("schemes", Json::Str("warp-drive".into()));
                p
            }),
            ("unknown retention", {
                let mut p = Json::object();
                p.insert("trace", Json::Str(path.display().to_string()));
                p.insert("retention", Json::Str("imaginary".into()));
                p
            }),
        ] {
            assert!(
                execute("trace_validate", &ctx(&params, &inputs)).is_err(),
                "{tag}"
            );
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn effective_params_digests_trace_content_not_path() {
        let a = temp_trace("dig_a", 256);
        let mut pa = Json::object();
        pa.insert("trace", Json::Str(a.display().to_string()));
        let ea = effective_params("trace_validate", &pa);
        let digest = ea.get("trace_digest").and_then(Json::as_str).unwrap().to_string();
        assert_eq!(digest, crate::hash::content_hash(&std::fs::read(&a).unwrap()));

        // Identical content at a different path → identical digest.
        let b = std::env::temp_dir().join(format!(
            "pv3t1d_stage_trace_dig_b_{}.pvtrace",
            std::process::id()
        ));
        std::fs::copy(&a, &b).unwrap();
        let mut pb = Json::object();
        pb.insert("trace", Json::Str(b.display().to_string()));
        let eb = effective_params("trace_validate", &pb);
        assert_eq!(eb.get("trace_digest").and_then(Json::as_str), Some(digest.as_str()));

        // Unreadable file → null placeholder, not a panic.
        let mut pm = Json::object();
        pm.insert("trace", Json::Str("/nonexistent/x.pvtrace".into()));
        let em = effective_params("trace_validate", &pm);
        assert_eq!(em.get("trace_digest"), Some(&Json::Null));

        // Other kinds pass through untouched.
        assert_eq!(effective_params("chip_campaign", &pa).render(), pa.render());
        let _ = std::fs::remove_file(&a);
        let _ = std::fs::remove_file(&b);
    }

    /// A scale small enough that a grid cell's suite evaluation stays a
    /// unit-test-sized workload.
    fn tiny_scale() -> RunScale {
        RunScale {
            mc_chips: 3,
            sim_chips: 1,
            instructions: 5_000,
            warmup: 2_000,
        }
    }

    #[test]
    fn dvfs_point_payload_is_deterministic() {
        let params = Json::parse(
            r#"{"technology": "3t1d", "corner": "typical", "chips": 3, "seed": 41,
                "vdd": 1.0, "freq_ghz": 4.3, "temp_c": 80}"#,
        )
        .unwrap();
        let inputs = BTreeMap::new();
        let c = StageCtx {
            scale: tiny_scale(),
            ..ctx(&params, &inputs)
        };
        let a = execute("dvfs_point", &c).unwrap();
        let b = execute("dvfs_point", &c).unwrap();
        assert_eq!(a.render(), b.render());
        assert_eq!(a.get("slug").and_then(Json::as_str), Some("3t1d.v1000f4300t80"));
        assert_eq!(a.get("timing_feasible").and_then(Json::as_bool), Some(true));
        let y = a.get("yield_fraction").and_then(Json::as_f64).unwrap();
        assert!((0.0..=1.0).contains(&y), "yield {y}");
        assert!(a.get("bips").and_then(Json::as_f64).unwrap() > 0.0);
    }

    #[test]
    fn dvfs_frontier_joins_its_points() {
        let inputs_empty = BTreeMap::new();
        let cell = |vdd: f64, ghz: f64| {
            let mut params = Json::object();
            params.insert("technology", Json::Str("3t1d".into()));
            params.insert("corner", Json::Str("typical".into()));
            params.insert("chips", Json::Num(3.0));
            params.insert("seed", Json::Num(41.0));
            params.insert("vdd", Json::Num(vdd));
            params.insert("freq_ghz", Json::Num(ghz));
            let c = StageCtx {
                scale: tiny_scale(),
                ..ctx(&params, &inputs_empty)
            };
            execute("dvfs_point", &c).unwrap()
        };
        let mut inputs = BTreeMap::new();
        inputs.insert("grid.a".to_string(), cell(1.0, 4.3));
        inputs.insert("grid.b".to_string(), cell(1.0, 2.0));
        // A non-point dependency rides along and is ignored.
        inputs.insert("figx".to_string(), Json::parse(r#"{"kind": "fig09"}"#).unwrap());

        let params = Json::object();
        let p = execute("dvfs_frontier", &ctx(&params, &inputs)).unwrap();
        assert_eq!(p.get("count").and_then(Json::as_u64), Some(2));
        // The slower clock at the same rail is dominated: the frontier is
        // exactly the nominal point.
        assert_eq!(p.get("frontier_size").and_then(Json::as_u64), Some(1));
        let rows = p.get("points").and_then(Json::as_arr).unwrap();
        assert_eq!(rows[0].get("source").and_then(Json::as_str), Some("grid.a"));
        assert_eq!(rows[0].get("on_frontier").and_then(Json::as_bool), Some(true));
        assert_eq!(rows[1].get("on_frontier").and_then(Json::as_bool), Some(false));
        let text = p.get("text").and_then(Json::as_str).unwrap();
        assert!(text.contains("3t1d.v1000f4300t80"), "{text}");

        // No grid cells at all → stage error.
        let none = BTreeMap::new();
        assert!(execute("dvfs_frontier", &ctx(&params, &none)).is_err());
    }

    #[test]
    fn flaky_fails_once_then_succeeds() {
        let marker = std::env::temp_dir().join(format!(
            "pv3t1d_flaky_marker_{}",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&marker);
        let mut params = Json::object();
        params.insert("marker", Json::Str(marker.display().to_string()));
        let inputs = BTreeMap::new();
        let first = execute("flaky", &ctx(&params, &inputs));
        assert!(first.unwrap_err().contains("transient"));
        let second = execute("flaky", &ctx(&params, &inputs)).unwrap();
        assert_eq!(second.get("kind").and_then(Json::as_str), Some("flaky"));
        let _ = std::fs::remove_file(&marker);

        // Missing marker param is a configuration error.
        let bare = Json::object();
        assert!(execute("flaky", &ctx(&bare, &inputs)).is_err());
    }

    #[test]
    fn fail_stage_error_mode_errors() {
        let params = Json::parse(r#"{"mode": "error", "message": "boom"}"#).unwrap();
        let inputs = BTreeMap::new();
        assert_eq!(execute("fail", &ctx(&params, &inputs)), Err("boom".into()));
    }

    #[test]
    #[should_panic(expected = "kernel crash")]
    fn fail_stage_panic_mode_panics() {
        let params = Json::parse(r#"{"message": "kernel crash"}"#).unwrap();
        let inputs = BTreeMap::new();
        let _ = execute("fail", &ctx(&params, &inputs));
    }

    #[test]
    fn bad_params_are_errors_not_panics() {
        let inputs = BTreeMap::new();
        for (kind, params) in [
            ("chip_campaign", r#"{"node": "28nm"}"#),
            ("chip_campaign", r#"{"corner": "apocalyptic"}"#),
            ("chip_campaign", r#"{"chips": 0}"#),
            ("retention_map", r#"{"hi_ns": -1}"#),
            ("dvfs_point", r#"{"technology": "5t"}"#),
            ("dvfs_point", r#"{"corner": "apocalyptic"}"#),
            ("dvfs_point", r#"{"vdd": 9.0}"#),
            ("dvfs_point", r#"{"freq_ghz": 0}"#),
            ("dvfs_point", r#"{"temp_c": 500}"#),
            ("dvfs_point", r#"{"chips": 0}"#),
            ("sleep", r#"{"seconds": -2}"#),
        ] {
            let p = Json::parse(params).unwrap();
            assert!(execute(kind, &ctx(&p, &inputs)).is_err(), "{kind} {params}");
        }
    }
}
