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
//! * `sleep` — sleeps for its `seconds` param: the controllable slow
//!   stage of the timeout tests, the daemon smoke scenario and the
//!   serving load test.
//!
//! Test builds of this crate add one failure-injection kind, `fail`
//! (panics or errors on purpose), for the scheduler's own unit tests.
//! It is not in [`known_kinds`] of any other build, so no scenario or
//! `POST /runs` body can name it.

use crate::cas::StageCheckpoint;
use bench_harness::RunScale;
use obs::{CancelToken, Json};
use std::collections::BTreeMap;
use std::sync::Arc;
use t3cache::campaign::{map_indexed_with_hooks, worker_count, UnitHooks};
use t3cache::chip::ChipModel;
use vlsi::montecarlo::ChipFactory;
use vlsi::tech::TechNode;
use vlsi::variation::VariationCorner;

/// Stage fingerprint schema: folded into every cache key, so bumping it
/// (on any change to a stage's payload layout) invalidates all cached
/// artifacts at once.
pub const STAGE_SCHEMA: u64 = 1;

/// A non-figure stage kind's executor.
type StageFn = fn(&StageCtx<'_>) -> Result<Json, String>;

/// The non-figure stage kinds and their executors.
const BUILTIN_KINDS: [(&str, StageFn); 5] = [
    ("chip_campaign", chip_campaign),
    ("retention_map", retention_map),
    ("report", report),
    ("trace_validate", trace_validate),
    ("sleep", sleep),
];

/// The failure-injection kind: registered in test builds only.
#[cfg(test)]
const TEST_KINDS: [(&str, StageFn); 1] = [("fail", fail)];
#[cfg(not(test))]
const TEST_KINDS: [(&str, StageFn); 0] = [];

fn builtin_kinds() -> impl Iterator<Item = &'static (&'static str, StageFn)> {
    BUILTIN_KINDS.iter().chain(&TEST_KINDS)
}

fn builtin_fn(kind: &str) -> Option<StageFn> {
    builtin_kinds()
        .find(|(name, _)| *name == kind)
        .map(|&(_, f)| f)
}

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
        .and_then(|path| crate::hash::file_hash(path).ok());
    let mut p = params.clone();
    p.insert("trace_digest", digest.map_or(Json::Null, Json::Str));
    p
}

/// Every known stage kind, sorted.
pub fn known_kinds() -> Vec<&'static str> {
    let mut v: Vec<&'static str> = builtin_kinds().map(|&(name, _)| name).collect();
    v.extend(bench_harness::figures::stage_names());
    v.sort_unstable();
    v
}

/// Whether `kind` names a runnable stage.
pub fn is_known(kind: &str) -> bool {
    builtin_fn(kind).is_some() || bench_harness::figures::stage_fn(kind).is_some()
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
    /// the next run; other stages ignore it.
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
    match builtin_fn(kind) {
        Some(f) => f(ctx),
        None => Err(format!("unknown stage kind {kind:?}")),
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

    let digest =
        crate::hash::file_hash(&path).map_err(|e| format!("reading trace {path:?}: {e}"))?;
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

/// `sleep`: sleeps `seconds` (default 0.05) — the controllable slow
/// stage. The payload records only the *requested* duration, keeping it
/// deterministic; a `seconds` outside `[0, 3600]` fails every run.
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

/// `fail` (test builds only): fails on purpose — `mode: "panic"`
/// (default) panics like a crashed simulation kernel; `mode: "error"`
/// returns a stage error.
#[cfg(test)]
fn fail(ctx: &StageCtx<'_>) -> Result<Json, String> {
    let message = ctx.str_param("message", "injected failure")?;
    match ctx.str_param("mode", "panic")?.as_str() {
        "panic" => panic!("{message}"),
        "error" => Err(message),
        other => Err(format!("unknown fail mode {other:?}")),
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
            BUILTIN_KINDS.len() + TEST_KINDS.len() + bench_harness::figures::STAGES.len()
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
            ("sleep", r#"{"seconds": -2}"#),
        ] {
            let p = Json::parse(params).unwrap();
            assert!(execute(kind, &ctx(&p, &inputs)).is_err(), "{kind} {params}");
        }
    }
}
