//! The DAG scheduler: runs a [`Scenario`]'s stages in dependency order,
//! concurrently where the graph allows, with per-stage failure isolation
//! and wall-clock timeouts, reading and writing the content-addressed
//! [`ArtifactStore`].
//!
//! # Execution model
//!
//! Each stage runs on its own OS thread under
//! [`std::panic::catch_unwind`], reporting back over an mpsc channel.
//! The scheduler thread owns all state; it launches ready stages up to
//! the `jobs` cap, then blocks in [`mpsc::Receiver::recv_timeout`] with
//! the deadline of the *earliest-expiring* running stage:
//!
//! * a completed stage stores its payload in the CAS and unlocks its
//!   dependents;
//! * a failed stage (error **or panic**) is recorded and its transitive
//!   dependents are marked `Skipped` — siblings keep running;
//! * an overdue stage is marked `TimedOut` and abandoned: its thread
//!   keeps running detached, but its eventual result is dropped (the
//!   stage index goes into a cancelled set) and is **not** written to
//!   the cache.
//!
//! # Caching and determinism
//!
//! A stage's cache key ([`stage_key`]) fingerprints its kind, canonical
//! params, run scale, and the artifact digests of its inputs — so a hit
//! is only possible when the entire upstream cone is byte-identical.
//! The [`RunSummary`]'s `results` section (and the fingerprint derived
//! from it) covers exactly the deterministic facts: stage → key →
//! artifact digest → status. Whether a payload came from the cache or
//! was recomputed lives in the separate `execution` section, which is
//! why a fully-cached rerun reproduces the fingerprint bit-for-bit.

use crate::cas::{ArtifactStore, StageCheckpoint};
use crate::flight::FlightTable;
use crate::hash::content_hash;
use crate::spec::{scale_to_json, Scenario, SpecError};
use crate::stage::{self, StageCtx, STAGE_SCHEMA};
use bench_harness::RunScale;
use obs::{CancelToken, EventBus, Json, MetricsRegistry};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Run-manifest schema version.
pub const RUN_SCHEMA: u64 = 1;

/// Knobs for one scheduler invocation.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Maximum concurrently-running stages. Stages fan their own Monte-
    /// Carlo campaigns across the worker pool already, so the default is
    /// a deliberately small 2 — DAG-level concurrency papers over serial
    /// sections, it does not replace kernel-level parallelism.
    pub jobs: usize,
    /// Results directory; the CAS lives in `<results_dir>/cas/`.
    pub results_dir: PathBuf,
    /// Read (and write) the artifact cache. When false every stage
    /// executes, but fresh payloads are still stored for later runs.
    pub use_cache: bool,
    /// Overrides the scenario's run scale (the CLI's `--quick`/`--full`).
    pub scale_override: Option<RunScale>,
    /// Print a progress line per completed stage.
    pub verbose: bool,
    /// Cooperative cancellation (the CLI's SIGINT/SIGTERM bridge). Once
    /// the token is set the scheduler stops launching, gives in-flight
    /// stages a short grace period to flush their checkpoints, marks the
    /// rest `Cancelled`, and returns a complete (but failed) summary.
    pub cancel: Option<CancelToken>,
    /// In-flight request coalescing across concurrent scheduler
    /// invocations (the `pv3t1d serve` daemon shares one table between
    /// all jobs): stages landing on a key already being computed wait
    /// for that leader instead of re-executing.
    pub flight: Option<Arc<FlightTable>>,
    /// Streaming progress events: when set, the scheduler publishes one
    /// JSON event per run/stage lifecycle transition for clients tailing
    /// `GET /jobs/<id>/events`.
    pub events: Option<EventBus>,
    /// Correlation id minted by the serving layer at accept time. When
    /// set it is stamped on every published event, woven into run/stage
    /// trace-span names, carried in `obs::log` lines, and echoed in the
    /// manifest's `execution` section — never in `results`, so it cannot
    /// perturb the run fingerprint.
    pub request_id: Option<String>,
}

impl Default for RunOptions {
    fn default() -> Self {
        Self {
            jobs: 2,
            results_dir: PathBuf::from("results"),
            use_cache: true,
            scale_override: None,
            verbose: false,
            cancel: None,
            flight: None,
            events: None,
            request_id: None,
        }
    }
}

/// What *class* of failure a [`StageStatus::Failed`] (or a manifest
/// `errors` entry) carries — machine-readable so daemon clients can
/// distinguish a stage panic from an orderly cancellation without
/// parsing message strings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageErrorKind {
    /// The stage function returned `Err`.
    Error,
    /// The stage panicked and was caught at the thread boundary.
    Panic,
    /// The stage exceeded its wall-clock budget.
    Timeout,
    /// An upstream stage failed, so this one never started.
    Skipped,
    /// The run was interrupted (signal, `DELETE /jobs/<id>`, daemon
    /// drain) before the stage could finish.
    Cancelled,
}

impl StageErrorKind {
    /// The manifest word for this kind.
    pub fn word(self) -> &'static str {
        match self {
            StageErrorKind::Error => "error",
            StageErrorKind::Panic => "panic",
            StageErrorKind::Timeout => "timeout",
            StageErrorKind::Skipped => "skipped",
            StageErrorKind::Cancelled => "cancelled",
        }
    }
}

/// A structured stage failure: what went wrong, and the preserved
/// human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageError {
    /// Failure class.
    pub kind: StageErrorKind,
    /// The stage's error or panic message.
    pub message: String,
}

impl StageError {
    /// An `Err`-returned stage failure.
    pub fn error(message: impl Into<String>) -> Self {
        Self {
            kind: StageErrorKind::Error,
            message: message.into(),
        }
    }

    /// A caught stage panic.
    pub fn panic(message: impl Into<String>) -> Self {
        Self {
            kind: StageErrorKind::Panic,
            message: message.into(),
        }
    }

    /// The manifest representation: `{"kind": …, "message": …}`.
    pub fn to_json(&self) -> Json {
        error_json(self.kind.word(), &self.message)
    }
}

impl fmt::Display for StageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            StageErrorKind::Error => write!(f, "{}", self.message),
            kind => write!(f, "{}: {}", kind.word(), self.message),
        }
    }
}

/// A structured manifest `errors` entry for statuses that carry only a
/// message (timeout / skipped / cancelled).
fn error_json(kind: &str, message: &str) -> Json {
    let mut o = Json::object();
    o.insert("kind", Json::Str(kind.to_string()));
    o.insert("message", Json::Str(message.to_string()));
    o
}

/// How one stage ended.
#[derive(Debug, Clone, PartialEq)]
pub enum StageStatus {
    /// Payload served from the artifact store.
    Cached,
    /// Executed successfully this run.
    Ran,
    /// Returned an error or panicked; the structured cause is preserved.
    Failed(StageError),
    /// Exceeded its wall-clock budget (seconds).
    TimedOut(f64),
    /// Never started because an upstream stage failed or timed out.
    Skipped(String),
    /// The run was interrupted before the stage could produce a payload.
    /// Unlike `Failed`, nothing is wrong with the stage — a rerun picks
    /// up from its checkpoints.
    Cancelled(String),
}

impl StageStatus {
    /// Whether the stage produced a payload.
    pub fn is_ok(&self) -> bool {
        matches!(self, StageStatus::Cached | StageStatus::Ran)
    }

    /// The deterministic status word used in the fingerprinted results
    /// section. `Cached` and `Ran` both map to `ok` — *how* a payload
    /// materialized is an execution detail, not a result.
    fn result_word(&self) -> &'static str {
        match self {
            StageStatus::Cached | StageStatus::Ran => "ok",
            StageStatus::Failed(_) => "failed",
            StageStatus::TimedOut(_) => "timeout",
            StageStatus::Skipped(_) => "skipped",
            StageStatus::Cancelled(_) => "cancelled",
        }
    }

    /// The progress-line tag.
    pub fn tag(&self) -> &'static str {
        match self {
            StageStatus::Cached => "cache",
            StageStatus::Ran => "run",
            StageStatus::Failed(_) => "FAIL",
            StageStatus::TimedOut(_) => "TIMEOUT",
            StageStatus::Skipped(_) => "skip",
            StageStatus::Cancelled(_) => "CANCEL",
        }
    }
}

/// One stage's outcome in a [`RunSummary`].
#[derive(Debug, Clone)]
pub struct StageResult {
    /// Stage id.
    pub id: String,
    /// Stage kind.
    pub kind: String,
    /// The cache key, when the stage got far enough to compute one
    /// (skipped stages did not).
    pub key: Option<String>,
    /// The payload digest, for ok stages.
    pub artifact: Option<String>,
    /// How the stage ended.
    pub status: StageStatus,
    /// Stage wall clock, summed over every attempt (0 for cache hits
    /// and skips).
    pub seconds: f64,
    /// Times the stage was launched (0 for cache hits and skips; > 1
    /// means the retry budget was used).
    pub attempts: u32,
}

/// The complete record of one scheduler invocation.
#[derive(Debug)]
pub struct RunSummary {
    /// Scenario name.
    pub scenario: String,
    /// The scale the run executed at.
    pub scale: RunScale,
    /// Per-stage outcomes, in topological order.
    pub stages: Vec<StageResult>,
    /// Stages served from the artifact store.
    pub cache_hits: u64,
    /// Stages that had to execute because no valid entry existed.
    pub cache_misses: u64,
    /// Stages that actually executed (== misses when caching is on).
    pub executed: u64,
    /// End-to-end wall clock.
    pub wall_seconds: f64,
    /// DAG-level concurrency used.
    pub jobs: usize,
    /// Scheduler metrics (`orchestrator.cas.hits`, …), merged into the
    /// run manifest's execution section.
    pub metrics: MetricsRegistry,
    /// The serving layer's correlation id, echoed in the manifest's
    /// `execution` section (absent for plain CLI runs).
    pub request_id: Option<String>,
}

impl RunSummary {
    /// Whether every stage produced a payload.
    pub fn ok(&self) -> bool {
        self.stages.iter().all(|s| s.status.is_ok())
    }

    /// The deterministic results section: everything about the run that
    /// must be bit-identical across reruns of the same scenario at the
    /// same scale with the same code.
    pub fn results_json(&self) -> Json {
        let mut stages = Json::object();
        for s in &self.stages {
            let mut e = Json::object();
            e.insert("kind", Json::Str(s.kind.clone()));
            e.insert("key", s.key.clone().map_or(Json::Null, Json::Str));
            e.insert("artifact", s.artifact.clone().map_or(Json::Null, Json::Str));
            e.insert("status", Json::Str(s.status.result_word().to_string()));
            stages.insert(&s.id, e);
        }
        let mut o = Json::object();
        o.insert("scenario", Json::Str(self.scenario.clone()));
        o.insert("scale", scale_to_json(self.scale));
        o.insert("stages", stages);
        o
    }

    /// The run fingerprint: content hash of the rendered results
    /// section. A fully-cached rerun must reproduce it bit-for-bit.
    pub fn fingerprint(&self) -> String {
        content_hash(self.results_json().render().as_bytes())
    }

    /// Serializes the run manifest: the fingerprinted `results` section
    /// plus non-deterministic `execution` details and per-stage
    /// `errors`. Each error is a structured `{"kind", "message"}` object
    /// ([`StageErrorKind::word`] values), so daemon clients and CI can
    /// tell a panic from a timeout from an orderly cancellation.
    pub fn to_json(&self) -> Json {
        let mut errors = Json::object();
        let mut per_stage = Json::object();
        for s in &self.stages {
            match &s.status {
                StageStatus::Failed(e) => errors.insert(&s.id, e.to_json()),
                StageStatus::TimedOut(limit) => errors.insert(
                    &s.id,
                    error_json("timeout", &format!("timed out after {limit} seconds")),
                ),
                StageStatus::Skipped(why) => errors.insert(&s.id, error_json("skipped", why)),
                StageStatus::Cancelled(why) => {
                    errors.insert(&s.id, error_json("cancelled", why));
                }
                _ => {}
            }
            let mut e = Json::object();
            let source = match s.status {
                StageStatus::Cached => "cache",
                StageStatus::Ran => "run",
                _ => "none",
            };
            e.insert("source", Json::Str(source.to_string()));
            e.insert("seconds", Json::Num(s.seconds));
            e.insert("attempts", Json::Num(f64::from(s.attempts)));
            per_stage.insert(&s.id, e);
        }
        let mut execution = Json::object();
        execution.insert("jobs", Json::Num(self.jobs as f64));
        execution.insert("wall_seconds", Json::Num(self.wall_seconds));
        execution.insert("cache_hits", Json::Num(self.cache_hits as f64));
        execution.insert("cache_misses", Json::Num(self.cache_misses as f64));
        execution.insert("executed", Json::Num(self.executed as f64));
        execution.insert("stages", per_stage);
        execution.insert("metrics", self.metrics.to_json());
        if let Some(rid) = &self.request_id {
            execution.insert("request_id", Json::Str(rid.clone()));
        }

        let mut o = Json::object();
        o.insert("schema", Json::Num(RUN_SCHEMA as f64));
        o.insert("ok", Json::Bool(self.ok()));
        o.insert("fingerprint", Json::Str(self.fingerprint()));
        o.insert("results", self.results_json());
        o.insert("errors", errors);
        o.insert("execution", execution);
        o
    }

    /// Writes the run manifest to `path`, creating parent directories.
    pub fn write_to(&self, path: &Path) -> io::Result<()> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        std::fs::write(path, self.to_json().render_pretty())
    }
}

/// The cache key of one stage: hash of (fingerprint schema, kind,
/// canonical *effective* params, run scale, dependency-id →
/// artifact-digest map). Two stages share a key iff nothing observable
/// about their computation differs. Params are first resolved through
/// [`crate::stage::effective_params`], which folds content-addressed
/// file inputs (the `trace_validate` kind's trace bytes) into the
/// fingerprint — so editing a trace file in place invalidates the
/// cached artifact even though the path param is unchanged.
pub fn stage_key(kind: &str, params: &Json, scale: RunScale, deps: &BTreeMap<String, String>) -> String {
    let params = crate::stage::effective_params(kind, params);
    let mut o = Json::object();
    o.insert("schema", Json::Num(STAGE_SCHEMA as f64));
    o.insert("kind", Json::Str(kind.to_string()));
    o.insert("params", params);
    o.insert("scale", scale_to_json(scale));
    let mut inputs = Json::object();
    for (id, digest) in deps {
        inputs.insert(id, Json::Str(digest.clone()));
    }
    o.insert("inputs", inputs);
    content_hash(o.render().as_bytes())
}

/// One row of [`plan_scenario`].
#[derive(Debug, Clone)]
pub struct PlanEntry {
    /// Stage id.
    pub id: String,
    /// Stage kind.
    pub kind: String,
    /// The cache key, when every upstream artifact is already cached
    /// (otherwise the key depends on digests that do not exist yet).
    pub key: Option<String>,
    /// Whether a valid artifact for `key` is in the store.
    pub cached: bool,
}

/// Computes, without executing anything, which stages of a scenario
/// would be cache hits. Keys become unknowable downstream of the first
/// miss (they depend on artifact digests that are yet to be produced).
pub fn plan_scenario(sc: &Scenario, opts: &RunOptions) -> Result<Vec<PlanEntry>, SpecError> {
    let order = sc.validate()?;
    let scale = opts.scale_override.unwrap_or(sc.scale);
    let store = ArtifactStore::new(opts.results_dir.join("cas"));
    let mut digests: HashMap<String, String> = HashMap::new();
    let mut plan = Vec::with_capacity(order.len());
    for &i in &order {
        let s = &sc.stages[i];
        let deps: Option<BTreeMap<String, String>> = s
            .deps
            .iter()
            .map(|d| digests.get(d).map(|h| (d.clone(), h.clone())))
            .collect();
        let (key, cached) = match deps {
            Some(deps) => {
                let key = stage_key(&s.kind, &s.params, scale, &deps);
                match store.get(&key) {
                    Some(entry) => {
                        digests.insert(s.id.clone(), entry.payload_hash);
                        (Some(key), true)
                    }
                    None => (Some(key), false),
                }
            }
            None => (None, false),
        };
        plan.push(PlanEntry {
            id: s.id.clone(),
            kind: s.kind.clone(),
            key,
            cached,
        });
    }
    Ok(plan)
}

/// Internal: what a worker thread reports back — stage index, launch
/// generation (so reports from abandoned attempts are recognizably
/// stale), result, attempt wall clock, and whether the result was
/// coalesced from a concurrent leader's computation.
type StageReport = (usize, u64, Result<Json, StageError>, f64, bool);

/// Internal: one in-flight stage attempt.
struct Running {
    /// Monotonic launch id; a report whose generation does not match the
    /// stage's current one is from a timed-out/retried attempt.
    generation: u64,
    launched: Instant,
    deadline: Option<Instant>,
}

/// How long the scheduler is willing to block while a cancel token could
/// flip underneath it.
const CANCEL_POLL: Duration = Duration::from_millis(100);

/// Grace period after cancellation: in-flight stages get this long to
/// notice the token, flush their unit checkpoints, and report back
/// before they are abandoned.
const CANCEL_GRACE: Duration = Duration::from_secs(2);

/// Runs a scenario to completion. Never aborts on stage failure — every
/// stage that *can* produce a payload does, and the summary records the
/// rest. Returns `Err` only for spec-level problems (invalid scenario).
///
/// Failed or timed-out attempts of stages that declare `retries` are
/// re-launched after their `backoff_ms`, up to the budget; only the
/// final failure cascades `Skipped` to dependents. Retries are purely an
/// execution policy — they never enter cache keys or the run
/// fingerprint. When [`RunOptions::cancel`] fires, the scheduler stops
/// launching, drains in-flight stages for `CANCEL_GRACE` (2 s), marks
/// everything unfinished `Cancelled`, and still returns a complete
/// summary (so a partial manifest can be written).
pub fn run_scenario(sc: &Scenario, opts: &RunOptions) -> Result<RunSummary, SpecError> {
    let order = sc.validate()?;
    let scale = opts.scale_override.unwrap_or(sc.scale);
    let store = ArtifactStore::new(opts.results_dir.join("cas"));
    let started = Instant::now();
    let n = sc.stages.len();
    let jobs = opts.jobs.max(1);
    let _run_span = obs::trace::span_with("orchestrator", || match &opts.request_id {
        Some(rid) => format!("run_scenario:{}@{rid}", sc.name),
        None => format!("run_scenario:{}", sc.name),
    });
    // Fields every scheduler log line carries (the request id makes one
    // daemon job greppable end to end).
    let log_fields = |mut fields: Vec<(&'static str, Json)>| {
        if let Some(rid) = &opts.request_id {
            fields.push(("request_id", Json::Str(rid.clone())));
        }
        fields
    };
    if obs::log::enabled(obs::log::Level::Info) {
        obs::log::info(
            "run started",
            &log_fields(vec![
                ("scenario", Json::Str(sc.name.clone())),
                ("stages", Json::Num(sc.stages.len() as f64)),
            ]),
        );
    }

    let index_of: HashMap<&str, usize> = sc
        .stages
        .iter()
        .enumerate()
        .map(|(i, s)| (s.id.as_str(), i))
        .collect();
    let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut remaining: Vec<usize> = vec![0; n];
    for (i, s) in sc.stages.iter().enumerate() {
        remaining[i] = s.deps.len();
        for d in &s.deps {
            dependents[index_of[d.as_str()]].push(i);
        }
    }

    let mut status: Vec<Option<StageStatus>> = vec![None; n];
    let mut keys: Vec<Option<String>> = vec![None; n];
    let mut digests: Vec<Option<String>> = vec![None; n];
    let mut payloads: Vec<Option<Json>> = vec![None; n];
    let mut seconds: Vec<f64> = vec![0.0; n];
    let mut attempts: Vec<u32> = vec![0; n];
    let mut metrics = MetricsRegistry::new();
    let (mut hits, mut misses, mut executed) = (0u64, 0u64, 0u64);
    let mut retries_total = 0u64;
    let mut coalesced_total = 0u64;

    // Streaming progress events (no-ops when no bus is attached).
    let publish = |event: &mut Json, kind: &str| {
        if let Some(bus) = &opts.events {
            event.insert("event", Json::Str(kind.to_string()));
            if let Some(rid) = &opts.request_id {
                event.insert("request_id", Json::Str(rid.clone()));
            }
            bus.publish(event.clone());
        }
    };
    {
        let mut ev = Json::object();
        ev.insert("scenario", Json::Str(sc.name.clone()));
        ev.insert("scale", scale_to_json(scale));
        ev.insert("stages", Json::Num(n as f64));
        publish(&mut ev, "run.started");
    }

    let (tx, rx) = mpsc::channel::<StageReport>();
    // Ready queue seeded in topological order; later insertions happen
    // as dependencies resolve.
    let mut ready: VecDeque<usize> = order.iter().copied().filter(|&i| remaining[i] == 0).collect();
    let mut running: HashMap<usize, Running> = HashMap::new();
    // Failed/timed-out attempts waiting out their backoff: (due, stage).
    let mut pending_retry: Vec<(Instant, usize)> = Vec::new();
    // One checkpoint per launched stage (shared across its attempts: a
    // timed-out attempt's detached thread keeps streaming units the
    // retry then resumes).
    let mut checkpoints: HashMap<usize, Arc<StageCheckpoint>> = HashMap::new();
    let mut next_generation = 0u64;
    let mut finished = 0usize;
    // Latched once the cancel token is observed set.
    let mut cancelling = false;
    let mut grace_deadline: Option<Instant> = None;

    // Marks a stage terminal and cascades skips to its dependents.
    // Declared as a macro rather than a closure because it re-borrows
    // most of the mutable state above.
    macro_rules! finish_stage {
        ($i:expr, $st:expr) => {{
            let i = $i;
            let st: StageStatus = $st;
            if opts.verbose {
                println!(
                    "{:>8}  {:<24} {}",
                    st.tag(),
                    sc.stages[i].id,
                    match &st {
                        StageStatus::Ran => format!("{:.2}s", seconds[i]),
                        StageStatus::Failed(e) => e.to_string(),
                        StageStatus::TimedOut(l) => format!("budget {l}s"),
                        StageStatus::Skipped(w) => w.clone(),
                        StageStatus::Cancelled(w) => w.clone(),
                        StageStatus::Cached => String::new(),
                    }
                );
            }
            if opts.events.is_some() {
                let mut ev = Json::object();
                ev.insert("id", Json::Str(sc.stages[i].id.clone()));
                ev.insert("status", Json::Str(st.result_word().to_string()));
                ev.insert("tag", Json::Str(st.tag().to_string()));
                ev.insert("seconds", Json::Num(seconds[i]));
                ev.insert("key", keys[i].clone().map_or(Json::Null, Json::Str));
                if let Some(err) = match &st {
                    StageStatus::Failed(e) => Some(e.to_json()),
                    StageStatus::TimedOut(l) => {
                        Some(error_json("timeout", &format!("timed out after {l} seconds")))
                    }
                    StageStatus::Skipped(w) => Some(error_json("skipped", w)),
                    StageStatus::Cancelled(w) => Some(error_json("cancelled", w)),
                    _ => None,
                } {
                    ev.insert("error", err);
                }
                publish(&mut ev, "stage.finished");
            }
            if obs::log::enabled(obs::log::Level::Debug) {
                obs::log::debug(
                    "stage finished",
                    &log_fields(vec![
                        ("stage", Json::Str(sc.stages[i].id.clone())),
                        ("status", Json::Str(st.result_word().to_string())),
                        ("seconds", Json::Num(seconds[i])),
                    ]),
                );
            }
            let produced = st.is_ok();
            status[i] = Some(st);
            finished += 1;
            let mut cascade: VecDeque<usize> = dependents[i].iter().copied().collect();
            while let Some(j) = cascade.pop_front() {
                if status[j].is_some() {
                    continue;
                }
                if produced {
                    remaining[j] -= 1;
                    if remaining[j] == 0 {
                        ready.push_back(j);
                    }
                } else {
                    let why = format!(
                        "dependency {:?} did not produce a payload",
                        sc.stages[i].id
                    );
                    status[j] = Some(StageStatus::Skipped(why.clone()));
                    finished += 1;
                    if opts.verbose {
                        println!("{:>8}  {:<24} after {}", "skip", sc.stages[j].id, sc.stages[i].id);
                    }
                    if opts.events.is_some() {
                        let mut ev = Json::object();
                        ev.insert("id", Json::Str(sc.stages[j].id.clone()));
                        ev.insert("status", Json::Str("skipped".to_string()));
                        ev.insert("error", error_json("skipped", &why));
                        publish(&mut ev, "stage.finished");
                    }
                    cascade.extend(dependents[j].iter().copied());
                }
            }
        }};
    }

    while finished < n {
        // Latch cancellation the moment the token is observed set.
        if !cancelling && opts.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
            cancelling = true;
            grace_deadline = Some(Instant::now() + CANCEL_GRACE);
            obs::trace::instant("orchestrator", "run.cancelled");
        }

        if cancelling {
            // Nothing new launches; queued work is terminally cancelled.
            let queued_retries: Vec<usize> =
                pending_retry.drain(..).map(|(_, i)| i).collect();
            for i in queued_retries {
                if status[i].is_none() {
                    finish_stage!(
                        i,
                        StageStatus::Cancelled("run interrupted before retry".into())
                    );
                }
            }
            while let Some(i) = ready.pop_front() {
                if status[i].is_none() {
                    finish_stage!(
                        i,
                        StageStatus::Cancelled("run interrupted before launch".into())
                    );
                }
            }
            if running.is_empty() {
                for i in 0..n {
                    if status[i].is_none() {
                        finish_stage!(i, StageStatus::Cancelled("run interrupted".into()));
                    }
                }
                continue;
            }
            if grace_deadline.is_some_and(|d| Instant::now() >= d) {
                // Grace elapsed: abandon whatever is still in flight (its
                // units are checkpointed; late reports are stale by
                // generation).
                let in_flight: Vec<usize> = running.keys().copied().collect();
                for i in in_flight {
                    let r = running.remove(&i).expect("in-flight stage was running");
                    seconds[i] += r.launched.elapsed().as_secs_f64();
                    finish_stage!(
                        i,
                        StageStatus::Cancelled("run interrupted (grace elapsed)".into())
                    );
                }
                continue;
            }
        } else {
            // Promote retries whose backoff has elapsed.
            let now = Instant::now();
            let mut j = 0;
            while j < pending_retry.len() {
                if pending_retry[j].0 <= now {
                    let (_, i) = pending_retry.swap_remove(j);
                    ready.push_back(i);
                } else {
                    j += 1;
                }
            }

            // Launch ready stages up to the concurrency cap.
            while running.len() < jobs {
                let Some(i) = ready.pop_front() else { break };
                if status[i].is_some() {
                    continue; // skipped while queued
                }
                let s = &sc.stages[i];
                let mut inputs: BTreeMap<String, Json> = BTreeMap::new();
                let mut dep_digests: BTreeMap<String, String> = BTreeMap::new();
                for d in &s.deps {
                    let j = index_of[d.as_str()];
                    inputs.insert(d.clone(), payloads[j].clone().expect("dep payload present"));
                    dep_digests.insert(d.clone(), digests[j].clone().expect("dep digest present"));
                }
                let key = stage_key(&s.kind, &s.params, scale, &dep_digests);
                keys[i] = Some(key.clone());

                if opts.use_cache && attempts[i] == 0 {
                    if let Some(entry) = store.get(&key) {
                        digests[i] = Some(entry.payload_hash);
                        payloads[i] = Some(entry.payload);
                        hits += 1;
                        obs::trace::instant_with("orchestrator", || format!("cas.hit:{}", s.id));
                        finish_stage!(i, StageStatus::Cached);
                        continue;
                    }
                    misses += 1;
                    obs::trace::instant_with("orchestrator", || format!("cas.miss:{}", s.id));
                }

                let checkpoint = if opts.use_cache {
                    Some(
                        checkpoints
                            .entry(i)
                            .or_insert_with(|| {
                                Arc::new(StageCheckpoint::new(store.clone(), &key, &s.kind))
                            })
                            .clone(),
                    )
                } else {
                    None
                };
                let cancel = opts.cancel.clone().unwrap_or_default();
                attempts[i] += 1;
                next_generation += 1;
                let generation = next_generation;
                let deadline = s
                    .timeout_seconds
                    .or(sc.default_timeout_seconds)
                    .map(|t| Instant::now() + Duration::from_secs_f64(t));
                running.insert(
                    i,
                    Running {
                        generation,
                        launched: Instant::now(),
                        deadline,
                    },
                );
                if opts.events.is_some() {
                    let mut ev = Json::object();
                    ev.insert("id", Json::Str(s.id.clone()));
                    ev.insert("kind", Json::Str(s.kind.clone()));
                    ev.insert("attempt", Json::Num(f64::from(attempts[i])));
                    publish(&mut ev, "stage.launched");
                }
                let tx = tx.clone();
                let kind = s.kind.clone();
                let params = s.params.clone();
                let stage_id = s.id.clone();
                let flight = opts.flight.clone();
                let request_id = opts.request_id.clone();
                std::thread::spawn(move || {
                    let _stage_span =
                        obs::trace::span_with("orchestrator", || match &request_id {
                            Some(rid) => format!("stage:{stage_id}@{rid}"),
                            None => format!("stage:{stage_id}"),
                        });
                    let t0 = Instant::now();
                    let compute = || {
                        catch_unwind(AssertUnwindSafe(|| {
                            stage::execute(
                                &kind,
                                &StageCtx {
                                    params: &params,
                                    inputs: &inputs,
                                    scale,
                                    checkpoint,
                                    cancel: cancel.clone(),
                                },
                            )
                        }))
                        .map_err(|panic| StageError::panic(panic_message(panic.as_ref())))
                        .and_then(|r| r.map_err(StageError::error))
                    };
                    // With a flight table attached, a concurrent leader
                    // already computing this exact key is shared instead
                    // of re-executed (the follower blocks, polling its
                    // cancel token).
                    let (result, coalesced) = match &flight {
                        Some(table) => table.run_or_wait(&key, &cancel, compute),
                        None => (compute(), false),
                    };
                    if coalesced {
                        obs::trace::instant_with("orchestrator", || {
                            format!("flight.coalesced:{stage_id}")
                        });
                    }
                    let _ = tx.send((i, generation, result, t0.elapsed().as_secs_f64(), coalesced));
                });
            }
        }

        if running.is_empty() {
            if cancelling {
                continue;
            }
            if !pending_retry.is_empty() {
                // Idle until the earliest backoff elapses (capped so a
                // cancel token is still noticed promptly).
                let due = pending_retry
                    .iter()
                    .map(|&(t, _)| t)
                    .min()
                    .expect("pending_retry is non-empty");
                let mut wait = due.saturating_duration_since(Instant::now());
                if opts.cancel.is_some() {
                    wait = wait.min(CANCEL_POLL);
                }
                std::thread::sleep(wait.max(Duration::from_millis(1)));
                continue;
            }
            if ready.is_empty() && finished < n {
                // Defensive: validate() guarantees this cannot happen.
                for s in status.iter_mut().filter(|s| s.is_none()) {
                    *s = Some(StageStatus::Skipped("scheduler stall".into()));
                    finished += 1;
                }
            }
            continue;
        }

        // Block until a report arrives, the earliest deadline passes,
        // the earliest retry comes due, or the next cancel poll.
        let now = Instant::now();
        let mut wait = running
            .values()
            .filter_map(|r| r.deadline)
            .map(|d| d.saturating_duration_since(now))
            .min()
            .unwrap_or(Duration::from_secs(3600));
        if let Some(due) = pending_retry.iter().map(|&(t, _)| t).min() {
            wait = wait.min(due.saturating_duration_since(now));
        }
        if opts.cancel.is_some() || cancelling {
            wait = wait.min(CANCEL_POLL);
        }
        match rx.recv_timeout(wait.max(Duration::from_millis(1))) {
            Ok((i, generation, result, secs, coalesced)) => {
                if running.get(&i).map(|r| r.generation) != Some(generation) {
                    // Late report from an abandoned attempt: discard,
                    // never cache.
                    continue;
                }
                running.remove(&i);
                seconds[i] += secs;
                if coalesced {
                    coalesced_total += 1;
                }
                match result {
                    Ok(payload) => {
                        executed += 1;
                        let digest = if opts.use_cache {
                            store
                                .put(&keys[i].clone().expect("key set at launch"), &sc.stages[i].kind, &payload)
                                .unwrap_or_else(|_| content_hash(payload.render().as_bytes()))
                        } else {
                            content_hash(payload.render().as_bytes())
                        };
                        digests[i] = Some(digest);
                        payloads[i] = Some(payload);
                        // The full artifact is on disk; this stage's unit
                        // checkpoints are redundant now.
                        if let Some(cp) = checkpoints.get(&i) {
                            let _ = cp.clear();
                        }
                        finish_stage!(i, StageStatus::Ran);
                    }
                    // Check the token too, not just the latch: the cancel
                    // may have landed after this iteration's latch check
                    // but before the stage's error report arrived.
                    Err(e)
                        if e.kind == StageErrorKind::Cancelled
                            || cancelling
                            || opts.cancel.as_ref().is_some_and(CancelToken::is_cancelled) =>
                    {
                        // A stage erroring while the run winds down is
                        // (almost always) the cancellation itself
                        // surfacing; either way, retrying is pointless.
                        finish_stage!(i, StageStatus::Cancelled(e.message));
                    }
                    Err(e) if attempts[i] <= sc.stages[i].retries => {
                        retries_total += 1;
                        let backoff = sc.stages[i].backoff_ms;
                        pending_retry
                            .push((Instant::now() + Duration::from_secs_f64(backoff / 1000.0), i));
                        obs::trace::instant_with("orchestrator", || {
                            format!("stage.retry:{}", sc.stages[i].id)
                        });
                        if opts.verbose {
                            println!(
                                "{:>8}  {:<24} attempt {} failed ({e}); retry in {backoff:.0}ms",
                                "retry", sc.stages[i].id, attempts[i]
                            );
                        }
                    }
                    Err(e) => finish_stage!(i, StageStatus::Failed(e)),
                }
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                let now = Instant::now();
                let expired: Vec<usize> = running
                    .iter()
                    .filter(|(_, r)| r.deadline.is_some_and(|d| d <= now))
                    .map(|(&i, _)| i)
                    .collect();
                for i in expired {
                    let r = running.remove(&i).expect("expired stage was running");
                    seconds[i] += r.launched.elapsed().as_secs_f64();
                    let limit = sc.stages[i]
                        .timeout_seconds
                        .or(sc.default_timeout_seconds)
                        .unwrap_or(0.0);
                    if !cancelling && attempts[i] <= sc.stages[i].retries {
                        retries_total += 1;
                        let backoff = sc.stages[i].backoff_ms;
                        pending_retry
                            .push((Instant::now() + Duration::from_secs_f64(backoff / 1000.0), i));
                        obs::trace::instant_with("orchestrator", || {
                            format!("stage.retry:{}", sc.stages[i].id)
                        });
                        if opts.verbose {
                            println!(
                                "{:>8}  {:<24} attempt {} hit its {limit}s budget; retry in {backoff:.0}ms",
                                "retry", sc.stages[i].id, attempts[i]
                            );
                        }
                    } else {
                        finish_stage!(i, StageStatus::TimedOut(limit));
                    }
                }
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                unreachable!("scheduler holds a sender")
            }
        }
    }

    let terminal = |pred: fn(&StageStatus) -> bool| -> u64 {
        status.iter().flatten().filter(|s| pred(s)).count() as u64
    };
    metrics.set_counter("orchestrator.cas.hits", hits);
    metrics.set_counter("orchestrator.cas.misses", misses);
    metrics.set_counter("orchestrator.stages.executed", executed);
    metrics.set_counter(
        "orchestrator.stages.failed",
        terminal(|s| matches!(s, StageStatus::Failed(_))),
    );
    metrics.set_counter(
        "orchestrator.stages.timeout",
        terminal(|s| matches!(s, StageStatus::TimedOut(_))),
    );
    metrics.set_counter(
        "orchestrator.stages.skipped",
        terminal(|s| matches!(s, StageStatus::Skipped(_))),
    );
    metrics.set_counter(
        "orchestrator.stages.cancelled",
        terminal(|s| matches!(s, StageStatus::Cancelled(_))),
    );
    metrics.set_counter("orchestrator.stages.retried", retries_total);
    metrics.set_counter("orchestrator.flight.coalesced", coalesced_total);
    let (mut ckpt_resumed, mut ckpt_stored) = (0u64, 0u64);
    for cp in checkpoints.values() {
        ckpt_resumed += cp.resumed();
        ckpt_stored += cp.stored();
    }
    metrics.set_counter("orchestrator.checkpoint.resumed_units", ckpt_resumed);
    metrics.set_counter("orchestrator.checkpoint.stored_units", ckpt_stored);
    metrics.set_gauge("orchestrator.run.wall_seconds", started.elapsed().as_secs_f64());

    let stages = order
        .iter()
        .map(|&i| StageResult {
            id: sc.stages[i].id.clone(),
            kind: sc.stages[i].kind.clone(),
            key: keys[i].clone(),
            artifact: digests[i].clone(),
            status: status[i].clone().expect("all stages terminal"),
            seconds: seconds[i],
            attempts: attempts[i],
        })
        .collect();

    let summary = RunSummary {
        scenario: sc.name.clone(),
        scale,
        stages,
        cache_hits: hits,
        cache_misses: misses,
        executed,
        wall_seconds: started.elapsed().as_secs_f64(),
        jobs,
        metrics,
        request_id: opts.request_id.clone(),
    };
    {
        let mut ev = Json::object();
        ev.insert("ok", Json::Bool(summary.ok()));
        ev.insert("fingerprint", Json::Str(summary.fingerprint()));
        ev.insert("cache_hits", Json::Num(summary.cache_hits as f64));
        ev.insert("executed", Json::Num(summary.executed as f64));
        ev.insert("coalesced", Json::Num(coalesced_total as f64));
        ev.insert("wall_seconds", Json::Num(summary.wall_seconds));
        publish(&mut ev, "run.finished");
    }
    if obs::log::enabled(obs::log::Level::Info) {
        obs::log::info(
            "run finished",
            &log_fields(vec![
                ("scenario", Json::Str(sc.name.clone())),
                ("ok", Json::Bool(summary.ok())),
                ("cache_hits", Json::Num(summary.cache_hits as f64)),
                ("executed", Json::Num(summary.executed as f64)),
                ("wall_seconds", Json::Num(summary.wall_seconds)),
            ]),
        );
    }
    Ok(summary)
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        format!("panicked: {s}")
    } else if let Some(s) = panic.downcast_ref::<String>() {
        format!("panicked: {s}")
    } else {
        "panicked (non-string payload)".to_string()
    }
}
