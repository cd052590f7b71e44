//! `pv3t1d` — the single entry point for reproducing the paper.
//!
//! ```text
//! pv3t1d run    <scenario.json> [--quick|--full] [--jobs N] [--results DIR]
//!                               [--no-cache] [--expect-cached] [--keep-going]
//!                               [--manifest PATH] [--trace PATH]
//! pv3t1d plan   <scenario.json> [--quick|--full] [--results DIR]
//! pv3t1d ls     [--results DIR] [--traces]
//! pv3t1d gc     <scenario.json>... [--quick|--full] [--results DIR]
//!                               [--dry-run] [--json]
//! pv3t1d report <run.json> [--trace PATH] [--out PATH]
//! pv3t1d trace  record <bench> <out> [--seed N] [--len N]
//! pv3t1d trace  info <file>
//! pv3t1d validate <trace-file> [--scheme NAME]... [--retention NAME]
//!                              [--tolerance N] [--max-records N] [--out PATH]
//! pv3t1d serve  --listen <addr|unix:PATH> [--results DIR] [--workers N]
//!                              [--jobs N] [--gc-interval-secs S]
//!                              [--gc-max-bytes B] [--log <PATH|stderr>]
//!                              [--log-level LVL] [--sample-interval-secs S]
//! pv3t1d loadtest [--addr HOST:PORT] [--clients N] [--requests N]
//!                              [--label L] [--results DIR]
//!                              [--compare PATH] [--threshold PCT]
//! pv3t1d top    --addr HOST:PORT [--interval-secs S] [--once]
//! ```
//!
//! Exit codes: `0` success; `1` at least one stage failed / timed out /
//! was skipped / was cancelled, `--expect-cached` was violated,
//! `loadtest --compare` found a regression,
//! `loadtest` saw failed requests, or `validate` found divergence
//! beyond the tolerance; `2` usage, spec, or I/O errors.
//!
//! `run` and `serve` install SIGINT/SIGTERM handlers that cancel the
//! scheduler cooperatively: in-flight campaigns stop at the next unit
//! boundary with their completed units checkpointed, partial run
//! manifests are still written, and rerunning (or restarting the
//! daemon and resubmitting) resumes from the checkpoints.

use obs::Json;
use orchestrator::{plan_scenario, report, run_scenario, ArtifactStore, RunOptions, Scenario};
use serve::loadtest::{compare, BenchReport};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "\
pv3t1d — declarative experiment DAG runner (3T1D cache reproduction)

USAGE:
    pv3t1d run    <scenario.json> [OPTIONS]  execute a scenario DAG
    pv3t1d plan   <scenario.json> [OPTIONS]  show cache hits without running
    pv3t1d ls     [OPTIONS]                  list cached artifacts (or traces)
    pv3t1d gc     <scenario.json>... [OPTIONS] drop cache entries unreachable
                                             from the given scenarios
    pv3t1d report <run.json> [OPTIONS]       render a run manifest (and an
                                             optional trace) as markdown
    pv3t1d trace record <bench> <out> [OPTIONS]
                                             record a synthetic benchmark
                                             stream to a trace file
    pv3t1d trace info <file>                 print a trace file's header
    pv3t1d validate <trace-file> [OPTIONS]   replay a trace through the
                                             simulator and the golden model,
                                             report per-counter divergence
    pv3t1d serve [OPTIONS]                   run the campaign daemon: accept
                                             scenario submissions over HTTP,
                                             coalesce concurrent work, stream
                                             progress, GC the cache
    pv3t1d loadtest [OPTIONS]                drive a daemon with concurrent
                                             clients, write serve.* metrics
                                             to BENCH_<label>.json
    pv3t1d top    --addr HOST:PORT [OPTIONS] live dashboard over a running
                                             daemon's /healthz + /metrics
    pv3t1d help                              this text

OPTIONS:
    --quick / --full     override the scenario's run scale
    --jobs <N>           concurrent stages (default 2)
    --results <DIR>      results directory (default results/)
    --no-cache           (run) execute every stage; still refresh the cache
    --expect-cached      (run) fail unless every stage is a cache hit
    --keep-going         (run) report failed stages but exit 0 anyway
                         (interrupts still exit non-zero)
    --manifest <PATH>    (run) run-manifest path
                         (default <results>/<scenario>.run.json)
    --trace <PATH>       (run) capture a Chrome trace-event JSON timeline
                         (report) trace file to fold into the report
    --dry-run            (gc) report what would be removed, delete nothing
    --json               (gc) print the machine-readable GcReport instead
                         of the text summary
    --traces             (ls) list *.trace.json files instead of artifacts
    --label <L>          (loadtest) report label (default \"local\")
    --compare <PATH>     (loadtest) diff against a baseline
                         BENCH_*.json; exit 1 on regression beyond the
                         threshold
    --threshold <PCT>    (loadtest) regression noise threshold
                         (default 30)
    --out <PATH>         (report) write markdown here instead of stdout
                         (validate) also write the JSON divergence report
    --seed <N>           (trace record) generator seed (default 42)
    --len <N>            (trace record) instructions to record
                         (default 200000)
    --scheme <NAME>      (validate) scheme to check; repeatable (default
                         no-refresh-lru, partial-dsp, rsp-fifo; also
                         known: rsp-lru, full-lru)
    --retention <NAME>   (validate) chip retention profile: infinite,
                         uniform, mixed, half-dead (default mixed)
    --tolerance <N>      (validate) max tolerated absolute per-counter
                         divergence (default 0)
    --max-records <N>    (validate) replay at most N records (default all)
    --listen <ADDR>      (serve) host:port, port 0 picks a free one, or
                         unix:<path> for a Unix domain socket
                         (default 127.0.0.1:0)
    --workers <N>        (serve) concurrent jobs (default 2)
                         (serve/loadtest) --jobs is per-run stage concurrency
    --gc-interval-secs <S>
                         (serve) CAS janitor cadence; 0 disables
                         (default 30)
    --gc-max-bytes <B>   (serve) CAS size budget the janitor trims to
                         (default 268435456)
    --log <TARGET>       (serve) structured NDJSON logs to \"stderr\" or a
                         file path (rotated once past 16 MiB); off when
                         omitted
    --log-level <LVL>    (serve) debug | info | warn | error
                         (default info)
    --sample-interval-secs <S>
                         (serve) /metrics/history sampler cadence
                         (default 1)
    --addr <HOST:PORT>   (loadtest) daemon to drive; omitted = self-host
                         an in-process daemon on 127.0.0.1:0
                         (top) daemon to watch; required
    --clients <N>        (loadtest) concurrent client threads (default 32)
    --requests <N>       (loadtest) requests per client (default 4)
    --interval-secs <S>  (top) redraw cadence (default 2)
    --once               (top) print one frame and exit (no ANSI clear)
";

struct Cli {
    positional: Vec<PathBuf>,
    opts: RunOptions,
    expect_cached: bool,
    manifest: Option<PathBuf>,
    dry_run: bool,
    trace: Option<PathBuf>,
    traces: bool,
    label: String,
    compare: Option<PathBuf>,
    threshold: f64,
    out: Option<PathBuf>,
    quick: bool,
    keep_going: bool,
    seed: u64,
    len: u64,
    schemes: Vec<String>,
    retention: String,
    tolerance: u64,
    max_records: u64,
    json: bool,
    listen: String,
    workers: usize,
    gc_interval_secs: u64,
    gc_max_bytes: u64,
    addr: Option<String>,
    clients: usize,
    requests: usize,
    log: Option<String>,
    log_level: String,
    sample_interval_secs: f64,
    interval_secs: f64,
    once: bool,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        positional: Vec::new(),
        opts: RunOptions {
            verbose: true,
            ..RunOptions::default()
        },
        expect_cached: false,
        manifest: None,
        dry_run: false,
        trace: None,
        traces: false,
        label: "local".to_string(),
        compare: None,
        threshold: 30.0,
        out: None,
        quick: true,
        keep_going: false,
        seed: 42,
        len: 200_000,
        schemes: Vec::new(),
        retention: "mixed".to_string(),
        tolerance: 0,
        max_records: 0,
        json: false,
        listen: "127.0.0.1:0".to_string(),
        workers: 2,
        gc_interval_secs: 30,
        gc_max_bytes: 256 * 1024 * 1024,
        addr: None,
        clients: 32,
        requests: 4,
        log: None,
        log_level: "info".to_string(),
        sample_interval_secs: 1.0,
        interval_secs: 2.0,
        once: false,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value_of = |flag: &str| {
            it.next()
                .map(String::from)
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match a.as_str() {
            "--quick" => {
                cli.opts.scale_override = Some(bench_harness::RunScale::QUICK);
                cli.quick = true;
            }
            "--full" => {
                cli.opts.scale_override = Some(bench_harness::RunScale::FULL);
                cli.quick = false;
            }
            "--jobs" => {
                cli.opts.jobs = value_of("--jobs")?
                    .parse::<usize>()
                    .map_err(|e| format!("--jobs: {e}"))?
                    .max(1);
            }
            "--results" => cli.opts.results_dir = PathBuf::from(value_of("--results")?),
            "--manifest" => cli.manifest = Some(PathBuf::from(value_of("--manifest")?)),
            "--no-cache" => cli.opts.use_cache = false,
            "--expect-cached" => cli.expect_cached = true,
            "--keep-going" => cli.keep_going = true,
            "--dry-run" => cli.dry_run = true,
            "--trace" => cli.trace = Some(PathBuf::from(value_of("--trace")?)),
            "--traces" => cli.traces = true,
            "--label" => cli.label = value_of("--label")?,
            "--compare" => cli.compare = Some(PathBuf::from(value_of("--compare")?)),
            "--threshold" => {
                cli.threshold = value_of("--threshold")?
                    .parse::<f64>()
                    .map_err(|e| format!("--threshold: {e}"))?;
                if !cli.threshold.is_finite() || cli.threshold < 0.0 {
                    return Err("--threshold must be a non-negative percent".into());
                }
            }
            "--out" => cli.out = Some(PathBuf::from(value_of("--out")?)),
            "--seed" => {
                cli.seed = value_of("--seed")?
                    .parse::<u64>()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--len" => {
                cli.len = value_of("--len")?
                    .parse::<u64>()
                    .map_err(|e| format!("--len: {e}"))?;
            }
            "--scheme" => cli.schemes.push(value_of("--scheme")?),
            "--retention" => cli.retention = value_of("--retention")?,
            "--tolerance" => {
                cli.tolerance = value_of("--tolerance")?
                    .parse::<u64>()
                    .map_err(|e| format!("--tolerance: {e}"))?;
            }
            "--max-records" => {
                cli.max_records = value_of("--max-records")?
                    .parse::<u64>()
                    .map_err(|e| format!("--max-records: {e}"))?;
            }
            "--json" => cli.json = true,
            "--listen" => cli.listen = value_of("--listen")?,
            "--workers" => {
                cli.workers = value_of("--workers")?
                    .parse::<usize>()
                    .map_err(|e| format!("--workers: {e}"))?
                    .max(1);
            }
            "--gc-interval-secs" => {
                cli.gc_interval_secs = value_of("--gc-interval-secs")?
                    .parse::<u64>()
                    .map_err(|e| format!("--gc-interval-secs: {e}"))?;
            }
            "--gc-max-bytes" => {
                cli.gc_max_bytes = value_of("--gc-max-bytes")?
                    .parse::<u64>()
                    .map_err(|e| format!("--gc-max-bytes: {e}"))?;
            }
            "--addr" => cli.addr = Some(value_of("--addr")?),
            "--log" => cli.log = Some(value_of("--log")?),
            "--log-level" => cli.log_level = value_of("--log-level")?,
            "--sample-interval-secs" => {
                cli.sample_interval_secs = value_of("--sample-interval-secs")?
                    .parse::<f64>()
                    .map_err(|e| format!("--sample-interval-secs: {e}"))?;
                if !cli.sample_interval_secs.is_finite() || cli.sample_interval_secs <= 0.0 {
                    return Err("--sample-interval-secs must be a positive number".into());
                }
            }
            "--interval-secs" => {
                cli.interval_secs = value_of("--interval-secs")?
                    .parse::<f64>()
                    .map_err(|e| format!("--interval-secs: {e}"))?;
                if !cli.interval_secs.is_finite() || cli.interval_secs <= 0.0 {
                    return Err("--interval-secs must be a positive number".into());
                }
            }
            "--once" => cli.once = true,
            "--clients" => {
                cli.clients = value_of("--clients")?
                    .parse::<usize>()
                    .map_err(|e| format!("--clients: {e}"))?
                    .max(1);
            }
            "--requests" => {
                cli.requests = value_of("--requests")?
                    .parse::<usize>()
                    .map_err(|e| format!("--requests: {e}"))?
                    .max(1);
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            path => cli.positional.push(PathBuf::from(path)),
        }
    }
    Ok(cli)
}

fn load(path: &Path) -> Result<Scenario, String> {
    Scenario::load(path).map_err(|e| format!("{}: {e}", path.display()))
}

/// SIGINT/SIGTERM → cooperative cancellation. The raw `signal(2)`
/// registration keeps the binary dependency-free; the handler only
/// stores into a static atomic (async-signal-safe), and a watcher
/// thread bridges that flag into the scheduler's [`obs::CancelToken`].
#[cfg(unix)]
mod interrupt {
    use std::sync::atomic::{AtomicBool, Ordering};

    static INTERRUPTED: AtomicBool = AtomicBool::new(false);

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_signal(_signum: i32) {
        INTERRUPTED.store(true, Ordering::Release);
    }

    /// Installs the handlers and returns the token the watcher thread
    /// cancels once a signal lands.
    pub fn install() -> obs::CancelToken {
        let token = obs::CancelToken::new();
        unsafe {
            let handler = on_signal as *const () as usize;
            signal(SIGINT, handler);
            signal(SIGTERM, handler);
        }
        let bridge = token.clone();
        std::thread::spawn(move || loop {
            if INTERRUPTED.load(Ordering::Acquire) {
                bridge.cancel();
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(50));
        });
        token
    }
}

#[cfg(not(unix))]
mod interrupt {
    /// No signal wiring off Unix; the token simply never fires.
    pub fn install() -> obs::CancelToken {
        obs::CancelToken::new()
    }
}

fn cmd_run(cli: &Cli) -> Result<ExitCode, String> {
    let [path] = cli.positional.as_slice() else {
        return Err("run needs exactly one scenario file".into());
    };
    let sc = load(path)?;
    if cli.trace.is_some() {
        obs::trace::enable_default();
    }
    let mut opts = cli.opts.clone();
    opts.cancel = Some(interrupt::install());
    let summary = run_scenario(&sc, &opts).map_err(|e| e.to_string())?;
    if let Some(trace_path) = &cli.trace {
        obs::trace::disable();
        obs::trace::write_to(trace_path)
            .map_err(|e| format!("writing {}: {e}", trace_path.display()))?;
        let doc = obs::trace::export();
        let dropped = obs::trace::dropped_count();
        obs::trace::clear();
        if let Some(s) = obs::trace::summarize(&doc) {
            println!(
                "trace: {} ({} events: {} spans, {} instants, {} counter samples{})",
                trace_path.display(),
                s.events,
                s.spans,
                s.instants,
                s.counters,
                match dropped {
                    0 => String::new(),
                    n => format!("; {n} dropped at the ring cap"),
                }
            );
        }
    }

    let manifest = cli
        .manifest
        .clone()
        .unwrap_or_else(|| cli.opts.results_dir.join(format!("{}.run.json", sc.name)));
    summary
        .write_to(&manifest)
        .map_err(|e| format!("writing {}: {e}", manifest.display()))?;

    let failed = summary.stages.iter().filter(|s| !s.status.is_ok()).count();
    println!(
        "scenario {}: {} stages — {} cached, {} ran, {} failed/skipped ({:.1}s)",
        summary.scenario,
        summary.stages.len(),
        summary.cache_hits,
        summary.executed,
        failed,
        summary.wall_seconds,
    );
    println!("fingerprint {}", summary.fingerprint());
    println!("manifest: {}", manifest.display());

    if !summary.ok() {
        let mut cancelled = false;
        for s in &summary.stages {
            if let Some(err) = match &s.status {
                orchestrator::StageStatus::Failed(e) => Some(e.to_string()),
                orchestrator::StageStatus::TimedOut(l) => {
                    Some(format!("timed out after {l} seconds"))
                }
                orchestrator::StageStatus::Skipped(w) => Some(w.clone()),
                orchestrator::StageStatus::Cancelled(w) => {
                    cancelled = true;
                    Some(w.clone())
                }
                orchestrator::StageStatus::Ran | orchestrator::StageStatus::Cached => None,
            } {
                eprintln!("error: stage {}: {err}", s.id);
            }
        }
        if cancelled {
            eprintln!(
                "run interrupted; completed stages and campaign units are \
                 checkpointed — rerun the same command to resume"
            );
            return Ok(ExitCode::from(1));
        }
        if cli.keep_going {
            println!("--keep-going: {failed} stage(s) failed; not failing the run");
        } else {
            return Ok(ExitCode::from(1));
        }
    }
    if cli.expect_cached && (summary.executed > 0 || summary.cache_misses > 0) {
        eprintln!(
            "error: --expect-cached, but {} stages executed ({} cache misses)",
            summary.executed, summary.cache_misses
        );
        return Ok(ExitCode::from(1));
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_plan(cli: &Cli) -> Result<ExitCode, String> {
    let [path] = cli.positional.as_slice() else {
        return Err("plan needs exactly one scenario file".into());
    };
    let sc = load(path)?;
    let plan = plan_scenario(&sc, &cli.opts).map_err(|e| e.to_string())?;
    let hits = plan.iter().filter(|p| p.cached).count();
    for p in &plan {
        let (tag, key) = match (&p.key, p.cached) {
            (Some(k), true) => ("cache", k.as_str()),
            (Some(k), false) => ("run", k.as_str()),
            (None, _) => ("run", "(key depends on uncached inputs)"),
        };
        println!("{:>8}  {:<24} {:<16} {key}", tag, p.id, p.kind);
    }
    println!(
        "plan {}: {hits}/{} stages cached, {} to run",
        sc.name,
        plan.len(),
        plan.len() - hits
    );
    Ok(ExitCode::SUCCESS)
}

fn cmd_ls(cli: &Cli) -> Result<ExitCode, String> {
    if cli.traces {
        return cmd_ls_traces(cli);
    }
    let store = ArtifactStore::new(cli.opts.results_dir.join("cas"));
    let rows = store.ls();
    let mut bytes = 0u64;
    for row in &rows {
        bytes += row.bytes;
        println!(
            "{}  {:<16} {:>10} B",
            row.key,
            row.kind.as_deref().unwrap_or("(corrupt)"),
            row.bytes
        );
    }
    println!(
        "{} artifacts, {} corrupt, {bytes} bytes in {}",
        rows.len(),
        rows.iter().filter(|r| r.kind.is_none()).count(),
        store.root().display()
    );
    Ok(ExitCode::SUCCESS)
}

/// `ls --traces`: every `*.trace.json` under the results directory, with
/// its size and span/event counts (unparseable files are listed, flagged).
fn cmd_ls_traces(cli: &Cli) -> Result<ExitCode, String> {
    let dir = &cli.opts.results_dir;
    let mut rows: Vec<(String, u64, Option<obs::trace::TraceSummary>)> = Vec::new();
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            println!("0 traces in {}", dir.display());
            return Ok(ExitCode::SUCCESS);
        }
        Err(e) => return Err(format!("reading {}: {e}", dir.display())),
    };
    for entry in entries {
        let entry = entry.map_err(|e| format!("reading {}: {e}", dir.display()))?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if !name.ends_with(".trace.json") {
            continue;
        }
        let bytes = entry.metadata().map(|m| m.len()).unwrap_or(0);
        let summary = std::fs::read_to_string(entry.path())
            .ok()
            .and_then(|text| Json::parse(&text).ok())
            .and_then(|doc| obs::trace::summarize(&doc));
        rows.push((name, bytes, summary));
    }
    rows.sort_by(|a, b| a.0.cmp(&b.0));
    for (name, bytes, summary) in &rows {
        match summary {
            Some(s) => println!(
                "{name}  {bytes:>10} B  {:>7} spans {:>8} events",
                s.spans, s.events
            ),
            None => println!("{name}  {bytes:>10} B  (unparseable)"),
        }
    }
    println!("{} traces in {}", rows.len(), dir.display());
    Ok(ExitCode::SUCCESS)
}

/// Prints a `--compare` table against the baseline at `base_path` and
/// returns whether any gated metric regressed beyond the threshold.
fn print_compare(
    base_path: &Path,
    report: &BenchReport,
    threshold: f64,
) -> Result<bool, String> {
    let base = BenchReport::read_from(base_path)
        .map_err(|e| format!("reading {}: {e}", base_path.display()))?;
    let (lines, regressed) = compare(&base, report, threshold);
    println!(
        "compare vs {} (label {}, threshold {}%):",
        base_path.display(),
        base.label,
        threshold
    );
    for l in &lines {
        let delta = match (l.delta_pct, l.base) {
            (Some(d), _) => format!("{d:+8.1}%"),
            // A baseline exists but no meaningful ratio (zero or
            // non-finite endpoint, or missing from this run) —
            // distinct from a brand-new metric.
            (None, Some(_)) => "     n/a".to_string(),
            (None, None) => "     new".to_string(),
        };
        let current = l.current.map_or("missing".to_string(), |v| format!("{v:.4}"));
        let verdict = if l.regressed { "REGRESSED" } else { "ok" };
        println!("  {:<36} {current:>14} {delta}  {verdict}", l.name);
    }
    Ok(regressed)
}

fn cmd_report(cli: &Cli) -> Result<ExitCode, String> {
    let [path] = cli.positional.as_slice() else {
        return Err("report needs exactly one run-manifest file".into());
    };
    let read_json = |p: &Path| -> Result<Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
        Json::parse(&text).map_err(|e| format!("{}: {e}", p.display()))
    };
    let manifest = read_json(path)?;
    let trace = cli.trace.as_deref().map(read_json).transpose()?;
    let md = report::render(&manifest, trace.as_ref());
    match &cli.out {
        Some(out) => {
            if let Some(parent) = out.parent() {
                if !parent.as_os_str().is_empty() {
                    std::fs::create_dir_all(parent)
                        .map_err(|e| format!("{}: {e}", out.display()))?;
                }
            }
            std::fs::write(out, &md).map_err(|e| format!("{}: {e}", out.display()))?;
            println!("report: {}", out.display());
        }
        None => print!("{md}"),
    }
    Ok(ExitCode::SUCCESS)
}

/// `trace record <bench> <out>` / `trace info <file>`: write a synthetic
/// benchmark stream to the chunked binary container, or print an existing
/// file's provenance header.
fn cmd_trace(cli: &Cli) -> Result<ExitCode, String> {
    let action = cli
        .positional
        .first()
        .map(|p| p.to_string_lossy().into_owned())
        .ok_or("trace needs an action: record or info")?;
    match action.as_str() {
        "record" => {
            let [_, bench, out] = cli.positional.as_slice() else {
                return Err("trace record needs <bench> <out>".into());
            };
            let bench: workloads::SpecBenchmark = bench.to_string_lossy().parse()?;
            if let Some(parent) = out.parent() {
                if !parent.as_os_str().is_empty() {
                    std::fs::create_dir_all(parent)
                        .map_err(|e| format!("{}: {e}", out.display()))?;
                }
            }
            let n = workloads::record_bench_to_path(bench, cli.seed, cli.len, out)
                .map_err(|e| format!("recording {}: {e}", out.display()))?;
            let bytes = std::fs::metadata(out).map(|m| m.len()).unwrap_or(0);
            println!(
                "recorded {bench} seed {} -> {} ({n} records, {bytes} bytes)",
                cli.seed,
                out.display()
            );
            Ok(ExitCode::SUCCESS)
        }
        "info" => {
            let [_, file] = cli.positional.as_slice() else {
                return Err("trace info needs exactly one trace file".into());
            };
            let r = workloads::TraceReader::open(file)
                .map_err(|e| format!("{}: {e}", file.display()))?;
            let bytes = std::fs::metadata(file).map(|m| m.len()).unwrap_or(0);
            println!("file:             {}", file.display());
            println!("name:             {}", r.meta().name);
            println!("seed:             {}", r.meta().seed);
            println!("icache miss rate: {:.6}", r.icache_miss_rate());
            println!("records:          {}", r.total_records());
            println!("bytes:            {bytes}");
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown trace action {other:?} (record or info)")),
    }
}

/// `validate <trace-file>`: stream the trace through the cycle-level
/// simulator and the golden reference model for each requested scheme and
/// diff every counter. Exit 0 when all schemes stay within tolerance,
/// 1 on divergence, 2 on I/O or corrupt-trace errors.
fn cmd_validate(cli: &Cli) -> Result<ExitCode, String> {
    let [path] = cli.positional.as_slice() else {
        return Err("validate needs exactly one trace file".into());
    };
    let schemes: Vec<(String, cachesim::Scheme)> = if cli.schemes.is_empty() {
        validate::default_schemes()
            .into_iter()
            .map(|(n, s)| (n.to_string(), s))
            .collect()
    } else {
        cli.schemes
            .iter()
            .map(|n| {
                validate::scheme_by_name(n)
                    .map(|s| (n.clone(), s))
                    .ok_or_else(|| format!("unknown scheme {n:?}"))
            })
            .collect::<Result<_, _>>()?
    };

    let mut reports = Json::object();
    let mut all_within = true;
    for (name, scheme) in &schemes {
        let cfg = cachesim::CacheConfig::paper(*scheme);
        let retention = validate::named_retention(&cli.retention, cfg.geometry.lines())?;
        let report = validate::validate_trace(path, cfg, retention, cli.tolerance, cli.max_records)
            .map_err(|e| match e {
                validate::TraceValidateError::Open(e) | validate::TraceValidateError::Read(e) => {
                    format!("{}: {e}", path.display())
                }
            })?;
        print!("{}", report.render_text());
        all_within &= report.within_tolerance();
        reports.insert(name, report.to_json());
    }

    if let Some(out) = &cli.out {
        let mut doc = Json::object();
        doc.insert("trace", Json::Str(path.display().to_string()));
        doc.insert("retention", Json::Str(cli.retention.clone()));
        doc.insert("tolerance", Json::Num(cli.tolerance as f64));
        doc.insert("within_tolerance", Json::Bool(all_within));
        doc.insert("schemes", reports);
        if let Some(parent) = out.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent).map_err(|e| format!("{}: {e}", out.display()))?;
            }
        }
        std::fs::write(out, doc.render_pretty())
            .map_err(|e| format!("{}: {e}", out.display()))?;
        println!("report: {}", out.display());
    }

    if all_within {
        println!("validate: all {} scheme(s) within tolerance", schemes.len());
        Ok(ExitCode::SUCCESS)
    } else {
        eprintln!("error: golden-model divergence beyond tolerance {}", cli.tolerance);
        Ok(ExitCode::from(1))
    }
}

fn cmd_gc(cli: &Cli) -> Result<ExitCode, String> {
    if cli.positional.is_empty() {
        return Err("gc needs at least one scenario file (its reachable keys are kept)".into());
    }
    let store = ArtifactStore::new(cli.opts.results_dir.join("cas"));
    // Snapshot the scan start *before* planning: anything a concurrent
    // `run` writes after this instant is spared even if it is not in
    // the keep set, closing the scan-to-unlink race.
    let cutoff = std::time::SystemTime::now();
    let mut keep = std::collections::BTreeSet::new();
    for path in &cli.positional {
        let sc = load(path)?;
        for entry in plan_scenario(&sc, &cli.opts).map_err(|e| e.to_string())? {
            if let Some(key) = entry.key {
                keep.insert(key);
            }
        }
    }
    let report = store
        .gc_keep_with_cutoff(&keep, cli.dry_run, Some(cutoff))
        .map_err(|e| format!("gc: {e}"))?;
    if cli.json {
        let mut doc = report.to_json();
        doc.insert("dry_run", Json::Bool(cli.dry_run));
        println!("{}", doc.render_pretty());
    } else {
        println!(
            "gc{}: kept {}, removed {}, spared {} newer than the scan, freed {} bytes",
            if cli.dry_run { " (dry run)" } else { "" },
            report.kept,
            report.removed,
            report.skipped_fresh,
            report.bytes_freed
        );
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_serve(cli: &Cli) -> Result<ExitCode, String> {
    if !cli.positional.is_empty() {
        return Err("serve takes no positional arguments".into());
    }
    if let Some(target) = &cli.log {
        let level = obs::log::Level::parse(&cli.log_level)
            .ok_or_else(|| format!("--log-level: unknown level {:?}", cli.log_level))?;
        match target.as_str() {
            "stderr" => obs::log::init_stderr(level),
            path => obs::log::init_file(path, level, 16 * 1024 * 1024)
                .map_err(|e| format!("--log {path}: {e}"))?,
        }
    }
    let config = serve::ServerConfig {
        listen: serve::Listen::parse(&cli.listen),
        results_dir: cli.opts.results_dir.clone(),
        workers: cli.workers,
        stage_jobs: cli.opts.jobs,
        gc_interval: match cli.gc_interval_secs {
            0 => None,
            s => Some(std::time::Duration::from_secs(s)),
        },
        gc_max_bytes: cli.gc_max_bytes,
        // SIGINT/SIGTERM land on the daemon's shutdown token: stop
        // accepting, cancel every job (schedulers drain at the next
        // unit boundary, partial manifests are written), then exit.
        shutdown: interrupt::install(),
        verbose: true,
        sample_interval: std::time::Duration::from_secs_f64(cli.sample_interval_secs),
    };
    let server = serve::Server::start(config).map_err(|e| format!("serve: {e}"))?;
    server.wait();
    obs::log::shutdown();
    Ok(ExitCode::SUCCESS)
}

fn cmd_top(cli: &Cli) -> Result<ExitCode, String> {
    if !cli.positional.is_empty() {
        return Err("top takes no positional arguments".into());
    }
    let addr = cli
        .addr
        .clone()
        .ok_or("top needs --addr <HOST:PORT> (the daemon to watch)")?;
    let config = serve::top::TopConfig {
        addr,
        interval: std::time::Duration::from_secs_f64(cli.interval_secs),
        once: cli.once,
    };
    serve::top::run(&config).map_err(|e| format!("top: {e}"))?;
    Ok(ExitCode::SUCCESS)
}

fn cmd_loadtest(cli: &Cli) -> Result<ExitCode, String> {
    if !cli.positional.is_empty() {
        return Err("loadtest takes no positional arguments".into());
    }
    // Without --addr, self-host a daemon on a loopback port for the
    // duration of the test (this is what CI's baseline refresh uses).
    let hosted = match &cli.addr {
        Some(_) => None,
        None => {
            let config = serve::ServerConfig {
                listen: serve::Listen::Tcp("127.0.0.1:0".to_string()),
                results_dir: cli.opts.results_dir.clone(),
                workers: cli.workers.max(4),
                stage_jobs: cli.opts.jobs,
                ..serve::ServerConfig::default()
            };
            Some(serve::Server::start(config).map_err(|e| format!("loadtest: {e}"))?)
        }
    };
    let addr = match (&cli.addr, &hosted) {
        (Some(addr), _) => addr.clone(),
        (None, Some(server)) => server.addr().to_string(),
        (None, None) => unreachable!("hosted covers the no-addr case"),
    };

    let config = serve::LoadtestConfig {
        addr,
        clients: cli.clients,
        requests: cli.requests,
        label: cli.label.clone(),
        quick: cli.quick,
        ..serve::LoadtestConfig::default()
    };
    let outcome = serve::loadtest::run(&config);
    if let Some(server) = hosted {
        server.shutdown();
    }
    let outcome = outcome.map_err(|e| format!("loadtest: {e}"))?;

    let path = cli
        .opts
        .results_dir
        .join(format!("BENCH_{}.json", outcome.report.label));
    outcome
        .report
        .write_to(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!(
        "loadtest {}: {} requests ({} clients), {} failed, {} coalesced, \
         {:.1} req/s, p50 {:.1} ms, p99 {:.1} ms ({:.1}s) -> {}",
        config.label,
        outcome.total_requests,
        cli.clients,
        outcome.failed,
        outcome.coalesced,
        outcome.report.metrics["serve.requests_per_s"],
        outcome.report.metrics["serve.p50_ms"],
        outcome.report.metrics["serve.p99_ms"],
        outcome.wall_seconds,
        path.display()
    );
    println!(
        "loadtest {}: daemon /metrics cross-check: {} jobs finished, \
         {} http requests observed",
        config.label, outcome.daemon_jobs_finished, outcome.daemon_http_requests
    );

    let mut failing = false;
    if outcome.failed > 0 {
        eprintln!("error: {} request(s) failed", outcome.failed);
        failing = true;
    }
    if let Some(base_path) = &cli.compare {
        if print_compare(base_path, &outcome.report, cli.threshold)? {
            eprintln!("error: serving regression beyond {}%", cli.threshold);
            failing = true;
        }
    }
    Ok(if failing { ExitCode::from(1) } else { ExitCode::SUCCESS })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprint!("{USAGE}");
        return ExitCode::from(2);
    };
    let cli = match parse_cli(rest) {
        Ok(cli) => cli,
        Err(msg) => {
            eprintln!("error: {msg}");
            return ExitCode::from(2);
        }
    };
    let result = match command.as_str() {
        "run" => cmd_run(&cli),
        "plan" => cmd_plan(&cli),
        "ls" => cmd_ls(&cli),
        "gc" => cmd_gc(&cli),
        "report" => cmd_report(&cli),
        "trace" => cmd_trace(&cli),
        "validate" => cmd_validate(&cli),
        "serve" => cmd_serve(&cli),
        "loadtest" => cmd_loadtest(&cli),
        "top" => cmd_top(&cli),
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => {
            eprintln!("error: unknown command {other:?}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(2)
        }
    }
}
