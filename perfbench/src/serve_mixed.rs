//! `serve_mixed`: the campaign daemon, in-process, under two closed-loop
//! clients.
//!
//! The daemon runs via `serve::Server::start` on 127.0.0.1:0 with one
//! worker and a fresh results directory. One request is `POST /runs`,
//! then tailing `/jobs/<id>/events` until it closes, then
//! `GET /jobs/<id>`. Requests cycle one fresh to three repeats. A fresh
//! request is a real `chip_campaign` (2 chips, a seed never used before)
//! plus `retention_map` plus `report`, every stage executing and writing
//! the content-addressed store; a repeat resubmits a scenario that
//! already completed, so every stage is a store hit. Daemon, scheduler
//! and store costs dominate: the p50 lands on the cached path and the p90
//! on the executing one.

use crate::report::Metric;
use crate::session::{self, Mode, OpRecord, Outcome};
use crate::spans::{self, Span, Tracer, SETUP};
use obs::Json;
use serve::loadtest::exchange;
use serve::{Listen, Server, ServerConfig};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

const CLIENTS: usize = 2;
/// Requests per round: one fresh, then three repeats.
const ROUND: u64 = 4;
/// Fresh scenarios each set-up completes, so the first repeats have targets.
const WARM_SCENARIOS: u64 = 2;
/// Stages in every scenario.
const STAGES: u64 = 3;

/// A scenario document: a 2-chip severe-corner campaign, its retention
/// histogram, and a report over both.
fn scenario(seed: u64) -> String {
    format!(
        concat!(
            r#"{{"schema": 2, "name": "perfbench_{seed}", "scale": "quick", "stages": ["#,
            r#"{{"id": "chips", "kind": "chip_campaign", "params": "#,
            r#"{{"node": "32nm", "corner": "severe", "chips": 2, "seed": {seed}}}}}, "#,
            r#"{{"id": "retention", "kind": "retention_map", "deps": ["chips"]}}, "#,
            r#"{{"id": "report", "kind": "report", "deps": ["chips", "retention"]}}]}}"#
        ),
        seed = seed
    )
}

/// A scenario that completed, with the fingerprint of its first run.
#[derive(Debug, Clone)]
struct Completed {
    body: String,
    fingerprint: String,
}

fn parse(body: &[u8]) -> Result<Json, String> {
    let text = std::str::from_utf8(body).map_err(|e| format!("body is not UTF-8: {e}"))?;
    Json::parse(text).map_err(|e| format!("body is not JSON: {e}"))
}

fn execution_u64(doc: &Json, key: &str) -> Option<u64> {
    doc.get("manifest")?.get("execution")?.get(key)?.as_u64()
}

fn fingerprint(doc: &Json) -> Option<String> {
    Some(
        doc.get("manifest")?
            .get("fingerprint")?
            .as_str()?
            .to_string(),
    )
}

/// One request: submit, tail the job's events to the end, read its status.
fn request(addr: &str, body: &str, t: &mut Tracer, op: u64) -> Result<Json, String> {
    let span = t.enter("serve.submit", op);
    let resp = exchange(addr, "POST", "/runs", Some(body));
    t.exit(span);
    let resp = resp.map_err(|e| format!("submit: {e}"))?;
    if resp.status != 202 {
        return Err(format!("submit: HTTP {}", resp.status));
    }
    let id = parse(&resp.body)?
        .get("job")
        .and_then(Json::as_u64)
        .ok_or("submit: no job id")?;
    let span = t.enter("serve.stream", op);
    let events = exchange(addr, "GET", &format!("/jobs/{id}/events"), None);
    t.exit(span);
    let events = events.map_err(|e| format!("events: {e}"))?;
    if events.status != 200 || events.body.is_empty() {
        return Err(format!(
            "events: HTTP {}, {} bytes",
            events.status,
            events.body.len()
        ));
    }
    let span = t.enter("serve.status", op);
    let status = exchange(addr, "GET", &format!("/jobs/{id}"), None);
    t.exit(span);
    let status = status.map_err(|e| format!("status: {e}"))?;
    if status.status != 200 {
        return Err(format!("status: HTTP {}", status.status));
    }
    let doc = parse(&status.body)?;
    match doc.get("state").and_then(Json::as_str) {
        Some("done") => Ok(doc),
        other => Err(format!("job {id} ended {other:?}")),
    }
}

/// Submits a scenario never run before; every stage must execute.
fn fresh(
    addr: &str,
    seed: u64,
    t: &mut Tracer,
    op: u64,
    completed: &Mutex<Vec<Completed>>,
) -> Result<Json, String> {
    let body = scenario(seed);
    let doc = request(addr, &body, t, op)?;
    let executed = execution_u64(&doc, "executed");
    if executed != Some(STAGES) {
        return Err(format!(
            "fresh scenario {seed}: {executed:?} of {STAGES} stages executed"
        ));
    }
    let fingerprint = fingerprint(&doc).ok_or("fresh job has no fingerprint")?;
    completed
        .lock()
        .expect("completed list poisoned")
        .push(Completed { body, fingerprint });
    Ok(doc)
}

/// Resubmits a completed scenario; every stage must be a store hit and
/// the fingerprint must equal the first run's.
fn repeat(addr: &str, target: &Completed, t: &mut Tracer, op: u64) -> Result<Json, String> {
    let doc = request(addr, &target.body, t, op)?;
    let executed = execution_u64(&doc, "executed");
    if executed != Some(0) {
        return Err(format!("repeat executed {executed:?} stages"));
    }
    match fingerprint(&doc) {
        Some(f) if f == target.fingerprint => Ok(doc),
        other => Err(format!(
            "repeat fingerprint {other:?} differs from the first run's {}",
            target.fingerprint
        )),
    }
}

struct Daemon {
    server: Server,
    addr: String,
    dir: PathBuf,
}

fn start(dir: &Path) -> Result<Daemon, String> {
    let _ = std::fs::remove_dir_all(dir);
    let server = Server::start(ServerConfig {
        listen: Listen::Tcp("127.0.0.1:0".into()),
        results_dir: dir.to_path_buf(),
        workers: 1,
        stage_jobs: 1,
        gc_interval: None,
        ..ServerConfig::default()
    })
    .map_err(|e| format!("start daemon: {e}"))?;
    let addr = server.addr().to_string();
    Ok(Daemon {
        server,
        addr,
        dir: dir.to_path_buf(),
    })
}

fn stop(d: Daemon) {
    d.server.shutdown();
    let _ = std::fs::remove_dir_all(&d.dir);
}

/// The daemon's `(executed, coalesced)` flight totals from `/healthz`.
fn flight(addr: &str) -> Result<(u64, u64), String> {
    let resp = exchange(addr, "GET", "/healthz", None).map_err(|e| format!("healthz: {e}"))?;
    let doc = parse(&resp.body)?;
    let total = |key: &str| {
        doc.get("flight")
            .and_then(|f| f.get(key))
            .and_then(Json::as_u64)
            .ok_or(format!("healthz lacks flight.{key}"))
    };
    Ok((total("executed_total")?, total("coalesced_total")?))
}

/// Hands out request indices in whole rounds until the window closes.
struct Dispenser {
    next: u64,
    deadline: Instant,
    min_ops: u64,
}

fn claim(d: &Mutex<Dispenser>) -> Option<u64> {
    let mut d = d.lock().expect("dispenser poisoned");
    if d.next.is_multiple_of(ROUND) && d.next >= d.min_ops && Instant::now() >= d.deadline {
        return None;
    }
    d.next += 1;
    Some(d.next - 1)
}

#[derive(Default)]
struct ClientLog {
    ops: Vec<OpRecord>,
    attempted: u64,
    failures: Vec<String>,
    /// Status documents of traced requests, with whether each was fresh.
    docs: Vec<(bool, Json)>,
    spans: Vec<Span>,
    last_end_s: f64,
}

struct Shared<'a> {
    addr: &'a str,
    seed_base: u64,
    mode: Mode,
    start: Instant,
    dispenser: Mutex<Dispenser>,
    completed: &'a Mutex<Vec<Completed>>,
}

fn client(s: &Shared<'_>) -> ClientLog {
    let mut t = Tracer::new(s.start);
    let mut log = ClientLog::default();
    while let Some(k) = claim(&s.dispenser) {
        let traced = s.mode == Mode::Traced && (k / ROUND).is_multiple_of(2);
        let is_fresh = k % ROUND == 0;
        t.set_enabled(traced);
        let t0 = Instant::now();
        let root = t.enter("op", k);
        let result = if is_fresh {
            fresh(s.addr, s.seed_base + k, &mut t, k, s.completed)
        } else {
            let target = {
                let done = s.completed.lock().expect("completed list poisoned");
                done[k as usize % done.len()].clone()
            };
            repeat(s.addr, &target, &mut t, k)
        };
        t.exit(root);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        log.attempted += 1;
        log.last_end_s = s.start.elapsed().as_secs_f64();
        match result {
            Ok(doc) => {
                log.ops.push(OpRecord {
                    i: k,
                    start_s: t0.duration_since(s.start).as_secs_f64(),
                    ms,
                    work: 1.0,
                    traced,
                    counts: Vec::new(),
                });
                if traced {
                    log.docs.push((is_fresh, doc));
                }
            }
            Err(e) => log.failures.push(format!("request {k}: {e}")),
        }
    }
    t.set_enabled(false);
    log.spans = t.into_spans();
    log
}

/// Runs `serve_mixed` for `seconds`, keeping the daemon's results in `dir`.
pub fn run(
    seed: u64,
    seconds: f64,
    mode: Mode,
    min_ops: usize,
    dir: &Path,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    // Fresh seeds stay below 2^53, so JSON carries them exactly.
    let seed_base = (seed % 1_000_000) * 10_000_000;
    let completed = Mutex::new(Vec::new());
    // The daemon cannot restart inside the window without breaking the
    // closed loop, so its set-ups all run before it.
    let setups = if mode == Mode::Traced {
        1
    } else {
        session::SETUPS
    };
    let mut daemon = None;
    for rep in 0..setups as u64 {
        if let Some(d) = daemon.take() {
            stop(d);
        }
        completed.lock().expect("completed list poisoned").clear();
        let t0 = Instant::now();
        let d = start(dir)?;
        let mut t = Tracer::new(t0);
        for j in 0..WARM_SCENARIOS {
            let warm_seed = seed_base + 5_000_000 + rep * WARM_SCENARIOS + j;
            fresh(&d.addr, warm_seed, &mut t, SETUP, &completed)?;
        }
        out.setup_s.push(t0.elapsed().as_secs_f64());
        daemon = Some(d);
    }
    let daemon = daemon.expect("at least one set-up");

    let (executed0, coalesced0) = flight(&daemon.addr)?;
    let rss0 = crate::proc_status_kb("VmRSS:").unwrap_or(0);
    let start = Instant::now();
    let shared = Shared {
        addr: &daemon.addr,
        seed_base,
        mode,
        start,
        dispenser: Mutex::new(Dispenser {
            next: 0,
            deadline: start + std::time::Duration::from_secs_f64(seconds),
            // Enough requests for `serve.op_p90_ms` to keep its tail.
            min_ops: min_ops.max(crate::stats::min_samples(90)) as u64,
        }),
        completed: &completed,
    };
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| scope.spawn(|| client(&shared)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let (executed1, coalesced1) = flight(&daemon.addr)?;
    let rss1 = crate::proc_status_kb("VmRSS:").unwrap_or(0);
    stop(daemon);

    let mut docs = Vec::new();
    let mut window_s: f64 = 0.0;
    for log in logs {
        out.ops.extend(log.ops);
        out.attempted += log.attempted;
        out.failures.extend(log.failures);
        docs.extend(log.docs);
        spans::append(&mut out.spans, log.spans);
        window_s = window_s.max(log.last_end_s);
    }
    out.ops.sort_by_key(|a| a.i);
    let jobs = out.ops.len();
    if mode == Mode::Traced {
        let stage_ms: Vec<f64> = docs
            .iter()
            .filter(|(is_fresh, _)| *is_fresh)
            .filter_map(|(_, doc)| {
                doc.get("manifest")?
                    .get("execution")?
                    .get("stages")?
                    .as_obj()
            })
            .flat_map(|stages| stages.values())
            .filter(|s| s.get("source").and_then(Json::as_str) == Some("run"))
            .filter_map(|s| Some(s.get("seconds")?.as_f64()? * 1e3))
            .collect();
        let (hits, lookups) = docs.iter().fold((0, 0), |(h, n), (_, doc)| {
            let hit = execution_u64(doc, "cache_hits").unwrap_or(0);
            let miss = execution_u64(doc, "cache_misses").unwrap_or(0);
            (h + hit, n + hit + miss)
        });
        let count = |value: u64| Metric {
            value: value as f64,
            unit: "count",
            n: jobs,
        };
        let all_ms: Vec<f64> = out.ops.iter().map(|r| r.ms).collect();
        out.layers = vec![
            (
                "serve.op_p90_ms",
                Metric {
                    value: crate::stats::percentile(&all_ms, 90).unwrap_or(f64::NAN),
                    unit: "ms",
                    n: all_ms.len(),
                },
            ),
            ("serve.submit_ms", session::span_p50(&out, "serve.submit")),
            ("serve.stream_ms", session::span_p50(&out, "serve.stream")),
            ("serve.status_ms", session::span_p50(&out, "serve.status")),
            ("orchestrator.stage_ms", session::p50(&stage_ms, "ms")),
            (
                "orchestrator.cas_hit_ratio",
                Metric {
                    value: hits as f64 / lookups as f64,
                    unit: "ratio",
                    n: lookups as usize,
                },
            ),
            ("orchestrator.executed", count(executed1 - executed0)),
            ("orchestrator.coalesced", count(coalesced1 - coalesced0)),
            (
                "serve.rss_kb_per_job",
                Metric {
                    value: (rss1 as f64 - rss0 as f64) / jobs as f64,
                    unit: "kB",
                    n: jobs,
                },
            ),
            // The two clients overlap, so this is completed jobs over the
            // window rather than a median of per-request rates.
            (
                "jobs_per_s",
                Metric {
                    value: jobs as f64 / window_s,
                    unit: "1/s",
                    n: jobs,
                },
            ),
        ];
    }
    Ok(out)
}
