//! The campaign daemon: an accept loop (TCP or Unix socket), a bounded
//! worker pool feeding the [`orchestrator`] scheduler, and the JSON API
//! the `pv3t1d serve` command exposes.
//!
//! The accept thread blocks in `accept()`: a request is served as soon
//! as it connects. [`Server::shutdown`] cancels the token and then
//! opens one connection to the daemon's own listener; the accept loop
//! checks the token after every accept, so that wake connection (or any
//! connection queued ahead of it) ends the loop. Only [`Server::wait`]
//! polls the token on a timer.
//!
//! ## Endpoints
//!
//! | method & path           | behavior                                          |
//! |-------------------------|---------------------------------------------------|
//! | `GET /healthz`          | liveness + job counts + coalescing totals + last gc |
//! | `GET /metrics`          | daemon registry, Prometheus text exposition       |
//! | `GET /metrics.json`     | the same registry as JSON                         |
//! | `POST /runs`            | submit a scenario document → `202 {"job": id}`    |
//! |                         | (done at once when every stage is a cache hit)    |
//! | `GET /jobs`             | list retained jobs                                |
//! | `GET /jobs/<id>`        | job state (+ run manifest once terminal)          |
//! | `DELETE /jobs/<id>`     | cancel (cooperative; the scheduler drains)        |
//! | `GET /jobs/<id>/events` | stream progress events as newline-delimited JSON  |
//!
//! ## Correlation ids
//!
//! Every accepted request gets a daemon-unique id (`req-000042`). For
//! `POST /runs` the id is stored on the job, echoed in the 202 response
//! and the job status document, stamped on every progress event, woven
//! into the scheduler's trace-span names, and attached to every log
//! line the request or its job emits — one grep follows a request end
//! to end. Ids are execution metadata: they never enter cache keys or
//! run fingerprints.
//!
//! ## Cache-resolved submissions
//!
//! `POST /runs` plans the scenario against the CAS first
//! ([`orchestrator::plan_scenario`]). When every stage is a verified
//! hit, the job enters the table as `running` and the connection thread
//! that received it runs it through the same `run_job` a worker uses,
//! then answers the 202: it never waits behind executing jobs for a
//! worker slot. Its manifest, events, fingerprint, logs and metrics are
//! those a worker would produce, with `execution.executed` 0, and
//! `serve.jobs.cache_resolved_total` counts it. Any other submission is
//! queued for the pool.
//!
//! ## Shared execution state
//!
//! Every job runs through the same [`FlightTable`] and the same
//! results directory, so concurrent jobs that reach the same
//! content-addressed stage key share one computation (request
//! coalescing) and later jobs hit the CAS outright. Per-job run
//! manifests land under `<results>/jobs/<id>.run.json` — including
//! partial manifests for jobs cancelled by `DELETE` or daemon
//! shutdown, which is what makes kill-and-restart resume from
//! checkpoints with zero re-execution.
//!
//! The job table keeps only the most recent
//! [`RETAINED_FINISHED`](crate::jobs::RETAINED_FINISHED) finished jobs.
//! `GET /jobs/<id>` for an older job this daemon issued is rebuilt from
//! its run manifest on disk; its events are gone, so
//! `GET /jobs/<id>/events` answers 404 `events no longer retained`.

use crate::http;
use crate::janitor::{self, JanitorConfig, JanitorState};
use crate::jobs::{self, Claim, JobState, JobTable};
use crate::telemetry::{self, Telemetry};
use obs::{CancelToken, Json, MetricsRegistry};
use orchestrator::{plan_scenario, run_scenario, FlightTable, RunOptions, Scenario};
use std::io::{self, BufReader, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Concurrent connection cap; excess connections get a 503 and are
/// closed immediately rather than queueing behind slow handlers.
const MAX_CONNECTIONS: usize = 1024;
/// How often [`Server::wait`] re-checks the shutdown token. The accept
/// loop does not poll: it blocks in `accept()` and shutdown wakes it.
const POLL: Duration = Duration::from_millis(25);
/// Pause after a failed `accept()` (e.g. `EMFILE`), so a persistent
/// error does not spin the accept thread.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);
/// Time a client has to send its whole request, head and body: a silent
/// or trickling client cannot pin a handler thread for longer.
const READ_TIMEOUT: Duration = Duration::from_secs(10);

/// Where the daemon listens.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Listen {
    /// A TCP address, e.g. `127.0.0.1:7878` (port 0 picks a free one).
    Tcp(String),
    /// A Unix domain socket path (`unix:/path` on the CLI).
    Unix(PathBuf),
}

impl Listen {
    /// Parses the CLI form: `unix:<path>` or a TCP `host:port`.
    pub fn parse(text: &str) -> Self {
        match text.strip_prefix("unix:") {
            Some(path) => Listen::Unix(PathBuf::from(path)),
            None => Listen::Tcp(text.to_string()),
        }
    }
}

/// Daemon configuration, CLI-shaped.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address.
    pub listen: Listen,
    /// Results directory (CAS + per-job manifests).
    pub results_dir: PathBuf,
    /// Worker pool size — concurrently executing jobs.
    pub workers: usize,
    /// Per-run DAG concurrency handed to the scheduler.
    pub stage_jobs: usize,
    /// CAS janitor cadence; `None` disables the janitor.
    pub gc_interval: Option<Duration>,
    /// CAS size budget the janitor enforces.
    pub gc_max_bytes: u64,
    /// The shutdown token (bridged from SIGTERM by `pv3t1d serve`).
    pub shutdown: CancelToken,
    /// Print a line per lifecycle event to stdout.
    pub verbose: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            listen: Listen::Tcp("127.0.0.1:0".to_string()),
            results_dir: PathBuf::from("results"),
            workers: 2,
            stage_jobs: 2,
            gc_interval: None,
            gc_max_bytes: 256 * 1024 * 1024,
            shutdown: CancelToken::new(),
            verbose: false,
        }
    }
}

/// State shared by connection handlers, workers, and the janitor.
pub(crate) struct Shared {
    pub(crate) jobs: JobTable,
    pub(crate) flight: Arc<FlightTable>,
    pub(crate) results_dir: PathBuf,
    pub(crate) stage_jobs: usize,
    pub(crate) shutdown: CancelToken,
    pub(crate) janitor: JanitorState,
    pub(crate) telemetry: Telemetry,
    workers: usize,
    busy_workers: AtomicUsize,
    /// Connection threads inside `resolve_cached`; the drain waits for
    /// them as it joins the workers. A thread raises it before its job
    /// enters the table and lowers it (`Release`) after `finish`. The
    /// drain reads it (`Acquire`) after `cancel_all` took the table
    /// lock, so it sees every job inserted before that lock was taken.
    resolving: AtomicUsize,
    active_connections: AtomicUsize,
    started: Instant,
    verbose: bool,
}

/// A running daemon. Dropping it does **not** stop the threads — call
/// [`Server::shutdown`] (or let the process exit).
pub struct Server {
    shared: Arc<Shared>,
    threads: Vec<std::thread::JoinHandle<()>>,
    addr: String,
    unix_path: Option<PathBuf>,
}

enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(std::os::unix::net::UnixListener),
}

/// One accepted connection, abstracting TCP vs Unix sockets.
enum Conn {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(std::os::unix::net::UnixStream),
}

impl Conn {
    fn try_clone(&self) -> io::Result<Conn> {
        match self {
            Conn::Tcp(s) => s.try_clone().map(Conn::Tcp),
            #[cfg(unix)]
            Conn::Unix(s) => s.try_clone().map(Conn::Unix),
        }
    }

    fn set_read_timeout(&self, timeout: Duration) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_read_timeout(Some(timeout)),
            #[cfg(unix)]
            Conn::Unix(s) => s.set_read_timeout(Some(timeout)),
        }
    }
}

/// A connection whose reads all end by one deadline: each read waits at
/// most for the time left, and once it has passed, reads fail with
/// [`io::ErrorKind::TimedOut`].
struct DeadlineReader {
    conn: Conn,
    deadline: Instant,
}

impl Read for DeadlineReader {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let timed_out = || io::Error::new(io::ErrorKind::TimedOut, "request deadline passed");
        let left = self.deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(timed_out());
        }
        self.conn.set_read_timeout(left)?;
        match self.conn.read(buf) {
            // A socket read timeout reports `WouldBlock` on Unix.
            Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => {
                Err(timed_out())
            }
            r => r,
        }
    }
}

/// Reads one request from `conn`, all of it within `limit` of now.
fn read_request_within(
    conn: Conn,
    limit: Duration,
) -> io::Result<Result<Option<http::Request>, http::BadRequest>> {
    let mut reader = BufReader::new(DeadlineReader {
        conn,
        deadline: Instant::now() + limit,
    });
    http::read_request(&mut reader)
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Conn::Unix(s) => s.flush(),
        }
    }
}

impl Listener {
    fn bind(listen: &Listen) -> io::Result<(Listener, String, Option<PathBuf>)> {
        match listen {
            Listen::Tcp(addr) => {
                let l = TcpListener::bind(addr)?;
                let actual = l.local_addr()?.to_string();
                Ok((Listener::Tcp(l), actual, None))
            }
            #[cfg(unix)]
            Listen::Unix(path) => {
                // A stale socket file from a previous daemon blocks the
                // bind; remove it (connect-refused probes confirm it is
                // dead territory anyway, this is the standard dance).
                let _ = std::fs::remove_file(path);
                let l = std::os::unix::net::UnixListener::bind(path)?;
                Ok((
                    Listener::Unix(l),
                    format!("unix:{}", path.display()),
                    Some(path.clone()),
                ))
            }
            #[cfg(not(unix))]
            Listen::Unix(_) => Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "unix sockets are only supported on unix",
            )),
        }
    }

    fn accept(&self) -> io::Result<Conn> {
        match self {
            Listener::Tcp(l) => l.accept().map(|(s, _)| Conn::Tcp(s)),
            #[cfg(unix)]
            Listener::Unix(l) => l.accept().map(|(s, _)| Conn::Unix(s)),
        }
    }
}

impl Server {
    /// Binds, spawns the accept loop + worker pool + janitor, and
    /// returns immediately.
    pub fn start(config: ServerConfig) -> io::Result<Server> {
        tune_malloc();
        let (listener, addr, unix_path) = Listener::bind(&config.listen)?;
        std::fs::create_dir_all(config.results_dir.join("jobs"))?;
        let shared = Arc::new(Shared {
            jobs: JobTable::new(config.results_dir.join("jobs")),
            flight: Arc::new(FlightTable::new()),
            results_dir: config.results_dir.clone(),
            stage_jobs: config.stage_jobs.max(1),
            shutdown: config.shutdown.clone(),
            janitor: JanitorState::new(),
            telemetry: Telemetry::new(),
            workers: config.workers.max(1),
            busy_workers: AtomicUsize::new(0),
            resolving: AtomicUsize::new(0),
            active_connections: AtomicUsize::new(0),
            started: Instant::now(),
            verbose: config.verbose,
        });

        let mut threads = Vec::new();
        let accept_shared = shared.clone();
        threads.push(
            std::thread::Builder::new()
                .name("serve-accept".into())
                .spawn(move || accept_loop(listener, accept_shared))?,
        );
        for i in 0..config.workers.max(1) {
            let worker_shared = shared.clone();
            threads.push(
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(worker_shared))?,
            );
        }
        if let Some(interval) = config.gc_interval {
            let janitor_shared = shared.clone();
            let jc = JanitorConfig {
                store_root: config.results_dir.join("cas"),
                interval,
                max_bytes: config.gc_max_bytes,
            };
            threads.push(
                std::thread::Builder::new()
                    .name("serve-janitor".into())
                    .spawn(move || janitor::run(jc, janitor_shared))?,
            );
        }
        if config.verbose {
            println!("serve: listening on {addr} ({} workers)", config.workers.max(1));
        }
        Ok(Server {
            shared,
            threads,
            addr,
            unix_path,
        })
    }

    /// The bound address — with `--listen 127.0.0.1:0` this is where
    /// the daemon actually ended up.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Blocks until the shutdown token fires, then drains.
    pub fn wait(self) {
        while !self.shared.shutdown.is_cancelled() {
            std::thread::sleep(POLL);
        }
        self.shutdown();
    }

    /// Graceful drain: stop accepting, cancel every job (the scheduler
    /// stops at the next unit boundary and writes partial manifests),
    /// retire the queue, and join all daemon threads.
    pub fn shutdown(self) {
        self.shared.shutdown.cancel();
        if let Err(e) = self.wake_accept() {
            obs::log::error(
                "cannot wake the accept loop",
                &[("error", Json::Str(e.to_string()))],
            );
        }
        self.shared.jobs.cancel_all();
        for t in self.threads {
            let _ = t.join();
        }
        // Cache-resolved jobs run on connection threads, which are not
        // joined. Their tokens fired with the rest, so they end as
        // promptly as a worker's job does.
        while self.shared.resolving.load(Ordering::Acquire) > 0 {
            std::thread::sleep(POLL);
        }
        // Workers exit without draining the queue on shutdown; mark the
        // leftovers cancelled so their event streams terminate.
        for id in self.shared.jobs.active_ids() {
            self.shared.jobs.finish(id, JobState::Cancelled, None, None);
        }
        if let Some(path) = &self.unix_path {
            let _ = std::fs::remove_file(path);
        }
        if self.shared.verbose {
            println!("serve: drained and stopped");
        }
    }

    /// Opens one connection to the daemon's own listener so the accept
    /// thread returns from `accept()` and sees the cancelled token. A
    /// TCP listener bound to an unspecified address is reached on
    /// loopback. The connection queues in the backlog if the loop is
    /// busy, so it is never lost whenever the cancel lands.
    fn wake_accept(&self) -> io::Result<()> {
        #[cfg(unix)]
        if let Some(path) = &self.unix_path {
            return std::os::unix::net::UnixStream::connect(path).map(drop);
        }
        let mut addr: SocketAddr = self.addr.parse().map_err(io::Error::other)?;
        if addr.ip().is_unspecified() {
            addr.set_ip(match addr.ip() {
                IpAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
                IpAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
            });
        }
        TcpStream::connect(addr).map(drop)
    }
}

/// Pins glibc's mmap threshold at its 128 KiB default and caps its
/// malloc arenas at one per CPU, once per process.
///
/// glibc raises the threshold whenever a large mapped block is freed;
/// from then on large blocks come from the allocating thread's arena
/// and stay resident after they are freed. The daemon runs every
/// connection and every stage on a thread of its own, so how many
/// arenas end up holding a finished campaign's buffers depends on how
/// those threads happened to overlap, and resident memory wandered by
/// several MB from one run of the same load to the next. With the
/// threshold pinned, blocks of 128 KiB and more are always mapped and
/// go back to the system when freed.
///
/// glibc also opens a new arena whenever a thread finds the others
/// locked, up to eight per CPU. Cache-resolved jobs allocate on
/// connection threads while a worker runs a campaign, and without a cap
/// the daemon's peak RSS under perfbench's `serve_mixed` rose from
/// 8.2–8.6 to 9.9–10.7 MB on a 2-vCPU host. More arenas than CPUs buy no
/// parallelism. Both settings are process-wide, so they also hold for a
/// program that embeds the daemon.
fn tune_malloc() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        const M_MMAP_THRESHOLD: i32 = -3;
        const M_ARENA_MAX: i32 = -8;
        const THRESHOLD: i32 = 128 * 1024;
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        static TUNED: std::sync::Once = std::sync::Once::new();
        TUNED.call_once(|| {
            let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
            let arenas = i32::try_from(cpus).unwrap_or(i32::MAX);
            // SAFETY: mallopt takes no pointers; it only updates glibc's
            // allocator tunables, under glibc's own lock.
            unsafe {
                mallopt(M_MMAP_THRESHOLD, THRESHOLD);
                mallopt(M_ARENA_MAX, arenas);
            }
        });
    }
}

fn accept_loop(listener: Listener, shared: Arc<Shared>) {
    loop {
        let accepted = listener.accept();
        // Shutdown wakes this thread with a connection of its own; once
        // the token is cancelled, whatever was accepted is dropped.
        if shared.shutdown.is_cancelled() {
            return;
        }
        let Ok(conn) = accepted else {
            std::thread::sleep(ACCEPT_BACKOFF);
            continue;
        };
        if shared.active_connections.fetch_add(1, Ordering::AcqRel) >= MAX_CONNECTIONS {
            shared.active_connections.fetch_sub(1, Ordering::AcqRel);
            let mut conn = conn;
            let _ = http::write_response(&mut conn, 503, "{\"error\":\"overloaded\"}");
            continue;
        }
        let conn_shared = shared.clone();
        let spawned = std::thread::Builder::new()
            .name("serve-conn".into())
            .spawn(move || {
                let _ = handle_connection(conn, &conn_shared);
                conn_shared.active_connections.fetch_sub(1, Ordering::AcqRel);
            });
        if spawned.is_err() {
            shared.active_connections.fetch_sub(1, Ordering::AcqRel);
        }
    }
}

fn worker_loop(shared: Arc<Shared>) {
    while let Some(claim) = shared.jobs.claim(&shared.shutdown) {
        shared.busy_workers.fetch_add(1, Ordering::AcqRel);
        run_job(&shared, claim);
        shared.busy_workers.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Runs a claimed job to its terminal state: the scheduler, the run
/// manifest under `<results>/jobs`, the log lines, the registry merge
/// and [`JobTable::finish`]. Workers run queued jobs through it, and
/// [`submit`] runs cache-resolved ones on the submitting connection.
fn run_job(shared: &Shared, claim: Claim) {
    if shared.verbose {
        println!("serve: job {} ({}) started", claim.id, claim.scenario.name);
    }
    if obs::log::enabled(obs::log::Level::Info) {
        obs::log::info(
            "job started",
            &[
                ("job", Json::Num(claim.id as f64)),
                ("scenario", Json::Str(claim.scenario.name.clone())),
                ("request_id", Json::Str(claim.request_id.clone())),
            ],
        );
    }
    let opts = RunOptions {
        jobs: shared.stage_jobs,
        results_dir: shared.results_dir.clone(),
        cancel: Some(claim.cancel.clone()),
        flight: Some(shared.flight.clone()),
        events: Some(claim.events.clone()),
        request_id: Some(claim.request_id.clone()),
        ..RunOptions::default()
    };
    match run_scenario(&claim.scenario, &opts) {
        Ok(summary) => {
            // The per-job manifest is written even for cancelled and
            // failed runs — it records which stages completed, so a
            // restarted daemon (or operator) can see what resumed —
            // and it is what status reads once the job is evicted. It is
            // built once: the file and the table hold the same document.
            let manifest = summary.to_json();
            let path = jobs::manifest_path(&shared.results_dir.join("jobs"), claim.id);
            let _ = std::fs::write(&path, manifest.render_pretty());
            let state = JobState::of_manifest(&manifest);
            if shared.verbose {
                println!("serve: job {} {}", claim.id, state.word());
            }
            if obs::log::enabled(obs::log::Level::Info) {
                obs::log::info(
                    "job finished",
                    &[
                        ("job", Json::Num(claim.id as f64)),
                        ("state", Json::Str(state.word().to_string())),
                        ("wall_seconds", Json::Num(summary.wall_seconds)),
                        ("request_id", Json::Str(claim.request_id.clone())),
                    ],
                );
            }
            // Fold the job's scheduler metrics into the daemon-wide
            // registry: counters add across jobs (daemon CAS totals),
            // the job histogram and throughput gauge feed /metrics.
            shared.telemetry.with_registry(|reg| {
                reg.merge(&summary.metrics);
                reg.inc("serve.jobs.finished_total", 1);
                reg.inc(&format!("serve.jobs.{}_total", state.word()), 1);
                let (name, lo, hi, n) = telemetry::JOB_SECONDS;
                reg.histogram(name, lo, hi, n).record(summary.wall_seconds);
                let units = summary
                    .metrics
                    .counter("orchestrator.checkpoint.stored_units")
                    .unwrap_or(0)
                    + summary
                        .metrics
                        .counter("orchestrator.checkpoint.resumed_units")
                        .unwrap_or(0);
                if summary.wall_seconds > 0.0 {
                    reg.set_gauge(
                        "serve.job.units_per_s",
                        units as f64 / summary.wall_seconds,
                    );
                }
            });
            shared.jobs.finish(claim.id, state, Some(manifest), None);
        }
        Err(e) => {
            if shared.verbose {
                println!("serve: job {} failed: {e}", claim.id);
            }
            if obs::log::enabled(obs::log::Level::Error) {
                obs::log::error(
                    "job failed",
                    &[
                        ("job", Json::Num(claim.id as f64)),
                        ("error", Json::Str(e.to_string())),
                        ("request_id", Json::Str(claim.request_id.clone())),
                    ],
                );
            }
            shared.telemetry.with_registry(|reg| {
                reg.inc("serve.jobs.finished_total", 1);
                reg.inc("serve.jobs.failed_total", 1);
            });
            shared
                .jobs
                .finish(claim.id, JobState::Failed, None, Some(e.to_string()));
        }
    }
}

/// The daemon-wide registry with live gauges overlaid: the base
/// registry (HTTP counters + merged job metrics) plus queue depth,
/// worker occupancy, CAS hit ratio, flight totals, janitor lifetime
/// counters, and uptime — recomputed at scrape time so `/metrics` and
/// `/metrics.json` show one shape.
pub(crate) fn registry_snapshot(shared: &Shared) -> MetricsRegistry {
    let mut reg = shared.telemetry.registry_clone();
    let (queued, running, finished) = shared.jobs.counts();
    reg.set_gauge("serve.jobs.queued", queued as f64);
    reg.set_gauge("serve.jobs.running", running as f64);
    reg.set_gauge("serve.jobs.finished", finished as f64);
    reg.set_gauge("serve.queue.depth", queued as f64);
    let busy = shared.busy_workers.load(Ordering::Acquire);
    reg.set_gauge("serve.workers.total", shared.workers as f64);
    reg.set_gauge("serve.workers.busy", busy as f64);
    reg.set_gauge(
        "serve.workers.utilization",
        busy as f64 / shared.workers as f64,
    );
    let hits = reg.counter("orchestrator.cas.hits").unwrap_or(0);
    let misses = reg.counter("orchestrator.cas.misses").unwrap_or(0);
    if hits + misses > 0 {
        reg.set_gauge("serve.cas.hit_ratio", hits as f64 / (hits + misses) as f64);
    }
    reg.set_counter("serve.flight.executed_total", shared.flight.executed_total());
    reg.set_counter(
        "serve.flight.coalesced_total",
        shared.flight.coalesced_total(),
    );
    let (gc_passes, gc_bytes, gc_removed) = shared.janitor.totals();
    reg.set_counter("serve.gc.passes_total", gc_passes);
    reg.set_counter("serve.gc.bytes_reclaimed_total", gc_bytes);
    reg.set_counter("serve.gc.removed_total", gc_removed);
    reg.set_gauge(
        "serve.connections.active",
        shared.active_connections.load(Ordering::Acquire) as f64,
    );
    reg.set_gauge("serve.uptime_seconds", shared.started.elapsed().as_secs_f64());
    telemetry::set_process_memory(&mut reg);
    reg
}

fn handle_connection(conn: Conn, shared: &Shared) -> io::Result<()> {
    let mut writer = conn.try_clone()?;
    let t0 = Instant::now();
    let request = match read_request_within(conn, READ_TIMEOUT)? {
        Ok(Some(req)) => req,
        Ok(None) => return Ok(()),
        Err(bad) => {
            let mut err = Json::object();
            err.insert("error", Json::Str(bad.to_string()));
            shared.telemetry.observe_http("?", 400, t0.elapsed().as_secs_f64());
            return http::write_response(&mut writer, 400, &err.render());
        }
    };
    // The correlation id: minted at accept, logged with the outcome,
    // and (for POST /runs) stored on the job it creates.
    let request_id = shared.telemetry.mint_request_id();
    let result = route(&request, &mut writer, shared, &request_id);
    let status = *result.as_ref().unwrap_or(&0);
    shared
        .telemetry
        .observe_http(&request.method, status, t0.elapsed().as_secs_f64());
    if obs::log::enabled(obs::log::Level::Debug) {
        obs::log::debug(
            "http request",
            &[
                ("method", Json::Str(request.method.clone())),
                ("path", Json::Str(request.path.clone())),
                ("status", Json::Num(f64::from(status))),
                ("request_id", Json::Str(request_id)),
            ],
        );
    }
    result.map(|_| ())
}

fn respond(w: &mut impl Write, status: u16, doc: &Json) -> io::Result<u16> {
    http::write_response(w, status, &doc.render())?;
    Ok(status)
}

fn error_doc(message: &str) -> Json {
    let mut o = Json::object();
    o.insert("error", Json::Str(message.to_string()));
    o
}

fn route(
    req: &http::Request,
    w: &mut impl Write,
    shared: &Shared,
    request_id: &str,
) -> io::Result<u16> {
    // Query strings arrive verbatim in the target; split them off before
    // segment matching.
    let path = req
        .path
        .split_once('?')
        .map_or(req.path.as_str(), |(path, _)| path);
    let segments: Vec<&str> = path.split('/').filter(|s| !s.is_empty()).collect();
    match (req.method.as_str(), segments.as_slice()) {
        ("GET", ["healthz"]) => respond(w, 200, &healthz(shared)),
        ("GET", ["metrics"]) => {
            let text = obs::prom::render(&registry_snapshot(shared));
            http::write_response_typed(w, 200, "text/plain; version=0.0.4", &text)?;
            Ok(200)
        }
        ("GET", ["metrics.json"]) => {
            respond(w, 200, &registry_snapshot(shared).to_json())
        }
        ("POST", ["runs"]) => submit(req, w, shared, request_id),
        ("GET", ["jobs"]) => respond(w, 200, &shared.jobs.list_json()),
        ("GET", ["jobs", id]) => match parse_id(id).and_then(|id| shared.jobs.status_json(id)) {
            Some(doc) => respond(w, 200, &doc),
            None => respond(w, 404, &error_doc("no such job")),
        },
        ("DELETE", ["jobs", id]) => match parse_id(id).and_then(|id| shared.jobs.cancel(id)) {
            Some(state) => {
                let mut doc = Json::object();
                doc.insert("cancelled", Json::Bool(true));
                doc.insert("was", Json::Str(state.word().to_string()));
                respond(w, 202, &doc)
            }
            None => respond(w, 404, &error_doc("no such job")),
        },
        ("GET", ["jobs", id, "events"]) => {
            let id = parse_id(id);
            match id.and_then(|id| shared.jobs.events(id)) {
                Some(bus) => stream_events(w, &bus, &shared.shutdown).map(|()| 200),
                None if id.is_some_and(|id| shared.jobs.is_evicted(id)) => {
                    respond(w, 404, &error_doc("events no longer retained"))
                }
                None => respond(w, 404, &error_doc("no such job")),
            }
        }
        // A route above, asked with another method.
        (
            _,
            ["healthz" | "runs" | "jobs" | "metrics" | "metrics.json"]
            | ["jobs", _]
            | ["jobs", _, "events"],
        ) => respond(w, 405, &error_doc("method not allowed")),
        _ => respond(w, 404, &error_doc("no such route")),
    }
}

fn parse_id(text: &str) -> Option<u64> {
    text.parse::<u64>().ok()
}

fn healthz(shared: &Shared) -> Json {
    let (queued, running, finished) = shared.jobs.counts();
    let mut jobs = Json::object();
    jobs.insert("queued", Json::Num(queued as f64));
    jobs.insert("running", Json::Num(running as f64));
    jobs.insert("finished", Json::Num(finished as f64));
    let mut flight = Json::object();
    flight.insert(
        "executed_total",
        Json::Num(shared.flight.executed_total() as f64),
    );
    flight.insert(
        "coalesced_total",
        Json::Num(shared.flight.coalesced_total() as f64),
    );
    let reg = shared.telemetry.registry_clone();
    let mut cas = Json::object();
    let hits = reg.counter("orchestrator.cas.hits").unwrap_or(0);
    let misses = reg.counter("orchestrator.cas.misses").unwrap_or(0);
    cas.insert("hits", Json::Num(hits as f64));
    cas.insert("misses", Json::Num(misses as f64));
    cas.insert(
        "hit_ratio",
        if hits + misses > 0 {
            Json::Num(hits as f64 / (hits + misses) as f64)
        } else {
            Json::Null
        },
    );
    let busy = shared.busy_workers.load(Ordering::Acquire);
    let mut workers = Json::object();
    workers.insert("total", Json::Num(shared.workers as f64));
    workers.insert("busy", Json::Num(busy as f64));
    workers.insert(
        "utilization",
        Json::Num(busy as f64 / shared.workers as f64),
    );
    let mut doc = Json::object();
    doc.insert("ok", Json::Bool(true));
    doc.insert("draining", Json::Bool(shared.shutdown.is_cancelled()));
    doc.insert(
        "uptime_seconds",
        Json::Num(shared.started.elapsed().as_secs_f64()),
    );
    doc.insert("jobs", jobs);
    doc.insert("flight", flight);
    doc.insert("cas", cas);
    doc.insert("workers", workers);
    // Request-latency quantiles from the exposition histogram, in ms.
    // An empty histogram has no quantiles ([`FixedHistogram::quantile`]
    // returns `None`), and the key is emitted as an explicit `null`
    // rather than omitted — clients render "n/a" instead of a garbage
    // 0.00 and never need to guess whether the field was forgotten.
    let latency = reg
        .get_histogram(telemetry::HTTP_SECONDS.0)
        .and_then(|h| h.quantile_summary())
        .map(|(p50, p90, p99)| {
            let mut latency = Json::object();
            latency.insert("p50_ms", Json::Num(p50 * 1e3));
            latency.insert("p90_ms", Json::Num(p90 * 1e3));
            latency.insert("p99_ms", Json::Num(p99 * 1e3));
            latency
        });
    doc.insert("http_latency", latency.unwrap_or(Json::Null));
    doc.insert("gc", shared.janitor.to_json());
    doc
}

fn submit(
    req: &http::Request,
    w: &mut impl Write,
    shared: &Shared,
    request_id: &str,
) -> io::Result<u16> {
    if shared.shutdown.is_cancelled() {
        return respond(w, 503, &error_doc("draining"));
    }
    let text = match std::str::from_utf8(&req.body) {
        Ok(t) => t,
        Err(_) => return respond(w, 400, &error_doc("scenario body is not UTF-8")),
    };
    let scenario = match Scenario::parse(text) {
        Ok(sc) => sc,
        Err(e) => return respond(w, 400, &error_doc(&e.to_string())),
    };
    if let Err(e) = scenario.validate() {
        return respond(w, 400, &error_doc(&e.to_string()));
    }
    let mut doc = Json::object();
    doc.insert("scenario", Json::Str(scenario.name.clone()));
    let id = if all_cached(&scenario, shared) {
        match resolve_cached(scenario, shared, request_id) {
            Some(id) => id,
            None => return respond(w, 503, &error_doc("draining")),
        }
    } else {
        shared.jobs.submit(scenario, request_id.to_string())
    };
    doc.insert("job", Json::Num(id as f64));
    doc.insert("request_id", Json::Str(request_id.to_string()));
    respond(w, 202, &doc)
}

/// Whether every stage of `scenario` is a verified hit in the daemon's
/// CAS.
fn all_cached(scenario: &Scenario, shared: &Shared) -> bool {
    let opts = RunOptions {
        results_dir: shared.results_dir.clone(),
        ..RunOptions::default()
    };
    plan_scenario(scenario, &opts).is_ok_and(|plan| plan.iter().all(|entry| entry.cached))
}

/// Runs a scenario whose every stage was a cache hit on the calling
/// connection thread, without a worker slot, and returns its job id;
/// `None` once the daemon drains. The job is `running` in the table
/// throughout, so cancel, drain and eviction treat it like a worker's.
///
/// The janitor can evict a CAS entry between the plan and the run. The
/// scheduler then executes that stage for this connection thread: the
/// output is still correct, and at most [`MAX_CONNECTIONS`] such runs
/// can be in flight.
fn resolve_cached(scenario: Scenario, shared: &Shared, request_id: &str) -> Option<u64> {
    shared.resolving.fetch_add(1, Ordering::AcqRel);
    let claim = shared
        .jobs
        .submit_running(scenario, request_id.to_string(), &shared.shutdown);
    let id = claim.map(|claim| {
        let id = claim.id;
        run_job(shared, claim);
        shared
            .telemetry
            .with_registry(|reg| reg.inc("serve.jobs.cache_resolved_total", 1));
        id
    });
    shared.resolving.fetch_sub(1, Ordering::AcqRel);
    id
}

/// Tails a job's event bus as close-delimited NDJSON: replays history
/// from cursor 0, then follows live until the bus closes (job terminal)
/// or the daemon shuts down. Each non-empty batch of events goes out in
/// one `write_all`.
fn stream_events(w: &mut impl Write, bus: &obs::EventBus, shutdown: &CancelToken) -> io::Result<()> {
    http::write_stream_head(w)?;
    let mut cursor = 0usize;
    let mut batch = String::new();
    loop {
        let (events, closed) = bus.wait_from(cursor, Duration::from_millis(200));
        cursor += events.len();
        if !events.is_empty() {
            batch.clear();
            for event in &events {
                batch.push_str(&event.render());
                batch.push('\n');
            }
            w.write_all(batch.as_bytes())?;
            w.flush()?;
        }
        if closed || shutdown.is_cancelled() {
            return w.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::CountingWriter;

    /// A loopback connection pair: the client end and the accepted end.
    fn loopback() -> (TcpStream, Conn) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        (client, Conn::Tcp(server))
    }

    #[test]
    fn a_trickling_client_hits_the_request_deadline() {
        let (mut client, conn) = loopback();
        // One byte every 50 ms: each read returns well inside any
        // per-read timeout, so only a deadline on the whole request ends
        // it. The request would take 2 s to arrive.
        let trickle = std::thread::spawn(move || {
            for &b in b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n" {
                if client.write_all(&[b]).is_err() {
                    return;
                }
                std::thread::sleep(Duration::from_millis(50));
            }
        });
        let t0 = Instant::now();
        let err = read_request_within(conn, Duration::from_millis(200)).unwrap_err();
        let waited = t0.elapsed();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut, "{err}");
        assert!(
            waited >= Duration::from_millis(200) && waited < Duration::from_millis(1500),
            "gave up after {waited:?}"
        );
        trickle.join().unwrap();
    }

    #[test]
    fn a_prompt_request_parses_within_the_deadline() {
        let (mut client, conn) = loopback();
        client
            .write_all(b"POST /runs HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}")
            .unwrap();
        let req = read_request_within(conn, Duration::from_millis(200))
            .unwrap()
            .unwrap()
            .unwrap();
        assert_eq!((req.method.as_str(), req.path.as_str()), ("POST", "/runs"));
        assert_eq!(req.body, b"{}");
    }

    #[test]
    fn each_event_batch_is_one_write_with_unchanged_framing() {
        let bus = obs::EventBus::new();
        for n in 1..=3 {
            let mut event = Json::object();
            event.insert("event", Json::Str("stage.finished".to_string()));
            event.insert("n", Json::Num(f64::from(n)));
            bus.publish(event);
        }
        bus.close();
        let mut w = CountingWriter::default();
        stream_events(&mut w, &bus, &CancelToken::new()).unwrap();
        // The head, then the three replayed events as one batch.
        assert_eq!(w.writes, 2);
        assert_eq!(
            String::from_utf8(w.bytes).unwrap(),
            concat!(
                "HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\nConnection: close\r\n\r\n",
                "{\"event\":\"stage.finished\",\"n\":1}\n",
                "{\"event\":\"stage.finished\",\"n\":2}\n",
                "{\"event\":\"stage.finished\",\"n\":3}\n",
            )
        );
    }
}
