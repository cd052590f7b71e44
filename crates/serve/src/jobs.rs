//! The daemon's job table: submitted scenario runs, their lifecycle
//! (`queued → running → done/failed/cancelled`), per-job cancel tokens,
//! and per-job [`EventBus`]es the streaming endpoint tails.
//!
//! The table is the single source of truth shared by the HTTP
//! connection threads (submit/query/cancel) and the worker pool
//! (claim/finish); everything lives behind one mutex, with a condvar
//! waking idle workers.
//!
//! ## Retention
//!
//! Only the [`RETAINED_FINISHED`] most recently finished jobs stay in
//! memory; older ones are evicted oldest-first, so a long-lived daemon's
//! table stays bounded. An evicted job's status is rebuilt from its
//! on-disk run manifest (`<results>/jobs/<id>.run.json`); its event
//! history is gone.

use obs::{CancelToken, EventBus, Json};
use orchestrator::Scenario;
use std::collections::{HashMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// Finished jobs kept in memory; the oldest beyond this are evicted.
pub const RETAINED_FINISHED: usize = 64;

/// Where the daemon writes job `id`'s run manifest under `jobs_dir`
/// (`<results>/jobs`).
pub(crate) fn manifest_path(jobs_dir: &Path, id: u64) -> PathBuf {
    jobs_dir.join(format!("{id}.run.json"))
}

/// Where a job is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, waiting for a worker.
    Queued,
    /// A worker is executing the scenario.
    Running,
    /// The run finished with every stage ok.
    Done,
    /// The run finished with at least one failed/timed-out/skipped
    /// stage, or the scheduler itself errored.
    Failed,
    /// Cancelled before or during execution.
    Cancelled,
}

impl JobState {
    /// The wire word for the state.
    pub fn word(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }

    /// Whether the job can no longer change state.
    pub fn is_terminal(self) -> bool {
        matches!(self, JobState::Done | JobState::Failed | JobState::Cancelled)
    }

    /// The terminal state a run manifest records: `done` when every
    /// stage produced a payload, `cancelled` when any stage was cut by
    /// cancellation, `failed` otherwise. The worker derives a finished
    /// job's state with this, so a status rebuilt from disk after
    /// eviction reads exactly as it did live.
    pub(crate) fn of_manifest(manifest: &Json) -> JobState {
        if manifest.get("ok").and_then(Json::as_bool) == Some(true) {
            return JobState::Done;
        }
        let cancelled = manifest
            .get("results")
            .and_then(|r| r.get("stages"))
            .and_then(Json::as_obj)
            .is_some_and(|stages| {
                stages
                    .values()
                    .any(|s| s.get("status").and_then(Json::as_str) == Some("cancelled"))
            });
        if cancelled {
            JobState::Cancelled
        } else {
            JobState::Failed
        }
    }
}

/// One submitted run.
#[derive(Debug)]
struct Job {
    scenario: Scenario,
    state: JobState,
    cancel: CancelToken,
    events: EventBus,
    /// The run manifest, once the run finished (also on failure — it
    /// carries the structured per-stage `errors` section).
    manifest: Option<Json>,
    /// A scheduler-level error message (spec/cycle errors), distinct
    /// from per-stage failures inside the manifest.
    error: Option<String>,
    /// The HTTP-layer correlation id minted at accept time; echoed in
    /// the status document and threaded into the scheduler's spans,
    /// events, and log lines.
    request_id: String,
}

/// The work a claimed job hands to a worker.
#[derive(Debug)]
pub struct Claim {
    /// Job id.
    pub id: u64,
    /// The scenario to run.
    pub scenario: Scenario,
    /// The job's cancel token (wired into the scheduler).
    pub cancel: CancelToken,
    /// The job's progress bus (wired into the scheduler; the worker
    /// closes it when the job reaches a terminal state).
    pub events: EventBus,
    /// The correlation id the submitting request minted.
    pub request_id: String,
}

#[derive(Debug, Default)]
struct Inner {
    jobs: HashMap<u64, Job>,
    queue: VecDeque<u64>,
    /// Ids of the finished jobs still in `jobs`, oldest first.
    finished: VecDeque<u64>,
    /// Finished jobs evicted so far.
    evicted: usize,
    next_id: u64,
}

impl Inner {
    /// Records that `id` reached a terminal state and evicts the oldest
    /// finished jobs beyond [`RETAINED_FINISHED`].
    fn retire(&mut self, id: u64) {
        self.finished.push_back(id);
        while self.finished.len() > RETAINED_FINISHED {
            let oldest = self.finished.pop_front().expect("finished is non-empty");
            self.jobs.remove(&oldest);
            self.evicted += 1;
        }
    }
}

/// The shared job table. All methods take `&self`.
#[derive(Debug)]
pub struct JobTable {
    inner: Mutex<Inner>,
    cv: Condvar,
    /// Where run manifests live (`<results>/jobs`).
    jobs_dir: PathBuf,
}

impl JobTable {
    /// An empty table whose evicted jobs' status is read back from the
    /// run manifests under `jobs_dir`.
    pub fn new(jobs_dir: PathBuf) -> Self {
        Self {
            inner: Mutex::default(),
            cv: Condvar::new(),
            jobs_dir,
        }
    }

    /// Accepts a scenario and queues it, recording the accepting
    /// request's correlation id. Returns the new job id.
    pub fn submit(&self, scenario: Scenario, request_id: String) -> u64 {
        let mut inner = self.inner.lock().expect("job table poisoned");
        inner.next_id += 1;
        let id = inner.next_id;
        // Ids restart at 1 with every daemon, so a manifest under this id
        // belongs to a previous daemon's job. Remove it before any worker
        // can see the job: the job may end without writing one, and the
        // evicted-status fallback must never read another job's.
        let _ = std::fs::remove_file(manifest_path(&self.jobs_dir, id));
        inner.jobs.insert(
            id,
            Job {
                scenario,
                state: JobState::Queued,
                cancel: CancelToken::new(),
                events: EventBus::new(),
                manifest: None,
                error: None,
                request_id,
            },
        );
        inner.queue.push_back(id);
        self.cv.notify_one();
        id
    }

    /// Blocks until a queued job is available and claims it (marking it
    /// running), or returns `None` once `shutdown` fires. Jobs that were
    /// cancelled while queued are consumed here — marked terminal, their
    /// bus closed — without ever reaching a worker.
    pub fn claim(&self, shutdown: &CancelToken) -> Option<Claim> {
        let mut inner = self.inner.lock().expect("job table poisoned");
        loop {
            while let Some(id) = inner.queue.pop_front() {
                let job = inner.jobs.get_mut(&id).expect("queued job exists");
                if job.cancel.is_cancelled() {
                    job.state = JobState::Cancelled;
                    job.events.close();
                    inner.retire(id);
                    continue;
                }
                job.state = JobState::Running;
                return Some(Claim {
                    id,
                    scenario: job.scenario.clone(),
                    cancel: job.cancel.clone(),
                    events: job.events.clone(),
                    request_id: job.request_id.clone(),
                });
            }
            if shutdown.is_cancelled() {
                return None;
            }
            inner = self
                .cv
                .wait_timeout(inner, Duration::from_millis(100))
                .expect("job table poisoned")
                .0;
        }
    }

    /// Records a finished run: the manifest and the terminal state. The
    /// job's event bus is closed so streaming clients see EOF, and the
    /// oldest finished jobs beyond [`RETAINED_FINISHED`] are evicted.
    pub fn finish(&self, id: u64, state: JobState, manifest: Option<Json>, error: Option<String>) {
        debug_assert!(state.is_terminal());
        let mut inner = self.inner.lock().expect("job table poisoned");
        let Some(job) = inner.jobs.get_mut(&id) else {
            return;
        };
        debug_assert!(!job.state.is_terminal(), "job {id} finished twice");
        job.state = state;
        job.manifest = manifest;
        job.error = error;
        job.events.close();
        inner.retire(id);
    }

    /// Cancels a job: fires its token (the scheduler drains
    /// cooperatively); queued jobs are retired the next time a worker
    /// sees them. Returns `false` for unknown ids, and the job's state
    /// at cancel time otherwise.
    pub fn cancel(&self, id: u64) -> Option<JobState> {
        let inner = self.inner.lock().expect("job table poisoned");
        inner.jobs.get(&id).map(|job| {
            job.cancel.cancel();
            job.state
        })
    }

    /// Fires every job's cancel token (daemon shutdown) and wakes all
    /// workers so they observe the shutdown token.
    pub fn cancel_all(&self) {
        let inner = self.inner.lock().expect("job table poisoned");
        for job in inner.jobs.values() {
            job.cancel.cancel();
        }
        drop(inner);
        self.cv.notify_all();
    }

    /// The job's event bus, for the streaming endpoint. `None` for
    /// unknown and evicted jobs alike; `JobTable::is_evicted` tells
    /// them apart.
    pub fn events(&self, id: u64) -> Option<EventBus> {
        let inner = self.inner.lock().expect("job table poisoned");
        inner.jobs.get(&id).map(|j| j.events.clone())
    }

    /// Whether this table issued `id` and has since evicted the
    /// finished job. Ids a previous daemon issued are never evicted
    /// ones: this table has not issued them.
    pub(crate) fn is_evicted(&self, id: u64) -> bool {
        let inner = self.inner.lock().expect("job table poisoned");
        (1..=inner.next_id).contains(&id) && !inner.jobs.contains_key(&id)
    }

    /// The job's status document: id, scenario, state, and — once
    /// terminal — the run manifest (with its structured `errors`
    /// section) or the scheduler error. An evicted job's document is
    /// rebuilt from its on-disk manifest (same keys, less the live
    /// `events` count); `None` when the id is unknown or the evicted job
    /// left no readable manifest.
    pub fn status_json(&self, id: u64) -> Option<Json> {
        self.live_status(id).or_else(|| self.evicted_status(id))
    }

    fn evicted_status(&self, id: u64) -> Option<Json> {
        if !self.is_evicted(id) {
            return None;
        }
        let text = std::fs::read_to_string(manifest_path(&self.jobs_dir, id)).ok()?;
        let manifest = Json::parse(&text).ok()?;
        let field = |section: &str, key: &str| {
            manifest
                .get(section)
                .and_then(|s| s.get(key))
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string()
        };
        let mut o = Json::object();
        o.insert("job", Json::Num(id as f64));
        o.insert("scenario", Json::Str(field("results", "scenario")));
        o.insert(
            "state",
            Json::Str(JobState::of_manifest(&manifest).word().to_string()),
        );
        o.insert("request_id", Json::Str(field("execution", "request_id")));
        o.insert("manifest", manifest);
        Some(o)
    }

    fn live_status(&self, id: u64) -> Option<Json> {
        let inner = self.inner.lock().expect("job table poisoned");
        inner.jobs.get(&id).map(|job| {
            let mut o = Json::object();
            o.insert("job", Json::Num(id as f64));
            o.insert("scenario", Json::Str(job.scenario.name.clone()));
            o.insert("state", Json::Str(job.state.word().to_string()));
            o.insert("events", Json::Num(job.events.len() as f64));
            o.insert("request_id", Json::Str(job.request_id.clone()));
            if let Some(manifest) = &job.manifest {
                o.insert("manifest", manifest.clone());
            }
            if let Some(error) = &job.error {
                o.insert("error", Json::Str(error.clone()));
            }
            o
        })
    }

    /// A compact listing of every retained job (id, scenario, state),
    /// ordered by id.
    pub fn list_json(&self) -> Json {
        let inner = self.inner.lock().expect("job table poisoned");
        let mut ids: Vec<&u64> = inner.jobs.keys().collect();
        ids.sort();
        let rows = ids
            .into_iter()
            .map(|id| {
                let job = &inner.jobs[id];
                let mut o = Json::object();
                o.insert("job", Json::Num(*id as f64));
                o.insert("scenario", Json::Str(job.scenario.name.clone()));
                o.insert("state", Json::Str(job.state.word().to_string()));
                o
            })
            .collect();
        let mut doc = Json::object();
        doc.insert("jobs", Json::Arr(rows));
        doc
    }

    /// `(queued, running, terminal)` counts for `/healthz`. The terminal
    /// count includes evicted jobs: it is every job this table finished.
    pub fn counts(&self) -> (usize, usize, usize) {
        let inner = self.inner.lock().expect("job table poisoned");
        let mut c = (0, 0, inner.evicted);
        for job in inner.jobs.values() {
            match job.state {
                JobState::Queued => c.0 += 1,
                JobState::Running => c.1 += 1,
                _ => c.2 += 1,
            }
        }
        c
    }

    /// Ids of jobs not yet terminal (used by the drain loop).
    pub fn active_ids(&self) -> Vec<u64> {
        let inner = self.inner.lock().expect("job table poisoned");
        let mut ids: Vec<u64> = inner
            .jobs
            .iter()
            .filter(|(_, j)| !j.state.is_terminal())
            .map(|(id, _)| *id)
            .collect();
        ids.sort();
        ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bench_harness::RunScale;

    fn scenario(name: &str) -> Scenario {
        Scenario::new(name, RunScale::QUICK)
    }

    /// A table whose manifest directory does not exist.
    fn table() -> JobTable {
        JobTable::new(std::env::temp_dir().join("pv3t1d_jobs_no_manifests"))
    }

    #[test]
    fn submit_claim_finish_round_trip() {
        let table = table();
        let id = table.submit(scenario("a"), "req-000001".into());
        assert_eq!(table.counts(), (1, 0, 0));
        let shutdown = CancelToken::new();
        let claim = table.claim(&shutdown).unwrap();
        assert_eq!(claim.id, id);
        assert_eq!(table.counts(), (0, 1, 0));
        table.finish(id, JobState::Done, Some(Json::object()), None);
        assert_eq!(table.counts(), (0, 0, 1));
        let status = table.status_json(id).unwrap();
        assert_eq!(status.get("state").unwrap().as_str(), Some("done"));
        assert_eq!(
            status.get("request_id").unwrap().as_str(),
            Some("req-000001"),
            "status must echo the correlation id"
        );
        assert!(status.get("manifest").is_some());
        let (_, closed) = claim.events.wait_from(0, std::time::Duration::ZERO);
        assert!(closed, "finish closes the bus");
    }

    #[test]
    fn cancelled_queued_jobs_never_reach_a_worker() {
        let table = table();
        let id = table.submit(scenario("doomed"), "req-000002".into());
        assert_eq!(table.cancel(id), Some(JobState::Queued));
        let shutdown = CancelToken::new();
        shutdown.cancel();
        // The claim loop consumes the cancelled job, then sees shutdown.
        assert!(table.claim(&shutdown).is_none());
        let status = table.status_json(id).unwrap();
        assert_eq!(status.get("state").unwrap().as_str(), Some("cancelled"));
        assert_eq!(table.cancel(9999), None);
    }

    #[test]
    fn finished_jobs_beyond_the_cap_are_evicted_oldest_first() {
        let dir = std::env::temp_dir().join(format!("pv3t1d_jobs_evict_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        // A previous daemon's manifest under id 1 is cleared when this
        // table issues id 1, before the job can finish.
        std::fs::write(manifest_path(&dir, 1), "{}").unwrap();
        let table = JobTable::new(dir.clone());
        let shutdown = CancelToken::new();
        let total = RETAINED_FINISHED as u64 + 6;
        for n in 1..=total {
            let id = table.submit(scenario(&format!("s{n}")), format!("req-{n:06}"));
            let claim = table.claim(&shutdown).unwrap();
            assert_eq!(claim.id, id);
            if id == 1 {
                assert!(!manifest_path(&dir, 1).exists(), "stale manifest survived");
            }
            let mut manifest = Json::object();
            manifest.insert("ok", Json::Bool(true));
            let mut results = Json::object();
            results.insert("scenario", Json::Str(format!("s{n}")));
            manifest.insert("results", results);
            let mut execution = Json::object();
            execution.insert("request_id", Json::Str(format!("req-{n:06}")));
            manifest.insert("execution", execution);
            if id != 3 {
                std::fs::write(manifest_path(&dir, id), manifest.render()).unwrap();
            }
            table.finish(id, JobState::Done, Some(manifest), None);
        }
        assert_eq!(table.counts(), (0, 0, total as usize), "evicted jobs still count");
        let rows = table.list_json();
        let rows = rows.get("jobs").unwrap().as_arr().unwrap();
        assert_eq!(rows.len(), RETAINED_FINISHED);
        assert_eq!(rows[0].get("job").unwrap().as_u64(), Some(7), "oldest evicted first");

        assert!(table.is_evicted(1));
        assert!(table.events(1).is_none());
        let status = table.status_json(1).expect("evicted status comes from disk");
        assert_eq!(status.get("state").unwrap().as_str(), Some("done"));
        assert_eq!(status.get("scenario").unwrap().as_str(), Some("s1"));
        assert_eq!(status.get("request_id").unwrap().as_str(), Some("req-000001"));
        assert!(status.get("manifest").is_some());
        // Evicted without a manifest on disk, and never issued: no status.
        assert!(table.status_json(3).is_none());
        assert!(!table.is_evicted(total + 1));
        assert!(table.status_json(total + 1).is_none());
        assert!(!table.is_evicted(0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn manifest_state_matches_the_worker_derivation() {
        let parse = |text: &str| JobState::of_manifest(&Json::parse(text).unwrap());
        assert_eq!(parse(r#"{"ok": true}"#), JobState::Done);
        assert_eq!(
            parse(r#"{"ok": false, "results": {"stages": {"a": {"status": "ok"}, "b": {"status": "cancelled"}}}}"#),
            JobState::Cancelled
        );
        assert_eq!(
            parse(r#"{"ok": false, "results": {"stages": {"a": {"status": "failed"}, "b": {"status": "skipped"}}}}"#),
            JobState::Failed
        );
        assert_eq!(parse("{}"), JobState::Failed);
    }

    #[test]
    fn claim_returns_none_promptly_on_shutdown() {
        let table = std::sync::Arc::new(table());
        let shutdown = CancelToken::new();
        let t2 = table.clone();
        let s2 = shutdown.clone();
        let waiter = std::thread::spawn(move || t2.claim(&s2));
        std::thread::sleep(Duration::from_millis(50));
        shutdown.cancel();
        table.cancel_all();
        assert!(waiter.join().unwrap().is_none());
    }
}
