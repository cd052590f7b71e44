//! Hierarchical span tracing with Chrome trace-event JSON export.
//!
//! The counters and histograms in [`crate::MetricsRegistry`] answer *how
//! often* something happened; this module answers **when**. A single
//! process-global `Tracer` collects:
//!
//! * **spans** — nested begin/end pairs ([`span_enter`]/[`span_exit`], or
//!   the RAII [`span`] guard) on the wall-clock timeline;
//! * **instants** — point events ([`instant`]), e.g. a CAS hit;
//! * **counters** — sampled values over time ([`counter`]);
//! * **simulator events** — instants stamped with *simulated cycles*
//!   instead of wall-clock microseconds ([`sim_instant`]/[`sim_value`]),
//!   e.g. a refresh issue or a retention-deadline eviction inside
//!   `cachesim`. They export under their own process id ([`SIM_PID`]) so
//!   the two clock domains never share a timeline.
//!
//! The export format is the Chrome trace-event JSON object
//! (`{"traceEvents": [...]}`), loadable in [Perfetto](https://ui.perfetto.dev)
//! or `chrome://tracing`, rendered with the workspace's zero-dependency
//! [`Json`].
//!
//! # Overhead and the disabled fast path
//!
//! The tracer is **disabled by default**. Every recording function first
//! checks one relaxed atomic flag and returns immediately when tracing is
//! off — no locking, no allocation, no timestamping — so instrumentation
//! can live on simulator event paths without a measurable cost
//! (`tests/disabled_overhead.rs` fails if a disabled call reaches
//! 250 ns). When enabled, events go into a **ring buffer** with a
//! configurable cap: the newest events win, the `dropped` count records
//! how many were evicted.
//!
//! # Thread-awareness and balance
//!
//! Each OS thread is lazily assigned a small integer `tid`; spans nest
//! per-thread, so campaign workers and DAG stage threads each get their
//! own track in the viewer. Exports are **always balanced**: an end with
//! no matching begin (its begin was evicted from the ring, or the caller
//! over-popped) is dropped, and begins still open at export time are
//! closed with synthetic ends. The obs test-suite pins both properties.
//!
//! # Determinism
//!
//! Recording is observation-only: enabling the tracer cannot change any
//! simulation result or manifest fingerprint, and the t3cache determinism
//! suite pins a campaign's fingerprint as bit-identical with tracing on
//! and off.

use crate::json::Json;
use std::collections::VecDeque;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// Process id used for wall-clock events (timestamps in microseconds).
pub const WALL_PID: u64 = 1;

/// Process id used for simulator events (timestamps in simulated cycles,
/// exported as-if microseconds so viewers lay them out proportionally).
pub const SIM_PID: u64 = 2;

/// Default ring-buffer capacity (events) used by [`enable_default`].
pub const DEFAULT_CAP: usize = 1 << 18;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Begin,
    End,
    Instant,
    Counter,
}

#[derive(Debug, Clone)]
struct Event {
    phase: Phase,
    pid: u64,
    tid: u64,
    ts: u64,
    cat: &'static str,
    name: String,
    arg: Option<(&'static str, f64)>,
}

/// The tracer's mutable core, behind the global mutex.
#[derive(Debug)]
struct Tracer {
    events: VecDeque<Event>,
    cap: usize,
    dropped: u64,
    epoch: Instant,
}

impl Tracer {
    fn push(&mut self, ev: Event) {
        if self.events.len() >= self.cap {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(ev);
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);
static TRACER: OnceLock<Mutex<Tracer>> = OnceLock::new();

thread_local! {
    /// Small per-thread integer id, assigned on a thread's first event.
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

fn tracer() -> MutexGuard<'static, Tracer> {
    TRACER
        .get_or_init(|| {
            Mutex::new(Tracer {
                events: VecDeque::new(),
                cap: DEFAULT_CAP,
                dropped: 0,
                epoch: Instant::now(),
            })
        })
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// Enables tracing into a fresh ring buffer of at most `cap` events.
/// Any previously captured events are discarded and the wall clock
/// restarts at zero.
pub fn enable(cap: usize) {
    let mut t = tracer();
    t.events.clear();
    t.cap = cap.max(1);
    t.dropped = 0;
    t.epoch = Instant::now();
    ENABLED.store(true, Ordering::Release);
}

/// [`enable`] with the [`DEFAULT_CAP`] ring capacity.
pub fn enable_default() {
    enable(DEFAULT_CAP);
}

/// Stops recording. Captured events stay available for [`export`] until
/// the next [`enable`] or [`clear`].
pub fn disable() {
    ENABLED.store(false, Ordering::Release);
}

/// Whether the tracer is currently recording.
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Discards all captured events (and stops recording).
pub fn clear() {
    ENABLED.store(false, Ordering::Release);
    let mut t = tracer();
    t.events.clear();
    t.dropped = 0;
}

/// Events currently held in the ring buffer.
pub fn event_count() -> usize {
    tracer().events.len()
}

/// Events evicted from the ring buffer since [`enable`].
pub fn dropped_count() -> u64 {
    tracer().dropped
}

fn record(phase: Phase, pid: u64, ts: Option<u64>, cat: &'static str, name: String, arg: Option<(&'static str, f64)>) {
    let tid = TID.with(|t| *t);
    let mut t = tracer();
    let ts = ts.unwrap_or_else(|| t.epoch.elapsed().as_micros() as u64);
    t.push(Event {
        phase,
        pid,
        tid,
        ts,
        cat,
        name,
        arg,
    });
}

/// Opens a span on the calling thread's wall-clock track. Pair with
/// [`span_exit`], or prefer the RAII [`span`] guard.
pub fn span_enter(cat: &'static str, name: &str) {
    if !is_enabled() {
        return;
    }
    record(Phase::Begin, WALL_PID, None, cat, name.to_string(), None);
}

/// Closes the calling thread's innermost open span. Extra exits (more
/// exits than enters) are tolerated: the export repair pass drops them.
pub fn span_exit() {
    if !is_enabled() {
        return;
    }
    record(Phase::End, WALL_PID, None, "", String::new(), None);
}

/// RAII guard returned by [`span`]: exits the span on drop.
#[must_use = "the span closes when this guard drops"]
#[derive(Debug)]
pub struct Span {
    active: bool,
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.active {
            span_exit();
        }
    }
}

/// Opens a span closed automatically when the returned guard drops.
pub fn span(cat: &'static str, name: &str) -> Span {
    let active = is_enabled();
    if active {
        span_enter(cat, name);
    }
    Span { active }
}

/// [`span`] with a lazily-built name: `name_fn` runs only when tracing
/// is enabled, so hot paths pay no formatting cost while disabled.
pub fn span_with(cat: &'static str, name_fn: impl FnOnce() -> String) -> Span {
    let active = is_enabled();
    if active {
        record(Phase::Begin, WALL_PID, None, cat, name_fn(), None);
    }
    Span { active }
}

/// Records a point event on the calling thread's wall-clock track.
pub fn instant(cat: &'static str, name: &str) {
    if !is_enabled() {
        return;
    }
    record(Phase::Instant, WALL_PID, None, cat, name.to_string(), None);
}

/// [`instant`] with a lazily-built name (no formatting while disabled).
pub fn instant_with(cat: &'static str, name_fn: impl FnOnce() -> String) {
    if !is_enabled() {
        return;
    }
    record(Phase::Instant, WALL_PID, None, cat, name_fn(), None);
}

/// Samples a named counter value on the wall-clock timeline.
pub fn counter(name: &str, value: f64) {
    if !is_enabled() {
        return;
    }
    record(
        Phase::Counter,
        WALL_PID,
        None,
        "counter",
        name.to_string(),
        Some(("value", value)),
    );
}

/// Records a simulator domain event at an explicit simulated-cycle
/// timestamp, on the [`SIM_PID`] timeline.
pub fn sim_instant(cat: &'static str, name: &str, cycle: u64) {
    if !is_enabled() {
        return;
    }
    record(Phase::Instant, SIM_PID, Some(cycle), cat, name.to_string(), None);
}

/// [`sim_instant`] carrying one numeric argument (e.g. a line index or a
/// measured run length), visible in the viewer's event details.
pub fn sim_value(cat: &'static str, name: &str, cycle: u64, key: &'static str, value: f64) {
    if !is_enabled() {
        return;
    }
    record(
        Phase::Instant,
        SIM_PID,
        Some(cycle),
        cat,
        name.to_string(),
        Some((key, value)),
    );
}

fn event_json(phase: &str, ev: &Event, name: &str, cat: &str) -> Json {
    let mut o = Json::object();
    o.insert("ph", Json::Str(phase.to_string()));
    o.insert("pid", Json::Num(ev.pid as f64));
    o.insert("tid", Json::Num(ev.tid as f64));
    o.insert("ts", Json::Num(ev.ts as f64));
    if !name.is_empty() {
        o.insert("name", Json::Str(name.to_string()));
    }
    if !cat.is_empty() {
        o.insert("cat", Json::Str(cat.to_string()));
    }
    if ev.phase == Phase::Instant {
        o.insert("s", Json::Str("t".to_string()));
    }
    if let Some((key, value)) = &ev.arg {
        let mut args = Json::object();
        args.insert(key, Json::Num(*value));
        o.insert("args", args);
    }
    o
}

fn metadata_event(pid: u64, process_name: &str) -> Json {
    let mut args = Json::object();
    args.insert("name", Json::Str(process_name.to_string()));
    let mut o = Json::object();
    o.insert("ph", Json::Str("M".to_string()));
    o.insert("pid", Json::Num(pid as f64));
    o.insert("tid", Json::Num(0.0));
    o.insert("ts", Json::Num(0.0));
    o.insert("name", Json::Str("process_name".to_string()));
    o.insert("args", args);
    o
}

/// Exports everything captured so far as a Chrome trace-event JSON
/// object (`{"traceEvents": [...], "displayTimeUnit": "ms"}`).
///
/// The export is **repaired to be balanced** whatever was recorded:
/// per-thread, an `E` with no open `B` is dropped (its begin fell off the
/// ring buffer), and any `B` still open at the end of the capture gets a
/// synthetic closing `E` at that thread's last timestamp. Every event
/// carries `ph`, `pid`, `tid`, and `ts`.
pub fn export() -> Json {
    let t = tracer();
    let mut out: Vec<Json> = vec![
        metadata_event(WALL_PID, "pv3t1d (wall clock, us)"),
        metadata_event(SIM_PID, "simulator (cycle clock)"),
    ];
    // Per-(pid, tid) stack of open begins: (event index into `out`
    // unused — we only need name/cat/ts bookkeeping for synthetic ends).
    use std::collections::BTreeMap;
    let mut open: BTreeMap<(u64, u64), Vec<(String, &'static str)>> = BTreeMap::new();
    let mut last_ts: BTreeMap<(u64, u64), u64> = BTreeMap::new();
    for ev in &t.events {
        let track = (ev.pid, ev.tid);
        let seen = last_ts.entry(track).or_insert(ev.ts);
        *seen = (*seen).max(ev.ts);
        match ev.phase {
            Phase::Begin => {
                open.entry(track).or_default().push((ev.name.clone(), ev.cat));
                out.push(event_json("B", ev, &ev.name, ev.cat));
            }
            Phase::End => {
                // Unbalanced end: its begin was evicted or never existed.
                let Some((name, cat)) = open.get_mut(&track).and_then(Vec::pop) else {
                    continue;
                };
                out.push(event_json("E", ev, &name, cat));
            }
            Phase::Instant => out.push(event_json("i", ev, &ev.name, ev.cat)),
            Phase::Counter => out.push(event_json("C", ev, &ev.name, ev.cat)),
        }
    }
    // Close spans left open (innermost first so nesting stays valid).
    for (track, stack) in open.iter_mut() {
        let ts = last_ts.get(track).copied().unwrap_or(0);
        while let Some((name, cat)) = stack.pop() {
            let synthetic = Event {
                phase: Phase::End,
                pid: track.0,
                tid: track.1,
                ts,
                cat,
                name,
                arg: None,
            };
            out.push(event_json("E", &synthetic, &synthetic.name, synthetic.cat));
        }
    }
    let mut o = Json::object();
    o.insert("traceEvents", Json::Arr(out));
    o.insert("displayTimeUnit", Json::Str("ms".to_string()));
    o.insert("droppedEvents", Json::Num(t.dropped as f64));
    o
}

/// Writes the [`export`] JSON to `path` (compact rendering — traces are
/// large), creating parent directories.
pub fn write_to(path: &Path) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, export().render())
}

/// Summary facts about one exported trace document: used by
/// `pv3t1d ls --traces` and the report renderer.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceSummary {
    /// Total events (excluding metadata).
    pub events: u64,
    /// Balanced span pairs (`B` events).
    pub spans: u64,
    /// Instant events.
    pub instants: u64,
    /// Counter samples.
    pub counters: u64,
}

/// Summarizes a parsed Chrome trace-event document (as produced by
/// [`export`]). Returns `None` when `doc` has no `traceEvents` array.
pub fn summarize(doc: &Json) -> Option<TraceSummary> {
    let events = doc.get("traceEvents")?.as_arr()?;
    let mut s = TraceSummary::default();
    for ev in events {
        match ev.get("ph").and_then(Json::as_str) {
            Some("B") => {
                s.spans += 1;
                s.events += 1;
            }
            Some("M") => {}
            Some("i") => {
                s.instants += 1;
                s.events += 1;
            }
            Some("C") => {
                s.counters += 1;
                s.events += 1;
            }
            Some(_) => s.events += 1,
            None => return None,
        }
    }
    Some(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tracer is process-global; tests touching it serialize here.
    pub(crate) static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn balanced(doc: &Json) -> bool {
        use std::collections::BTreeMap;
        let mut depth: BTreeMap<(u64, u64), i64> = BTreeMap::new();
        for ev in doc.get("traceEvents").unwrap().as_arr().unwrap() {
            let key = (
                ev.get("pid").unwrap().as_u64().unwrap(),
                ev.get("tid").unwrap().as_u64().unwrap(),
            );
            match ev.get("ph").unwrap().as_str().unwrap() {
                "B" => *depth.entry(key).or_insert(0) += 1,
                "E" => {
                    let d = depth.entry(key).or_insert(0);
                    *d -= 1;
                    if *d < 0 {
                        return false;
                    }
                }
                _ => {}
            }
        }
        depth.values().all(|&d| d == 0)
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        clear();
        span_enter("test", "ignored");
        instant("test", "ignored");
        sim_instant("test", "ignored", 42);
        assert_eq!(event_count(), 0);
    }

    #[test]
    fn spans_nest_and_export_balanced() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        enable(1024);
        {
            let _outer = span("test", "outer");
            let _inner = span("test", "inner");
            instant("test", "tick");
        }
        counter("queue_depth", 3.0);
        sim_value("cachesim", "refresh.issued", 9000, "line", 17.0);
        disable();
        let doc = export();
        assert!(balanced(&doc));
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let phases: Vec<&str> = events
            .iter()
            .map(|e| e.get("ph").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(phases.iter().filter(|p| **p == "B").count(), 2);
        assert_eq!(phases.iter().filter(|p| **p == "E").count(), 2);
        assert_eq!(phases.iter().filter(|p| **p == "i").count(), 2);
        assert_eq!(phases.iter().filter(|p| **p == "C").count(), 1);
        // The sim event sits on the SIM_PID timeline at its cycle stamp.
        let sim = events
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("refresh.issued"))
            .unwrap();
        assert_eq!(sim.get("pid").unwrap().as_u64(), Some(SIM_PID));
        assert_eq!(sim.get("ts").unwrap().as_u64(), Some(9000));
        assert_eq!(sim.get("args").unwrap().get("line").unwrap().as_f64(), Some(17.0));
        clear();
    }

    #[test]
    fn unbalanced_sequences_are_repaired() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        enable(1024);
        span_exit(); // exit with no begin: dropped
        span_enter("test", "left_open"); // begin with no end: closed
        disable();
        let doc = export();
        assert!(balanced(&doc));
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let b = events.iter().filter(|e| e.get("ph").unwrap().as_str() == Some("B")).count();
        let e = events.iter().filter(|e| e.get("ph").unwrap().as_str() == Some("E")).count();
        assert_eq!((b, e), (1, 1));
        clear();
    }

    #[test]
    fn ring_buffer_caps_and_counts_drops() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        enable(8);
        for i in 0..20 {
            sim_instant("test", "ev", i);
        }
        disable();
        assert_eq!(event_count(), 8);
        assert_eq!(dropped_count(), 12);
        // Newest events won: the surviving stamps are the last eight.
        let doc = export();
        let first_ts = doc
            .get("traceEvents")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() == Some("i"))
            .map(|e| e.get("ts").unwrap().as_u64().unwrap())
            .min()
            .unwrap();
        assert_eq!(first_ts, 12);
        clear();
    }

    #[test]
    fn eviction_of_begins_cannot_unbalance_the_export() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        enable(3); // tiny ring: begins fall off, ends survive
        for i in 0..6 {
            span_enter("test", &format!("s{i}"));
        }
        for _ in 0..6 {
            span_exit();
        }
        disable();
        let doc = export();
        assert!(balanced(&doc));
        clear();
    }

    #[test]
    fn summarize_counts_event_kinds() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        enable(64);
        let _s = span("test", "a");
        instant("test", "b");
        counter("c", 1.0);
        drop(_s);
        disable();
        let s = summarize(&export()).unwrap();
        assert_eq!(s.spans, 1);
        assert_eq!(s.instants, 1);
        assert_eq!(s.counters, 1);
        assert_eq!(s.events, 4); // B + E + i + C
        assert_eq!(summarize(&Json::object()), None);
        clear();
    }
}
