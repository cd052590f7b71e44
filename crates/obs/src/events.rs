//! A tiny in-process pub/sub bus for streaming run progress events.
//!
//! The scheduler publishes one [`Json`] event per lifecycle transition
//! (run started, stage launched, stage finished, run finished) and the
//! serving layer replays them to clients as newline-delimited JSON. The
//! bus is an append-only log guarded by a mutex + condvar: producers
//! [`publish`](EventBus::publish), consumers poll or block with
//! [`wait_from`](EventBus::wait_from) holding a cursor into the log, so
//! any number of late subscribers replay the full history and then tail
//! live events. [`close`](EventBus::close) marks the stream terminal,
//! waking every blocked consumer.

use crate::json::Json;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

#[derive(Debug, Default)]
struct BusState {
    events: Vec<Json>,
    closed: bool,
}

/// A clonable handle to one append-only event log (all clones share it).
#[derive(Debug, Clone, Default)]
pub struct EventBus {
    inner: Arc<(Mutex<BusState>, Condvar)>,
}

impl EventBus {
    /// A fresh, open, empty bus.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends `event` to the log and wakes blocked consumers. Events
    /// published after [`close`](EventBus::close) are dropped — the
    /// stream's terminal marker is final.
    pub fn publish(&self, event: Json) {
        let (lock, cv) = &*self.inner;
        let mut state = lock.lock().expect("event bus poisoned");
        if !state.closed {
            state.events.push(event);
            cv.notify_all();
        }
    }

    /// Marks the stream terminal and wakes every blocked consumer.
    /// Idempotent.
    pub fn close(&self) {
        let (lock, cv) = &*self.inner;
        let mut state = lock.lock().expect("event bus poisoned");
        state.closed = true;
        cv.notify_all();
    }

    /// Events published so far.
    pub fn len(&self) -> usize {
        self.inner.0.lock().expect("event bus poisoned").events.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A copy of the full log.
    pub fn snapshot(&self) -> Vec<Json> {
        self.inner.0.lock().expect("event bus poisoned").events.clone()
    }

    /// Blocks until at least one event past index `from` exists, the bus
    /// closes, or `timeout` elapses; returns the events past `from` (may
    /// be empty on a bare timeout or close) and whether the bus is
    /// closed. A consumer tails the stream by advancing its cursor by
    /// the returned batch size until `closed` comes back true.
    pub fn wait_from(&self, from: usize, timeout: Duration) -> (Vec<Json>, bool) {
        let (lock, cv) = &*self.inner;
        let deadline = std::time::Instant::now() + timeout;
        let mut state = lock.lock().expect("event bus poisoned");
        loop {
            if state.events.len() > from || state.closed {
                return (state.events[from.min(state.events.len())..].to_vec(), state.closed);
            }
            let Some(wait) = deadline.checked_duration_since(std::time::Instant::now()) else {
                return (Vec::new(), state.closed);
            };
            let (next, timed_out) = cv
                .wait_timeout(state, wait)
                .expect("event bus poisoned");
            state = next;
            if timed_out.timed_out() {
                return (state.events[from.min(state.events.len())..].to_vec(), state.closed);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(n: f64) -> Json {
        let mut o = Json::object();
        o.insert("n", Json::Num(n));
        o
    }

    #[test]
    fn publish_snapshot_and_cursor_replay() {
        let bus = EventBus::new();
        assert!(bus.is_empty());
        bus.publish(ev(1.0));
        bus.publish(ev(2.0));
        assert_eq!(bus.len(), 2);
        assert_eq!(bus.snapshot(), vec![ev(1.0), ev(2.0)]);

        // A late subscriber replays history from its cursor.
        let (batch, closed) = bus.wait_from(0, Duration::from_millis(1));
        assert_eq!(batch.len(), 2);
        assert!(!closed);
        let (batch, _) = bus.wait_from(1, Duration::from_millis(1));
        assert_eq!(batch, vec![ev(2.0)]);
    }

    #[test]
    fn wait_blocks_until_publish_and_close_wakes() {
        let bus = EventBus::new();
        let tail = bus.clone();
        let h = std::thread::spawn(move || tail.wait_from(0, Duration::from_secs(10)));
        std::thread::sleep(Duration::from_millis(20));
        bus.publish(ev(7.0));
        let (batch, closed) = h.join().unwrap();
        assert_eq!(batch, vec![ev(7.0)]);
        assert!(!closed);

        let tail = bus.clone();
        let h = std::thread::spawn(move || tail.wait_from(1, Duration::from_secs(10)));
        std::thread::sleep(Duration::from_millis(20));
        bus.close();
        let (batch, closed) = h.join().unwrap();
        assert!(batch.is_empty());
        assert!(closed);

        // Publishing after close is a no-op; close is idempotent.
        bus.publish(ev(9.0));
        bus.close();
        assert_eq!(bus.len(), 1);
        assert!(bus.wait_from(0, Duration::ZERO).1, "closed");
    }

    /// Regression guard for the close boundary: a consumer tailing with
    /// `wait_from` must never observe the terminal event without the
    /// closed flag when publish-then-close races its replay. Batch and
    /// flag are read under one lock acquisition, so the final batch that
    /// drains the log must also carry `closed = true`.
    #[test]
    fn tail_never_misses_the_closed_transition() {
        for round in 0..200 {
            let bus = EventBus::new();
            let n = 1 + (round % 7);
            let producer = {
                let bus = bus.clone();
                std::thread::spawn(move || {
                    for i in 0..n {
                        bus.publish(ev(i as f64));
                        if i % 3 == 0 {
                            std::thread::yield_now();
                        }
                    }
                    bus.close();
                })
            };
            let mut seen = Vec::new();
            let mut cursor = 0;
            loop {
                let (batch, closed) = bus.wait_from(cursor, Duration::from_secs(10));
                cursor += batch.len();
                seen.extend(batch);
                if closed {
                    break;
                }
            }
            producer.join().unwrap();
            // The consumer left its loop on `closed`; by then every
            // event — including the terminal record — must have been
            // replayed, because close happens-after the last publish.
            assert_eq!(seen.len(), n, "round {round}: lost events at the close boundary");
            assert_eq!(seen.last(), Some(&ev((n - 1) as f64)));
            // Re-reading past the end on a closed bus stays terminal.
            let (extra, closed) = bus.wait_from(cursor, Duration::from_millis(1));
            assert!(extra.is_empty());
            assert!(closed);
        }
    }

    #[test]
    fn timeout_returns_without_events() {
        let bus = EventBus::new();
        let t0 = std::time::Instant::now();
        let (batch, closed) = bus.wait_from(0, Duration::from_millis(30));
        assert!(batch.is_empty());
        assert!(!closed);
        assert!(t0.elapsed() >= Duration::from_millis(25));
    }
}
