//! In-memory spans the benchmark records around its calls into each
//! layer, and the self-time arithmetic over them.
//!
//! The [`Tracer`] closes spans innermost first on one monotonic clock, so
//! every child lies inside its parent and siblings never overlap. A span's
//! self time is therefore its duration minus its children's durations.
//! The self time of an op's root span is the op's untimed glue: work done
//! inside the op but outside every layer call the benchmark times.

use std::collections::BTreeMap;
use std::time::Instant;

/// The op id of spans recorded during set-up rather than inside an op.
pub const SETUP: u64 = u64::MAX;

/// One timed call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// The call, e.g. `vlsi.sample`; `op` for an op's root span.
    pub name: &'static str,
    /// The op the span belongs to ([`SETUP`] outside ops).
    pub op: u64,
    /// Index of the enclosing span in the same span list.
    pub parent: Option<usize>,
    /// Start, in ns since the run's epoch.
    pub start_ns: u64,
    /// End, in ns since the run's epoch.
    pub end_ns: u64,
}

impl Span {
    /// The span's duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans while enabled. Disabled, `enter` and `exit` cost one
/// branch, so untraced rounds run the same code as traced ones.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A disabled tracer timing spans from `epoch`.
    pub fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            enabled: false,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Turns recording on or off between ops.
    pub fn set_enabled(&mut self, on: bool) {
        assert!(self.open.is_empty(), "tracing toggled inside a span");
        self.enabled = on;
    }

    /// Opens a span inside the innermost open one.
    pub fn enter(&mut self, name: &'static str, op: u64) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            op,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(id);
        Some(id)
    }

    /// Closes the span `enter` returned.
    pub fn exit(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
            self.spans[id].end_ns = self.now_ns();
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// The recorded spans; parents precede their children.
    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "unclosed spans");
        self.spans
    }
}

/// Appends `more` to `spans`, rebasing its parent indices.
pub fn append(spans: &mut Vec<Span>, more: Vec<Span>) {
    let base = spans.len();
    spans.extend(more.into_iter().map(|mut s| {
        s.parent = s.parent.map(|p| p + base);
        s
    }));
}

/// Each span's self time in ns: its duration minus its children's.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut selfs: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            selfs[p] -= s.dur_ns();
        }
    }
    selfs
}

/// Over all root spans named `root`: the share of their time that no
/// layer span covers, and the largest such share in one op. `None`
/// without such spans.
pub fn glue_share(spans: &[Span], root: &str) -> Option<(f64, f64)> {
    let ops: Vec<(u64, u64)> = spans
        .iter()
        .zip(self_times(spans))
        .filter(|(s, _)| s.parent.is_none() && s.name == root)
        .map(|(s, glue)| (s.dur_ns(), glue))
        .collect();
    let total: u64 = ops.iter().map(|&(dur, _)| dur).sum();
    let glue: u64 = ops.iter().map(|&(_, g)| g).sum();
    let worst = ops
        .iter()
        .map(|&(dur, g)| g as f64 / dur.max(1) as f64)
        .fold(0.0, f64::max);
    (!ops.is_empty()).then(|| (glue as f64 / total.max(1) as f64, worst))
}

/// Total time in spans named `name`, in ms, per op.
pub fn per_op_ms(spans: &[Span], name: &str) -> BTreeMap<u64, f64> {
    let mut m = BTreeMap::new();
    for s in spans.iter().filter(|s| s.name == name) {
        *m.entry(s.op).or_insert(0.0) += s.dur_ns() as f64 / 1e6;
    }
    m
}

/// The spans as JSON lines, for reading outside the benchmark.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for (i, s) in spans.iter().enumerate() {
        let op = if s.op == SETUP {
            "\"setup\"".to_string()
        } else {
            s.op.to_string()
        };
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"id\": {i}, \"name\": \"{}\", \"op\": {op}, \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}\n",
            s.name, s.start_ns, s.end_ns
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            op: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_what_children_cover() {
        let spans = [
            span("op", None, 0, 100),
            span("a", Some(0), 10, 40),
            span("b", Some(0), 50, 70),
            span("c", Some(1), 15, 25),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 20, 10]);
        // Self times partition the op.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
        // Half the op lies outside both layer spans.
        assert_eq!(glue_share(&spans, "op"), Some((0.5, 0.5)));
    }

    #[test]
    fn glue_share_pools_ops_and_keeps_the_worst() {
        let spans = [
            span("op", None, 0, 100),
            span("a", Some(0), 0, 90),
            span("op", None, 100, 400),
            span("a", Some(2), 100, 400),
            // Roots with another name, e.g. work after the op, do not count.
            span("after", None, 400, 900),
        ];
        let (share, worst) = glue_share(&spans, "op").unwrap();
        assert_eq!(share, 10.0 / 400.0);
        assert_eq!(worst, 0.1);
        assert_eq!(glue_share(&spans[4..], "op"), None);
    }

    #[test]
    fn per_op_totals_sum_repeated_calls() {
        let mut spans = vec![
            span("op", None, 0, 4_000_000),
            span("x", Some(0), 0, 1_000_000),
            span("x", Some(0), 2_000_000, 3_500_000),
        ];
        spans.push(Span {
            op: 7,
            ..span("x", None, 0, 500_000)
        });
        let m = per_op_ms(&spans, "x");
        assert_eq!(m[&0], 2.5);
        assert_eq!(m[&7], 0.5);
    }

    #[test]
    fn tracer_nests_spans_and_records_nothing_while_disabled() {
        let mut t = Tracer::new(Instant::now());
        assert_eq!(t.enter("ignored", 0), None);
        t.exit(None);
        t.set_enabled(true);
        let root = t.enter("op", 3);
        let child = t.enter("child", 3);
        t.exit(child);
        t.exit(root);
        let spans = t.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].op, 3);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }

    #[test]
    fn append_rebases_parent_indices() {
        let mut spans = vec![span("op", None, 0, 10)];
        append(
            &mut spans,
            vec![span("op", None, 20, 30), span("a", Some(0), 21, 29)],
        );
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(self_times(&spans), vec![10, 2, 8]);
    }
}
