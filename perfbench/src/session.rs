//! The closed loop shared by the single-threaded workloads, the outcome
//! every workload returns, and the per-layer reductions over it.

use crate::report::Metric;
use crate::spans::{self, Span, Tracer, SETUP};
use crate::stats;
use std::time::Instant;

/// Whether a run measures end-to-end metrics or per-layer ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// No spans: every op is timed as a user would see it.
    Plain,
    /// Even rounds record spans and odd rounds do not; comparing the two
    /// gives the tracing overhead.
    Traced,
}

/// What one op reports besides its duration.
#[derive(Debug)]
pub struct OpResult {
    /// Units of work the op completed, for its workload's throughput.
    pub work: f64,
    /// Digest of the op's outputs.
    pub digest: u64,
    /// Per-op counts taken from the layers' return values.
    pub counts: Vec<(&'static str, f64)>,
}

/// One completed op.
#[derive(Debug, Clone)]
pub struct OpRecord {
    /// The op's index in its run.
    pub i: u64,
    /// Start, in seconds since the measured window opened.
    pub start_s: f64,
    /// Duration in ms.
    pub ms: f64,
    /// Units of work completed.
    pub work: f64,
    /// Whether the op ran with spans recorded.
    pub traced: bool,
    /// Per-op counts.
    pub counts: Vec<(&'static str, f64)>,
}

impl OpRecord {
    /// The count named `name`, if the op reported one.
    pub fn count(&self, name: &str) -> Option<f64> {
        self.counts
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }
}

/// A workload whose ops run one at a time on the calling thread.
pub trait Session {
    /// Ops per round: the op mix repeats every round.
    fn round(&self) -> usize;
    /// Runs op `i`, recording spans around each layer call into `t`.
    fn op(&mut self, i: usize, t: &mut Tracer) -> Result<OpResult, String>;
    /// A traced-only measurement taken after op `i`, outside its span.
    fn after_traced_op(&mut self, _i: usize, _t: &mut Tracer) {}
    /// Discards the session's state and sets it up again from cold.
    fn set_up_again(&mut self, t: &mut Tracer) -> Result<(), String>;
}

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// Everything one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Duration of each set-up, in seconds.
    pub setup_s: Vec<f64>,
    /// Every op that succeeded.
    pub ops: Vec<OpRecord>,
    /// Ops attempted, failed ones included.
    pub attempted: u64,
    /// One message per failed op or failed check.
    pub failures: Vec<String>,
    /// Digest of the first round's outputs (none if an op in it failed).
    pub digest: Option<u64>,
    /// The pinned first-round digest, when the run used the default seed.
    pub expected_digest: Option<u64>,
    /// The workload's per-layer metrics (traced runs only).
    pub layers: Vec<(&'static str, Metric)>,
    /// Recorded spans (traced runs only).
    pub spans: Vec<Span>,
}

/// The FNV-1a offset basis: the digest of no words.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Continues FNV-1a digest `h` over the little-endian bytes of `word`.
pub fn fold(h: u64, word: u64) -> u64 {
    word.to_le_bytes()
        .iter()
        .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// The FNV-1a digest of `words`.
pub fn digest(words: &[u64]) -> u64 {
    words.iter().fold(FNV_OFFSET, |h, &w| fold(h, w))
}

/// Runs `s` in whole rounds until `seconds` have passed and at least
/// `min_ops` ops succeeded (or four times as many were attempted).
///
/// The caller times the first set-up; `drive` sets `s` up again between
/// rounds, spread evenly over the window, until [`SETUPS`] are timed. A
/// run's set-ups then meet the same mix of fast and slow host stretches
/// as its ops, instead of all landing in whichever stretch it started in.
pub fn drive(
    s: &mut impl Session,
    seconds: f64,
    min_ops: usize,
    mode: Mode,
    t: &mut Tracer,
    out: &mut Outcome,
) {
    let start = Instant::now();
    let round = s.round();
    for r in 0.. {
        let traced = mode == Mode::Traced && r % 2 == 0;
        t.set_enabled(traced);
        let mut round_digest = Some(FNV_OFFSET);
        for j in 0..round {
            let i = r * round + j;
            let t0 = Instant::now();
            let root = t.enter("op", i as u64);
            let result = s.op(i, t);
            t.exit(root);
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            if traced {
                s.after_traced_op(i, t);
            }
            out.attempted += 1;
            match result {
                Ok(o) => {
                    round_digest = round_digest.map(|d| fold(d, o.digest));
                    out.ops.push(OpRecord {
                        i: i as u64,
                        start_s: t0.duration_since(start).as_secs_f64(),
                        ms,
                        work: o.work,
                        traced,
                        counts: o.counts,
                    });
                }
                Err(e) => {
                    round_digest = None;
                    out.failures.push(format!("op {i}: {e}"));
                }
            }
        }
        if r == 0 {
            out.digest = round_digest;
        }
        let due = seconds * out.setup_s.len() as f64 / SETUPS as f64;
        if out.setup_s.len() < SETUPS && start.elapsed().as_secs_f64() >= due {
            let t0 = Instant::now();
            match s.set_up_again(t) {
                Ok(()) => out.setup_s.push(t0.elapsed().as_secs_f64()),
                Err(e) => {
                    out.failures.push(format!("set-up: {e}"));
                    break;
                }
            }
        }
        let enough = out.ops.len() >= min_ops || out.attempted as usize >= 4 * min_ops;
        if enough && start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    t.set_enabled(false);
}

/// Largest share of traced op time that may lie outside every layer span.
pub const GLUE_TOLERANCE: f64 = 0.01;

/// Checks that the layer spans account for the traced ops: the time the
/// ops spend outside every layer span must stay within
/// [`GLUE_TOLERANCE`] of their total. Returns the line to print, as `Err`
/// when the check fails.
pub fn check_coverage(spans: &[Span]) -> Result<String, String> {
    let (share, worst) = spans::glue_share(spans, "op").ok_or("no traced ops")?;
    let line = format!(
        "layer self times sum to {:.3}% of traced op time; untimed glue {:.3}% \
         (tolerance {}%), {:.3}% in the worst op",
        (1.0 - share) * 100.0,
        share * 100.0,
        GLUE_TOLERANCE * 100.0,
        worst * 100.0
    );
    if share <= GLUE_TOLERANCE {
        Ok(line)
    } else {
        Err(line)
    }
}

/// The median of `values` as a metric.
pub fn p50(values: &[f64], unit: &'static str) -> Metric {
    Metric {
        value: stats::median(values).unwrap_or(f64::NAN),
        unit,
        n: values.len(),
    }
}

/// p50 over traced ops of each op's total time in spans named `name`.
pub fn span_p50(out: &Outcome, name: &str) -> Metric {
    let per_op = spans::per_op_ms(&out.spans, name);
    let v: Vec<f64> = out
        .ops
        .iter()
        .filter(|r| r.traced)
        .map(|r| per_op.get(&r.i).copied().unwrap_or(0.0))
        .collect();
    p50(&v, "ms")
}

/// p50 over set-ups of the time in spans named `name`.
pub fn setup_p50(out: &Outcome, name: &str) -> Metric {
    let v: Vec<f64> = out
        .spans
        .iter()
        .filter(|s| s.op == SETUP && s.name == name)
        .map(|s| s.dur_ns() as f64 / 1e6)
        .collect();
    p50(&v, "ms")
}

/// The median over untraced ops of each op's work per second, divided
/// by `scale`.
pub fn untraced_rate(out: &Outcome, scale: f64, unit: &'static str) -> Metric {
    let (work, secs): (Vec<f64>, Vec<f64>) = out
        .ops
        .iter()
        .filter(|r| !r.traced)
        .map(|r| (r.work / scale, r.ms / 1e3))
        .unzip();
    Metric {
        value: stats::median_rate(&work, &secs).unwrap_or(f64::NAN),
        unit,
        n: work.len(),
    }
}

/// p50 over traced ops of the count named `name`.
pub fn count_p50(out: &Outcome, name: &str, unit: &'static str) -> Metric {
    let v: Vec<f64> = out
        .ops
        .iter()
        .filter(|r| r.traced)
        .filter_map(|r| r.count(name))
        .collect();
    p50(&v, unit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// Op `i` succeeds unless it is listed in `fail`; each op sleeps
    /// `layer` inside its layer span and `glue` outside it.
    struct Fixed {
        round: usize,
        fail: Vec<usize>,
        layer: Duration,
        glue: Duration,
        setups: usize,
    }

    impl Fixed {
        fn new(round: usize) -> Self {
            Self {
                round,
                fail: Vec::new(),
                layer: Duration::ZERO,
                glue: Duration::ZERO,
                setups: 0,
            }
        }
    }

    impl Session for Fixed {
        fn round(&self) -> usize {
            self.round
        }

        fn set_up_again(&mut self, _t: &mut Tracer) -> Result<(), String> {
            self.setups += 1;
            Ok(())
        }

        fn op(&mut self, i: usize, t: &mut Tracer) -> Result<OpResult, String> {
            let span = t.enter("layer", i as u64);
            std::thread::sleep(self.layer);
            t.exit(span);
            std::thread::sleep(self.glue);
            if self.fail.contains(&i) {
                return Err("injected".into());
            }
            Ok(OpResult {
                work: 2.0,
                digest: i as u64,
                counts: vec![("n", i as f64)],
            })
        }
    }

    #[test]
    fn drive_runs_whole_rounds_and_counts_failures() {
        let mut s = Fixed {
            fail: vec![4],
            ..Fixed::new(3)
        };
        let mut t = Tracer::new(Instant::now());
        let mut out = Outcome::default();
        drive(&mut s, 0.0, 5, Mode::Plain, &mut t, &mut out);
        assert_eq!(out.attempted, 6, "two whole rounds");
        assert_eq!(out.ops.len(), 5);
        assert_eq!(out.failures.len(), 1);
        assert_eq!(out.digest, Some(digest(&[0, 1, 2])));
        assert!(t.into_spans().is_empty(), "plain runs record no spans");
        assert_eq!((s.setups, out.setup_s.len()), (2, 2), "a set-up per round");
    }

    #[test]
    fn set_ups_are_spread_over_the_window() {
        let mut s = Fixed {
            layer: Duration::from_millis(2),
            ..Fixed::new(1)
        };
        let mut t = Tracer::new(Instant::now());
        let mut out = Outcome {
            setup_s: vec![1.0],
            ..Outcome::default()
        };
        drive(&mut s, 0.1, 1, Mode::Plain, &mut t, &mut out);
        assert_eq!(out.setup_s.len(), SETUPS, "the first plus the rest");
        assert_eq!(s.setups, SETUPS - 1);
        // Set-ups wait for their share of the window, not one per round.
        assert!(out.ops.len() > 2 * SETUPS, "{} ops", out.ops.len());
    }

    #[test]
    fn traced_runs_alternate_traced_and_plain_rounds() {
        let mut s = Fixed::new(2);
        let mut t = Tracer::new(Instant::now());
        let mut out = Outcome::default();
        drive(&mut s, 0.0, 4, Mode::Traced, &mut t, &mut out);
        let traced: Vec<bool> = out.ops.iter().map(|r| r.traced).collect();
        assert_eq!(traced, [true, true, false, false]);
        out.spans = t.into_spans();
        assert_eq!(
            out.spans.len(),
            4,
            "an op span and a layer span per traced op"
        );
        assert_eq!(count_p50(&out, "n", "count").value, 0.5);
        assert_eq!(span_p50(&out, "layer").n, 2);
        assert_eq!(untraced_rate(&out, 1.0, "1/s").n, 2, "untraced ops only");
    }

    fn traced_spans(layer_ms: u64, glue_ms: u64) -> Vec<Span> {
        let mut s = Fixed {
            layer: Duration::from_millis(layer_ms),
            glue: Duration::from_millis(glue_ms),
            ..Fixed::new(2)
        };
        let mut t = Tracer::new(Instant::now());
        drive(
            &mut s,
            0.0,
            4,
            Mode::Traced,
            &mut t,
            &mut Outcome::default(),
        );
        t.into_spans()
    }

    #[test]
    fn untimed_work_inside_an_op_fails_the_coverage_check() {
        let covered = check_coverage(&traced_spans(20, 0));
        assert!(covered.is_ok(), "{covered:?}");
        // A third of each op runs outside its layer span.
        let glued = check_coverage(&traced_spans(20, 10));
        assert!(glued.is_err(), "{glued:?}");
        assert!(check_coverage(&[]).is_err(), "no traced ops to check");
    }
}
