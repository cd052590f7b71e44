//! `perfbench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload campaign_cold|validate_stream|serve_mixed
//!           --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` runs the named workload untraced for `S` seconds and
//! prints the end-to-end metrics. `--trace 1` runs every workload for
//! `S/3` seconds, alternating traced and untraced rounds, and prints the
//! per-layer metrics. The last line of standard output is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. `NOTES.md` says
//! why each workload exists and which end-to-end metric each per-layer
//! metric should move.

mod campaign;
mod report;
mod serve_mixed;
mod session;
mod spans;
mod stats;
mod validate_stream;

use report::{Metric, Report, END_TO_END, PER_LAYER};
use session::{Mode, Outcome};
use std::path::Path;

const WORKLOADS: [&str; 3] = ["campaign_cold", "validate_stream", "serve_mixed"];

/// The seed whose first-round output digests are pinned.
pub const DEFAULT_SEED: u64 = 1;

const USAGE: &str = "usage: perfbench --workload campaign_cold|validate_stream|serve_mixed \
                     [--seed N] [--seconds S] [--trace 0|1]";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && *s <= 3600.0)
                    .ok_or_else(|| format!("bad --seconds {value:?}"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?}")),
                }
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    Ok(args)
}

/// A `kB` field of `/proc/self/status`, e.g. `VmHWM:`.
pub fn proc_status_kb(key: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|line| {
        line.strip_prefix(key)?
            .trim()
            .strip_suffix("kB")?
            .trim()
            .parse()
            .ok()
    })
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    match run(&args, &out) {
        Ok(report) => {
            print!("{}", report.render_table());
            println!("{}", report.render_json());
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

fn run(args: &Args, out: &Path) -> Result<Report, String> {
    std::fs::create_dir_all(out).map_err(|e| format!("{}: {e}", out.display()))?;
    let mut report = Report::new();
    report.note(format!(
        "perfbench --workload {} --seed {} --seconds {} --trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    ));
    if args.trace {
        for w in WORKLOADS {
            let o = run_workload(w, args.seed, args.seconds / 3.0, Mode::Traced, out)?;
            write(
                &out.join(format!("spans-{w}.jsonl")),
                &spans::to_jsonl(&o.spans),
            )?;
            check(&mut report, w, &o);
            per_layer(&mut report, w, &o);
        }
        report.conform(PER_LAYER)?;
    } else {
        let w = args.workload.as_str();
        let o = run_workload(w, args.seed, args.seconds, Mode::Plain, out)?;
        write(&out.join(format!("ops-{w}.tsv")), &ops_tsv(&o))?;
        check(&mut report, w, &o);
        end_to_end(&mut report, &o)?;
        report.conform(END_TO_END)?;
    }
    Ok(report)
}

fn run_workload(
    w: &str,
    seed: u64,
    seconds: f64,
    mode: Mode,
    out: &Path,
) -> Result<Outcome, String> {
    // A plain run needs enough ops for `op_p10_ms` and `op_p90_ms` to
    // keep their tails.
    let min_ops = match mode {
        Mode::Plain => stats::min_samples(10).max(stats::min_samples(90)),
        Mode::Traced => 0,
    };
    let dir = out.join(format!("{w}-{}", std::process::id()));
    match w {
        "campaign_cold" => campaign::run(seed, seconds, mode, min_ops),
        "validate_stream" => validate_stream::run(seed, seconds, mode, min_ops, &dir),
        "serve_mixed" => serve_mixed::run(seed, seconds, mode, min_ops, &dir),
        _ => unreachable!("parse_args admits only known workloads"),
    }
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// One line per op: index, start, duration, and whether it was traced.
fn ops_tsv(o: &Outcome) -> String {
    let mut s = String::from("op\tstart_s\tms\ttraced\n");
    for r in &o.ops {
        s.push_str(&format!(
            "{}\t{:.6}\t{:.6}\t{}\n",
            r.i, r.start_s, r.ms, r.traced as u8
        ));
    }
    s
}

/// Counts attempts and failures, and checks the output digest.
fn check(report: &mut Report, w: &str, o: &Outcome) {
    report.attempted += o.attempted;
    report.failed += o.failures.len() as u64;
    for f in o.failures.iter().take(5) {
        report.fail(format!("{w}: {f}"));
    }
    report.note(format!(
        "{w}: error_ratio {} ({} failed of {} attempted)",
        o.failures.len() as f64 / o.attempted.max(1) as f64,
        o.failures.len(),
        o.attempted
    ));
    if let Some(d) = o.digest {
        report.note(format!("{w}: first-round output digest {d:016x}"));
        match o.expected_digest {
            Some(e) if e != d => report.fail(format!(
                "{w}: digest {d:016x} differs from the pinned {e:016x}"
            )),
            Some(_) => report.note(format!(
                "{w}: digest matches the value pinned for seed {DEFAULT_SEED}"
            )),
            None => {}
        }
    }
}

fn end_to_end(report: &mut Report, o: &Outcome) -> Result<(), String> {
    let ms: Vec<f64> = o.ops.iter().map(|r| r.ms).collect();
    let n = ms.len();
    report.push("setup_s", session::p50(&o.setup_s, "s"));
    let hwm = proc_status_kb("VmHWM:").ok_or("no VmHWM in /proc/self/status")?;
    report.push(
        "peak_rss_mb",
        Metric {
            value: hwm as f64 / 1024.0,
            unit: "MB",
            n: 1,
        },
    );
    // Host interference only ever adds time, and a slow stretch of the
    // host moves the median and the tail with it; the 10th percentile
    // stays with the op's own cost (see NOTES.md).
    let tail = |pct| {
        stats::percentile(&ms, pct).ok_or_else(|| {
            format!(
                "{n} ops leave no {}-sample tail beyond p{pct}",
                stats::MIN_TAIL
            )
        })
    };
    report.push(
        "op_p10_ms",
        Metric {
            value: tail(10)?,
            unit: "ms",
            n,
        },
    );
    report.note(format!(
        "op_p50_ms {:.6} ms, op_p90_ms {:.6} ms, n={n} (printed, not gated)",
        stats::median(&ms).unwrap_or(f64::NAN),
        tail(90)?
    ));
    Ok(())
}

fn per_layer(report: &mut Report, w: &str, o: &Outcome) {
    for &(name, m) in &o.layers {
        report.push(name, m);
    }
    let ms = |traced: bool| -> Vec<f64> {
        o.ops
            .iter()
            .filter(|r| r.traced == traced)
            .map(|r| r.ms)
            .collect()
    };
    let (on, off) = (ms(true), ms(false));
    report.push(&format!("{w}.op_p50_ms"), session::p50(&off, "ms"));
    let overhead = match (stats::median(&on), stats::median(&off)) {
        (Some(a), Some(b)) => (a / b - 1.0) * 100.0,
        _ => f64::NAN,
    };
    let name = format!("{w}.trace_overhead_pct");
    report.push(
        &name,
        Metric {
            value: overhead,
            unit: "%",
            n: on.len().min(off.len()),
        },
    );
    match session::check_coverage(&o.spans) {
        Ok(line) => report.note(format!("{w}: {line}")),
        Err(line) => report.fail(format!("{w}: {line}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn arguments_are_checked() {
        let a = args(&[
            "--workload",
            "serve_mixed",
            "--seed",
            "7",
            "--seconds",
            "2.5",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("serve_mixed", 7, 2.5, true)
        );
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--workload", "campaign_cold", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "campaign_cold", "--seconds", "-1"]).is_err());
        assert!(args(&["--workload"]).is_err());
    }
}
