//! `validate_stream`: the golden-model differential harness over streamed
//! trace windows.
//!
//! Set-up records one cache-friendly (`gzip`) and one cache-hostile
//! (`mcf`) trace file and reads each once. Each op decodes the next
//! fixed-size window of both files and runs each window through
//! `validate::run_differential_with` under the three default schemes with
//! `mixed` retention (25 % dead lines); the modelled caches start empty in
//! every op. This drives `cachesim` through `AccessReplayer`'s fixed
//! schedule with heavy refresh and expiry, plus the `workloads` decoder
//! and the golden model, and none of `vlsi`, `uarch` or `t3cache`: it is
//! the workload a gain there must leave unchanged.

use crate::report::Metric;
use crate::session::{self, Mode, OpResult, Outcome, Session};
use crate::spans::{self, Tracer};
use cachesim::{AccessReplayer, CacheConfig, DataCache, RetentionProfile, Scheme};
use std::fs::File;
use std::io::BufReader;
use std::path::{Path, PathBuf};
use std::time::Instant;
use uarch::Instruction;
use validate::{default_schemes, demand_of, named_retention, run_differential_with, DRAIN_CYCLES};
use workloads::{record_bench_to_path, SpecBenchmark, TraceReader};

/// Instruction records per window.
const WINDOW: u64 = 60_000;
/// Windows per file. Odd, so that no percentile falls on the boundary
/// between two windows' op costs.
const WINDOWS: u64 = 3;
/// The first round's output digest at the default seed.
const PINNED_DIGEST: u64 = 0x58ef_b6ce_ce3e_d233;

struct Stream {
    seed: u64,
    dir: PathBuf,
    files: Vec<(PathBuf, TraceReader<BufReader<File>>)>,
    windows: Vec<Vec<Instruction>>,
    retention: RetentionProfile,
    schemes: Vec<(&'static str, Scheme)>,
}

fn setup(seed: u64, dir: &Path) -> Result<Stream, String> {
    let mut files = Vec::new();
    for (k, bench) in [SpecBenchmark::Gzip, SpecBenchmark::Mcf]
        .into_iter()
        .enumerate()
    {
        let path = dir.join(format!("{bench}.trace"));
        let bench_seed = seed ^ ((k as u64 + 1) << 32);
        record_bench_to_path(bench, bench_seed, WINDOW * WINDOWS, &path)
            .map_err(|e| format!("record {}: {e}", path.display()))?;
        // One untimed read, so that ops decode from the page cache.
        std::fs::read(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let reader =
            TraceReader::open(&path).map_err(|e| format!("open {}: {e}", path.display()))?;
        files.push((path, reader));
    }
    let lines = CacheConfig::paper(Scheme::default()).geometry.lines();
    Ok(Stream {
        seed,
        dir: dir.to_path_buf(),
        windows: vec![Vec::new(); files.len()],
        files,
        retention: named_retention("mixed", lines)?,
        schemes: default_schemes(),
    })
}

impl Stream {
    /// Decodes the next window of file `f`, starting the file over at its end.
    fn decode(&mut self, f: usize) -> Result<(), String> {
        let (path, reader) = &mut self.files[f];
        let window = &mut self.windows[f];
        window.clear();
        while (window.len() as u64) < WINDOW {
            match reader.next_record() {
                Ok(Some(instr)) => window.push(instr),
                Ok(None) => {
                    *reader = TraceReader::open(&*path)
                        .map_err(|e| format!("reopen {}: {e}", path.display()))?
                }
                Err(e) => return Err(format!("{}: {e}", path.display())),
            }
        }
        Ok(())
    }
}

impl Session for Stream {
    fn round(&self) -> usize {
        WINDOWS as usize
    }

    /// Records both files anew; ops then start over at their first window,
    /// as a round does.
    fn set_up_again(&mut self, _t: &mut Tracer) -> Result<(), String> {
        self.files.clear();
        self.windows = Vec::new();
        *self = setup(self.seed, &self.dir)?;
        Ok(())
    }

    fn op(&mut self, i: usize, t: &mut Tracer) -> Result<OpResult, String> {
        let op = i as u64;
        for f in 0..self.files.len() {
            let span = t.enter("workloads.decode", op);
            let decoded = self.decode(f);
            t.exit(span);
            decoded?;
        }
        let (mut accesses, mut mismatches, mut hits, mut refreshes) = (0u64, 0u64, 0u64, 0u64);
        let mut digest = session::FNV_OFFSET;
        for window in &self.windows {
            for &(name, scheme) in &self.schemes {
                let span = t.enter("validate.differential", op);
                let rep = run_differential_with(
                    CacheConfig::paper(scheme),
                    window.iter().copied(),
                    self.retention.clone(),
                    0,
                );
                t.exit(span);
                if rep.result_mismatches != 0 || !rep.within_tolerance() {
                    return Err(format!(
                        "{name}: models diverged ({} result mismatches, max counter delta {})",
                        rep.result_mismatches,
                        rep.max_divergence()
                    ));
                }
                accesses += rep.accesses;
                mismatches += rep.result_mismatches;
                for row in &rep.rows {
                    digest = session::fold(digest, row.dut);
                    match row.counter {
                        "hits" => hits += row.dut,
                        "refreshes" => refreshes += row.dut,
                        _ => {}
                    }
                }
            }
        }
        if accesses == 0 {
            return Err("the windows held no memory accesses".into());
        }
        Ok(OpResult {
            work: accesses as f64,
            digest,
            counts: vec![
                ("validate.accesses", accesses as f64),
                ("validate.result_mismatches", mismatches as f64),
                ("cachesim.hit_ratio", hits as f64 / accesses as f64),
                ("cachesim.replay_refreshes", refreshes as f64),
            ],
        })
    }

    /// Replays the op's windows through the simulated cache alone, so the
    /// golden model's share of the op can be told apart.
    fn after_traced_op(&mut self, i: usize, t: &mut Tracer) {
        let span = t.enter("cachesim.replay", i as u64);
        for window in &self.windows {
            for &(_, scheme) in &self.schemes {
                let mut cache = DataCache::new(CacheConfig::paper(scheme), self.retention.clone());
                let mut replayer = AccessReplayer::new();
                for (j, instr) in window.iter().enumerate() {
                    if let Some((slot, addr, kind)) = demand_of(j as u64, instr) {
                        replayer.step(&mut cache, slot, addr, kind);
                    }
                }
                cache.advance(replayer.cycle() + DRAIN_CYCLES);
                std::hint::black_box(cache.stats());
            }
        }
        t.exit(span);
    }
}

/// Runs `validate_stream` for `seconds`, keeping its trace files in `dir`.
pub fn run(
    seed: u64,
    seconds: f64,
    mode: Mode,
    min_ops: usize,
    dir: &Path,
) -> Result<Outcome, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut t = Tracer::new(Instant::now());
    let mut out = Outcome::default();
    let t0 = Instant::now();
    let mut stream = setup(seed, dir)?;
    out.setup_s.push(t0.elapsed().as_secs_f64());
    let min_ops = min_ops.max(2 * stream.round());
    session::drive(&mut stream, seconds, min_ops, mode, &mut t, &mut out);
    drop(stream);
    let _ = std::fs::remove_dir_all(dir);
    out.expected_digest =
        (seed == crate::DEFAULT_SEED && PINNED_DIGEST != 0).then_some(PINNED_DIGEST);
    out.spans = t.into_spans();
    if mode == Mode::Traced {
        out.layers = layers(&out);
    }
    Ok(out)
}

fn layers(out: &Outcome) -> Vec<(&'static str, Metric)> {
    let op_ms = spans::per_op_ms(&out.spans, "op");
    let decode_ms = spans::per_op_ms(&out.spans, "workloads.decode");
    let replay_ms = spans::per_op_ms(&out.spans, "cachesim.replay");
    let golden: Vec<f64> = out
        .ops
        .iter()
        .filter(|r| r.traced)
        .filter_map(|r| Some(op_ms.get(&r.i)? - decode_ms.get(&r.i)? - replay_ms.get(&r.i)?))
        .collect();
    vec![
        (
            "workloads.decode_ms",
            session::span_p50(out, "workloads.decode"),
        ),
        (
            "cachesim.replay_ms",
            session::span_p50(out, "cachesim.replay"),
        ),
        ("validate.golden_ms", session::p50(&golden, "ms")),
        (
            "validate.accesses",
            session::count_p50(out, "validate.accesses", "count"),
        ),
        (
            "validate.result_mismatches",
            session::count_p50(out, "validate.result_mismatches", "count"),
        ),
        (
            "cachesim.hit_ratio",
            session::count_p50(out, "cachesim.hit_ratio", "ratio"),
        ),
        (
            "cachesim.replay_refreshes",
            session::count_p50(out, "cachesim.replay_refreshes", "count"),
        ),
        ("accesses_per_s", session::untraced_rate(out, 1.0, "1/s")),
    ]
}
