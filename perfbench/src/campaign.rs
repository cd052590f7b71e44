//! `campaign_cold`: one small slice of the cold paper reproduction per op.
//!
//! Set-up records the eight benchmark streams and runs the ideal-6T
//! baseline at quick scale (40k measured plus 20k warm-up instructions).
//! Each op then samples a fresh 4-chip population at the severe corner
//! (32 nm, seed base+i, one worker) and evaluates its median chip under
//! Fig. 9 scheme `i mod 8`. The quick scenario spends its time in the same
//! two places, Monte-Carlo sampling and suite evaluation, so a gain in
//! `vlsi` or in the evaluator shows here.

use crate::session::{self, Mode, OpResult, Outcome, Session};
use crate::spans::{self, Tracer, SETUP};
use crate::stats;
use cachesim::Scheme;
use std::time::Instant;
use t3cache::{ChipGrade, ChipPopulation, EvalConfig, Evaluator, SuiteResult};
use vlsi::{TechNode, VariationCorner};

const CHIPS: u32 = 4;
const INSTRUCTIONS: u64 = 40_000;
const WARMUP: u64 = 20_000;
/// The first round's output digest at the default seed.
const PINNED_DIGEST: u64 = 0xe005_842f_f72d_d812;

/// The per-op counts, read from the returned `UnitEval`.
const COUNTS: [&str; 8] = [
    "uarch.sim_cycles",
    "uarch.sim_instrs",
    "uarch.replay_flushes",
    "uarch.port_retries",
    "cachesim.accesses",
    "cachesim.expiry_misses",
    "cachesim.refreshes",
    "cachesim.line_moves",
];

struct Campaign {
    seed: u64,
    eval: Evaluator,
    ideal: SuiteResult,
    schemes: Vec<Scheme>,
    seed_base: u64,
}

/// An evaluator with nothing recorded yet.
fn evaluator(seed: u64) -> Evaluator {
    Evaluator::new(EvalConfig {
        instructions: INSTRUCTIONS,
        warmup: WARMUP,
        seed,
        ..EvalConfig::default()
    })
}

/// Records the eight streams and runs the ideal-6T baseline.
fn prepare(eval: &Evaluator, t: &mut Tracer) -> SuiteResult {
    let span = t.enter("workloads.record", SETUP);
    eval.warm_traces();
    t.exit(span);
    let span = t.enter("uarch.ideal_suite", SETUP);
    let ideal = eval.run_ideal(4);
    t.exit(span);
    ideal
}

fn setup(seed: u64, t: &mut Tracer) -> Campaign {
    let eval = evaluator(seed);
    let ideal = prepare(&eval, t);
    let seed_base = seed.wrapping_mul(1 << 24);
    // Builds the process-wide sampling tables before the first timed op.
    ChipPopulation::generate_with_workers(
        TechNode::N32,
        VariationCorner::Severe.params(),
        1,
        seed_base.wrapping_sub(1),
        1,
    );
    Campaign {
        seed,
        eval,
        ideal,
        schemes: Scheme::figure9_schemes(),
        seed_base,
    }
}

impl Session for Campaign {
    fn round(&self) -> usize {
        self.schemes.len()
    }

    fn set_up_again(&mut self, t: &mut Tracer) -> Result<(), String> {
        // Drops the last set-up's recordings before recording anew.
        self.eval = evaluator(self.seed);
        self.ideal = prepare(&self.eval, t);
        Ok(())
    }

    fn op(&mut self, i: usize, t: &mut Tracer) -> Result<OpResult, String> {
        let op = i as u64;
        let span = t.enter("vlsi.sample", op);
        let pop = ChipPopulation::generate_with_workers(
            TechNode::N32,
            VariationCorner::Severe.params(),
            CHIPS,
            self.seed_base.wrapping_add(op),
            1,
        );
        t.exit(span);
        let chip = pop.select(ChipGrade::Median);
        let scheme = self.schemes[i % self.schemes.len()];
        let span = t.enter("t3cache.unit", op);
        let u = self.eval.evaluate_chip_full(chip, scheme, &self.ideal);
        t.exit(span);

        let benches = self.eval.config().benchmarks.len() as u64;
        if !(u.perf > 0.0 && u.perf < 1.1 && u.power.is_finite() && u.power > 0.0) {
            return Err(format!(
                "{scheme}: implausible perf {} / power {}",
                u.perf, u.power
            ));
        }
        if u.sim.instructions < benches * INSTRUCTIONS || u.cache.accesses() == 0 {
            return Err(format!(
                "{scheme}: {} instructions and {} accesses simulated",
                u.sim.instructions,
                u.cache.accesses()
            ));
        }
        let counts = [
            u.sim.cycles,
            u.sim.instructions,
            u.sim.replay_flushes,
            u.sim.port_retries,
            u.cache.accesses(),
            u.cache.expiry_misses,
            u.cache.refreshes,
            u.cache.line_moves,
        ];
        let mut words = vec![u.perf.to_bits(), u.power.to_bits()];
        words.extend(counts);
        Ok(OpResult {
            work: (u.sim.instructions + benches * WARMUP) as f64,
            digest: session::digest(&words),
            counts: COUNTS
                .iter()
                .zip(counts)
                .map(|(&n, c)| (n, c as f64))
                .collect(),
        })
    }
}

/// Runs `campaign_cold` for `seconds`.
pub fn run(seed: u64, seconds: f64, mode: Mode, min_ops: usize) -> Result<Outcome, String> {
    let mut t = Tracer::new(Instant::now());
    t.set_enabled(mode == Mode::Traced);
    let mut out = Outcome::default();
    let t0 = Instant::now();
    let mut campaign = setup(seed, &mut t);
    out.setup_s.push(t0.elapsed().as_secs_f64());
    let min_ops = min_ops.max(2 * campaign.round());
    session::drive(&mut campaign, seconds, min_ops, mode, &mut t, &mut out);
    out.expected_digest =
        (seed == crate::DEFAULT_SEED && PINNED_DIGEST != 0).then_some(PINNED_DIGEST);
    out.spans = t.into_spans();
    if mode == Mode::Traced {
        out.layers = layers(&out);
    }
    Ok(out)
}

fn layers(out: &Outcome) -> Vec<(&'static str, crate::report::Metric)> {
    let unit = session::span_p50(out, "t3cache.unit");
    let ideal = session::setup_p50(out, "uarch.ideal_suite");
    let unit_ms = spans::per_op_ms(&out.spans, "t3cache.unit");
    let ns_per_cycle: Vec<f64> = out
        .ops
        .iter()
        .filter(|r| r.traced)
        .filter_map(|r| Some(unit_ms.get(&r.i)? * 1e6 / r.count("uarch.sim_cycles")?))
        .collect();
    let mut v = vec![
        ("vlsi.sample_ms", session::span_p50(out, "vlsi.sample")),
        ("t3cache.unit_ms", unit),
        ("uarch.ideal_suite_ms", ideal),
        (
            "cachesim.retention_ms",
            crate::report::Metric {
                value: unit.value - ideal.value,
                ..unit
            },
        ),
        (
            "workloads.record_ms",
            session::setup_p50(out, "workloads.record"),
        ),
        (
            "uarch.host_ns_per_sim_cycle",
            crate::report::Metric {
                value: stats::median(&ns_per_cycle).unwrap_or(f64::NAN),
                unit: "ns",
                n: ns_per_cycle.len(),
            },
        ),
        // Warm-up instructions included.
        (
            "sim_minstr_per_s",
            session::untraced_rate(out, 1e6, "Minstr/s"),
        ),
    ];
    for name in COUNTS {
        v.push((name, session::count_p50(out, name, "count")));
    }
    v
}
