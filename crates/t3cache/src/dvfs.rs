//! The (cell technology × DVFS operating point) design-space sweep.
//!
//! Each grid point fabricates a Monte-Carlo chip population in one
//! [`CellTechnology`](vlsi::celltech::CellTechnology) at one
//! [`OperatingPoint`], converts retention into
//! cycles *at that point's clock*, and summarizes what the architecture
//! cares about: yield, dead lines, retention, timing feasibility, the
//! median chip's normalized performance, and the static/refresh energy
//! picture. The frontier stage then marks the Pareto-optimal points on the
//! (throughput, power) plane — the retention/yield/IPC/energy trade
//! surface the fixed-corner pipeline could never see.

use crate::chip::{ChipGrade, ChipPopulation};
use crate::evaluate::{EvalConfig, Evaluator};
use cachesim::Scheme;
use vlsi::array::ArrayLayout;
use vlsi::celltech::CellTechKind;
use vlsi::leakage::with_periphery;
use vlsi::tech::{OperatingPoint, TechNode};
use vlsi::units::{Energy, Power, Time};
use vlsi::variation::VariationParams;

/// A population is counted toward yield only if its dead-line fraction
/// under the chip-sized counters stays below this bound (a cache that has
/// lost half its lines is not shippable at any refresh scheme).
pub const YIELD_DEAD_LINE_LIMIT: f64 = 0.5;

/// One cell of the sweep grid.
#[derive(Debug, Clone)]
pub struct DvfsPointConfig {
    /// Technology node.
    pub node: TechNode,
    /// Cell technology to fabricate.
    pub kind: CellTechKind,
    /// DVFS operating point.
    pub op: OperatingPoint,
    /// Variation scenario.
    pub params: VariationParams,
    /// Monte-Carlo population size.
    pub chips: u32,
    /// Base RNG seed (shared across the grid so comparisons are paired).
    pub seed: u64,
    /// Benchmark-suite configuration for the median-chip evaluation.
    pub eval: EvalConfig,
}

/// The architectural summary of one `(technology, operating point)` cell.
#[derive(Debug, Clone, PartialEq)]
pub struct DvfsPointResult {
    /// Cell technology.
    pub kind: CellTechKind,
    /// Operating point.
    pub op: OperatingPoint,
    /// Fraction of chips with a usable cache (dead lines below
    /// [`YIELD_DEAD_LINE_LIMIT`] under their own counter sizing).
    pub yield_fraction: f64,
    /// Mean dead-line fraction across the population.
    pub mean_dead_fraction: f64,
    /// Median whole-cache retention (worst line of the median chip).
    pub median_cache_retention: Time,
    /// Deviation-free array access time at the operating point.
    pub access_time: Time,
    /// Whether that access fits the operating point's clock period.
    pub timing_feasible: bool,
    /// Median chip's suite performance normalized against the ideal-6T
    /// baseline *at the same operating point*.
    pub normalized_perf: f64,
    /// Median chip's harmonic-mean BIPS at the operating point's clock.
    pub bips: f64,
    /// Whole-array static power (nominal cell × array + periphery).
    pub leakage: Power,
    /// Per-line refresh / scrub / replay energy.
    pub refresh_energy_per_line: Energy,
    /// Whether the technology's lines decay and need refresh at all.
    pub needs_refresh: bool,
}

impl DvfsPointResult {
    /// The stable identifier of this grid cell (`<tech>.<op-slug>`), safe
    /// for stage ids and file names.
    pub fn slug(&self) -> String {
        format!("{}.{}", self.kind.slug(), self.op.slug())
    }

    /// A throughput-per-watt figure of merit (BIPS over leakage watts) —
    /// the y/x collapse used to rank frontier points. Zero when the point
    /// is timing-infeasible or yields nothing.
    pub fn bips_per_watt(&self) -> f64 {
        if !self.timing_feasible || self.yield_fraction == 0.0 {
            return 0.0;
        }
        self.bips / self.leakage.value().max(1e-12)
    }
}

/// Evaluates one grid cell: fabricate the population, size counters per
/// chip, and run the median chip's benchmark suite at the operating point.
pub fn evaluate_point(cfg: &DvfsPointConfig) -> DvfsPointResult {
    let _span = obs::trace::span_with("t3cache", || {
        format!("dvfs.point:{}.{}", cfg.kind.slug(), cfg.op.slug())
    });
    let tech = cfg.kind.build(cfg.node, cfg.op);
    let pop = ChipPopulation::generate_with_tech(
        cfg.node,
        cfg.params,
        cfg.chips,
        cfg.seed,
        tech.as_ref(),
    );

    let mut dead_sum = 0.0;
    let mut yielding = 0u32;
    for chip in pop.chips() {
        let dead = chip.dead_fraction();
        dead_sum += dead;
        if dead < YIELD_DEAD_LINE_LIMIT {
            yielding += 1;
        }
    }
    let n = pop.len().max(1) as f64;

    let median = pop.select(ChipGrade::Median);
    let access = tech.access_time();
    let timing_feasible = access <= cfg.op.clock_period();

    // Suite evaluation at the operating point: ideal 6T and the median
    // chip's scheme run on the same clock, so the normalization isolates
    // the retention cost from the frequency choice.
    let mut eval_cfg = cfg.eval.clone();
    eval_cfg.node = cfg.node;
    eval_cfg.operating_point = Some(cfg.op);
    let eval = Evaluator::new(eval_cfg);
    let ideal = eval.run_ideal(4);
    let suite = eval.run_scheme(median.retention_profile(), Scheme::rsp_fifo(), 4);

    let layout = ArrayLayout::PAPER_L1D;
    let cell_total = tech.cell_leakage() * layout.total_cells() as f64;

    DvfsPointResult {
        kind: cfg.kind,
        op: cfg.op,
        yield_fraction: yielding as f64 / n,
        mean_dead_fraction: dead_sum / n,
        median_cache_retention: median.cache_retention(),
        access_time: access,
        timing_feasible,
        normalized_perf: suite.normalized_performance(&ideal, 1.0),
        bips: suite.hm_bips(1.0),
        leakage: with_periphery(cfg.node, cell_total),
        refresh_energy_per_line: tech.refresh_energy_per_line(),
        needs_refresh: tech.needs_refresh(),
    }
}

/// Marks the Pareto frontier of the grid on the (BIPS, leakage) plane:
/// a point survives unless some other point has at least its throughput
/// for strictly less power (or more throughput for at most the same
/// power). Timing-infeasible and zero-yield points never make the
/// frontier.
pub fn pareto_frontier(points: &[DvfsPointResult]) -> Vec<bool> {
    points
        .iter()
        .map(|p| {
            if !p.timing_feasible || p.yield_fraction == 0.0 {
                return false;
            }
            !points.iter().any(|q| {
                (q.timing_feasible && q.yield_fraction > 0.0)
                    && ((q.bips >= p.bips && q.leakage.value() < p.leakage.value())
                        || (q.bips > p.bips && q.leakage.value() <= p.leakage.value()))
            })
        })
        .collect()
}

/// Renders the grid as the frontier stage's fixed-width report: one row
/// per `(technology, operating point)`, Pareto points starred.
pub fn render_frontier(points: &[DvfsPointResult]) -> String {
    let frontier = pareto_frontier(points);
    let mut out = String::new();
    out.push_str(&format!(
        "{:<22} {:>7} {:>7} {:>10} {:>9} {:>6} {:>7} {:>8} {:>9} {:>3}\n",
        "tech.point", "yield", "dead%", "ret(ns)", "acc(ps)", "fit", "perf", "bips", "leak(mW)", "par"
    ));
    for (p, &on_frontier) in points.iter().zip(&frontier) {
        out.push_str(&format!(
            "{:<22} {:>6.1}% {:>6.2}% {:>10.1} {:>9.1} {:>6} {:>7.3} {:>8.3} {:>9.2} {:>3}\n",
            p.slug(),
            100.0 * p.yield_fraction,
            100.0 * p.mean_dead_fraction,
            p.median_cache_retention.ns(),
            p.access_time.ps(),
            if p.timing_feasible { "yes" } else { "no" },
            p.normalized_perf,
            p.bips,
            p.leakage.mw(),
            if on_frontier { "*" } else { "" },
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use vlsi::units::{Frequency, Voltage};
    use vlsi::variation::VariationCorner;
    use workloads::SpecBenchmark;

    fn tiny_eval() -> EvalConfig {
        EvalConfig {
            instructions: 20_000,
            warmup: 10_000,
            benchmarks: vec![SpecBenchmark::Gzip],
            ..EvalConfig::default()
        }
    }

    fn point(kind: CellTechKind, op: OperatingPoint) -> DvfsPointConfig {
        DvfsPointConfig {
            node: TechNode::N32,
            kind,
            op,
            params: VariationCorner::Typical.params(),
            chips: 3,
            seed: 41,
            eval: tiny_eval(),
        }
    }

    #[test]
    fn nominal_3t1d_point_is_healthy() {
        let r = evaluate_point(&point(
            CellTechKind::T3t1d,
            OperatingPoint::nominal(TechNode::N32),
        ));
        assert_eq!(r.yield_fraction, 1.0);
        assert!(r.timing_feasible);
        assert!(r.normalized_perf > 0.9, "perf {}", r.normalized_perf);
        assert!(r.bips > 1.0);
        assert!(r.needs_refresh);
        assert_eq!(r.slug(), "3t1d.v1000f4300t80");
    }

    #[test]
    fn undervolted_overclocked_point_fails_timing() {
        // 0.7 V but still asking for the nominal 4.3 GHz clock: the drive
        // loss pushes the access past the period.
        let op = OperatingPoint::nominal(TechNode::N32).with_vdd(Voltage::new(0.7));
        let r = evaluate_point(&point(CellTechKind::T3t1d, op));
        assert!(!r.timing_feasible, "access {} ps", r.access_time.ps());
        assert_eq!(r.bips_per_watt(), 0.0);
    }

    #[test]
    fn frontier_prefers_dominating_points() {
        let nominal = evaluate_point(&point(
            CellTechKind::T3t1d,
            OperatingPoint::nominal(TechNode::N32),
        ));
        // Same voltage, slower clock: strictly less throughput at the same
        // leakage — dominated.
        let slow_op = OperatingPoint::nominal(TechNode::N32).with_freq(Frequency::from_ghz(2.0));
        let slow = evaluate_point(&point(CellTechKind::T3t1d, slow_op));
        let frontier = pareto_frontier(&[nominal.clone(), slow.clone()]);
        assert!(frontier[0], "nominal must survive");
        assert!(!frontier[1], "dominated point must not");
        let text = render_frontier(&[nominal, slow]);
        assert!(text.contains("3t1d.v1000f4300t80"));
        assert!(text.contains('*'));
    }

    #[test]
    fn lv6t_yield_collapses_at_low_voltage() {
        let nominal = evaluate_point(&point(
            CellTechKind::Lv6t,
            OperatingPoint::nominal(TechNode::N32),
        ));
        let low = evaluate_point(&point(
            CellTechKind::Lv6t,
            OperatingPoint::nominal(TechNode::N32)
                .with_vdd(Voltage::new(0.55))
                .with_freq(Frequency::from_ghz(1.0)),
        ));
        assert!(low.mean_dead_fraction >= nominal.mean_dead_fraction);
        assert!(!nominal.needs_refresh);
    }
}
