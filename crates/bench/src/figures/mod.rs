//! The figure/table *stage functions*: every experiment of the paper's
//! evaluation (Figs. 1, 4, 6–12, Tables 1 and 3, §2.1, §4.1) plus the
//! ablations and extensions DESIGN.md relies on, callable as a library.
//!
//! Each function reproduces one figure, table or study and returns a
//! [`StageOutput`]: a deterministic text rendering plus the stage's
//! identity (name, seed, tech node, scheme) and an
//! [`obs::MetricsRegistry`] of result metrics. [`STAGES`] names them; the
//! `pv3t1d` orchestrator (`crates/orchestrator`) runs them as DAG stages
//! of `scenarios/paper_full.json` and content-addresses their outputs,
//! so a stage output must hold only **seed-deterministic** facts. Campaign
//! fan-out timing (the [`t3cache::campaign::CampaignReport`] of each
//! `map_indexed`) is a property of the run, not the result; it is
//! dropped here, and a traced run records it as spans.

pub mod ablations;
pub mod distributions;
pub mod extensions;
pub mod fig06b;
pub mod fig09;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod sections;
pub mod tables;
pub mod workloads;

use crate::{compare_line, metric_slug, RunScale};
use obs::MetricsRegistry;
use std::fmt::Write as _;

/// One stage function's complete output. It holds results only: wall
/// clock, worker count and source revision are properties of a run, not
/// of a stage.
#[derive(Debug)]
pub struct StageOutput {
    /// Experiment name (e.g. `fig09`).
    pub name: String,
    /// Base RNG seed, when the experiment is seeded.
    pub seed: Option<u64>,
    /// Technology node label (e.g. `32nm`), when single-node.
    pub tech_node: Option<String>,
    /// Scheme label, when the stage is about one scheme.
    pub scheme: Option<String>,
    /// The stage's *result* metrics.
    pub metrics: MetricsRegistry,
    /// The deterministic human-readable rendering (figure text).
    pub text: String,
}

impl StageOutput {
    /// An empty output for the named experiment.
    pub fn new(name: &str) -> Self {
        Self {
            name: name.to_string(),
            seed: None,
            tech_node: None,
            scheme: None,
            metrics: MetricsRegistry::new(),
            text: String::new(),
        }
    }

    /// Appends the standard figure banner to the text.
    pub fn banner(&mut self, id: &str, title: &str) {
        let rule = "=".repeat(69);
        let _ = writeln!(self.text, "{rule}\n{id}: {title}\n{rule}");
    }

    /// Appends a `measured vs paper` line and records the measured value
    /// as a `compare.<slug>` gauge, which the orchestrator's `report`
    /// stage collects.
    pub fn compare(&mut self, what: &str, measured: f64, paper: &str) {
        let line = compare_line(what, measured, paper);
        let _ = writeln!(self.text, "{line}");
        self.metrics.set_gauge(&format!("compare.{}", metric_slug(what)), measured);
    }
}

/// A stage function: one experiment at a run scale.
pub type StageFn = fn(&RunScale) -> StageOutput;

/// Every stage function with its stage kind, in stable order — the
/// registry the orchestrator's scenario specs index into.
pub const STAGES: [(&str, StageFn); 23] = [
    ("fig01", workloads::fig01),
    ("fig04", distributions::fig04),
    ("fig06a", distributions::fig06a),
    ("fig06b", fig06b::run),
    ("fig07", distributions::fig07),
    ("fig08", distributions::fig08),
    ("fig09", fig09::run),
    ("fig10", fig10::run),
    ("fig11", fig11::run),
    ("fig12_points", fig12::points),
    ("fig12_surface", fig12::surface),
    ("table1", tables::table1),
    ("table3", tables::table3),
    ("sec21_stability", sections::stability),
    ("sec21_redundancy", sections::redundancy),
    ("sec41", sections::global_refresh),
    ("temperature_margin", sections::temperature_margin),
    ("workload_report", workloads::workload_report),
    ("ablations", ablations::design_choices),
    ("ablation_word_refresh", ablations::word_refresh),
    ("ablation_ooo_tolerance", ablations::ooo_tolerance),
    ("extension_icache", extensions::icache),
    ("extension_regfile", extensions::regfile),
];

/// Looks up a stage function by its stage kind.
pub fn stage_fn(name: &str) -> Option<StageFn> {
    STAGES.iter().find(|(n, _)| *n == name).map(|&(_, f)| f)
}

/// Every registered stage kind, in [`STAGES`] order.
pub fn stage_names() -> impl Iterator<Item = &'static str> {
    STAGES.iter().map(|&(n, _)| n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_resolve() {
        let names: std::collections::BTreeSet<_> = stage_names().collect();
        assert_eq!(names.len(), STAGES.len(), "duplicate stage kind");
        for name in stage_names() {
            assert!(stage_fn(name).is_some(), "{name} missing from registry");
        }
        assert!(stage_fn("not_a_stage").is_none());
    }

    #[test]
    fn stage_output_collects_text_and_compare_gauges() {
        let mut out = StageOutput::new("unit");
        out.banner("Figure X", "a title");
        out.compare("mean IPC loss", 0.25, "~0.3");
        assert!(out.text.contains("Figure X: a title"));
        assert!(out.text.contains("measured     0.250"));
        assert_eq!(out.metrics.gauge("compare.mean_ipc_loss"), Some(0.25));
    }

    /// The cheapest real stages produce deterministic text + fingerprints.
    #[test]
    fn analytic_stages_are_deterministic() {
        for name in [
            "sec21_stability",
            "sec21_redundancy",
            "fig12_points",
            "table1",
            "fig04",
        ] {
            let f = stage_fn(name).unwrap();
            let a = f(&RunScale::QUICK);
            let b = f(&RunScale::QUICK);
            assert_eq!(a.text, b.text, "{name} text must be deterministic");
            assert_eq!(
                (a.seed, &a.tech_node, &a.scheme),
                (b.seed, &b.tech_node, &b.scheme),
                "{name} identity must be deterministic"
            );
            assert_eq!(
                a.metrics.deterministic_fingerprint(),
                b.metrics.deterministic_fingerprint(),
                "{name} fingerprint must be deterministic"
            );
            assert!(!a.text.is_empty());
        }
    }
}
