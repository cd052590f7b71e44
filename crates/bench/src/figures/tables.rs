//! Table stages: Table 1 (circuit parameters per technology node, plus
//! the derived electrical quantities the models use) and Table 3
//! (detailed simulation data for the three cache designs at each
//! technology node, plus the Table 2 machine configuration header).
//!
//! Table 3 paper anchors at 32 nm: ideal 6T 208 ps / 4.17 BIPS / 2.78 mW
//! mean dyn / 20.75 mW full dyn / 78.2 mW leakage; median 1X 6T 251 ps /
//! 3.50 BIPS; median 3T1D 1900 ns retention / 4.14 BIPS / 24.4 mW
//! leakage; ≈64 % total cache power saving and ≈one technology generation
//! of performance recovered.

use super::StageOutput;
use crate::{metric_slug, RunScale};
use std::fmt::Write as _;
use t3cache::campaign::map_indexed;
use t3cache::evaluate::Evaluator;
use t3cache::table3::{cache_power_saving, table3_rows};
use uarch::MachineConfig;
use vlsi::tech::{OperatingPoint, TechNode};
use vlsi::wire;

/// Appends one Table 1 row: a label and its value at each node.
fn node_row(text: &mut String, name: &str, f: &dyn Fn(TechNode) -> String) {
    let _ = writeln!(
        text,
        "{:<26} {:>10} {:>10} {:>10}",
        name,
        f(TechNode::N65),
        f(TechNode::N45),
        f(TechNode::N32)
    );
}

/// Runs the Table 1 circuit-parameter table (analytic; scale-independent).
pub fn table1(_scale: &RunScale) -> StageOutput {
    let mut out = StageOutput::new("table1");
    out.banner("Table 1", "circuit parameters per technology node");
    let t = &mut out.text;
    let _ = writeln!(
        t,
        "{:<26} {:>10} {:>10} {:>10}",
        "parameter", "65nm", "45nm", "32nm"
    );
    node_row(t, "cell area (um^2)", &|n| {
        format!("{:.2}", n.cell_area_um2())
    });
    node_row(t, "wire width (um)", &|n| {
        format!("{:.2}", n.wire_width().um())
    });
    node_row(t, "wire thickness (um)", &|n| {
        format!("{:.2}", n.wire_thickness().um())
    });
    node_row(t, "oxide thickness (nm)", &|n| {
        format!("{:.1}", n.oxide_thickness().nm())
    });
    node_row(t, "chip frequency (GHz)", &|n| {
        format!("{:.1}", n.chip_frequency().ghz())
    });
    let _ = writeln!(t);
    let _ = writeln!(t, "derived quantities (our models):");
    node_row(t, "supply voltage (V)", &|n| {
        format!("{:.1}", n.vdd().volts())
    });
    node_row(t, "nominal Vth (V)", &|n| {
        format!("{:.2}", n.vth_nominal().volts())
    });
    node_row(t, "clock period (ps)", &|n| {
        format!("{:.1}", n.clock_period().ps())
    });
    node_row(t, "6T array access (ps)", &|n| {
        format!("{:.0}", n.sram_access_nominal().ps())
    });
    node_row(t, "bitline length (um)", &|n| {
        format!("{:.1}", wire::bitline(n, 256).length().um())
    });
    node_row(t, "bitline cap (fF)", &|n| {
        format!("{:.1}", wire::bitline_capacitance(n, 256).ff())
    });
    let _ = writeln!(t);
    let _ = writeln!(
        t,
        "simulation temperature: 80 C (thermal voltage {:.1} mV)",
        OperatingPoint::nominal(TechNode::N32)
            .thermal_voltage()
            .mv()
    );
    out
}

/// Runs the Table 3 cross-node study at the given scale.
pub fn table3(scale: &RunScale) -> StageOutput {
    let mut out = StageOutput::new("table3");
    out.seed = Some(20_247);
    out.banner("Table 3", "cache designs across technology nodes");

    let m = MachineConfig::TABLE2;
    let _ = writeln!(
        out.text,
        "machine (Table 2): {}-wide OoO, ROB {}, IQ {}/{} (INT/FP), LQ/SQ {}/{}, {} INT + {} FP units, 21264 tournament predictor",
        m.width, m.rob_entries, m.int_iq_entries, m.fp_iq_entries, m.load_queue, m.store_queue,
        m.int_units, m.fp_units
    );
    let _ = writeln!(out.text);

    // One campaign unit per technology node (each node's Monte-Carlo
    // population and simulations are independent).
    let nodes = TechNode::ALL;
    let (per_node, _) = map_indexed(nodes.len(), |i| {
        let node = nodes[i];
        let eval = Evaluator::new(scale.eval_config(node));
        table3_rows(node, &eval, scale.mc_chips.min(80), 20_247)
    });

    let mut saving_32 = 0.0;
    let mut bips = (0.0, 0.0, 0.0); // (ideal32, 6t32, 3t32)
    for (node, rows) in nodes.iter().copied().zip(&per_node) {
        let _ = writeln!(out.text, "--- {node} ---");
        let _ = writeln!(
            out.text,
            "{:<24} {:>12} {:>12} {:>10} {:>12} {:>12} {:>12}",
            "design", "access", "retention", "BIPS", "mean dyn", "full dyn", "leakage"
        );
        for r in rows.iter() {
            let prefix = format!("node.{node}.{}", metric_slug(&r.design.to_string()));
            out.metrics
                .set_gauge(&format!("{prefix}.access_ps"), r.access_time.ps());
            out.metrics.set_gauge(&format!("{prefix}.bips"), r.bips);
            out.metrics
                .set_gauge(&format!("{prefix}.leakage_mw"), r.leakage.mw());
            if let Some(t) = r.retention {
                out.metrics
                    .set_gauge(&format!("{prefix}.retention_ns"), t.ns());
            }
            let _ = writeln!(
                out.text,
                "{:<24} {:>10.0}ps {:>12} {:>10.2} {:>10.2}mW {:>10.2}mW {:>10.2}mW",
                r.design.to_string(),
                r.access_time.ps(),
                r.retention
                    .map(|t| format!("{:.0}ns", t.ns()))
                    .unwrap_or_else(|| "-".into()),
                r.bips,
                r.mean_dynamic.mw(),
                r.full_dynamic.mw(),
                r.leakage.mw()
            );
        }
        let saving = cache_power_saving(rows);
        out.metrics
            .set_gauge(&format!("node.{node}.cache_power_saving"), saving);
        let _ = writeln!(
            out.text,
            "total cache power saving (3T1D vs ideal 6T): {:.0}%",
            saving * 100.0
        );
        let _ = writeln!(out.text);
        if node == TechNode::N32 {
            saving_32 = saving;
            bips = (rows[0].bips, rows[1].bips, rows[2].bips);
        }
    }

    out.compare(
        "32nm 3T1D / ideal BIPS ratio",
        bips.2 / bips.0,
        "4.14/4.17 = 0.993",
    );
    out.compare(
        "32nm 1X 6T / ideal BIPS ratio",
        bips.1 / bips.0,
        "3.50/4.17 = 0.839",
    );
    out.compare("32nm total cache power saving", saving_32, "~0.64 across nodes");
    let _ = writeln!(
        out.text,
        "\nnote: absolute BIPS differ from the paper (synthetic workloads run at\n\
         HM IPC ~0.8 vs sim-alpha's ~0.97); ratios are the reproduction target."
    );
    out
}
