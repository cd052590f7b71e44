//! The metric catalogue, the metric-name grammar, and the printed result.

/// End-to-end metrics: every workload's untraced run prints all of them.
pub const END_TO_END: &[(&str, &str)] =
    &[("setup_s", "s"), ("peak_rss_mb", "MB"), ("op_p10_ms", "ms")];

/// Per-layer metrics: every traced run prints all of them.
pub const PER_LAYER: &[(&str, &str)] = &[
    // campaign_cold
    ("vlsi.sample_ms", "ms"),
    ("t3cache.unit_ms", "ms"),
    ("uarch.ideal_suite_ms", "ms"),
    ("cachesim.retention_ms", "ms"),
    ("workloads.record_ms", "ms"),
    ("uarch.sim_cycles", "count"),
    ("uarch.sim_instrs", "count"),
    ("uarch.replay_flushes", "count"),
    ("uarch.port_retries", "count"),
    ("cachesim.accesses", "count"),
    ("cachesim.expiry_misses", "count"),
    ("cachesim.refreshes", "count"),
    ("cachesim.line_moves", "count"),
    ("uarch.host_ns_per_sim_cycle", "ns"),
    ("sim_minstr_per_s", "Minstr/s"),
    ("campaign_cold.op_p50_ms", "ms"),
    ("campaign_cold.trace_overhead_pct", "%"),
    // validate_stream
    ("workloads.decode_ms", "ms"),
    ("cachesim.replay_ms", "ms"),
    ("validate.golden_ms", "ms"),
    ("validate.accesses", "count"),
    ("validate.result_mismatches", "count"),
    ("cachesim.hit_ratio", "ratio"),
    ("cachesim.replay_refreshes", "count"),
    ("accesses_per_s", "1/s"),
    ("validate_stream.op_p50_ms", "ms"),
    ("validate_stream.trace_overhead_pct", "%"),
    // serve_mixed
    ("serve.op_p90_ms", "ms"),
    ("serve.submit_ms", "ms"),
    ("serve.stream_ms", "ms"),
    ("serve.status_ms", "ms"),
    ("orchestrator.stage_ms", "ms"),
    ("orchestrator.cas_hit_ratio", "ratio"),
    ("orchestrator.executed", "count"),
    ("orchestrator.coalesced", "count"),
    ("serve.rss_kb_per_job", "kB"),
    ("jobs_per_s", "1/s"),
    ("serve_mixed.op_p50_ms", "ms"),
    ("serve_mixed.trace_overhead_pct", "%"),
];

/// Whether `name` is a metric name: 1 to 64 of `[A-Za-z0-9_.-]`,
/// starting with a letter or a digit.
pub fn valid_name(name: &str) -> bool {
    let b = name.as_bytes();
    !b.is_empty()
        && b.len() <= 64
        && b[0].is_ascii_alphanumeric()
        && b.iter()
            .all(|&c| c.is_ascii_alphanumeric() || matches!(c, b'_' | b'.' | b'-'))
}

/// One measured value with its unit and the samples behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// The value, as measured.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
    /// How many samples it summarizes.
    pub n: usize,
}

/// A run's verdict, notes and metrics.
#[derive(Debug)]
pub struct Report {
    /// Whether every output check passed.
    pub correct: bool,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that failed.
    pub failed: u64,
    lines: Vec<String>,
    metrics: Vec<(String, Metric)>,
}

impl Report {
    /// An empty, so far correct report.
    pub fn new() -> Self {
        Self {
            correct: true,
            attempted: 0,
            failed: 0,
            lines: Vec::new(),
            metrics: Vec::new(),
        }
    }

    /// Adds a line to the printed table.
    pub fn note(&mut self, line: String) {
        self.lines.push(line);
    }

    /// Records a failed check.
    pub fn fail(&mut self, line: String) {
        self.correct = false;
        self.lines.push(format!("CHECK FAILED: {line}"));
    }

    /// Adds a metric; a bad name or a non-finite value fails the run.
    pub fn push(&mut self, name: &str, m: Metric) {
        if valid_name(name) && m.value.is_finite() {
            self.metrics.push((name.to_string(), m));
        } else {
            self.fail(format!("metric {name} = {} cannot be reported", m.value));
        }
    }

    /// Checks the metrics are exactly `catalogue`, with its units, and
    /// puts them in its order.
    pub fn conform(&mut self, catalogue: &[(&str, &str)]) -> Result<(), String> {
        let mut ordered = Vec::with_capacity(catalogue.len());
        for &(name, unit) in catalogue {
            let m = self
                .metrics
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, m)| *m)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if m.unit != unit {
                return Err(format!("metric {name} is in {}, not {unit}", m.unit));
            }
            ordered.push((name.to_string(), m));
        }
        if ordered.len() != self.metrics.len() {
            return Err("a metric outside the catalogue was measured".into());
        }
        self.metrics = ordered;
        Ok(())
    }

    /// The human-readable table: notes, then one metric per line with
    /// its unit and sample count.
    pub fn render_table(&self) -> String {
        let mut s = String::new();
        for line in &self.lines {
            s.push_str(line);
            s.push('\n');
        }
        for (name, m) in &self.metrics {
            s.push_str(&format!(
                "{name:<36} {:>18.6} {:<6} n={}\n",
                m.value, m.unit, m.n
            ));
        }
        s
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn render_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, m)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::Json;

    #[test]
    fn metric_names_follow_the_grammar() {
        for ok in ["op_p10_ms", "vlsi.sample_ms", "a-b", "9lives", "x"] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "a".repeat(65);
        for bad in ["", ".x", "_x", "bad name", "x/y", "ms%", long.as_str()] {
            assert!(!valid_name(bad), "{bad:?}");
        }
        let all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
        for (i, name) in all.iter().enumerate() {
            assert!(valid_name(name), "{name}");
            assert!(!all[..i].contains(name), "{name} listed twice");
        }
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json beside the benchmark");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let owned = |c: &[(&str, &str)]| -> Vec<(String, String)> {
            c.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), owned(END_TO_END));
        assert_eq!(listed("per_layer"), owned(PER_LAYER));
    }

    #[test]
    fn result_line_is_json_with_the_four_result_keys() {
        let mut r = Report::new();
        r.attempted = 3;
        r.push(
            "op_p50_ms",
            Metric {
                value: 1.25,
                unit: "ms",
                n: 3,
            },
        );
        let doc = Json::parse(&r.render_json()).unwrap();
        let keys: Vec<&String> = doc.as_obj().unwrap().keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let m = doc.get("metrics").and_then(|m| m.get("op_p50_ms")).unwrap();
        assert_eq!(m.get("value").and_then(Json::as_f64), Some(1.25));
        assert_eq!(m.get("unit").and_then(Json::as_str), Some("ms"));
        assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(true));
    }

    #[test]
    fn unreportable_values_fail_the_run() {
        let mut r = Report::new();
        r.push(
            "op_p50_ms",
            Metric {
                value: f64::NAN,
                unit: "ms",
                n: 0,
            },
        );
        assert!(!r.correct);
        assert!(r.conform(&[("op_p50_ms", "ms")]).is_err());
    }
}
