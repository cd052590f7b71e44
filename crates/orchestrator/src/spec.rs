//! Declarative scenario specs: the JSON documents under `scenarios/`.
//!
//! A scenario names a DAG of experiment stages. The format is plain JSON
//! parsed with [`obs::Json`] (the workspace's zero-dependency parser):
//!
//! ```json
//! {
//!   "schema": 1,
//!   "name": "quick",
//!   "scale": "quick",
//!   "default_timeout_seconds": 600,
//!   "stages": [
//!     { "id": "chips_severe", "kind": "chip_campaign",
//!       "params": { "node": "32nm", "corner": "severe", "seed": 20245 } },
//!     { "id": "retention", "kind": "retention_map",
//!       "deps": ["chips_severe"] }
//!   ]
//! }
//! ```
//!
//! `scale` is `"quick"`, `"full"`, or an explicit object pinning all four
//! [`RunScale`] knobs; per-stage `timeout_seconds` overrides the scenario
//! default. [`Scenario::validate`] enforces the structural invariants
//! (unique filesystem-safe ids, known kinds, resolvable deps, acyclic
//! graph) and returns a deterministic topological order.
//!
//! # DVFS grids (schema 3)
//!
//! A scenario may declare a `(cell technology × operating point)` grid
//! and mark stages `"sweep": true`:
//!
//! ```json
//! {
//!   "schema": 3,
//!   "name": "dvfs",
//!   "technologies": ["3t1d", "6t-lv"],
//!   "operating_points": [
//!     { "vdd": 1.0, "freq_ghz": 4.3 },
//!     { "vdd": 0.9, "freq_ghz": 3.2, "temp_c": 60 }
//!   ],
//!   "stages": [
//!     { "id": "grid", "kind": "dvfs_point", "sweep": true },
//!     { "id": "frontier", "kind": "dvfs_frontier", "deps": ["grid"] }
//!   ]
//! }
//! ```
//!
//! [`Scenario::parse`] expands every sweep stage into one clone per grid
//! cell (`grid.3t1d.v1000f4300t80`, …) with `technology` / `vdd` /
//! `freq_ghz` / `temp_c` injected into its params — so the stage cache
//! key changes whenever any grid coordinate does — and rewrites
//! dependencies: a swept dependent follows its own grid cell, an
//! unswept dependent (the frontier) fans in over every clone.

use bench_harness::RunScale;
use obs::{Json, JsonError};
use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;
use std::str::FromStr;
use vlsi::celltech::CellTechKind;
use vlsi::tech::{OperatingPoint, SIM_TEMPERATURE_C};
use vlsi::units::{Frequency, Voltage};

/// Current scenario schema version. Schema 2 added per-stage `retries`
/// and `backoff_ms`, which the parser now ignores like any other
/// unknown member: every stage is a pure function of its inputs, so a
/// stage launches once and a rerun is its retry. Schema 3 added the
/// `technologies` × `operating_points` grid and per-stage `sweep`.
/// Older documents still parse (the new members default to an empty
/// grid and no sweep), so the version gates *documents that use the new
/// members*, not old documents.
pub const SCENARIO_SCHEMA: u64 = 3;

/// Oldest scenario schema still accepted by [`Scenario::parse`].
pub const SCENARIO_SCHEMA_MIN: u64 = 1;

/// Why a scenario could not be loaded or is not runnable.
#[derive(Debug)]
pub enum SpecError {
    /// The document is not valid JSON.
    Json(JsonError),
    /// The document is valid JSON but violates the scenario schema.
    Invalid(String),
    /// The scenario file could not be read.
    Io(std::io::Error),
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::Json(e) => write!(f, "scenario is not valid JSON: {e}"),
            SpecError::Invalid(msg) => write!(f, "invalid scenario: {msg}"),
            SpecError::Io(e) => write!(f, "cannot read scenario: {e}"),
        }
    }
}

impl std::error::Error for SpecError {}

/// One stage of a scenario DAG.
#[derive(Debug, Clone)]
pub struct StageSpec {
    /// Unique id within the scenario; also the progress-line label and a
    /// filename component, hence restricted to `[A-Za-z0-9._-]`.
    pub id: String,
    /// The stage kind — an entry of [`crate::stage::known_kinds`].
    pub kind: String,
    /// Kind-specific parameters (always an object; defaults to empty).
    pub params: Json,
    /// Ids of stages whose payloads this stage consumes.
    pub deps: Vec<String>,
    /// Wall-clock budget for this stage, overriding the scenario default.
    pub timeout_seconds: Option<f64>,
    /// Whether this stage fans out across the scenario's
    /// `(technology × operating point)` grid. Always `false` after
    /// [`Scenario::expand_grid`] — the expansion consumes the flag.
    pub sweep: bool,
}

impl StageSpec {
    /// A dependency-free stage with empty params (builder for tests and
    /// programmatic scenarios).
    pub fn new(id: &str, kind: &str) -> Self {
        Self {
            id: id.to_string(),
            kind: kind.to_string(),
            params: Json::object(),
            deps: Vec::new(),
            timeout_seconds: None,
            sweep: false,
        }
    }

    /// Adds dependencies (builder style).
    pub fn with_deps(mut self, deps: &[&str]) -> Self {
        self.deps = deps.iter().map(|d| d.to_string()).collect();
        self
    }

    /// Sets one param (builder style).
    pub fn with_param(mut self, key: &str, value: Json) -> Self {
        self.params.insert(key, value);
        self
    }

    /// Sets the per-stage timeout (builder style).
    pub fn with_timeout(mut self, seconds: f64) -> Self {
        self.timeout_seconds = Some(seconds);
        self
    }

    /// Marks this stage for grid fan-out (builder style); pair with
    /// [`Scenario::expand_grid`].
    pub fn with_sweep(mut self) -> Self {
        self.sweep = true;
        self
    }
}

/// A parsed scenario: a named DAG of stages at one run scale.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Scenario name (run-manifest filename component).
    pub name: String,
    /// The run scale every stage executes at.
    pub scale: RunScale,
    /// Default per-stage wall-clock budget, when set.
    pub default_timeout_seconds: Option<f64>,
    /// Cell technologies of the sweep grid (empty when the scenario has
    /// no grid).
    pub technologies: Vec<CellTechKind>,
    /// DVFS operating points of the sweep grid.
    pub operating_points: Vec<OperatingPoint>,
    /// The stages, in document order.
    pub stages: Vec<StageSpec>,
}

impl Scenario {
    /// An empty scenario at a scale (builder for tests and programmatic
    /// use).
    pub fn new(name: &str, scale: RunScale) -> Self {
        Self {
            name: name.to_string(),
            scale,
            default_timeout_seconds: None,
            technologies: Vec::new(),
            operating_points: Vec::new(),
            stages: Vec::new(),
        }
    }

    /// Parses a scenario document.
    pub fn parse(text: &str) -> Result<Self, SpecError> {
        let v = Json::parse(text).map_err(SpecError::Json)?;
        let invalid = |msg: String| SpecError::Invalid(msg);

        let schema = v
            .get("schema")
            .and_then(Json::as_u64)
            .ok_or_else(|| invalid("missing numeric \"schema\"".into()))?;
        if !(SCENARIO_SCHEMA_MIN..=SCENARIO_SCHEMA).contains(&schema) {
            return Err(invalid(format!(
                "unsupported scenario schema {schema} \
                 (expected {SCENARIO_SCHEMA_MIN}..={SCENARIO_SCHEMA})"
            )));
        }
        let name = v
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| invalid("missing string \"name\"".into()))?
            .to_string();
        let scale = match v.get("scale") {
            None => RunScale::FULL,
            Some(s) => parse_scale(s)?,
        };
        let default_timeout_seconds = match v.get("default_timeout_seconds") {
            None | Some(Json::Null) => None,
            Some(t) => Some(parse_timeout(t, "default_timeout_seconds")?),
        };
        let technologies = parse_technologies(&v)?;
        let operating_points = parse_operating_points(&v)?;
        let stage_values = v
            .get("stages")
            .and_then(Json::as_arr)
            .ok_or_else(|| invalid("missing \"stages\" array".into()))?;
        let mut stages = Vec::with_capacity(stage_values.len());
        for (i, sv) in stage_values.iter().enumerate() {
            stages.push(parse_stage(sv, i)?);
        }
        let mut scenario = Self {
            name,
            scale,
            default_timeout_seconds,
            technologies,
            operating_points,
            stages,
        };
        scenario.expand_grid()?;
        Ok(scenario)
    }

    /// Reads and parses a scenario file.
    pub fn load(path: &Path) -> Result<Self, SpecError> {
        let text = std::fs::read_to_string(path).map_err(SpecError::Io)?;
        Self::parse(&text)
    }

    /// Checks every structural invariant and returns the stages' indices
    /// in a deterministic topological order (Kahn's algorithm, breaking
    /// ties by document order).
    pub fn validate(&self) -> Result<Vec<usize>, SpecError> {
        let invalid = |msg: String| SpecError::Invalid(msg);
        if self.name.is_empty() || !is_safe_id(&self.name) {
            return Err(invalid(format!(
                "scenario name {:?} must be non-empty [A-Za-z0-9._-]",
                self.name
            )));
        }
        let mut index_of: BTreeMap<&str, usize> = BTreeMap::new();
        for (i, s) in self.stages.iter().enumerate() {
            if s.id.is_empty() || !is_safe_id(&s.id) {
                return Err(invalid(format!(
                    "stage id {:?} must be non-empty [A-Za-z0-9._-]",
                    s.id
                )));
            }
            if index_of.insert(&s.id, i).is_some() {
                return Err(invalid(format!("duplicate stage id {:?}", s.id)));
            }
            if !crate::stage::is_known(&s.kind) {
                return Err(invalid(format!(
                    "stage {:?} has unknown kind {:?} (known: {})",
                    s.id,
                    s.kind,
                    crate::stage::known_kinds().join(", ")
                )));
            }
            if !matches!(s.params, Json::Obj(_)) {
                return Err(invalid(format!("stage {:?} params must be an object", s.id)));
            }
            if s.sweep {
                return Err(invalid(format!(
                    "stage {:?} is marked sweep but the grid was never \
                     expanded (call expand_grid before validate)",
                    s.id
                )));
            }
        }
        // Resolve deps and build in/out degree tables.
        let n = self.stages.len();
        let mut indegree = vec![0usize; n];
        let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, s) in self.stages.iter().enumerate() {
            for d in &s.deps {
                let &j = index_of.get(d.as_str()).ok_or_else(|| {
                    invalid(format!("stage {:?} depends on unknown stage {:?}", s.id, d))
                })?;
                if j == i {
                    return Err(invalid(format!("stage {:?} depends on itself", s.id)));
                }
                indegree[i] += 1;
                dependents[j].push(i);
            }
        }
        // Kahn's algorithm; the worklist is kept sorted by document
        // order so the returned order is deterministic.
        let mut order = Vec::with_capacity(n);
        let mut ready: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
        while let Some(&i) = ready.first() {
            ready.remove(0);
            order.push(i);
            for &dep in &dependents[i] {
                indegree[dep] -= 1;
                if indegree[dep] == 0 {
                    let pos = ready.partition_point(|&x| x < dep);
                    ready.insert(pos, dep);
                }
            }
        }
        if order.len() != n {
            let stuck: Vec<&str> = (0..n)
                .filter(|&i| indegree[i] > 0)
                .map(|i| self.stages[i].id.as_str())
                .collect();
            return Err(invalid(format!(
                "dependency cycle through: {}",
                stuck.join(", ")
            )));
        }
        Ok(order)
    }

    /// Expands every `sweep: true` stage into one clone per
    /// `(technology, operating point)` grid cell.
    ///
    /// A clone's id is `<id>.<tech>.<op-slug>` (all `[A-Za-z0-9._-]`,
    /// so still a safe id) and its params gain `technology`, `vdd`,
    /// `freq_ghz`, and `temp_c` — since params are part of the stage
    /// fingerprint, two cells differing in any coordinate can never
    /// share a cached artifact. Dependencies are rewritten so that a
    /// swept stage depending on a swept stage follows its own grid
    /// cell, while an unswept stage depending on a swept stage (a
    /// frontier / report join) depends on *every* clone.
    ///
    /// [`Scenario::parse`] calls this automatically; builder-constructed
    /// scenarios using [`StageSpec::with_sweep`] must call it before
    /// [`Scenario::validate`]. Idempotent once expanded (clones carry
    /// `sweep: false`).
    pub fn expand_grid(&mut self) -> Result<(), SpecError> {
        let invalid = |msg: String| SpecError::Invalid(msg);
        if !self.stages.iter().any(|s| s.sweep) {
            return Ok(());
        }
        if self.technologies.is_empty() || self.operating_points.is_empty() {
            return Err(invalid(
                "sweep stages need non-empty \"technologies\" and \
                 \"operating_points\" grids"
                    .into(),
            ));
        }
        let swept: Vec<String> = self
            .stages
            .iter()
            .filter(|s| s.sweep)
            .map(|s| s.id.clone())
            .collect();
        let cell_ids = |base: &str| -> Vec<String> {
            let mut ids = Vec::new();
            for kind in &self.technologies {
                for op in &self.operating_points {
                    ids.push(format!("{base}.{}.{}", kind.slug(), op.slug()));
                }
            }
            ids
        };
        let mut out = Vec::with_capacity(self.stages.len());
        for s in &self.stages {
            if !s.sweep {
                // An unswept dependent of a swept stage joins over the
                // whole grid.
                let mut deps = Vec::new();
                for d in &s.deps {
                    if swept.contains(d) {
                        deps.extend(cell_ids(d));
                    } else {
                        deps.push(d.clone());
                    }
                }
                out.push(StageSpec {
                    deps,
                    ..s.clone()
                });
                continue;
            }
            for kind in &self.technologies {
                for op in &self.operating_points {
                    let suffix = format!("{}.{}", kind.slug(), op.slug());
                    let mut clone = s.clone();
                    clone.sweep = false;
                    clone.id = format!("{}.{suffix}", s.id);
                    clone.params.insert("technology", Json::Str(kind.slug().to_string()));
                    clone.params.insert("vdd", Json::Num(op.vdd.volts()));
                    clone.params.insert("freq_ghz", Json::Num(op.freq.ghz()));
                    clone.params.insert("temp_c", Json::Num(op.temp_c));
                    clone.deps = s
                        .deps
                        .iter()
                        .map(|d| {
                            if swept.contains(d) {
                                format!("{d}.{suffix}")
                            } else {
                                d.clone()
                            }
                        })
                        .collect();
                    out.push(clone);
                }
            }
        }
        self.stages = out;
        Ok(())
    }
}

/// Whether a string is safe as a filename component / stage id.
fn is_safe_id(s: &str) -> bool {
    !s.starts_with('.')
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.'))
}

/// Parses the `scale` member: `"quick"`, `"full"`, or an explicit
/// object with all four knobs.
fn parse_scale(v: &Json) -> Result<RunScale, SpecError> {
    match v {
        Json::Str(s) if s == "quick" => Ok(RunScale::QUICK),
        Json::Str(s) if s == "full" => Ok(RunScale::FULL),
        Json::Obj(_) => {
            let field = |key: &str| {
                v.get(key).and_then(Json::as_u64).ok_or_else(|| {
                    SpecError::Invalid(format!("scale object missing integer {key:?}"))
                })
            };
            Ok(RunScale {
                mc_chips: field("mc_chips")? as u32,
                sim_chips: field("sim_chips")? as u32,
                instructions: field("instructions")?,
                warmup: field("warmup")?,
            })
        }
        _ => Err(SpecError::Invalid(
            "scale must be \"quick\", \"full\", or an object".into(),
        )),
    }
}

/// Renders a scale as the explicit-object form (used in cache keys and
/// run manifests so a scale change is visible, not just implied).
pub fn scale_to_json(s: RunScale) -> Json {
    let mut o = Json::object();
    o.insert("mc_chips", Json::Num(f64::from(s.mc_chips)));
    o.insert("sim_chips", Json::Num(f64::from(s.sim_chips)));
    o.insert("instructions", Json::Num(s.instructions as f64));
    o.insert("warmup", Json::Num(s.warmup as f64));
    o
}

/// Cap on `operating_points` entries — a fat-finger guard against
/// accidentally fanning a scenario into thousands of stages.
pub const MAX_OPERATING_POINTS: usize = 32;

/// Parses the optional `technologies` array (distinct
/// [`CellTechKind`] slugs).
fn parse_technologies(v: &Json) -> Result<Vec<CellTechKind>, SpecError> {
    let invalid = |msg: String| SpecError::Invalid(msg);
    let Some(items) = v.get("technologies") else {
        return Ok(Vec::new());
    };
    let items = items
        .as_arr()
        .ok_or_else(|| invalid("\"technologies\" must be an array of strings".into()))?;
    let mut kinds = Vec::with_capacity(items.len());
    for item in items {
        let slug = item
            .as_str()
            .ok_or_else(|| invalid("\"technologies\" must be an array of strings".into()))?;
        let kind = CellTechKind::from_str(slug).map_err(invalid)?;
        if kinds.contains(&kind) {
            return Err(invalid(format!("duplicate technology {slug:?}")));
        }
        kinds.push(kind);
    }
    Ok(kinds)
}

/// Parses the optional `operating_points` array: objects with finite
/// `vdd` (volts) and `freq_ghz`, plus an optional `temp_c` defaulting
/// to the paper's 80 °C corner. Points must be distinct (by slug —
/// two points the grid cannot tell apart would collide as stage ids).
fn parse_operating_points(v: &Json) -> Result<Vec<OperatingPoint>, SpecError> {
    let invalid = |msg: String| SpecError::Invalid(msg);
    let Some(items) = v.get("operating_points") else {
        return Ok(Vec::new());
    };
    let items = items
        .as_arr()
        .ok_or_else(|| invalid("\"operating_points\" must be an array of objects".into()))?;
    if items.len() > MAX_OPERATING_POINTS {
        return Err(invalid(format!(
            "at most {MAX_OPERATING_POINTS} operating_points (got {})",
            items.len()
        )));
    }
    let mut points: Vec<OperatingPoint> = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        if !matches!(item, Json::Obj(_)) {
            return Err(invalid(format!("operating_points[{i}] must be an object")));
        }
        let num = |key: &str| -> Result<Option<f64>, SpecError> {
            match item.get(key) {
                None => Ok(None),
                Some(n) => match n.as_f64() {
                    Some(x) if x.is_finite() => Ok(Some(x)),
                    _ => Err(invalid(format!(
                        "operating_points[{i}].{key} must be a finite number"
                    ))),
                },
            }
        };
        let vdd = num("vdd")?.ok_or_else(|| {
            invalid(format!("operating_points[{i}] missing number \"vdd\""))
        })?;
        let freq_ghz = num("freq_ghz")?.ok_or_else(|| {
            invalid(format!("operating_points[{i}] missing number \"freq_ghz\""))
        })?;
        let temp_c = num("temp_c")?.unwrap_or(SIM_TEMPERATURE_C);
        if !(0.1..=2.0).contains(&vdd) {
            return Err(invalid(format!(
                "operating_points[{i}].vdd = {vdd} out of range [0.1, 2]"
            )));
        }
        if !(0.01..=20.0).contains(&freq_ghz) {
            return Err(invalid(format!(
                "operating_points[{i}].freq_ghz = {freq_ghz} out of range [0.01, 20]"
            )));
        }
        if !(-55.0..=150.0).contains(&temp_c) {
            return Err(invalid(format!(
                "operating_points[{i}].temp_c = {temp_c} out of range [-55, 150]"
            )));
        }
        let op = OperatingPoint {
            vdd: Voltage::new(vdd),
            freq: Frequency::from_ghz(freq_ghz),
            temp_c,
        };
        if points.iter().any(|p| p.slug() == op.slug()) {
            return Err(invalid(format!(
                "operating_points[{i}] duplicates point {}",
                op.slug()
            )));
        }
        points.push(op);
    }
    Ok(points)
}

fn parse_timeout(v: &Json, what: &str) -> Result<f64, SpecError> {
    match v.as_f64() {
        Some(t) if t.is_finite() && t > 0.0 => Ok(t),
        _ => Err(SpecError::Invalid(format!(
            "{what} must be a positive number of seconds"
        ))),
    }
}

fn parse_stage(v: &Json, index: usize) -> Result<StageSpec, SpecError> {
    let invalid = |msg: String| SpecError::Invalid(msg);
    if !matches!(v, Json::Obj(_)) {
        return Err(invalid(format!("stages[{index}] must be an object")));
    }
    let id = v
        .get("id")
        .and_then(Json::as_str)
        .ok_or_else(|| invalid(format!("stages[{index}] missing string \"id\"")))?
        .to_string();
    let kind = v
        .get("kind")
        .and_then(Json::as_str)
        .ok_or_else(|| invalid(format!("stage {id:?} missing string \"kind\"")))?
        .to_string();
    let params = match v.get("params") {
        None => Json::object(),
        Some(p @ Json::Obj(_)) => p.clone(),
        Some(_) => return Err(invalid(format!("stage {id:?} params must be an object"))),
    };
    let deps = match v.get("deps") {
        None => Vec::new(),
        Some(Json::Arr(items)) => {
            let mut deps = Vec::with_capacity(items.len());
            for item in items {
                deps.push(
                    item.as_str()
                        .ok_or_else(|| invalid(format!("stage {id:?} deps must be strings")))?
                        .to_string(),
                );
            }
            deps
        }
        Some(_) => return Err(invalid(format!("stage {id:?} deps must be an array"))),
    };
    let timeout_seconds = match v.get("timeout_seconds") {
        None | Some(Json::Null) => None,
        Some(t) => Some(parse_timeout(t, &format!("stage {id:?} timeout_seconds"))?),
    };
    let sweep = match v.get("sweep") {
        None | Some(Json::Null) => false,
        Some(s) => s
            .as_bool()
            .ok_or_else(|| invalid(format!("stage {id:?} sweep must be a boolean")))?,
    };
    Ok(StageSpec {
        id,
        kind,
        params,
        deps,
        timeout_seconds,
        sweep,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn minimal(stages: &str) -> String {
        format!(
            r#"{{"schema": 1, "name": "t", "scale": "quick", "stages": [{stages}]}}"#
        )
    }

    #[test]
    fn parses_a_full_document() {
        let text = r#"{
            "schema": 1,
            "name": "quick",
            "scale": {"mc_chips": 8, "sim_chips": 2, "instructions": 1000, "warmup": 500},
            "default_timeout_seconds": 60,
            "stages": [
                {"id": "chips", "kind": "chip_campaign",
                 "params": {"node": "32nm", "corner": "severe", "seed": 7}},
                {"id": "map", "kind": "retention_map", "deps": ["chips"],
                 "timeout_seconds": 5}
            ]
        }"#;
        let sc = Scenario::parse(text).unwrap();
        assert_eq!(sc.name, "quick");
        assert_eq!(sc.scale.mc_chips, 8);
        assert_eq!(sc.default_timeout_seconds, Some(60.0));
        assert_eq!(sc.stages.len(), 2);
        assert_eq!(sc.stages[1].deps, vec!["chips".to_string()]);
        assert_eq!(sc.stages[1].timeout_seconds, Some(5.0));
        let order = sc.validate().unwrap();
        assert_eq!(order, vec![0, 1]);
    }

    #[test]
    fn named_scales_resolve() {
        let q = Scenario::parse(&minimal(r#"{"id": "a", "kind": "sleep"}"#)).unwrap();
        assert_eq!(q.scale, RunScale::QUICK);
        let f = Scenario::parse(
            r#"{"schema": 1, "name": "t", "scale": "full", "stages": []}"#,
        )
        .unwrap();
        assert_eq!(f.scale, RunScale::FULL);
        // Absent scale defaults to the full paper-reproduction scale.
        let d = Scenario::parse(r#"{"schema": 1, "name": "t", "stages": []}"#).unwrap();
        assert_eq!(d.scale, RunScale::FULL);
    }

    #[test]
    fn structural_errors_are_rejected() {
        // Duplicate ids.
        let dup = Scenario::parse(&minimal(
            r#"{"id": "a", "kind": "sleep"}, {"id": "a", "kind": "sleep"}"#,
        ))
        .unwrap();
        assert!(dup.validate().unwrap_err().to_string().contains("duplicate"));

        // Unknown kind.
        let kind = Scenario::parse(&minimal(r#"{"id": "a", "kind": "nope"}"#)).unwrap();
        assert!(kind.validate().unwrap_err().to_string().contains("unknown kind"));

        // Unknown dep.
        let dep = Scenario::parse(&minimal(
            r#"{"id": "a", "kind": "sleep", "deps": ["ghost"]}"#,
        ))
        .unwrap();
        assert!(dep.validate().unwrap_err().to_string().contains("ghost"));

        // Unsafe id (path separator).
        let mut bad = Scenario::new("t", RunScale::QUICK);
        bad.stages.push(StageSpec::new("../evil", "sleep"));
        assert!(bad.validate().is_err());

        // Bad schema / missing stages.
        assert!(Scenario::parse(r#"{"schema": 9, "name": "t", "stages": []}"#).is_err());
        assert!(Scenario::parse(r#"{"schema": 4, "name": "t", "stages": []}"#).is_err());
        assert!(Scenario::parse(r#"{"schema": 0, "name": "t", "stages": []}"#).is_err());
        assert!(Scenario::parse(r#"{"schema": 1, "name": "t"}"#).is_err());
        assert!(Scenario::parse("not json").is_err());
    }

    #[test]
    fn schema_2_documents_parse_and_their_retry_members_are_ignored() {
        // `retries` and `backoff_ms` were schema-2 members; a document
        // that still carries them parses like any other, even with
        // values the old parser rejected.
        let sc = Scenario::parse(
            r#"{"schema": 2, "name": "t", "scale": "quick", "stages": [
                {"id": "a", "kind": "sleep", "retries": 3, "backoff_ms": 25},
                {"id": "b", "kind": "sleep", "retries": 1.5, "backoff_ms": -5},
                {"id": "c", "kind": "sleep"}
            ]}"#,
        )
        .unwrap();
        assert_eq!(sc.validate().unwrap().len(), 3);
    }

    fn dvfs_doc(points: &str) -> String {
        format!(
            r#"{{"schema": 3, "name": "dvfs", "scale": "quick",
                "technologies": ["3t1d", "6t-lv"],
                "operating_points": [{points}],
                "stages": [
                    {{"id": "grid", "kind": "dvfs_point", "sweep": true,
                      "params": {{"corner": "typical", "chips": 3}}}},
                    {{"id": "frontier", "kind": "dvfs_frontier", "deps": ["grid"]}}
                ]}}"#
        )
    }

    #[test]
    fn sweep_stages_fan_out_over_the_grid() {
        let sc = Scenario::parse(&dvfs_doc(
            r#"{"vdd": 1.0, "freq_ghz": 4.3}, {"vdd": 0.9, "freq_ghz": 3.2, "temp_c": 60}"#,
        ))
        .unwrap();
        assert_eq!(sc.technologies.len(), 2);
        assert_eq!(sc.operating_points.len(), 2);
        // 2 technologies × 2 points + the unswept frontier.
        assert_eq!(sc.stages.len(), 5);
        let ids: Vec<&str> = sc.stages.iter().map(|s| s.id.as_str()).collect();
        assert!(ids.contains(&"grid.3t1d.v1000f4300t80"), "{ids:?}");
        assert!(ids.contains(&"grid.6t-lv.v900f3200t60"), "{ids:?}");
        // Every clone carries its coordinates in params (hence in the
        // stage cache key) and keeps the stage's own params.
        let cell = sc
            .stages
            .iter()
            .find(|s| s.id == "grid.6t-lv.v900f3200t60")
            .unwrap();
        assert_eq!(cell.params.get("technology").and_then(Json::as_str), Some("6t-lv"));
        assert_eq!(cell.params.get("vdd").and_then(Json::as_f64), Some(0.9));
        assert_eq!(cell.params.get("freq_ghz").and_then(Json::as_f64), Some(3.2));
        assert_eq!(cell.params.get("temp_c").and_then(Json::as_f64), Some(60.0));
        assert_eq!(cell.params.get("corner").and_then(Json::as_str), Some("typical"));
        assert!(!cell.sweep);
        // The unswept frontier depends on every clone.
        let frontier = sc.stages.iter().find(|s| s.id == "frontier").unwrap();
        assert_eq!(frontier.deps.len(), 4);
        assert!(frontier.deps.contains(&"grid.3t1d.v900f3200t60".to_string()));
        // And the expanded DAG is valid.
        sc.validate().unwrap();
    }

    #[test]
    fn changing_one_grid_coordinate_changes_the_stage_params() {
        let a = Scenario::parse(&dvfs_doc(r#"{"vdd": 1.0, "freq_ghz": 4.3}"#)).unwrap();
        let b = Scenario::parse(&dvfs_doc(r#"{"vdd": 0.9, "freq_ghz": 4.3}"#)).unwrap();
        // Same kinds, same document — only vdd moved. Both the id and
        // the params (the cache-key input) must differ.
        assert_ne!(a.stages[0].id, b.stages[0].id);
        assert_ne!(a.stages[0].params.render(), b.stages[0].params.render());
        // And therefore the content-addressed stage cache key differs:
        // a cached artifact can never be served across grid cells.
        let key = |s: &StageSpec| {
            crate::sched::stage_key(&s.kind, &s.params, RunScale::QUICK, &BTreeMap::new())
        };
        assert_ne!(key(&a.stages[0]), key(&b.stages[0]));
    }

    #[test]
    fn swept_dependents_follow_their_own_grid_cell() {
        let mut sc = Scenario::new("t", RunScale::QUICK);
        sc.technologies = vec![CellTechKind::T3t1d];
        sc.operating_points = vec![
            OperatingPoint {
                vdd: Voltage::new(1.0),
                freq: Frequency::from_ghz(4.3),
                temp_c: 80.0,
            },
            OperatingPoint {
                vdd: Voltage::new(0.9),
                freq: Frequency::from_ghz(3.2),
                temp_c: 80.0,
            },
        ];
        sc.stages.push(StageSpec::new("a", "sleep").with_sweep());
        sc.stages
            .push(StageSpec::new("b", "sleep").with_deps(&["a"]).with_sweep());
        sc.expand_grid().unwrap();
        assert_eq!(sc.stages.len(), 4);
        let b0 = sc
            .stages
            .iter()
            .find(|s| s.id == "b.3t1d.v900f3200t80")
            .unwrap();
        assert_eq!(b0.deps, vec!["a.3t1d.v900f3200t80".to_string()]);
        sc.validate().unwrap();
        // Idempotent: a second expansion is a no-op.
        let before = sc.stages.len();
        sc.expand_grid().unwrap();
        assert_eq!(sc.stages.len(), before);
    }

    #[test]
    fn bad_grids_are_rejected() {
        // Sweep without a grid.
        let no_grid = r#"{"schema": 3, "name": "t", "scale": "quick", "stages": [
            {"id": "a", "kind": "sleep", "sweep": true}]}"#;
        let err = Scenario::parse(no_grid).unwrap_err().to_string();
        assert!(err.contains("technologies"), "{err}");

        // Unknown technology slug, duplicate technology, malformed points.
        for (tag, doc) in [
            (
                "unknown tech",
                r#"{"schema": 3, "name": "t", "technologies": ["5t"], "stages": []}"#,
            ),
            (
                "dup tech",
                r#"{"schema": 3, "name": "t", "technologies": ["3t1d", "3t1d"], "stages": []}"#,
            ),
            (
                "missing vdd",
                r#"{"schema": 3, "name": "t", "operating_points": [{"freq_ghz": 4.3}], "stages": []}"#,
            ),
            (
                "vdd range",
                r#"{"schema": 3, "name": "t", "operating_points": [{"vdd": 9.0, "freq_ghz": 4.3}], "stages": []}"#,
            ),
            (
                "dup point",
                r#"{"schema": 3, "name": "t", "operating_points": [
                    {"vdd": 1.0, "freq_ghz": 4.3}, {"vdd": 1.0, "freq_ghz": 4.3}], "stages": []}"#,
            ),
            (
                "sweep type",
                r#"{"schema": 3, "name": "t", "stages": [{"id": "a", "kind": "sleep", "sweep": 1}]}"#,
            ),
        ] {
            assert!(Scenario::parse(doc).is_err(), "{tag}");
        }

        // A builder scenario that skipped expand_grid fails validation.
        let mut sc = Scenario::new("t", RunScale::QUICK);
        sc.stages.push(StageSpec::new("a", "sleep").with_sweep());
        let err = sc.validate().unwrap_err().to_string();
        assert!(err.contains("expand_grid"), "{err}");
    }

    #[test]
    fn cycles_are_detected() {
        let sc = Scenario::parse(&minimal(
            r#"{"id": "a", "kind": "sleep", "deps": ["c"]},
               {"id": "b", "kind": "sleep", "deps": ["a"]},
               {"id": "c", "kind": "sleep", "deps": ["b"]}"#,
        ))
        .unwrap();
        let err = sc.validate().unwrap_err().to_string();
        assert!(err.contains("cycle"), "{err}");
        // Self-loop.
        let sc = Scenario::parse(&minimal(
            r#"{"id": "a", "kind": "sleep", "deps": ["a"]}"#,
        ))
        .unwrap();
        assert!(sc.validate().is_err());
    }

    #[test]
    fn topological_order_is_deterministic_and_respects_deps() {
        let sc = Scenario::parse(&minimal(
            r#"{"id": "z_last", "kind": "sleep", "deps": ["m1", "m2"]},
               {"id": "m1", "kind": "sleep", "deps": ["root"]},
               {"id": "m2", "kind": "sleep", "deps": ["root"]},
               {"id": "root", "kind": "sleep"}"#,
        ))
        .unwrap();
        let order = sc.validate().unwrap();
        let ids: Vec<&str> = order.iter().map(|&i| sc.stages[i].id.as_str()).collect();
        assert_eq!(ids, vec!["root", "m1", "m2", "z_last"]);
        assert_eq!(order, sc.validate().unwrap());
    }
}
