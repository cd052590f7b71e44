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

use bench_harness::RunScale;
use obs::{Json, JsonError};
use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;

/// Current scenario schema version. Schema 2 added per-stage `retries`
/// and `backoff_ms`, which the parser now ignores like any other
/// unknown member: every stage is a pure function of its inputs, so a
/// stage launches once and a rerun is its retry. Schema 3 added a
/// technology × operating-point grid (top-level `technologies` and
/// `operating_points`, per-stage `sweep`), which was removed: a
/// document that carries any of those members is rejected, since
/// running it without its grid would run something else. Schema 1..=3
/// documents without them parse.
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
        for member in ["technologies", "operating_points"] {
            if v.get(member).is_some() {
                return Err(grid_removed(&format!("member {member:?}")));
            }
        }
        let stage_values = v
            .get("stages")
            .and_then(Json::as_arr)
            .ok_or_else(|| invalid("missing \"stages\" array".into()))?;
        let mut stages = Vec::with_capacity(stage_values.len());
        for (i, sv) in stage_values.iter().enumerate() {
            stages.push(parse_stage(sv, i)?);
        }
        Ok(Self {
            name,
            scale,
            default_timeout_seconds,
            stages,
        })
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

/// The error for a member of the removed technology × operating-point
/// grid.
fn grid_removed(what: &str) -> SpecError {
    SpecError::Invalid(format!(
        "{what} is not supported: the technology × operating-point grid was removed"
    ))
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
    if v.get("sweep").is_some() {
        return Err(grid_removed(&format!("stage {id:?} member \"sweep\"")));
    }
    Ok(StageSpec {
        id,
        kind,
        params,
        deps,
        timeout_seconds,
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

    #[test]
    fn grid_members_are_rejected_by_name() {
        // Each member of the removed technology × operating-point grid
        // fails the parse on its own, whatever its value, and the error
        // names it.
        for (member, doc) in [
            (
                "technologies",
                r#"{"schema": 3, "name": "t", "technologies": ["3t1d"], "stages": []}"#,
            ),
            (
                "operating_points",
                r#"{"schema": 3, "name": "t", "operating_points": [], "stages": []}"#,
            ),
            (
                "sweep",
                r#"{"schema": 3, "name": "t", "stages": [
                    {"id": "a", "kind": "sleep", "sweep": false}]}"#,
            ),
        ] {
            match Scenario::parse(doc) {
                Err(SpecError::Invalid(msg)) => {
                    assert!(msg.contains(member), "{member}: {msg}");
                    assert!(msg.contains("grid"), "{member}: {msg}");
                }
                other => panic!("{member}: expected Invalid, got {other:?}"),
            }
        }
        // A schema-3 document without them parses.
        let sc = Scenario::parse(
            r#"{"schema": 3, "name": "t", "scale": "quick", "stages": [
                {"id": "a", "kind": "sleep", "params": {"seconds": 0}}]}"#,
        )
        .unwrap();
        assert_eq!(sc.validate().unwrap(), vec![0]);
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
