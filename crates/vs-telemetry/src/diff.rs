//! Golden-artifact comparison: tolerance specifications and a structural
//! diff over metric snapshots.
//!
//! The regression harness checks candidate run artifacts against checked-in
//! goldens metric by metric. Comparison is *structural*, never textual:
//! labeled keys (`name{k=v,...}`) are canonicalized so label order cannot
//! cause a diff, wall-time events are excluded by schema (see
//! [`Event::is_wall_time`]), and every numeric comparison goes through a
//! [`Tolerance`] looked up in a [`ToleranceSpec`] (exact labeled key first,
//! then the base metric name, then the default).
//!
//! Semantics chosen for regression testing:
//!
//! * a golden metric **missing** from the candidate is a failure (a lost
//!   measurement is a regression),
//! * an **extra** candidate metric is reported but passes (new
//!   instrumentation must not invalidate old goldens),
//! * `NaN` golden vs `NaN` candidate is equal (both runs agree the value is
//!   undefined); `NaN` vs anything finite differs.

use std::collections::BTreeMap;
use std::fmt;

use crate::events::{RunArtifact, RunManifest};
use crate::json::{self, Json};
use crate::metrics::MetricsSnapshot;

/// An acceptance band around a golden value: a candidate `c` passes against
/// a golden `g` when `|c - g| <= abs + rel * |g|`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tolerance {
    /// Absolute term of the band.
    pub abs: f64,
    /// Relative term of the band (scaled by `|golden|`).
    pub rel: f64,
}

impl Tolerance {
    /// Bitwise equality (modulo the NaN rule).
    pub const EXACT: Tolerance = Tolerance { abs: 0.0, rel: 0.0 };

    /// Whether `candidate` is acceptable against `golden`.
    ///
    /// A value exactly at the edge of the band passes. Two NaNs are equal;
    /// infinities only match themselves (sign included).
    pub fn accepts(&self, golden: f64, candidate: f64) -> bool {
        if golden.is_nan() || candidate.is_nan() {
            return golden.is_nan() && candidate.is_nan();
        }
        if golden.is_infinite() || candidate.is_infinite() {
            return golden == candidate;
        }
        (candidate - golden).abs() <= self.abs + self.rel * golden.abs()
    }
}

/// Canonical form of a (possibly labeled) metric key: labels of
/// `name{k=v,...}` are sorted so permuted label order maps to the same key.
/// Keys without a well-formed `{...}` suffix pass through unchanged.
pub fn canonical_key(key: &str) -> String {
    let Some(open) = key.find('{') else {
        return key.to_string();
    };
    if !key.ends_with('}') {
        return key.to_string();
    }
    let name = &key[..open];
    let inner = &key[open + 1..key.len() - 1];
    if inner.is_empty() {
        return name.to_string();
    }
    let mut labels: Vec<&str> = inner.split(',').collect();
    labels.sort_unstable();
    format!("{name}{{{}}}", labels.join(","))
}

/// The base metric name of a key: everything before the label block.
pub fn base_name(key: &str) -> &str {
    match key.find('{') {
        Some(open) if key.ends_with('}') => &key[..open],
        _ => key,
    }
}

/// Per-metric tolerance table with a default fallback.
///
/// Lookup order for a key: exact canonical key, then base metric name, then
/// the default. The on-disk form is a single JSON object:
///
/// ```json
/// {"default": {"abs": 1e-12, "rel": 1e-9},
///  "metrics": {"pde": {"abs": 0.005}, "worst_v{cfg=cross0.2}": {"abs": 0.02}}}
/// ```
///
/// Omitted `abs`/`rel` fields default to `0.0`.
#[derive(Debug, Clone, PartialEq)]
pub struct ToleranceSpec {
    /// Fallback tolerance for metrics with no per-metric entry.
    pub default: Tolerance,
    /// Overrides keyed by canonical metric key or base metric name.
    pub per_metric: Vec<(String, Tolerance)>,
}

impl ToleranceSpec {
    /// A spec demanding bitwise equality everywhere.
    pub fn exact() -> Self {
        ToleranceSpec {
            default: Tolerance::EXACT,
            per_metric: Vec::new(),
        }
    }

    /// A spec with the given default and no per-metric overrides.
    pub fn uniform(default: Tolerance) -> Self {
        ToleranceSpec {
            default,
            per_metric: Vec::new(),
        }
    }

    /// The tolerance applying to `key` (exact canonical key, then base
    /// name, then the default).
    pub fn lookup(&self, key: &str) -> Tolerance {
        let canon = canonical_key(key);
        if let Some((_, t)) = self.per_metric.iter().find(|(k, _)| *k == canon) {
            return *t;
        }
        let base = base_name(&canon);
        if let Some((_, t)) = self.per_metric.iter().find(|(k, _)| *k == base) {
            return *t;
        }
        self.default
    }

    /// Parses the JSON form documented on the type.
    ///
    /// # Errors
    ///
    /// Returns a message naming what is malformed.
    pub fn from_json_str(text: &str) -> Result<ToleranceSpec, String> {
        let v = json::parse(text).map_err(|e| e.to_string())?;
        if !matches!(v, Json::Obj(_)) {
            return Err("tolerance file must be a JSON object".to_string());
        }
        let tol = |v: &Json| -> Result<Tolerance, String> {
            if !matches!(v, Json::Obj(_)) {
                return Err("a tolerance must be an object of abs/rel".to_string());
            }
            let field = |name: &str| -> Result<f64, String> {
                match v.get(name) {
                    None => Ok(0.0),
                    Some(x) => x
                        .as_f64()
                        .ok_or_else(|| format!("tolerance field {name:?} must be a number")),
                }
            };
            let t = Tolerance {
                abs: field("abs")?,
                rel: field("rel")?,
            };
            if t.abs < 0.0 || t.rel < 0.0 || t.abs.is_nan() || t.rel.is_nan() {
                return Err("tolerance fields must be non-negative".to_string());
            }
            Ok(t)
        };
        let default = match v.get("default") {
            None => Tolerance::EXACT,
            Some(d) => tol(d)?,
        };
        let per_metric = match v.get("metrics") {
            None => Vec::new(),
            Some(Json::Obj(pairs)) => pairs
                .iter()
                .map(|(k, t)| Ok((canonical_key(k), tol(t)?)))
                .collect::<Result<Vec<_>, String>>()?,
            Some(_) => return Err("\"metrics\" must be an object".to_string()),
        };
        Ok(ToleranceSpec {
            default,
            per_metric,
        })
    }

    /// Serializes back to the JSON form accepted by
    /// [`ToleranceSpec::from_json_str`].
    pub fn to_json_string(&self) -> String {
        let tol = |t: &Tolerance| {
            Json::obj([("abs", Json::from(t.abs)), ("rel", Json::from(t.rel))])
        };
        Json::obj([
            ("default", tol(&self.default)),
            (
                "metrics",
                Json::Obj(
                    self.per_metric
                        .iter()
                        .map(|(k, t)| (k.clone(), tol(t)))
                        .collect(),
                ),
            ),
        ])
        .to_string_compact()
    }
}

impl Default for ToleranceSpec {
    fn default() -> Self {
        ToleranceSpec::exact()
    }
}

/// What the diff concluded about one metric key.
#[derive(Debug, Clone, PartialEq)]
pub enum DiffOutcome {
    /// Candidate within tolerance of the golden value.
    Pass {
        /// Golden value.
        golden: f64,
        /// Candidate value.
        candidate: f64,
    },
    /// Candidate outside the tolerance band.
    Mismatch {
        /// Golden value.
        golden: f64,
        /// Candidate value.
        candidate: f64,
        /// The tolerance that was applied.
        tolerance: Tolerance,
    },
    /// The golden has this metric; the candidate lost it.
    MissingInCandidate {
        /// Golden value.
        golden: f64,
    },
    /// The candidate grew a metric the golden does not have (reported, but
    /// not a failure).
    ExtraInCandidate {
        /// Candidate value.
        candidate: f64,
    },
    /// Same key, structurally incomparable values (kind or shape changed).
    ShapeMismatch {
        /// Human-readable description of the structural difference.
        detail: String,
    },
}

impl DiffOutcome {
    /// Whether this outcome fails the diff.
    pub fn is_failure(&self) -> bool {
        matches!(
            self,
            DiffOutcome::Mismatch { .. }
                | DiffOutcome::MissingInCandidate { .. }
                | DiffOutcome::ShapeMismatch { .. }
        )
    }
}

/// One compared key and its outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffEntry {
    /// Canonical metric key.
    pub key: String,
    /// What happened.
    pub outcome: DiffOutcome,
}

impl fmt::Display for DiffEntry {
    /// `key: what happened`, e.g. `pde{pds=ivr}: golden 0.86 vs candidate
    /// 0.9 (tol abs 0.005 rel 0)`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let key = &self.key;
        match &self.outcome {
            DiffOutcome::Pass { golden, candidate } => {
                write!(f, "{key}: golden {golden} vs candidate {candidate}")
            }
            DiffOutcome::Mismatch { golden, candidate, tolerance } => write!(
                f,
                "{key}: golden {golden} vs candidate {candidate} (tol abs {} rel {})",
                tolerance.abs, tolerance.rel
            ),
            DiffOutcome::MissingInCandidate { golden } => {
                write!(f, "{key}: missing in candidate (golden {golden})")
            }
            DiffOutcome::ExtraInCandidate { candidate } => {
                write!(f, "{key}: extra in candidate ({candidate})")
            }
            DiffOutcome::ShapeMismatch { detail } => write!(f, "{key}: {detail}"),
        }
    }
}

/// Result of diffing a candidate against a golden.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DiffReport {
    /// Per-key outcomes, sorted by canonical key.
    pub entries: Vec<DiffEntry>,
    /// Set when the two artifacts' manifests describe different runs
    /// (different benchmark, seed, or scale): the metric comparison is then
    /// meaningless and the report fails regardless of entries.
    pub manifest_mismatch: Option<String>,
}

impl DiffReport {
    /// Whether the candidate matches the golden.
    pub fn is_pass(&self) -> bool {
        self.manifest_mismatch.is_none() && !self.entries.iter().any(|e| e.outcome.is_failure())
    }

    /// The failing entries.
    pub fn failures(&self) -> impl Iterator<Item = &DiffEntry> {
        self.entries.iter().filter(|e| e.outcome.is_failure())
    }

    /// Number of keys compared (including missing/extra).
    pub fn compared(&self) -> usize {
        self.entries.len()
    }
}

impl fmt::Display for DiffReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(m) = &self.manifest_mismatch {
            writeln!(f, "manifest mismatch: {m}")?;
        }
        let failures = self.failures().count();
        writeln!(
            f,
            "{} metrics compared, {} failing",
            self.compared(),
            failures
        )?;
        for e in &self.entries {
            match e.outcome {
                DiffOutcome::Pass { .. } => {}
                DiffOutcome::ExtraInCandidate { .. } => writeln!(f, "  note {e}")?,
                _ => writeln!(f, "  FAIL {e}")?,
            }
        }
        Ok(())
    }
}

/// A scalar metric with its kind, for structural comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Scalar {
    Counter(u64),
    Gauge(f64),
}

impl Scalar {
    fn value(self) -> f64 {
        match self {
            Scalar::Counter(c) => c as f64,
            Scalar::Gauge(g) => g,
        }
    }

    fn kind(self) -> &'static str {
        match self {
            Scalar::Counter(_) => "counter",
            Scalar::Gauge(_) => "gauge",
        }
    }
}

fn scalar_map(s: &MetricsSnapshot) -> BTreeMap<String, Scalar> {
    let mut map = BTreeMap::new();
    for (k, v) in &s.counters {
        map.insert(canonical_key(k), Scalar::Counter(*v));
    }
    for (k, v) in &s.gauges {
        map.insert(canonical_key(k), Scalar::Gauge(*v));
    }
    map
}

/// Diffs two metric snapshots under a tolerance spec.
pub fn diff_snapshots(
    golden: &MetricsSnapshot,
    candidate: &MetricsSnapshot,
    spec: &ToleranceSpec,
) -> DiffReport {
    let g = scalar_map(golden);
    let c = scalar_map(candidate);
    let mut entries = Vec::new();
    for (key, gv) in &g {
        let outcome = match c.get(key) {
            None => DiffOutcome::MissingInCandidate { golden: gv.value() },
            Some(cv) if gv.kind() != cv.kind() => DiffOutcome::ShapeMismatch {
                detail: format!("kind changed: golden {} vs candidate {}", gv.kind(), cv.kind()),
            },
            Some(cv) => {
                let tolerance = spec.lookup(key);
                if tolerance.accepts(gv.value(), cv.value()) {
                    DiffOutcome::Pass {
                        golden: gv.value(),
                        candidate: cv.value(),
                    }
                } else {
                    DiffOutcome::Mismatch {
                        golden: gv.value(),
                        candidate: cv.value(),
                        tolerance,
                    }
                }
            }
        };
        entries.push(DiffEntry {
            key: key.clone(),
            outcome,
        });
    }
    for (key, cv) in &c {
        if !g.contains_key(key) {
            entries.push(DiffEntry {
                key: key.clone(),
                outcome: DiffOutcome::ExtraInCandidate {
                    candidate: cv.value(),
                },
            });
        }
    }
    entries.sort_by(|a, b| a.key.cmp(&b.key));
    DiffReport {
        entries,
        manifest_mismatch: None,
    }
}

fn manifest_compatible(g: &RunManifest, c: &RunManifest) -> Option<String> {
    if g.benchmark != c.benchmark {
        return Some(format!(
            "benchmark {:?} vs {:?}",
            g.benchmark, c.benchmark
        ));
    }
    if g.seed != c.seed {
        return Some(format!("seed {} vs {}", g.seed, c.seed));
    }
    if g.workload_scale != c.workload_scale {
        return Some(format!(
            "workload_scale {} vs {}",
            g.workload_scale, c.workload_scale
        ));
    }
    if g.max_cycles != c.max_cycles {
        return Some(format!("max_cycles {} vs {}", g.max_cycles, c.max_cycles));
    }
    None
}

/// Diffs two run artifacts: manifest compatibility (same run identity;
/// crate versions are deliberately ignored), then every metrics snapshot.
/// Wall-time events are excluded by schema — the diff never reads them.
pub fn diff_artifacts(
    golden: &RunArtifact,
    candidate: &RunArtifact,
    spec: &ToleranceSpec,
) -> DiffReport {
    let manifest_mismatch = match (golden.manifest(), candidate.manifest()) {
        (Some(g), Some(c)) => manifest_compatible(g, c),
        (Some(_), None) => Some("candidate has no manifest".to_string()),
        (None, Some(_)) => Some("golden has no manifest".to_string()),
        (None, None) => None,
    };
    let empty = MetricsSnapshot::default();
    let g = golden.metrics().unwrap_or(&empty);
    let c = candidate.metrics().unwrap_or(&empty);
    let mut report = diff_snapshots(g, c, spec);
    report.manifest_mismatch = manifest_mismatch;
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tolerance_edge_is_inclusive() {
        let t = Tolerance { abs: 0.5, rel: 0.0 };
        assert!(t.accepts(1.0, 1.5));
        assert!(t.accepts(1.0, 0.5));
        assert!(!t.accepts(1.0, 1.5 + 1e-12));
        // Exactly representable rel band: 0.25 * |-2.0| = 0.5.
        let r = Tolerance { abs: 0.0, rel: 0.25 };
        assert!(r.accepts(-2.0, -2.5));
        assert!(!r.accepts(-2.0, -2.5625));
    }

    #[test]
    fn nan_and_infinity_rules() {
        let t = Tolerance::EXACT;
        assert!(t.accepts(f64::NAN, f64::NAN));
        assert!(!t.accepts(f64::NAN, 1.0));
        assert!(!t.accepts(1.0, f64::NAN));
        assert!(t.accepts(f64::INFINITY, f64::INFINITY));
        assert!(!t.accepts(f64::INFINITY, f64::NEG_INFINITY));
        let loose = Tolerance { abs: 1e9, rel: 1e9 };
        assert!(!loose.accepts(f64::INFINITY, 0.0));
    }

    #[test]
    fn canonical_key_sorts_labels() {
        assert_eq!(canonical_key("pde"), "pde");
        assert_eq!(canonical_key("a{x=1,b=2}"), "a{b=2,x=1}");
        assert_eq!(canonical_key("a{b=2,x=1}"), "a{b=2,x=1}");
        assert_eq!(canonical_key("a{}"), "a");
        // Malformed label blocks pass through untouched.
        assert_eq!(canonical_key("a{open"), "a{open");
    }

    #[test]
    fn spec_lookup_precedence() {
        let spec = ToleranceSpec {
            default: Tolerance { abs: 1.0, rel: 0.0 },
            per_metric: vec![
                ("pde".to_string(), Tolerance { abs: 0.1, rel: 0.0 }),
                (
                    "pde{bench=bfs,pds=vrm}".to_string(),
                    Tolerance { abs: 0.01, rel: 0.0 },
                ),
            ],
        };
        assert_eq!(spec.lookup("other").abs, 1.0);
        assert_eq!(spec.lookup("pde{pds=ivr}").abs, 0.1);
        // Exact labeled match wins over base name, regardless of label order.
        assert_eq!(spec.lookup("pde{pds=vrm,bench=bfs}").abs, 0.01);
    }

    #[test]
    fn spec_json_roundtrip_and_errors() {
        let text = r#"{"default":{"abs":1e-9,"rel":1e-6},
                       "metrics":{"pde":{"abs":0.005},"worst_v":{"rel":0.01}}}"#;
        let spec = ToleranceSpec::from_json_str(text).unwrap();
        assert_eq!(spec.default.rel, 1e-6);
        assert_eq!(spec.lookup("pde").abs, 0.005);
        assert_eq!(spec.lookup("pde").rel, 0.0);
        let again = ToleranceSpec::from_json_str(&spec.to_json_string()).unwrap();
        assert_eq!(again, spec);
        assert!(ToleranceSpec::from_json_str("nope").is_err());
        assert!(ToleranceSpec::from_json_str(r#"{"metrics":[]}"#).is_err());
        assert!(ToleranceSpec::from_json_str(r#"{"default":{"abs":-1}}"#).is_err());
    }

    fn snap(gauges: &[(&str, f64)]) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: Vec::new(),
            gauges: gauges.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
        }
    }

    #[test]
    fn identical_snapshots_pass_exactly() {
        let s = snap(&[("a", 1.0), ("b{x=1}", -2.5)]);
        let r = diff_snapshots(&s, &s, &ToleranceSpec::exact());
        assert!(r.is_pass());
        assert_eq!(r.compared(), 2);
    }

    #[test]
    fn label_permutation_is_not_a_diff() {
        let g = snap(&[("v{layer=0,sm=3}", 0.97)]);
        let c = snap(&[("v{sm=3,layer=0}", 0.97)]);
        assert!(diff_snapshots(&g, &c, &ToleranceSpec::exact()).is_pass());
    }

    #[test]
    fn missing_fails_extra_passes() {
        let g = snap(&[("a", 1.0), ("b", 2.0)]);
        let c = snap(&[("a", 1.0), ("c", 3.0)]);
        let r = diff_snapshots(&g, &c, &ToleranceSpec::exact());
        assert!(!r.is_pass());
        let fails: Vec<_> = r.failures().map(|e| e.key.as_str()).collect();
        assert_eq!(fails, ["b"]);
        assert!(r
            .entries
            .iter()
            .any(|e| matches!(e.outcome, DiffOutcome::ExtraInCandidate { .. })));
    }

    #[test]
    fn report_lines_are_the_failing_and_extra_entries() {
        let g = snap(&[("a", 1.0), ("b{x=1}", 2.0), ("c", 3.0)]);
        let c = snap(&[("a", 1.5), ("c", 3.0), ("d", 4.0)]);
        let r = diff_snapshots(&g, &c, &ToleranceSpec::uniform(Tolerance { abs: 0.25, rel: 0.0 }));
        let lines: Vec<String> = r.failures().map(ToString::to_string).collect();
        assert_eq!(
            lines,
            [
                "a: golden 1 vs candidate 1.5 (tol abs 0.25 rel 0)",
                "b{x=1}: missing in candidate (golden 2)",
            ]
        );
        assert_eq!(
            r.to_string(),
            "4 metrics compared, 2 failing\n\
             \x20 FAIL a: golden 1 vs candidate 1.5 (tol abs 0.25 rel 0)\n\
             \x20 FAIL b{x=1}: missing in candidate (golden 2)\n\
             \x20 note d: extra in candidate (4)\n"
        );
    }

    #[test]
    fn counter_gauge_kind_change_is_structural() {
        let g = MetricsSnapshot {
            counters: vec![("n".to_string(), 3)],
            gauges: Vec::new(),
        };
        let c = snap(&[("n", 3.0)]);
        let r = diff_snapshots(&g, &c, &ToleranceSpec::uniform(Tolerance { abs: 9.0, rel: 0.0 }));
        assert!(!r.is_pass());
        assert!(matches!(
            r.entries[0].outcome,
            DiffOutcome::ShapeMismatch { .. }
        ));
    }

    #[test]
    fn artifact_diff_checks_manifest_identity() {
        use crate::events::{Event, RunManifest, SCHEMA_VERSION};
        let mk = |seed: u64| RunArtifact {
            events: vec![Event::Manifest(RunManifest {
                schema_version: SCHEMA_VERSION,
                benchmark: "fig9".to_string(),
                pds: "experiment".to_string(),
                seed,
                workload_scale: 0.04,
                max_cycles: 250_000,
                sample_stride: 0,
                crate_versions: Vec::new(),
            })],
        };
        assert!(diff_artifacts(&mk(42), &mk(42), &ToleranceSpec::exact()).is_pass());
        let r = diff_artifacts(&mk(42), &mk(43), &ToleranceSpec::exact());
        assert!(!r.is_pass());
        assert!(r.manifest_mismatch.unwrap().contains("seed"));
    }
}
