//! The machine-readable artifact schema: typed events, JSONL
//! serialization, and the parser that turns a stream back into events.
//!
//! An artifact is one JSON object per line, in five event types. Every
//! artifact a binary writes opens with a [`RunManifest`] (seed, scale,
//! cycle cap, crate versions). Experiment and dse artifacts then carry a
//! [`MetricsSnapshot`], dse one [`DsePointRow`] per point, and the fault
//! campaign one [`FaultCampaignRow`] per cell. An instrumented
//! co-simulation run's artifact is its stage profile alone: one `stages`
//! event, the only event with wall times in it. The goldens, `sweep
//! diff-baseline` and the benchmark all read this one schema instead of
//! scraping stdout; `schema_version` is bumped on any breaking change.

use std::fmt;

use crate::json::{self, Json};
use crate::metrics::MetricsSnapshot;

/// Version of the JSONL schema emitted by this crate.
pub const SCHEMA_VERSION: u32 = 1;

/// First line of every artifact: enough to reproduce the run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunManifest {
    /// Schema version of the stream ([`SCHEMA_VERSION`] at write time).
    pub schema_version: u32,
    /// Benchmark (or campaign) name.
    pub benchmark: String,
    /// PDS configuration label.
    pub pds: String,
    /// Workload-generation seed.
    pub seed: u64,
    /// Kernel-iteration scale factor.
    pub workload_scale: f64,
    /// Hard cycle cap of the run.
    pub max_cycles: u64,
    /// Decimation stride of per-cycle recording. No event carries per-cycle
    /// samples; the field keeps written artifacts byte-stable (experiments
    /// write 0, dse and the fault campaign 1).
    pub sample_stride: u32,
    /// `(crate, version)` pairs of the producing crates.
    pub crate_versions: Vec<(String, String)>,
}

/// Accumulated wall time of one co-simulation stage.
#[derive(Debug, Clone, PartialEq)]
pub struct StageSample {
    /// Stage name (see [`crate::Stage::name`]).
    pub stage: String,
    /// Total wall time attributed to the stage, seconds.
    pub total_s: f64,
    /// Number of spans recorded.
    pub count: u64,
}

/// One row of a fault-campaign resilience table.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultCampaignRow {
    /// PDS configuration label.
    pub pds: String,
    /// Fault-scenario name.
    pub fault: String,
    /// Supervisor verdict label.
    pub verdict: String,
    /// Minimum SM voltage observed, volts.
    pub min_sm_v: f64,
    /// Worst-layer fraction of cycles below the guardband.
    pub below_guardband_fraction: f64,
    /// Worst-layer time below the guardband, microseconds.
    pub below_guardband_us: f64,
    /// Solver retry attempts.
    pub retries: u64,
    /// Non-finite controls sanitized.
    pub sanitized: u64,
    /// Abort error, if the run died.
    pub error: Option<String>,
}

/// One evaluated design-space configuration in a `dse` frontier artifact:
/// the point's sweep-grammar spec plus its objective values and frontier
/// membership under the (PDE ↑, CR-IVR area ↓, worst-case droop voltage ↑)
/// dominance rule.
#[derive(Debug, Clone, PartialEq)]
pub struct DsePointRow {
    /// The point in the canonical sweep grammar
    /// (`stack=4x4,area=0.2,...` — also the metric-label vocabulary).
    pub point: String,
    /// Power delivery efficiency under the point's balanced load (0..1).
    pub pde: f64,
    /// CR-IVR area as a multiple of the GPU die.
    pub area_mult: f64,
    /// Worst loaded-SM voltage after the worst-case gating event, volts.
    pub worst_v: f64,
    /// Loaded-SM voltage at the end of the worst-case run, volts.
    pub final_v: f64,
    /// Whether the point is a member of the Pareto frontier.
    pub on_frontier: bool,
}

/// One line of the JSONL stream.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// Run manifest (first line).
    Manifest(RunManifest),
    /// Per-stage wall-time breakdown.
    Stages(Vec<StageSample>),
    /// Metrics-registry export.
    Metrics(MetricsSnapshot),
    /// Fault-campaign table row.
    FaultRow(FaultCampaignRow),
    /// Design-space exploration point row (frontier artifacts).
    DsePoint(DsePointRow),
}

impl Event {
    /// Whether this event carries wall-clock timing (and is therefore
    /// excluded from determinism comparisons and golden diffs). This is the
    /// schema-level notion of "wall-time field": tooling filters on it
    /// instead of string-matching event payloads.
    pub fn is_wall_time(&self) -> bool {
        matches!(self, Event::Stages(_))
    }

    /// The `type` tag this event serializes under.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::Manifest(_) => "manifest",
            Event::Stages(_) => "stages",
            Event::Metrics(_) => "metrics",
            Event::FaultRow(_) => "fault_row",
            Event::DsePoint(_) => "dse_point",
        }
    }

    /// Serializes the event as one JSON object.
    pub fn to_json(&self) -> Json {
        let mut pairs: Vec<(String, Json)> = vec![("type".to_string(), Json::from(self.kind()))];
        match self {
            Event::Manifest(m) => pairs.extend([
                ("schema_version".to_string(), Json::from(m.schema_version)),
                ("benchmark".to_string(), Json::from(m.benchmark.clone())),
                ("pds".to_string(), Json::from(m.pds.clone())),
                ("seed".to_string(), Json::from(m.seed)),
                ("workload_scale".to_string(), Json::from(m.workload_scale)),
                ("max_cycles".to_string(), Json::from(m.max_cycles)),
                ("sample_stride".to_string(), Json::from(m.sample_stride)),
                (
                    "crate_versions".to_string(),
                    Json::Obj(
                        m.crate_versions
                            .iter()
                            .map(|(k, v)| (k.clone(), Json::from(v.clone())))
                            .collect(),
                    ),
                ),
            ]),
            Event::Stages(stages) => pairs.push((
                "stages".to_string(),
                Json::Arr(
                    stages
                        .iter()
                        .map(|s| {
                            Json::obj([
                                ("stage", Json::from(s.stage.clone())),
                                ("total_s", Json::from(s.total_s)),
                                ("count", Json::from(s.count)),
                            ])
                        })
                        .collect(),
                ),
            )),
            Event::Metrics(m) => pairs.push(("metrics".to_string(), m.to_json())),
            Event::FaultRow(r) => pairs.extend([
                ("pds".to_string(), Json::from(r.pds.clone())),
                ("fault".to_string(), Json::from(r.fault.clone())),
                ("verdict".to_string(), Json::from(r.verdict.clone())),
                ("min_sm_v".to_string(), Json::from(r.min_sm_v)),
                (
                    "below_guardband_fraction".to_string(),
                    Json::from(r.below_guardband_fraction),
                ),
                (
                    "below_guardband_us".to_string(),
                    Json::from(r.below_guardband_us),
                ),
                ("retries".to_string(), Json::from(r.retries)),
                ("sanitized".to_string(), Json::from(r.sanitized)),
                (
                    "error".to_string(),
                    r.error.clone().map_or(Json::Null, Json::from),
                ),
            ]),
            Event::DsePoint(p) => pairs.extend([
                ("point".to_string(), Json::from(p.point.clone())),
                ("pde".to_string(), Json::from(p.pde)),
                ("area_mult".to_string(), Json::from(p.area_mult)),
                ("worst_v".to_string(), Json::from(p.worst_v)),
                ("final_v".to_string(), Json::from(p.final_v)),
                ("on_frontier".to_string(), Json::from(p.on_frontier)),
            ]),
        }
        Json::Obj(pairs)
    }

    /// Parses one event object (the inverse of [`Event::to_json`]).
    ///
    /// Returns `None` when the object is malformed or its `type` is unknown
    /// — callers decide whether unknown types are fatal (the strict JSONL
    /// parser treats them as errors so schema drift is caught early).
    pub fn from_json(v: &Json) -> Option<Event> {
        match v.get("type")?.as_str()? {
            "manifest" => Some(Event::Manifest(RunManifest {
                schema_version: u32::try_from(v.get("schema_version")?.as_u64()?).ok()?,
                benchmark: v.get("benchmark")?.as_str()?.to_string(),
                pds: v.get("pds")?.as_str()?.to_string(),
                seed: v.get("seed")?.as_u64()?,
                workload_scale: v.get("workload_scale")?.as_f64()?,
                max_cycles: v.get("max_cycles")?.as_u64()?,
                sample_stride: u32::try_from(v.get("sample_stride")?.as_u64()?).ok()?,
                crate_versions: match v.get("crate_versions")? {
                    Json::Obj(pairs) => pairs
                        .iter()
                        .map(|(k, v)| Some((k.clone(), v.as_str()?.to_string())))
                        .collect::<Option<Vec<_>>>()?,
                    _ => return None,
                },
            })),
            "stages" => Some(Event::Stages(
                v.get("stages")?
                    .as_arr()?
                    .iter()
                    .map(|s| {
                        Some(StageSample {
                            stage: s.get("stage")?.as_str()?.to_string(),
                            total_s: s.get("total_s")?.as_f64()?,
                            count: s.get("count")?.as_u64()?,
                        })
                    })
                    .collect::<Option<Vec<_>>>()?,
            )),
            "metrics" => Some(Event::Metrics(MetricsSnapshot::from_json(
                v.get("metrics")?,
            )?)),
            "fault_row" => Some(Event::FaultRow(FaultCampaignRow {
                pds: v.get("pds")?.as_str()?.to_string(),
                fault: v.get("fault")?.as_str()?.to_string(),
                verdict: v.get("verdict")?.as_str()?.to_string(),
                min_sm_v: v.get("min_sm_v")?.as_f64()?,
                below_guardband_fraction: v.get("below_guardband_fraction")?.as_f64()?,
                below_guardband_us: v.get("below_guardband_us")?.as_f64()?,
                retries: v.get("retries")?.as_u64()?,
                sanitized: v.get("sanitized")?.as_u64()?,
                error: match v.get("error")? {
                    Json::Null => None,
                    other => Some(other.as_str()?.to_string()),
                },
            })),
            "dse_point" => Some(Event::DsePoint(DsePointRow {
                point: v.get("point")?.as_str()?.to_string(),
                pde: v.get("pde")?.as_f64()?,
                area_mult: v.get("area_mult")?.as_f64()?,
                worst_v: v.get("worst_v")?.as_f64()?,
                final_v: v.get("final_v")?.as_f64()?,
                on_frontier: v.get("on_frontier")?.as_bool()?,
            })),
            _ => None,
        }
    }
}

/// A failure parsing a JSONL artifact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "artifact line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// A complete run artifact: the ordered event stream of one run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunArtifact {
    /// Events in emission order (manifest first by convention).
    pub events: Vec<Event>,
}

impl RunArtifact {
    /// Serializes to JSONL: one compact JSON object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            out.push_str(&e.to_json().to_string_compact());
            out.push('\n');
        }
        out
    }

    /// Serializes to JSONL with wall-time events ([`Event::is_wall_time`])
    /// dropped: the deterministic view of a run, byte-identical across
    /// repeats of the same seeded experiment regardless of machine load,
    /// thread count, or scheduling.
    pub fn deterministic_jsonl(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            if e.is_wall_time() {
                continue;
            }
            out.push_str(&e.to_json().to_string_compact());
            out.push('\n');
        }
        out
    }

    /// Parses a JSONL stream back into events. Blank lines are skipped;
    /// malformed lines and unknown event types are errors.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] naming the first bad line.
    pub fn parse_jsonl(text: &str) -> Result<RunArtifact, ParseError> {
        let mut events = Vec::new();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let value = json::parse(line).map_err(|e| ParseError {
                line: i + 1,
                message: e.to_string(),
            })?;
            let event = Event::from_json(&value).ok_or_else(|| ParseError {
                line: i + 1,
                message: format!(
                    "unknown or malformed event (type {:?})",
                    value.get("type").and_then(Json::as_str).unwrap_or("?")
                ),
            })?;
            events.push(event);
        }
        Ok(RunArtifact { events })
    }

    /// The manifest, if the stream has one.
    pub fn manifest(&self) -> Option<&RunManifest> {
        self.events.iter().find_map(|e| match e {
            Event::Manifest(m) => Some(m),
            _ => None,
        })
    }

    /// The per-stage wall-time breakdown, if present.
    pub fn stages(&self) -> Option<&[StageSample]> {
        self.events.iter().find_map(|e| match e {
            Event::Stages(s) => Some(s.as_slice()),
            _ => None,
        })
    }

    /// The metrics-registry export, if present.
    pub fn metrics(&self) -> Option<&MetricsSnapshot> {
        self.events.iter().find_map(|e| match e {
            Event::Metrics(m) => Some(m),
            _ => None,
        })
    }

    /// Fault-campaign rows, in order.
    pub fn fault_rows(&self) -> impl Iterator<Item = &FaultCampaignRow> {
        self.events.iter().filter_map(|e| match e {
            Event::FaultRow(r) => Some(r),
            _ => None,
        })
    }

    /// Design-space exploration point rows, in order.
    pub fn dse_points(&self) -> impl Iterator<Item = &DsePointRow> {
        self.events.iter().filter_map(|e| match e {
            Event::DsePoint(p) => Some(p),
            _ => None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_artifact() -> RunArtifact {
        RunArtifact {
            events: vec![
                Event::Manifest(RunManifest {
                    schema_version: SCHEMA_VERSION,
                    benchmark: "heartwall".to_string(),
                    pds: "VS cross-layer".to_string(),
                    seed: 42,
                    workload_scale: 0.15,
                    max_cycles: 1_200_000,
                    sample_stride: 8,
                    crate_versions: vec![("vs-telemetry".to_string(), "0.1.0".to_string())],
                }),
                Event::Stages(vec![StageSample {
                    stage: "circuit_solve".to_string(),
                    total_s: 1.25,
                    count: 100_000,
                }]),
                Event::Metrics(MetricsSnapshot {
                    counters: vec![("executor.groups".to_string(), 12)],
                    gauges: vec![("pde_avg{pds=cross}".to_string(), 0.93)],
                    histograms: Vec::new(),
                }),
                Event::FaultRow(FaultCampaignRow {
                    pds: "VS cross-layer".to_string(),
                    fault: "detector stuck at 0.0 V".to_string(),
                    verdict: "degraded".to_string(),
                    min_sm_v: 0.82,
                    below_guardband_fraction: 0.0,
                    below_guardband_us: 0.0,
                    retries: 0,
                    sanitized: 0,
                    error: None,
                }),
                Event::DsePoint(DsePointRow {
                    point: "stack=4x4,area=0.2,pds=cross,vth=0.9,latency=60,\
                            weights=0.6:0:0.4,detector=oddd,workload=1"
                        .to_string(),
                    pde: 0.94,
                    area_mult: 0.2,
                    worst_v: 0.78,
                    final_v: 0.97,
                    on_frontier: true,
                }),
            ],
        }
    }

    #[test]
    fn jsonl_roundtrip_preserves_every_event() {
        let a = sample_artifact();
        let text = a.to_jsonl();
        assert_eq!(text.lines().count(), a.events.len());
        let parsed = RunArtifact::parse_jsonl(&text).unwrap();
        assert_eq!(parsed, a);
    }

    #[test]
    fn accessors_find_their_events() {
        let a = sample_artifact();
        assert_eq!(a.manifest().unwrap().benchmark, "heartwall");
        assert_eq!(a.stages().unwrap()[0].stage, "circuit_solve");
        assert_eq!(a.metrics().unwrap().counter("executor.groups"), Some(12));
        assert_eq!(a.fault_rows().count(), 1);
        let p = a.dse_points().next().unwrap();
        assert!(p.on_frontier && p.point.contains("stack=4x4"));
    }

    #[test]
    fn unknown_event_type_is_an_error() {
        let err = RunArtifact::parse_jsonl("{\"type\":\"mystery\"}\n").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.message.contains("mystery"));
    }

    #[test]
    fn malformed_json_names_the_line() {
        let text = "{\"type\":\"stages\",\"stages\":[]}\nnot json\n";
        let err = RunArtifact::parse_jsonl(text).unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn blank_lines_are_skipped() {
        let a = RunArtifact {
            events: vec![Event::Stages(Vec::new())],
        };
        let text = format!("\n{}\n\n", a.to_jsonl());
        assert_eq!(RunArtifact::parse_jsonl(&text).unwrap(), a);
    }
}
