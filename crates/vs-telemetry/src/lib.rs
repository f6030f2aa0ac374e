//! # vs-telemetry — structured instrumentation for the co-simulation stack
//!
//! The observability substrate the rest of the workspace reports through:
//!
//! * [`Registry`] — a low-overhead metrics store (counters, gauges,
//!   fixed-bucket [`Histogram`]s) with per-SM/per-layer labels via
//!   [`labeled`]. Hot loops keep plain local counters and flush here at
//!   decimated boundaries; a disabled registry turns every mutator into a
//!   cheap early-return.
//! * [`StageProfiler`] — span-style wall-time profiling of the five
//!   co-simulation stages ([`Stage`]), so `vs-bench` can print where the
//!   cycles of a run actually went.
//! * [`RunArtifact`] / [`Event`] — the machine-readable run schema: a JSONL
//!   event stream (manifest + decimated samples + end-of-run summaries)
//!   that figures, fault campaigns, and regression tooling parse back with
//!   [`RunArtifact::parse_jsonl`] instead of scraping stdout.
//! * [`JournalRecord`] / [`write_atomic`] / [`fnv1a_64`] — crash-safe
//!   artifact plumbing: atomic tmp-file + rename writes, hand-rolled
//!   FNV-1a content checksums, and the append-only completion journal the
//!   sweep's `--resume` replays (see the `journal` module docs).
//! * [`Tracer`] / [`chrome_trace_json`] — executor-level span/instant
//!   tracing of the sweep's task lifecycle (claims, attempts, retries,
//!   quarantine, replay) with Chrome/Perfetto `trace.json` export; wall
//!   times are recorded but excluded from event identity, mirroring the
//!   diff schema's wall-time exclusion.
//! * [`Telemetry`] — the per-run handle bundling all three, with a
//!   [`Telemetry::disabled`] mode that reduces every instrumentation point
//!   to a branch (the perf benchmark guards this stays under the noise
//!   floor).
//!
//! # Examples
//!
//! ```
//! use vs_telemetry::{Event, RunArtifact, SolverHealth, Stage, Telemetry};
//!
//! let mut tel = Telemetry::enabled();
//! let span = tel.stages.start();
//! // ... do the circuit solve ...
//! tel.stages.stop(Stage::CircuitSolve, span);
//! tel.registry.inc("solver.retries", 1);
//! tel.emit(|| Event::Solver(SolverHealth { retries: 1, ..Default::default() }));
//!
//! let artifact = tel.into_artifact();
//! let parsed = RunArtifact::parse_jsonl(&artifact.to_jsonl()).unwrap();
//! assert_eq!(parsed.solver().unwrap().retries, 1);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod diff;
mod events;
mod journal;
pub mod json;
mod metrics;
mod profile;
mod trace;

pub use diff::{
    base_name, canonical_key, diff_artifacts, diff_snapshots, DiffEntry, DiffOutcome, DiffReport,
    Tolerance, ToleranceSpec,
};
pub use events::{
    ActuatorDuty, CycleSample, DsePointRow, Event, FaultCampaignRow, GpuCounters, GuardbandStats,
    ParseError, RunArtifact, RunManifest, RunSummary, SolverHealth, StageSample, SCHEMA_VERSION,
};
pub use journal::{
    append_journal, checksum_hex, fnv1a_64, read_journal, write_atomic, DegradedEntry,
    JournalRecord,
};
pub use metrics::{
    bucket_quantile, labeled, Histogram, HistogramSnapshot, MetricsSnapshot, Registry,
};
pub use profile::{Stage, StageProfiler};
pub use trace::{
    chrome_trace_json, lifecycle_json, parse_chrome_trace, TraceEvent, TracePhase, Tracer,
};

/// This crate's version (recorded in run manifests).
pub fn crate_version() -> &'static str {
    env!("CARGO_PKG_VERSION")
}

/// The per-run instrumentation handle: a metrics registry, a stage
/// profiler, and the growing event stream, all sharing one enable switch.
///
/// Constructed [`Telemetry::disabled`], every operation is a no-op costing
/// a predictable branch — run loops thread it unconditionally and pay
/// nothing when observability is off.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    enabled: bool,
    /// Metrics store (counters / gauges / histograms).
    pub registry: Registry,
    /// Wall-time profiler for the co-simulation stages.
    pub stages: StageProfiler,
    events: Vec<Event>,
}

impl Telemetry {
    /// An active handle: spans, metrics, and events all record.
    pub fn enabled() -> Self {
        Telemetry {
            enabled: true,
            registry: Registry::new(),
            stages: StageProfiler::new(),
            events: Vec::new(),
        }
    }

    /// A no-op handle.
    pub fn disabled() -> Self {
        Telemetry::default()
    }

    /// Whether anything records.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Appends an event to the stream. The closure only runs when enabled,
    /// so building the event costs nothing on the disabled path.
    #[inline]
    pub fn emit(&mut self, build: impl FnOnce() -> Event) {
        if self.enabled {
            self.events.push(build());
        }
    }

    /// Events emitted so far.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Closes the handle: appends the stage-profile and metrics exports to
    /// the stream (when enabled and non-empty) and returns the artifact.
    pub fn into_artifact(mut self) -> RunArtifact {
        if self.enabled {
            self.events.push(Event::Stages(self.stages.snapshot()));
            if !self.registry.is_empty() {
                self.events.push(Event::Metrics(self.registry.snapshot()));
            }
        }
        RunArtifact {
            events: self.events,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let mut t = Telemetry::disabled();
        assert!(!t.is_enabled());
        let span = t.stages.start();
        assert!(span.is_none());
        t.stages.stop(Stage::GpuStep, span);
        t.registry.inc("x", 1);
        let mut built = false;
        t.emit(|| {
            built = true;
            Event::Solver(SolverHealth::default())
        });
        assert!(!built, "event builder must not run when disabled");
        let artifact = t.into_artifact();
        assert!(artifact.events.is_empty());
    }

    #[test]
    fn enabled_handle_collects_everything() {
        let mut t = Telemetry::enabled();
        t.stages.time(Stage::CircuitSolve, || std::hint::black_box(2 + 2));
        t.registry.inc("solver.retries", 4);
        t.emit(|| {
            Event::Solver(SolverHealth {
                retries: 4,
                ..Default::default()
            })
        });
        let artifact = t.into_artifact();
        assert_eq!(artifact.solver().unwrap().retries, 4);
        let stages = artifact.stages().unwrap();
        assert_eq!(stages.len(), Stage::ALL.len());
        assert_eq!(
            artifact.metrics().unwrap().counter("solver.retries"),
            Some(4)
        );
    }

    #[test]
    fn artifact_roundtrips_through_jsonl() {
        let mut t = Telemetry::enabled();
        t.registry.observe("v", &[0.9, 1.0], 0.95);
        t.emit(|| {
            Event::Sample(CycleSample {
                cycle: 16,
                time_s: 2.3e-8,
                min_sm_v: 0.98,
                max_sm_v: 1.02,
                layer_min_v: vec![0.98, 1.0],
                throttled_sms: 0,
            })
        });
        let artifact = t.into_artifact();
        let parsed = RunArtifact::parse_jsonl(&artifact.to_jsonl()).unwrap();
        assert_eq!(parsed, artifact);
    }
}
