//! # vs-telemetry — structured instrumentation for the co-simulation stack
//!
//! The observability substrate the rest of the workspace reports through:
//!
//! * [`Registry`] / [`MetricsSnapshot`] — named gauges with labels via
//!   [`labeled`], in which experiments record their figure values and dse
//!   its frontier; a snapshot also carries counters, as an executor's trace
//!   carries its run counters.
//! * [`StageProfiler`] — span-style wall-time profiling of the five
//!   co-simulation stages ([`Stage`]), so the benchmark can attribute a
//!   run's cycles to the layer that spent them.
//! * [`RunArtifact`] / [`Event`] — the machine-readable artifact schema: a
//!   JSONL event stream (manifest, metrics, dse points, fault-campaign rows,
//!   stage profiles) that the goldens and regression tooling parse back with
//!   [`RunArtifact::parse_jsonl`] instead of scraping stdout.
//! * [`write_atomic`] / [`fnv1a_64`] / [`checksum_hex`] — crash-safe
//!   artifact plumbing: atomic tmp-file + rename writes and hand-rolled
//!   FNV-1a content checksums, which `vs-bench`'s completion journal
//!   records for every file it verifies on resume.
//! * [`Tracer`] / [`chrome_trace_json`] — executor-level span/instant
//!   tracing of the sweep's task lifecycle (claims, attempts, retries,
//!   quarantine, replay) with Chrome/Perfetto `trace.json` export; wall
//!   times are recorded but excluded from event identity, mirroring the
//!   diff schema's wall-time exclusion.
//! * [`Telemetry`] — the per-run handle: one stage profiler, with a
//!   [`Telemetry::disabled`] mode that reduces every span to a branch (the
//!   perf benchmark guards that this stays under the noise floor).
//!
//! # Examples
//!
//! ```
//! use vs_telemetry::{Event, RunArtifact, Stage, Telemetry};
//!
//! let mut tel = Telemetry::enabled();
//! let span = tel.stages.start();
//! // ... do the circuit solve ...
//! tel.stages.stop(Stage::CircuitSolve, span);
//!
//! let artifact = tel.into_artifact();
//! assert!(matches!(artifact.events.as_slice(), [Event::Stages(_)]));
//! let parsed = RunArtifact::parse_jsonl(&artifact.to_jsonl()).unwrap();
//! let stages = parsed.stages().unwrap();
//! assert_eq!(stages.len(), Stage::ALL.len());
//! assert_eq!(stages[2].stage, "circuit_solve");
//! assert_eq!(stages[2].count, 1);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod diff;
mod events;
mod integrity;
pub mod json;
mod metrics;
mod profile;
mod trace;

pub use diff::{
    base_name, canonical_key, diff_artifacts, diff_snapshots, DiffEntry, DiffOutcome, DiffReport,
    Tolerance, ToleranceSpec,
};
pub use events::{
    DsePointRow, Event, FaultCampaignRow, ParseError, RunArtifact, RunManifest, StageSample,
    SCHEMA_VERSION,
};
pub use integrity::{checksum_hex, fnv1a_64, write_atomic};
pub use metrics::{labeled, MetricsSnapshot, Registry};
pub use profile::{Stage, StageProfiler};
pub use trace::{chrome_trace_json, parse_chrome_trace, TraceEvent, TracePhase, Tracer};

/// This crate's version (recorded in run manifests).
pub fn crate_version() -> &'static str {
    env!("CARGO_PKG_VERSION")
}

/// The per-run instrumentation handle: the stage profiler of one
/// co-simulation run.
///
/// Constructed [`Telemetry::disabled`], every span is a no-op costing a
/// predictable branch — run loops thread it unconditionally and pay
/// nothing when observability is off.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    /// Wall-time profiler for the co-simulation stages; its switch is the
    /// handle's.
    pub stages: StageProfiler,
}

impl Telemetry {
    /// An active handle: stage spans record.
    pub fn enabled() -> Self {
        Telemetry {
            stages: StageProfiler::new(),
        }
    }

    /// A no-op handle.
    pub fn disabled() -> Self {
        Telemetry::default()
    }

    /// Whether anything records.
    pub fn is_enabled(&self) -> bool {
        self.stages.is_enabled()
    }

    /// Closes the handle: an enabled one yields one `stages` event, a
    /// disabled one an empty artifact.
    pub fn into_artifact(self) -> RunArtifact {
        let events = if self.is_enabled() {
            vec![Event::Stages(self.stages.snapshot())]
        } else {
            Vec::new()
        };
        RunArtifact { events }
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
        assert_eq!(t.stages.count(Stage::GpuStep), 0);
        assert!(t.into_artifact().events.is_empty());
    }

    #[test]
    fn enabled_handle_yields_one_stages_event() {
        let mut t = Telemetry::enabled();
        assert!(t.is_enabled());
        for _ in 0..3 {
            let span = t.stages.start();
            t.stages.stop(Stage::CircuitSolve, span);
        }
        let artifact = t.into_artifact();
        assert_eq!(artifact.events.len(), 1);
        let stages = artifact.stages().unwrap();
        assert_eq!(stages.len(), Stage::ALL.len());
        assert_eq!(stages[2].stage, "circuit_solve");
        assert_eq!(stages[2].count, 3);
        assert!(stages.iter().filter(|s| s.stage != "circuit_solve").all(|s| s.count == 0));
        let parsed = RunArtifact::parse_jsonl(&artifact.to_jsonl()).unwrap();
        assert_eq!(parsed, artifact);
    }
}
