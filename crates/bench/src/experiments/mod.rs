//! The experiment catalogue: every table/figure of the paper's evaluation
//! as a named, seeded function from [`RunSettings`] to text + a
//! machine-readable artifact.
//!
//! Each experiment writes the exact stdout its historical binary printed
//! (`sweep show <id>` prints it) *and* records headline numbers as gauges in
//! a metrics registry; [`ExperimentId::run`] wraps both
//! in a [`vs_telemetry::RunArtifact`] whose manifest pins the settings. The
//! artifact contains no wall-time events — timing is appended by the sweep
//! runner as a schema-tagged wall-time event that diffs exclude.

use vs_telemetry::{labeled, Event, Registry, RunArtifact, RunManifest, SCHEMA_VERSION};

use crate::{Executor, RunSettings};

mod ablations;
mod figures;
mod tables;

/// One table/figure/ablation of the evaluation, runnable by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum ExperimentId {
    Table1,
    Table2,
    Table3,
    Fig3,
    Fig5,
    Fig8,
    Fig9,
    Fig10,
    Fig11,
    Fig12,
    Fig13,
    Fig14,
    Fig15,
    Fig16,
    Fig17,
    AblationDetector,
    AblationCrivr,
    AblationStack,
    AblationIntegration,
    AblationBode,
}

impl ExperimentId {
    /// Every experiment, in canonical (`sweep show`) order.
    pub const ALL: [ExperimentId; 20] = [
        ExperimentId::Table1,
        ExperimentId::Table2,
        ExperimentId::Fig3,
        ExperimentId::Fig5,
        ExperimentId::Fig9,
        ExperimentId::Fig10,
        ExperimentId::Fig8,
        ExperimentId::Table3,
        ExperimentId::Fig11,
        ExperimentId::Fig12,
        ExperimentId::Fig13,
        ExperimentId::Fig14,
        ExperimentId::Fig15,
        ExperimentId::Fig16,
        ExperimentId::Fig17,
        ExperimentId::AblationDetector,
        ExperimentId::AblationCrivr,
        ExperimentId::AblationStack,
        ExperimentId::AblationIntegration,
        ExperimentId::AblationBode,
    ];

    /// The experiment's name — its `sweep show` id and its artifact file
    /// stem.
    pub fn name(self) -> &'static str {
        match self {
            ExperimentId::Table1 => "table1",
            ExperimentId::Table2 => "table2",
            ExperimentId::Table3 => "table3",
            ExperimentId::Fig3 => "fig3",
            ExperimentId::Fig5 => "fig5",
            ExperimentId::Fig8 => "fig8",
            ExperimentId::Fig9 => "fig9",
            ExperimentId::Fig10 => "fig10",
            ExperimentId::Fig11 => "fig11",
            ExperimentId::Fig12 => "fig12",
            ExperimentId::Fig13 => "fig13",
            ExperimentId::Fig14 => "fig14",
            ExperimentId::Fig15 => "fig15",
            ExperimentId::Fig16 => "fig16",
            ExperimentId::Fig17 => "fig17",
            ExperimentId::AblationDetector => "ablation_detector",
            ExperimentId::AblationCrivr => "ablation_crivr",
            ExperimentId::AblationStack => "ablation_stack",
            ExperimentId::AblationIntegration => "ablation_integration",
            ExperimentId::AblationBode => "ablation_bode",
        }
    }

    /// Looks an experiment up by name.
    pub fn from_name(name: &str) -> Option<ExperimentId> {
        ExperimentId::ALL.into_iter().find(|id| id.name() == name)
    }

    /// Whether the experiment's results depend on [`RunSettings`] (the
    /// co-simulation suites do; the structural tables, worst-case scenarios,
    /// and circuit ablations are settings-free).
    pub fn settings_dependent(self) -> bool {
        matches!(
            self,
            ExperimentId::Table3
                | ExperimentId::Fig8
                | ExperimentId::Fig11
                | ExperimentId::Fig12
                | ExperimentId::Fig13
                | ExperimentId::Fig14
                | ExperimentId::Fig15
                | ExperimentId::Fig16
                | ExperimentId::Fig17
        )
    }

    /// Runs the experiment, its co-simulation suites on `exec`:
    /// deterministic in `settings` (and only in `settings` — no wall time,
    /// thread identity, executor, or global order enters the result).
    pub fn run(self, exec: &Executor, settings: &RunSettings) -> ExperimentOutput {
        let mut r = Recorder::new();
        match self {
            ExperimentId::Table1 => tables::table1(&mut r),
            ExperimentId::Table2 => tables::table2(&mut r),
            ExperimentId::Table3 => tables::table3(exec, settings, &mut r),
            ExperimentId::Fig3 => figures::fig3(&mut r),
            ExperimentId::Fig5 => figures::fig5(&mut r),
            ExperimentId::Fig8 => figures::fig8(exec, settings, &mut r),
            ExperimentId::Fig9 => figures::fig9(&mut r),
            ExperimentId::Fig10 => figures::fig10(&mut r),
            ExperimentId::Fig11 => figures::fig11(settings, &mut r),
            ExperimentId::Fig12 => figures::fig12(exec, settings, &mut r),
            ExperimentId::Fig13 => figures::fig13(exec, settings, &mut r),
            ExperimentId::Fig14 => figures::fig14(exec, settings, &mut r),
            ExperimentId::Fig15 => figures::fig15(exec, settings, &mut r),
            ExperimentId::Fig16 => figures::fig16(exec, settings, &mut r),
            ExperimentId::Fig17 => figures::fig17(exec, settings, &mut r),
            ExperimentId::AblationDetector => ablations::detector(&mut r),
            ExperimentId::AblationCrivr => ablations::crivr(&mut r),
            ExperimentId::AblationStack => ablations::stack(&mut r),
            ExperimentId::AblationIntegration => ablations::integration(&mut r),
            ExperimentId::AblationBode => ablations::bode(&mut r),
        }
        r.into_output(self, settings)
    }
}

impl std::fmt::Display for ExperimentId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Error for a name outside the experiment catalogue (the
/// [`std::str::FromStr`] counterpart of `vs_core::UnknownScenario`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownExperiment {
    /// The rejected name.
    pub name: String,
}

impl std::fmt::Display for UnknownExperiment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unknown experiment {:?} (see `sweep list`)", self.name)
    }
}

impl std::error::Error for UnknownExperiment {}

impl std::str::FromStr for ExperimentId {
    type Err = UnknownExperiment;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        ExperimentId::from_name(s).ok_or_else(|| UnknownExperiment {
            name: s.to_string(),
        })
    }
}

/// What one experiment produced: the exact stdout text and the structured
/// artifact the regression tooling consumes.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentOutput {
    /// The text the historical binary printed (byte-for-byte).
    pub text: String,
    /// Manifest + metrics, ready to serialize as JSONL.
    pub artifact: RunArtifact,
}

/// Collects an experiment's two outputs as it runs: printed text and
/// gauges.
#[derive(Debug, Default)]
pub struct Recorder {
    text: String,
    registry: Registry,
}

impl Recorder {
    fn new() -> Self {
        Recorder {
            text: String::new(),
            registry: Registry::new(),
        }
    }

    /// Appends one stdout line (a terminating newline is added).
    pub fn line(&mut self, s: &str) {
        self.text.push_str(s);
        self.text.push('\n');
    }

    /// Appends a formatted table (see [`crate::format_table`]).
    pub fn table(&mut self, title: &str, headers: &[&str], rows: &[Vec<String>]) {
        self.text.push_str(&crate::format_table(title, headers, rows));
    }

    /// Records a headline number.
    pub fn gauge(&mut self, name: &str, value: f64) {
        self.registry.set_gauge(name, value);
    }

    /// Records a headline number under a labeled key (`name{k=v,...}`).
    pub fn gauge_labeled(&mut self, name: &str, labels: &[(&str, &str)], value: f64) {
        self.registry.set_gauge(&labeled(name, labels), value);
    }

    fn into_output(self, id: ExperimentId, settings: &RunSettings) -> ExperimentOutput {
        let manifest = RunManifest {
            schema_version: SCHEMA_VERSION,
            benchmark: id.name().to_string(),
            pds: "experiment".to_string(),
            seed: settings.seed,
            workload_scale: settings.workload_scale,
            max_cycles: settings.max_cycles,
            sample_stride: 0,
            crate_versions: vec![
                ("vs-bench".to_string(), env!("CARGO_PKG_VERSION").to_string()),
                (
                    "vs-telemetry".to_string(),
                    vs_telemetry::crate_version().to_string(),
                ),
            ],
        };
        let artifact = RunArtifact {
            events: vec![
                Event::Manifest(manifest),
                Event::Metrics(self.registry.snapshot()),
            ],
        };
        ExperimentOutput {
            text: self.text,
            artifact,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_roundtrip_and_are_unique() {
        for id in ExperimentId::ALL {
            assert_eq!(ExperimentId::from_name(id.name()), Some(id));
        }
        let mut names: Vec<_> = ExperimentId::ALL.iter().map(|i| i.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ExperimentId::ALL.len());
        assert_eq!(ExperimentId::from_name("fig999"), None);
    }

    /// The `Display`/`FromStr` round-trip contract, shared with
    /// `vs_core::ScenarioId`: `to_string` emits exactly the canonical name
    /// and `parse` inverts it, with a typed error for unknown names.
    #[test]
    fn display_fromstr_roundtrip_contract() {
        for id in ExperimentId::ALL {
            assert_eq!(id.to_string(), id.name());
            assert_eq!(id.to_string().parse::<ExperimentId>(), Ok(id));
        }
        for id in vs_core::ScenarioId::ALL {
            assert_eq!(id.to_string(), id.name());
            assert_eq!(id.to_string().parse::<vs_core::ScenarioId>(), Ok(id));
        }
        let e = "fig999".parse::<ExperimentId>().unwrap_err();
        assert_eq!(e.name, "fig999");
        assert!(e.to_string().contains("fig999"));
    }

    /// Experiment and scenario names stay inside the `ConfigPoint` grammar's
    /// word alphabet (lowercase + digits + underscore, no commas/equals/
    /// pipes), so either can serve verbatim as a `k=v` word or a metric
    /// label value (see [`crate::space`]).
    #[test]
    fn names_align_with_the_sweep_grammar() {
        let ok = |s: &str| {
            !s.is_empty()
                && s.chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
        };
        for id in ExperimentId::ALL {
            assert!(ok(id.name()), "experiment name breaks the grammar: {id}");
        }
        for id in vs_core::ScenarioId::ALL {
            assert!(ok(id.name()), "scenario name breaks the grammar: {id}");
        }
    }

    #[test]
    fn nine_experiments_depend_on_settings() {
        let n = ExperimentId::ALL
            .iter()
            .filter(|i| i.settings_dependent())
            .count();
        assert_eq!(n, 9);
    }

    #[test]
    fn cheap_experiment_produces_manifest_and_metrics() {
        let settings = RunSettings::tiny_profile();
        let out = ExperimentId::Table2.run(&Executor::default(), &settings);
        assert!(out.text.contains("Table II"));
        let m = out.artifact.manifest().unwrap();
        assert_eq!(m.benchmark, "table2");
        assert_eq!(m.seed, settings.seed);
        assert_eq!(m.max_cycles, settings.max_cycles);
        assert!(!out.artifact.metrics().unwrap().gauges.is_empty());
        // No wall-time events in the base artifact.
        assert!(out.artifact.events.iter().all(|e| !e.is_wall_time()));
    }
}
