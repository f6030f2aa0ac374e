//! Supervision of the lock-step co-simulation: guardband accounting,
//! verdict classification, and structured run failures.
//!
//! [`crate::Cosim::run_supervised`] wraps the ordinary co-simulated run
//! with a supervision layer: it interprets a [`crate::FaultPlan`] every cycle,
//! drives the circuit solver through a [`RecoveryPolicy`], tracks how long
//! each stack layer spends below the 0.8 V timing guardband (the paper's
//! reliability line), and classifies the finished run into a
//! [`RunVerdict`]. Sweeps get a per-cell verdict instead of a panic.

use std::fmt;

use vs_circuit::{RecoveryPolicy, SolverError, StepReport};
use vs_telemetry::RunArtifact;

use crate::cosim::CosimReport;

/// Static configuration of the run supervisor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SupervisorConfig {
    /// The timing guardband, volts: below this an SM is outside its margin
    /// (0.8 V in the paper's reliability analysis).
    pub v_guardband: f64,
    /// Fraction of run cycles a layer may spend below the guardband before
    /// the verdict escalates from `Degraded` to `GuardbandViolated`. Brief
    /// excursions at fault edges are survivable (timing margin is budgeted
    /// statistically); sustained operation below guardband is not.
    pub guardband_tolerance: f64,
    /// Solver-recovery policy installed on the rig for the run.
    pub recovery: RecoveryPolicy,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            v_guardband: 0.8,
            guardband_tolerance: 1e-3,
            recovery: RecoveryPolicy::default(),
        }
    }
}

/// A deterministic stall budget for one run, checked at the top of the
/// [`crate::Cosim::run_supervised`] cycle loop.
///
/// A run needs no wall-clock watchdog: its loop ends at the config's
/// `max_cycles`, and each circuit step makes a bounded number of attempts
/// and halvings under its [`RecoveryPolicy`]. The budget is the hook the
/// executor's chaos `Stall` mode uses to simulate a wedged task without
/// real waiting: a run whose budget trips aborts with
/// [`CosimError::DeadlineExceeded`]. The default
/// ([`CycleBudget::unlimited`]) reduces the check to one `None` branch,
/// whose cost the benchmark's `vs-core.ns_per_cycle` probe records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CycleBudget {
    /// Deterministic trip point: the run aborts once the GPU cycle reaches
    /// this value. `None` = no trip.
    pub trip_at_cycle: Option<u64>,
}

impl CycleBudget {
    /// No limit: the check compiles down to one `None` test per cycle.
    #[must_use]
    pub fn unlimited() -> Self {
        CycleBudget::default()
    }

    /// A deterministic budget that trips once the run reaches `cycle`
    /// (chaos/test hook; no wall clock involved).
    #[must_use]
    pub fn tripping_at(cycle: u64) -> Self {
        CycleBudget {
            trip_at_cycle: Some(cycle),
        }
    }

    /// Whether the budget is exceeded at `cycle`.
    #[inline]
    #[must_use]
    pub fn exceeded(&self, cycle: u64) -> bool {
        self.trip_at_cycle.is_some_and(|trip| cycle >= trip)
    }
}

/// How a supervised run ended, from best to worst.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RunVerdict {
    /// No guardband excursions, no solver recovery needed.
    Healthy,
    /// The run completed, but needed solver recovery or spent (tolerably
    /// little) time below the guardband.
    Degraded,
    /// Some layer spent more than the tolerated fraction of the run below
    /// the 0.8 V guardband: the silicon would have missed timing.
    GuardbandViolated,
    /// The circuit solver gave up even with recovery; results cover only
    /// the cycles before the abort.
    Aborted,
}

impl RunVerdict {
    /// Display label for sweep tables.
    pub fn label(&self) -> &'static str {
        match self {
            RunVerdict::Healthy => "healthy",
            RunVerdict::Degraded => "degraded",
            RunVerdict::GuardbandViolated => "guardband-violated",
            RunVerdict::Aborted => "aborted",
        }
    }
}

impl fmt::Display for RunVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A structured co-simulation failure.
#[derive(Debug, Clone, PartialEq)]
pub enum CosimError {
    /// The circuit solver failed irrecoverably mid-run.
    Solver {
        /// GPU cycle at which the run aborted.
        cycle: u64,
        /// The solver's final error.
        source: SolverError,
    },
    /// The run's [`CycleBudget`] tripped: the task was aborted as
    /// wedged.
    DeadlineExceeded {
        /// GPU cycle at which the budget tripped.
        cycle: u64,
    },
}

impl fmt::Display for CosimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CosimError::Solver { cycle, source } => {
                write!(f, "solver failure at cycle {cycle}: {source}")
            }
            CosimError::DeadlineExceeded { cycle } => {
                write!(f, "task deadline exceeded at cycle {cycle}")
            }
        }
    }
}

impl std::error::Error for CosimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CosimError::Solver { source, .. } => Some(source),
            CosimError::DeadlineExceeded { .. } => None,
        }
    }
}

/// Result of one supervised run: the ordinary report plus the supervisor's
/// findings.
#[derive(Debug, Clone)]
pub struct SupervisedReport {
    /// Overall classification.
    pub verdict: RunVerdict,
    /// The ordinary co-simulation report (partial when `verdict` is
    /// [`RunVerdict::Aborted`]).
    pub report: CosimReport,
    /// Cycles each stack layer spent below the guardband (one entry per
    /// layer; a single entry for single-layer rigs).
    pub below_guardband_cycles: Vec<u64>,
    /// Worst-layer time below the guardband, seconds.
    pub below_guardband_s: f64,
    /// Accumulated solver-recovery activity over the whole run.
    pub recovery: StepReport,
    /// The failure that aborted the run, if any.
    pub error: Option<CosimError>,
    /// The run's stage profile as an artifact of one `stages` event. `Some`
    /// only when the run was given an enabled handle via
    /// [`crate::CosimBuilder::telemetry`].
    pub telemetry: Option<RunArtifact>,
}

impl SupervisedReport {
    /// Worst-layer fraction of run cycles spent below the guardband.
    pub fn below_guardband_fraction(&self) -> f64 {
        if self.report.cycles == 0 {
            0.0
        } else {
            self.below_guardband_cycles
                .iter()
                .copied()
                .max()
                .unwrap_or(0) as f64
                / self.report.cycles as f64
        }
    }
}

/// Classifies a finished run. Factored out of the run loop so the policy is
/// unit-testable without a co-simulation.
pub(crate) fn classify(
    error: Option<&CosimError>,
    below_guardband_cycles: &[u64],
    run_cycles: u64,
    recovery: &StepReport,
    tolerance: f64,
) -> RunVerdict {
    if error.is_some() {
        return RunVerdict::Aborted;
    }
    let worst = below_guardband_cycles.iter().copied().max().unwrap_or(0);
    if run_cycles > 0 && worst as f64 / run_cycles as f64 > tolerance {
        return RunVerdict::GuardbandViolated;
    }
    if worst > 0 || recovery.recovered() {
        return RunVerdict::Degraded;
    }
    RunVerdict::Healthy
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clean() -> StepReport {
        StepReport::default()
    }

    fn retried() -> StepReport {
        StepReport {
            retries: 3,
            ..StepReport::default()
        }
    }

    #[test]
    fn verdict_ordering_tracks_severity() {
        assert!(RunVerdict::Healthy < RunVerdict::Degraded);
        assert!(RunVerdict::Degraded < RunVerdict::GuardbandViolated);
        assert!(RunVerdict::GuardbandViolated < RunVerdict::Aborted);
    }

    #[test]
    fn clean_run_is_healthy() {
        let v = classify(None, &[0, 0, 0, 0], 10_000, &clean(), 1e-3);
        assert_eq!(v, RunVerdict::Healthy);
    }

    #[test]
    fn recovery_activity_degrades() {
        let v = classify(None, &[0, 0], 10_000, &retried(), 1e-3);
        assert_eq!(v, RunVerdict::Degraded);
    }

    #[test]
    fn tolerated_excursion_degrades_sustained_violates() {
        let brief = classify(None, &[5, 0], 10_000, &clean(), 1e-3);
        assert_eq!(brief, RunVerdict::Degraded);
        let sustained = classify(None, &[500, 0], 10_000, &clean(), 1e-3);
        assert_eq!(sustained, RunVerdict::GuardbandViolated);
    }

    #[test]
    fn abort_dominates_everything() {
        let err = CosimError::Solver {
            cycle: 42,
            source: SolverError::Singular { time_s: 1e-6 },
        };
        let v = classify(Some(&err), &[9_999], 10_000, &retried(), 1e-3);
        assert_eq!(v, RunVerdict::Aborted);
        assert!(err.to_string().contains("cycle 42"));
    }

    #[test]
    fn unlimited_budget_never_trips() {
        let b = CycleBudget::unlimited();
        for cycle in [0, 1, 1024, u64::MAX] {
            assert!(!b.exceeded(cycle));
        }
    }

    #[test]
    fn tripping_budget_is_deterministic() {
        let b = CycleBudget::tripping_at(500);
        assert!(!b.exceeded(0));
        assert!(!b.exceeded(499));
        assert!(b.exceeded(500));
        assert!(b.exceeded(501));
    }

    #[test]
    fn deadline_error_formats_and_has_no_source() {
        use std::error::Error as _;
        let e = CosimError::DeadlineExceeded { cycle: 512 };
        assert_eq!(e.to_string(), "task deadline exceeded at cycle 512");
        assert!(e.source().is_none());
        let v = classify(Some(&e), &[0], 1_000, &clean(), 1e-3);
        assert_eq!(v, RunVerdict::Aborted);
    }

    #[test]
    fn guardband_fraction_is_worst_layer() {
        let r = SupervisedReport {
            verdict: RunVerdict::Degraded,
            report: crate::cosim::CosimReport {
                benchmark: String::new(),
                pds: crate::PdsKind::ConventionalVrm,
                cycles: 1_000,
                completed: true,
                instructions: 0,
                ledger: crate::EnergyLedger::default(),
                min_sm_voltage: 0.9,
                max_sm_voltage: 1.1,
                sm_voltage_summaries: Vec::new(),
                throttle_fraction: 0.0,
                imbalance: crate::ImbalanceHistogram::new((1, 16)),
                avg_freq_scale: 1.0,
                gating_saved_j: 0.0,
            },
            below_guardband_cycles: vec![10, 250, 0, 3],
            below_guardband_s: 0.0,
            recovery: StepReport::default(),
            error: None,
            telemetry: None,
        };
        assert!((r.below_guardband_fraction() - 0.25).abs() < 1e-12);
    }
}
