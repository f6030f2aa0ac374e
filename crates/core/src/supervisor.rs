//! Supervision of the lock-step co-simulation: guardband accounting,
//! verdict classification, and structured run failures.
//!
//! [`crate::Cosim::run_supervised`] wraps the ordinary co-simulated run
//! with a watchdog layer: it interprets a [`crate::FaultPlan`] every cycle,
//! drives the circuit solver through a [`RecoveryPolicy`], tracks how long
//! each stack layer spends below the 0.8 V timing guardband (the paper's
//! reliability line), and classifies the finished run into a
//! [`RunVerdict`]. Sweeps get a per-cell verdict instead of a panic.

use std::fmt;
use std::time::{Duration, Instant};

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

/// A cooperative watchdog budget for one run, checked at the top of the
/// [`crate::Cosim::run_supervised`] cycle loop.
///
/// The sweep's task watchdog cannot rely on preemption (the dev host has one
/// core, and a wedged solver call would starve any sibling watchdog thread),
/// so the deadline is checked *cooperatively* inside the hot loop: a
/// wall-clock deadline sampled every 1024 cycles (`Instant::now` off the
/// hot path's every-cycle cost), plus a
/// deterministic `trip_at_cycle` hook that test/chaos harnesses use to
/// simulate a stalled task without real waiting. An exceeded budget aborts
/// the run with [`CosimError::DeadlineExceeded`]; the default
/// ([`CycleBudget::unlimited`]) reduces the check to two `None` branches,
/// whose cost the benchmark's `vs-core.ns_per_cycle` probe records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CycleBudget {
    /// Wall-clock deadline; `None` = no wall-clock limit.
    pub deadline: Option<Instant>,
    /// Deterministic trip point: the run aborts once the GPU cycle reaches
    /// this value. `None` = no trip. This is the chaos harness's stall
    /// injection — it behaves exactly like a blown wall-clock deadline
    /// without depending on host speed.
    pub trip_at_cycle: Option<u64>,
}

/// Cycles between wall-clock deadline checks: coarse enough that
/// `Instant::now` never shows up in the stage profile, fine enough that a
/// deadline overshoots by at most a few hundred microseconds of simulation.
const CHECK_STRIDE: u64 = 1024;

impl CycleBudget {
    /// No limits: the check compiles down to two `None` tests per cycle.
    #[must_use]
    pub fn unlimited() -> Self {
        CycleBudget::default()
    }

    /// A wall-clock deadline of `limit` from now, checked every 1024
    /// cycles.
    #[must_use]
    pub fn wall_clock(limit: Duration) -> Self {
        CycleBudget {
            deadline: Some(Instant::now() + limit),
            trip_at_cycle: None,
        }
    }

    /// A deterministic budget that trips once the run reaches `cycle`
    /// (chaos/test hook; no wall clock involved).
    #[must_use]
    pub fn tripping_at(cycle: u64) -> Self {
        CycleBudget {
            deadline: None,
            trip_at_cycle: Some(cycle),
        }
    }

    /// Whether the budget is exceeded at `cycle`. Cheap when unlimited;
    /// samples the wall clock only every 1024 cycles.
    #[inline]
    #[must_use]
    pub fn exceeded(&self, cycle: u64) -> bool {
        if let Some(trip) = self.trip_at_cycle {
            if cycle >= trip {
                return true;
            }
        }
        if let Some(deadline) = self.deadline {
            if cycle.is_multiple_of(CHECK_STRIDE) && Instant::now() >= deadline {
                return true;
            }
        }
        false
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
    /// The run's [`CycleBudget`] was exceeded (watchdog deadline or a
    /// deterministic trip): the task was aborted as wedged.
    DeadlineExceeded {
        /// GPU cycle at which the watchdog fired.
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

/// Result of one supervised run: the ordinary report plus the watchdog's
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
    /// The machine-readable run artifact (manifest, decimated cycle samples,
    /// stage profile, end-of-run stats). `Some` only when the run was given
    /// an enabled handle via [`crate::CosimBuilder::telemetry`].
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
    fn wall_clock_budget_checks_only_on_stride() {
        // A deadline already in the past must trip on stride boundaries and
        // stay quiet between them (the hot loop never pays Instant::now
        // off-stride).
        let b = CycleBudget {
            deadline: Some(Instant::now() - Duration::from_secs(1)),
            trip_at_cycle: None,
        };
        assert!(b.exceeded(0));
        assert!(!b.exceeded(1));
        assert!(!b.exceeded(1023));
        assert!(b.exceeded(2048));
        // A generous deadline does not trip.
        let b = CycleBudget::wall_clock(Duration::from_secs(3600));
        assert!(!b.exceeded(0));
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
