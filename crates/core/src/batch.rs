//! Pooled co-simulation: run many scenarios back-to-back on reusable
//! circuit-solver workspaces, alone or as groups sharing one GPU trunk.
//!
//! Every [`Cosim`](crate::Cosim) owns a transient circuit solver whose warm-up —
//! matrix/vector buffers, LU scratch, and the DC operating point of the
//! netlist — is pure overhead when runs execute in sequence (a suite sweep,
//! a parameter scan, a fault campaign). [`CosimPool`] keeps its
//! [`SolverWorkspace`]s alive across runs: each run is constructed *in* a
//! workspace, and torn back *into* it when it finishes. Reuse never changes
//! results (the workspace re-initializes from the netlist; the DC cache only
//! applies on an exact netlist fingerprint match), which the
//! `workspace_reuse` integration test asserts bit-for-bit.
//!
//! [`CosimPool::run_group`] runs several configurations of one workload
//! that share a [`TrunkKey`] on one GPU trunk (see the `cosim` module
//! docs): the group's runs tick one GPU until their SM controls diverge,
//! and each report is bit-identical to running that configuration alone
//! (the `trunk_group` integration test). The pool keeps one workspace per
//! group position, so position `i` of every group reuses the same
//! workspace. It is the pool's one way into the co-simulation:
//! [`CosimPool::run_profile`] and [`CosimPool::run_scenario`] are groups of
//! one, and a fault-campaign cell is a one-member group carrying its plan.

use vs_circuit::SolverWorkspace;
use vs_gpu::WorkloadProfile;

use crate::config::CosimConfig;
use crate::cosim::{run_group, CosimReport, GroupOutcome, GroupRun, PowerManagement};
use crate::fault::FaultPlan;
use crate::scenarios::ScenarioId;
use crate::supervisor::{CycleBudget, SupervisorConfig};

/// Runs scenarios back-to-back, recycling [`SolverWorkspace`]s so every
/// run after the first skips the circuit solver's warm-up allocations (and,
/// for a repeated PDS configuration, its DC operating-point solve).
///
/// # Examples
///
/// ```no_run
/// use vs_core::{CosimConfig, CosimPool, ScenarioId};
///
/// let cfg = CosimConfig::default();
/// let mut pool = CosimPool::new();
/// for id in ScenarioId::ALL {
///     let report = pool.run_scenario(&cfg, id);
///     println!("{id}: PDE {:.1}%", 100.0 * report.pde());
/// }
/// assert_eq!(pool.runs(), 12);
/// ```
#[derive(Debug, Default)]
pub struct CosimPool {
    /// One workspace per group position; single runs use the first.
    workspaces: Vec<SolverWorkspace>,
}

impl CosimPool {
    /// An empty pool; each workspace warms up on its first run.
    pub fn new() -> Self {
        Self::default()
    }

    /// How many runs served their DC operating point from the pool's cache
    /// instead of recomputing it. Only single-layer rigs solve a DC
    /// operating point (stacked rigs initialize analytically), so this
    /// stays 0 for a pool that only ran stacked rigs.
    pub fn dc_cache_hits(&self) -> u64 {
        self.workspaces.iter().map(SolverWorkspace::dc_cache_hits).sum()
    }

    /// How many runs have gone through this pool.
    pub fn runs(&self) -> u64 {
        self.workspaces.iter().map(SolverWorkspace::runs).sum()
    }

    /// The first `n` workspaces, created on first use.
    fn workspaces(&mut self, n: usize) -> &mut [SolverWorkspace] {
        if self.workspaces.len() < n {
            self.workspaces.resize_with(n, SolverWorkspace::new);
        }
        &mut self.workspaces[..n]
    }

    /// Runs one catalogue scenario under `cfg` on the pooled workspace.
    ///
    /// # Panics
    ///
    /// Panics if the circuit solver fails irrecoverably (see
    /// [`Cosim::run`](crate::Cosim::run)).
    pub fn run_scenario(&mut self, cfg: &CosimConfig, id: ScenarioId) -> CosimReport {
        self.run_profile(cfg, &id.profile(), PowerManagement::default())
    }

    /// Runs one workload profile under `cfg` with power management on the
    /// pooled workspace: a one-member [`CosimPool::run_group`] without
    /// faults or watchdog, bit-identical to [`Cosim::run`](crate::Cosim::run).
    ///
    /// # Panics
    ///
    /// Panics if the circuit solver fails irrecoverably (see
    /// [`Cosim::run`](crate::Cosim::run)).
    pub fn run_profile(
        &mut self,
        cfg: &CosimConfig,
        profile: &WorkloadProfile,
        pm: PowerManagement,
    ) -> CosimReport {
        let run = GroupRun {
            cfg: cfg.clone(),
            pm,
            budget: CycleBudget::unlimited(),
            plan: FaultPlan::none(),
        };
        let mut outcome = self.run_group(profile, &[run], &SupervisorConfig::default());
        let run = outcome.reports.pop().expect("one run, one report");
        if let Some(e) = run.error {
            panic!("PDS transient step: {e}");
        }
        run.report
    }

    /// Runs `runs` of `profile` as one group on one GPU trunk, run `i` in
    /// the pool's workspace `i`, each under its own watchdog budget and
    /// fault plan. Each report is bit-identical to
    /// [`Cosim::run_supervised`](crate::Cosim::run_supervised) of that run
    /// alone; a watchdog trip, fault or solver failure ends that run only.
    /// The workspaces are recovered however the runs end. Every run of the
    /// pool goes through here.
    ///
    /// # Panics
    ///
    /// Panics if `runs` is empty or its runs do not share one
    /// [`crate::TrunkKey`].
    pub fn run_group(
        &mut self,
        profile: &WorkloadProfile,
        runs: &[GroupRun],
        sup: &SupervisorConfig,
    ) -> GroupOutcome {
        run_group(profile, runs, sup, self.workspaces(runs.len()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PdsKind;
    use crate::supervisor::CosimError;

    fn tiny(pds: PdsKind) -> CosimConfig {
        CosimConfig {
            pds,
            workload_scale: 0.02,
            max_cycles: 40_000,
            ..CosimConfig::default()
        }
    }

    #[test]
    fn pool_reuses_dc_operating_point_across_runs() {
        let cfg = tiny(PdsKind::ConventionalVrm);
        let mut pool = CosimPool::new();
        let a = pool.run_scenario(&cfg, ScenarioId::Heartwall);
        let b = pool.run_scenario(&cfg, ScenarioId::Heartwall);
        assert_eq!(pool.runs(), 2);
        // Same PDS kind → same netlist fingerprint → the second run's DC
        // solve comes from the cache.
        assert_eq!(pool.dc_cache_hits(), 1);
        assert!(a.completed && b.completed);
        assert_eq!(a.cycles, b.cycles);
    }

    #[test]
    fn pool_and_reports_are_send() {
        // The sweep parks one pool per worker thread and moves reports
        // across threads for assembly; both must stay `Send`.
        fn assert_send<T: Send>() {}
        assert_send::<CosimPool>();
        assert_send::<CosimReport>();
        assert_send::<SolverWorkspace>();
    }

    #[test]
    fn tripped_budget_errors_and_keeps_workspace_warm() {
        let cfg = tiny(PdsKind::ConventionalVrm);
        let profile = ScenarioId::Heartwall.profile();
        let sup = SupervisorConfig::default();
        let run = |budget| GroupRun {
            cfg: cfg.clone(),
            pm: PowerManagement::default(),
            budget,
            plan: FaultPlan::none(),
        };
        let mut pool = CosimPool::new();
        // Warm the DC cache, then trip a budget deterministically mid-run.
        let ok = pool.run_scenario(&cfg, ScenarioId::Heartwall);
        assert!(ok.completed);
        let tripped = pool.run_group(&profile, &[run(CycleBudget::tripping_at(100))], &sup);
        assert!(matches!(
            tripped.reports[0].error,
            Some(CosimError::DeadlineExceeded { cycle: 100 })
        ));
        // The workspace survived the failed run: the next run still serves
        // its DC operating point from the cache.
        let hits = pool.dc_cache_hits();
        let again = pool.run_group(&profile, &[run(CycleBudget::unlimited())], &sup);
        assert!(again.reports[0].error.is_none());
        assert!(again.reports[0].report.completed);
        assert_eq!(pool.dc_cache_hits(), hits + 1);
        assert_eq!(again.reports[0].report.cycles, ok.cycles);
    }

    #[test]
    fn pool_switches_pds_kinds_safely() {
        let mut pool = CosimPool::new();
        let conv = pool.run_scenario(&tiny(PdsKind::ConventionalVrm), ScenarioId::Bfs);
        let vs = pool.run_scenario(
            &tiny(PdsKind::VsCrossLayer { area_mult: 0.2 }),
            ScenarioId::Bfs,
        );
        assert!(conv.completed && vs.completed);
        assert!(vs.pde() > conv.pde(), "{} vs {}", vs.pde(), conv.pde());
    }
}
