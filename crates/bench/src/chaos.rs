//! Orchestration-layer chaos injection: the upward extension of the PR-1
//! `FaultPlan` idea from the *circuit* to the *scheduler*.
//!
//! A [`ChaosPlan`] is a seeded schedule of failures for the executor's own
//! machinery — worker panics, stalled tasks, and torn cache writes. A test
//! installs one on an executor ([`crate::Executor::with_chaos`]), which
//! keeps it with its tear-once bookkeeping, so the crash-safety tier can
//! prove the sweep survives every mode and `--resume` converges to
//! bit-identical artifacts, and two executors in one process never see
//! each other's plan. Injection points, each reading its executor's plan:
//!
//! * `chaos_for` — consulted by the executor before each scenario
//!   attempt. `Panic` panics inside the isolation boundary; `Stall` runs the
//!   attempt under a deterministic [`vs_core::CycleBudget`] that trips at a
//!   chosen cycle, exercising the deadline/retry path without wall-clock
//!   waits. No production run sets a budget: a run is bounded by its cycle
//!   cap and the solver's recovery policy.
//! * `panics_trunk` — consulted by dse before each attempt of a trunk
//!   task, keyed by the trunk as `chaos_for` is by scenario; a trunk listed
//!   in [`ChaosPlan::trunk_panics`] panics inside the isolation boundary.
//! * `torn_write` — consulted by every journaled write (scenario reports,
//!   dse points and serve experiment artifacts). A matching file is
//!   written *directly* (no
//!   tmp + rename), truncated at a seeded offset, and its journal record is
//!   suppressed — exactly the on-disk state a `SIGKILL` between write and
//!   journal append leaves behind. Each name tears at most once per
//!   executor, so a resumed run heals.
//!
//! Nothing here runs in production: an executor built without a plan has
//! an empty one, and every hook finds nothing scheduled.

use std::collections::HashSet;
use std::sync::Mutex;

use vs_core::ScenarioId;
use vs_telemetry::fnv1a_64;

/// What to inject into a scenario attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosMode {
    /// Panic inside the isolation boundary (exercises `catch_unwind` + pool
    /// rebuild).
    Panic,
    /// Trip the attempt's cycle budget at this cycle (exercises the
    /// deadline/retry path without real stalls).
    Stall {
        /// Cycle at which the injected budget trips.
        at_cycle: u64,
    },
}

/// One scheduled failure: a scenario, a mode, and how many leading attempts
/// it poisons (`attempts >=` [`crate::shard::MAX_ATTEMPTS`] forces
/// quarantine).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosEvent {
    /// Which scenario's tasks to sabotage (every suite's instance of it).
    pub scenario: ScenarioId,
    /// What to inject.
    pub mode: ChaosMode,
    /// Inject on attempts `0..attempts`; later retries run clean.
    pub attempts: u32,
}

/// A seeded chaos schedule for one executor.
#[derive(Debug, Clone, Default)]
pub struct ChaosPlan {
    /// Seed for torn-write offsets.
    pub seed: u64,
    /// Scenario-task failures.
    pub tasks: Vec<ChaosEvent>,
    /// File names (not paths) whose next write is torn.
    pub torn_writes: Vec<String>,
    /// dse trunk tasks that panic: each trunk's coordinates in the point
    /// grammar (`stack=4x4,area=0.2,workload=1`) and how many leading
    /// attempts panic.
    pub trunk_panics: Vec<(String, u32)>,
}

/// A [`ChaosPlan`] installed on one executor, with the names it has torn
/// so far (each tears once).
#[derive(Debug, Default)]
pub(crate) struct Chaos {
    plan: ChaosPlan,
    torn_done: Mutex<HashSet<String>>,
}

impl Chaos {
    /// Installs `plan`, nothing torn yet.
    #[must_use]
    pub(crate) fn new(plan: ChaosPlan) -> Chaos {
        Chaos {
            plan,
            torn_done: Mutex::new(HashSet::new()),
        }
    }

    /// The failure scheduled for `scenario` on `attempt`, if any.
    #[must_use]
    pub(crate) fn chaos_for(&self, scenario: ScenarioId, attempt: u32) -> Option<ChaosMode> {
        self.plan
            .tasks
            .iter()
            .find(|e| e.scenario == scenario && attempt < e.attempts)
            .map(|e| e.mode)
    }

    /// Whether the dse trunk task named `trunk` is scheduled to panic on
    /// `attempt`.
    #[must_use]
    pub(crate) fn panics_trunk(&self, trunk: &str, attempt: u32) -> bool {
        self.plan
            .trunk_panics
            .iter()
            .any(|(name, attempts)| name == trunk && attempt < *attempts)
    }

    /// If `name`'s write is scheduled to tear (and has not torn yet under
    /// this plan), consumes the event and returns the seeded truncation
    /// offset in `1..len` (`None` for empty payloads — nothing to tear).
    pub(crate) fn torn_write(&self, name: &str, len: usize) -> Option<usize> {
        if len < 2 || !self.plan.torn_writes.iter().any(|n| n == name) {
            return None;
        }
        if !self
            .torn_done
            .lock()
            .expect("chaos bookkeeping poisoned")
            .insert(name.to_string())
        {
            return None;
        }
        let h = fnv1a_64(format!("torn:{}:{name}", self.plan.seed).as_bytes());
        Some(1 + (h as usize) % (len - 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_schedules_and_consumes_deterministically() {
        let none = Chaos::default();
        assert_eq!(none.chaos_for(ScenarioId::Bfs, 0), None);
        assert_eq!(none.torn_write("a.jsonl", 100), None);

        let chaos = Chaos::new(ChaosPlan {
            seed: 7,
            tasks: vec![
                ChaosEvent {
                    scenario: ScenarioId::Bfs,
                    mode: ChaosMode::Panic,
                    attempts: 2,
                },
                ChaosEvent {
                    scenario: ScenarioId::Hotspot,
                    mode: ChaosMode::Stall { at_cycle: 500 },
                    attempts: 1,
                },
            ],
            torn_writes: vec!["a.jsonl".to_string()],
            trunk_panics: vec![],
        });
        // Attempt gating: first N attempts poisoned, later ones clean.
        assert_eq!(chaos.chaos_for(ScenarioId::Bfs, 0), Some(ChaosMode::Panic));
        assert_eq!(chaos.chaos_for(ScenarioId::Bfs, 1), Some(ChaosMode::Panic));
        assert_eq!(chaos.chaos_for(ScenarioId::Bfs, 2), None);
        assert_eq!(
            chaos.chaos_for(ScenarioId::Hotspot, 0),
            Some(ChaosMode::Stall { at_cycle: 500 })
        );
        assert_eq!(chaos.chaos_for(ScenarioId::Hotspot, 1), None);
        assert_eq!(chaos.chaos_for(ScenarioId::Heartwall, 0), None);

        // Torn writes: seeded offset in 1..len, consumed exactly once.
        let off = chaos.torn_write("a.jsonl", 100).expect("scheduled tear");
        assert!((1..100).contains(&off));
        assert_eq!(chaos.torn_write("a.jsonl", 100), None, "tears only once");
        assert_eq!(chaos.torn_write("b.jsonl", 100), None, "unscheduled name");

        // Reinstalling the same plan resets the bookkeeping and reproduces
        // the same offset (it is a pure function of seed and name).
        let tear_a = || {
            Chaos::new(ChaosPlan {
                seed: 7,
                torn_writes: vec!["a.jsonl".to_string()],
                ..ChaosPlan::default()
            })
        };
        assert_eq!(tear_a().torn_write("a.jsonl", 100), Some(off));
        // Degenerate payloads cannot tear.
        assert_eq!(tear_a().torn_write("a.jsonl", 1), None);
    }
}
