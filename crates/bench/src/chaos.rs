//! Orchestration-layer chaos injection: the upward extension of the PR-1
//! `FaultPlan` idea from the *circuit* to the *scheduler*.
//!
//! A [`ChaosPlan`] is a seeded schedule of failures for the sweep's own
//! machinery — worker panics, watchdog deadline stalls, and torn artifact
//! writes — installed process-wide by tests so the crash-safety tier can
//! prove the sweep survives every mode and `--resume` converges to
//! bit-identical artifacts. Injection points:
//!
//! * [`chaos_for`] — consulted by the shard executor before each scenario
//!   attempt. `Panic` panics inside the isolation boundary; `Stall` runs the
//!   attempt under a deterministic [`vs_core::CycleBudget`] that trips at a
//!   chosen cycle, exercising the watchdog path without wall-clock waits
//!   (the 1-core-host rule).
//! * [`panics_trunk`] — consulted by dse before each attempt of a trunk
//!   task, keyed by the trunk as [`chaos_for`] is by scenario; a trunk
//!   scheduled with [`schedule_trunk_panic`] panics inside the isolation
//!   boundary.
//! * [`torn_write`] — consulted by the crash-safe write paths. A matching
//!   file is written *directly* (no tmp + rename), truncated at a seeded
//!   offset, and its journal record is suppressed — exactly the on-disk
//!   state a `SIGKILL` between write and journal append leaves behind. Each
//!   name tears at most once per installed plan, so a resumed sweep heals.
//!
//! Nothing here runs in production: without an installed plan every hook is
//! a `None` branch.

use std::collections::HashSet;
use std::sync::{Mutex, OnceLock};

use vs_core::ScenarioId;
use vs_telemetry::fnv1a_64;

/// What to inject into a scenario attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosMode {
    /// Panic inside the isolation boundary (exercises `catch_unwind` + pool
    /// rebuild).
    Panic,
    /// Trip the watchdog deterministically at this cycle (exercises the
    /// deadline/retry path without real stalls).
    Stall {
        /// Cycle at which the injected budget trips.
        at_cycle: u64,
    },
}

/// One scheduled failure: a scenario, a mode, and how many leading attempts
/// it poisons (`attempts >= max_attempts` forces quarantine).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosEvent {
    /// Which scenario's tasks to sabotage (every suite's instance of it).
    pub scenario: ScenarioId,
    /// What to inject.
    pub mode: ChaosMode,
    /// Inject on attempts `0..attempts`; later retries run clean.
    pub attempts: u32,
}

/// A seeded chaos schedule for one sweep.
#[derive(Debug, Clone, Default)]
pub struct ChaosPlan {
    /// Seed for torn-write offsets.
    pub seed: u64,
    /// Scenario-task failures.
    pub tasks: Vec<ChaosEvent>,
    /// File names (not paths) whose next write is torn.
    pub torn_writes: Vec<String>,
}

struct ChaosState {
    plan: ChaosPlan,
    /// Names already torn under this plan (each tears once).
    torn_done: HashSet<String>,
    /// dse trunk tasks that panic: the trunk's label and how many leading
    /// attempts (see [`schedule_trunk_panic`]).
    trunk_panics: Vec<(String, u32)>,
}

impl ChaosState {
    fn new(plan: ChaosPlan) -> ChaosState {
        ChaosState {
            plan,
            torn_done: HashSet::new(),
            trunk_panics: Vec::new(),
        }
    }
}

fn state() -> &'static Mutex<Option<ChaosState>> {
    static STATE: OnceLock<Mutex<Option<ChaosState>>> = OnceLock::new();
    STATE.get_or_init(|| Mutex::new(None))
}

/// Installs `plan` process-wide (replacing any previous plan and its
/// torn-write bookkeeping). Tests only; pair with [`clear_chaos_plan`].
pub fn install_chaos_plan(plan: ChaosPlan) {
    *state().lock().expect("chaos state poisoned") = Some(ChaosState::new(plan));
}

/// Removes the installed plan; every hook reverts to a no-op.
pub fn clear_chaos_plan() {
    *state().lock().expect("chaos state poisoned") = None;
}

/// The failure scheduled for `scenario` on `attempt`, if any.
pub fn chaos_for(scenario: ScenarioId, attempt: u32) -> Option<ChaosMode> {
    let guard = state().lock().expect("chaos state poisoned");
    let st = guard.as_ref()?;
    st.plan
        .tasks
        .iter()
        .find(|e| e.scenario == scenario && attempt < e.attempts)
        .map(|e| e.mode)
}

/// Schedules a panic on attempts `0..attempts` of the dse trunk task named
/// `trunk`, its coordinates in the point grammar
/// (`stack=4x4,area=0.2,workload=1`), on top of the installed plan (an
/// empty one if none is). Tests only; [`install_chaos_plan`] and
/// [`clear_chaos_plan`] drop it.
pub fn schedule_trunk_panic(trunk: &str, attempts: u32) {
    let mut guard = state().lock().expect("chaos state poisoned");
    guard
        .get_or_insert_with(|| ChaosState::new(ChaosPlan::default()))
        .trunk_panics
        .push((trunk.to_string(), attempts));
}

/// Whether the dse trunk task named `trunk` is scheduled to panic on
/// `attempt`.
pub fn panics_trunk(trunk: &str, attempt: u32) -> bool {
    let guard = state().lock().expect("chaos state poisoned");
    guard.as_ref().is_some_and(|st| {
        st.trunk_panics
            .iter()
            .any(|(name, attempts)| name == trunk && attempt < *attempts)
    })
}

/// If `name`'s write is scheduled to tear (and has not torn yet under this
/// plan), consumes the event and returns the seeded truncation offset in
/// `1..len` (`None` for empty payloads — nothing to tear).
pub fn torn_write(name: &str, len: usize) -> Option<usize> {
    if len < 2 {
        return None;
    }
    let mut guard = state().lock().expect("chaos state poisoned");
    let st = guard.as_mut()?;
    if !st.plan.torn_writes.iter().any(|n| n == name) || !st.torn_done.insert(name.to_string()) {
        return None;
    }
    let h = fnv1a_64(format!("torn:{}:{name}", st.plan.seed).as_bytes());
    Some(1 + (h as usize) % (len - 1))
}

#[cfg(test)]
mod tests {
    use super::*;

    // One #[test] per aspect would race on the process-global plan with the
    // rest of the suite; this module owns its assertions serially instead.
    #[test]
    fn plan_schedules_and_consumes_deterministically() {
        clear_chaos_plan();
        assert_eq!(chaos_for(ScenarioId::Bfs, 0), None);
        assert_eq!(torn_write("a.jsonl", 100), None);

        install_chaos_plan(ChaosPlan {
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
        });
        // Attempt gating: first N attempts poisoned, later ones clean.
        assert_eq!(chaos_for(ScenarioId::Bfs, 0), Some(ChaosMode::Panic));
        assert_eq!(chaos_for(ScenarioId::Bfs, 1), Some(ChaosMode::Panic));
        assert_eq!(chaos_for(ScenarioId::Bfs, 2), None);
        assert_eq!(
            chaos_for(ScenarioId::Hotspot, 0),
            Some(ChaosMode::Stall { at_cycle: 500 })
        );
        assert_eq!(chaos_for(ScenarioId::Hotspot, 1), None);
        assert_eq!(chaos_for(ScenarioId::Heartwall, 0), None);

        // Torn writes: seeded offset in 1..len, consumed exactly once.
        let off = torn_write("a.jsonl", 100).expect("scheduled tear");
        assert!((1..100).contains(&off));
        assert_eq!(torn_write("a.jsonl", 100), None, "tears only once");
        assert_eq!(torn_write("b.jsonl", 100), None, "unscheduled name");

        // Reinstalling the same plan resets the bookkeeping and reproduces
        // the same offset (it is a pure function of seed and name).
        install_chaos_plan(ChaosPlan {
            seed: 7,
            tasks: vec![],
            torn_writes: vec!["a.jsonl".to_string()],
        });
        assert_eq!(torn_write("a.jsonl", 100), Some(off));
        // Degenerate payloads cannot tear.
        install_chaos_plan(ChaosPlan {
            seed: 7,
            tasks: vec![],
            torn_writes: vec!["a.jsonl".to_string()],
        });
        assert_eq!(torn_write("a.jsonl", 1), None);
        clear_chaos_plan();
    }
}
