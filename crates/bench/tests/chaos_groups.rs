//! Tier-1: a group task whose shared attempt fails retries each member
//! alone. fig12 batches the conventional baseline and five threshold
//! suites, so each scenario is one six-member group on one GPU trunk. When
//! bfs's group attempt panics and hotspot's trips every member's watchdog,
//! each member counts that as its attempt 0 and retries alone; the sweep
//! completes undegraded with artifacts byte-identical to an undisturbed
//! run.
//!
//! A binary of its own on purpose: the chaos plan is process-wide, and
//! `chaos.rs` holds the other test that installs one.

use std::collections::HashMap;
use std::path::PathBuf;

use vs_bench::chaos::{clear_chaos_plan, install_chaos_plan, ChaosEvent, ChaosMode, ChaosPlan};
use vs_bench::shard::ExecutorConfig;
use vs_bench::sweep::{run_sweep, SweepOptions, SweepResult};
use vs_bench::{Executor, ExperimentId, RunSettings};
use vs_core::ScenarioId;

/// Small enough for debug-mode CI: fig12 runs 6 suites x 12 scenarios.
fn micro() -> RunSettings {
    RunSettings {
        workload_scale: 0.02,
        max_cycles: 30_000,
        seed: 42,
    }
}

fn fig12(exec: &Executor) -> SweepResult {
    run_sweep(
        exec,
        &SweepOptions {
            jobs: 1,
            only: Some(vec![ExperimentId::Fig12]),
            settings: micro(),
        },
    )
}

fn artifact(result: &SweepResult, tag: &str) -> Vec<u8> {
    let dir: PathBuf = std::env::temp_dir().join(format!(
        "vs-bench-chaos-groups-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    result.write_deterministic_to(&dir).unwrap();
    let bytes = std::fs::read(dir.join("fig12.jsonl")).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    bytes
}

#[test]
fn a_failed_group_attempt_retries_each_member_alone() {
    const SUITES: u64 = 6;
    const GROUPS: u64 = 12;

    clear_chaos_plan();
    let exec = Executor::default();
    let fresh = fig12(&exec);
    assert!(!fresh.is_degraded());
    let stats = exec.stats();
    assert_eq!(stats.groups, GROUPS, "one group per scenario: {stats:?}");
    assert_eq!(stats.scenario_tasks, SUITES * GROUPS, "{stats:?}");
    assert_eq!(stats.retries, 0, "{stats:?}");
    let fresh_artifact = artifact(&fresh, "fresh");

    install_chaos_plan(ChaosPlan {
        seed: 3,
        tasks: vec![
            ChaosEvent {
                scenario: ScenarioId::Bfs,
                mode: ChaosMode::Panic,
                attempts: 1,
            },
            ChaosEvent {
                scenario: ScenarioId::Hotspot,
                mode: ChaosMode::Stall { at_cycle: 1_000 },
                attempts: 1,
            },
        ],
        torn_writes: vec![],
    });
    let exec = Executor::new(
        ExecutorConfig {
            max_attempts: 3,
            backoff_base_ms: 1,
            backoff_cap_ms: 4,
            ..ExecutorConfig::default()
        },
        None,
        HashMap::new(),
    );
    let chaotic = fig12(&exec);
    clear_chaos_plan();

    assert!(!chaotic.is_degraded(), "{:?}", chaotic.quarantined);
    assert!(chaotic.quarantined.is_empty());
    let stats = exec.stats();
    // bfs's panic and hotspot's watchdog each fail the shared attempt of
    // all six members, and each member retries once, alone.
    assert_eq!(stats.retries, 2 * SUITES, "{stats:?}");
    assert_eq!(
        stats.groups, GROUPS,
        "retries run alone, not as groups: {stats:?}"
    );
    // Member runs the worker pools served: every member once in its group
    // attempt, except bfs's six, whose group panicked, plus the 12 retries.
    assert_eq!(
        stats.scenario_tasks,
        SUITES * GROUPS - SUITES + 2 * SUITES,
        "{stats:?}"
    );
    assert_eq!(
        artifact(&chaotic, "chaotic"),
        fresh_artifact,
        "the retried fig12.jsonl must match the undisturbed run bit-for-bit"
    );
}
