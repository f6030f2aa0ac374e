//! Tier-1: the sweep survives injected orchestration failures — worker
//! panics, watchdog stalls, torn writes — completes in degraded mode with a
//! faithful quarantine manifest, and `--resume` converges back to artifacts
//! byte-identical with an undisturbed run.
//!
//! One `#[test]` on purpose: the chaos plan is process-wide, and the
//! harness runs `#[test]` functions of one binary concurrently — splitting
//! the phases up would race it.

use std::collections::HashMap;
use std::path::{Path, PathBuf};

use vs_bench::chaos::{clear_chaos_plan, install_chaos_plan, ChaosEvent, ChaosMode, ChaosPlan};
use vs_bench::journal::load_resume;
use vs_bench::shard::ExecutorConfig;
use vs_bench::sweep::{run_sweep, SweepOptions};
use vs_bench::{Executor, ExperimentId, RunSettings};
use vs_core::ScenarioId;
use vs_telemetry::{json, DegradedEntry};

/// Small enough for debug-mode CI: fig14 runs 2 suites x 12 scenarios.
fn micro() -> RunSettings {
    RunSettings {
        workload_scale: 0.02,
        max_cycles: 30_000,
        seed: 42,
    }
}

fn fast_retries() -> ExecutorConfig {
    ExecutorConfig {
        max_attempts: 3,
        backoff_base_ms: 1,
        backoff_cap_ms: 4,
        ..ExecutorConfig::default()
    }
}

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vs-bench-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Manifest `degraded` lines, parsed.
fn degraded_lines(dir: &Path) -> Vec<DegradedEntry> {
    let text = std::fs::read_to_string(dir.join("manifest.jsonl")).expect("manifest");
    text.lines()
        .filter_map(|l| json::parse(l).ok())
        .filter_map(|v| DegradedEntry::from_json(&v))
        .collect()
}

#[test]
fn chaos_sweep_degrades_gracefully_and_resume_converges() {
    let fresh_dir = tmp("fresh");
    let chaos_dir = tmp("chaos");

    // Phase 1 — undisturbed reference: one worker, no chaos, no journal.
    clear_chaos_plan();
    let fresh = run_sweep(
        &Executor::default(),
        &SweepOptions {
            jobs: 1,
            only: Some(vec![ExperimentId::Fig14]),
            settings: micro(),
        },
    );
    assert!(!fresh.is_degraded());
    fresh.write_deterministic_to(&fresh_dir).unwrap();
    let fresh_artifact = std::fs::read(fresh_dir.join("fig14.jsonl")).unwrap();

    // Phase 2 — the same sweep under chaos, two workers, journaled:
    //  * bfs panics once, then succeeds on retry;
    //  * hotspot trips the watchdog deadline once, then succeeds;
    //  * heartwall trips the deadline, then panics through every remaining
    //    attempt — retry exhaustion, quarantined in both suites;
    //  * the bfs scenario-cache write and the fig14 artifact tear mid-byte
    //    (simulated SIGKILL between artifact write and journal append).
    install_chaos_plan(ChaosPlan {
        seed: 7,
        tasks: vec![
            ChaosEvent { scenario: ScenarioId::Bfs, mode: ChaosMode::Panic, attempts: 1 },
            ChaosEvent {
                scenario: ScenarioId::Hotspot,
                mode: ChaosMode::Stall { at_cycle: 1_000 },
                attempts: 1,
            },
            ChaosEvent {
                scenario: ScenarioId::Heartwall,
                mode: ChaosMode::Stall { at_cycle: 1_000 },
                attempts: 1,
            },
            ChaosEvent { scenario: ScenarioId::Heartwall, mode: ChaosMode::Panic, attempts: 3 },
        ],
        torn_writes: vec!["bfs.json".to_string(), "fig14.jsonl".to_string()],
    });
    let exec = Executor::new(fast_retries(), Some(chaos_dir.clone()), HashMap::new());
    let chaotic = run_sweep(
        &exec,
        &SweepOptions {
            jobs: 2,
            only: Some(vec![ExperimentId::Fig14]),
            settings: micro(),
        },
    );
    clear_chaos_plan();

    // The sweep completed degraded instead of dying: heartwall exhausted
    // its 3 attempts in both fig14 suites (baseline + cross-layer).
    assert!(chaotic.is_degraded());
    assert_eq!(chaotic.quarantined.len(), 2, "{:?}", chaotic.quarantined);
    for q in &chaotic.quarantined {
        assert_eq!(q.scenario, ScenarioId::Heartwall);
        assert_eq!(q.attempts, 3);
        assert_eq!(q.errors.len(), 3, "{:?}", q.errors);
        assert!(q.errors[0].contains("deadline exceeded at cycle 1000"), "{:?}", q.errors);
        assert!(q.errors[1].contains("panic"), "{:?}", q.errors);
        assert!(q.errors[2].contains("panic"), "{:?}", q.errors);
    }
    let stats = exec.stats();
    // Retry attempts: bfs 1/suite + hotspot 1/suite + heartwall 2/suite.
    assert_eq!(stats.retries, 8, "{stats:?}");
    assert_eq!(stats.replayed, 0, "{stats:?}");

    // The degraded run's manifest names every quarantined (suite, scenario)
    // with its full error chain.
    chaotic.write_deterministic_to(&chaos_dir).unwrap();
    let degraded = degraded_lines(&chaos_dir);
    assert_eq!(degraded.len(), 2);
    let quarantined_suites: Vec<String> =
        chaotic.quarantined.iter().map(|q| q.suite.to_hex()).collect();
    for (entry, q) in degraded.iter().zip(&chaotic.quarantined) {
        assert_eq!(entry.scenario, "heartwall");
        assert_eq!(entry.attempts, 3);
        assert!(quarantined_suites.contains(&entry.suite));
        assert_eq!(entry.errors, q.errors);
    }
    // The torn artifact landed truncated under its final name.
    let torn_artifact = std::fs::read(chaos_dir.join("fig14.jsonl")).unwrap();
    assert_ne!(torn_artifact, fresh_artifact, "fig14.jsonl should be torn");
    assert!(torn_artifact.len() < fresh_artifact.len());

    // Phase 3 — post-crash damage: truncate one *journaled* scenario cache,
    // so resume must detect the checksum mismatch and recompute it.
    let state = load_resume(&chaos_dir).unwrap();
    // 24 tasks - 2 quarantined (never journaled) - 1 torn cache (journal
    // append suppressed by the tear) = 21 verified records.
    assert_eq!(state.verified_scenarios, 21, "{state:?}");
    assert_eq!(state.damaged, 0, "{state:?}");
    let truncate_target = {
        let mut caches: Vec<PathBuf> = std::fs::read_dir(chaos_dir.join("scenarios"))
            .unwrap()
            .flat_map(|suite| std::fs::read_dir(suite.unwrap().path()).unwrap())
            .map(|f| f.unwrap().path())
            .filter(|p| p.file_name().is_some_and(|n| n == "pathfinder.json"))
            .collect();
        caches.sort();
        caches.into_iter().next().expect("a journaled pathfinder.json cache")
    };
    let bytes = std::fs::read(&truncate_target).unwrap();
    std::fs::write(&truncate_target, &bytes[..bytes.len() / 2]).unwrap();

    // Phase 4 — resume: replay the journal, recompute only the damage.
    let state = load_resume(&chaos_dir).unwrap();
    assert_eq!(state.verified_scenarios, 20, "{state:?}");
    assert_eq!(state.damaged, 1, "{state:?}");
    let exec = Executor::new(fast_retries(), Some(chaos_dir.clone()), state.preloaded);
    let resumed = run_sweep(
        &exec,
        &SweepOptions {
            jobs: 2,
            only: Some(vec![ExperimentId::Fig14]),
            settings: micro(),
        },
    );
    assert!(!resumed.is_degraded(), "{:?}", resumed.quarantined);
    let stats = exec.stats();
    assert_eq!(stats.replayed, 20, "{stats:?}");
    // Exactly the damage recomputed: 1 torn bfs cache + 1 truncated
    // pathfinder cache + heartwall in both suites.
    assert_eq!(stats.scenario_tasks, 4, "{stats:?}");
    assert_eq!(stats.retries, 0, "{stats:?}");

    // The healed tree is byte-identical with the undisturbed jobs=1 run —
    // same artifact bytes, whatever was injected, torn, or replayed.
    resumed.write_deterministic_to(&chaos_dir).unwrap();
    let healed_artifact = std::fs::read(chaos_dir.join("fig14.jsonl")).unwrap();
    assert_eq!(
        healed_artifact, fresh_artifact,
        "resumed fig14.jsonl must match the undisturbed run bit-for-bit"
    );
    assert!(degraded_lines(&chaos_dir).is_empty(), "healed manifest carries no degraded lines");

    let _ = std::fs::remove_dir_all(&fresh_dir);
    let _ = std::fs::remove_dir_all(&chaos_dir);
}
