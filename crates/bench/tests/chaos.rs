//! Tier-1 chaos: the executor survives injected orchestration failures —
//! worker panics, stalls, torn cache writes — wherever its tasks
//! run them, and each executor keeps its chaos plan and its trace to
//! itself:
//!
//! * a fig14 sweep completes in degraded mode with a faithful quarantine
//!   manifest, and `--resume` converges back to artifacts byte-identical
//!   with an undisturbed run;
//! * a group task whose shared attempt fails retries each member alone;
//! * dse trunk tasks that panic retry, and the frontier holds;
//! * two executors side by side, one traced and sabotaged, one neither,
//!   see only their own plan and record only their own trace.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

use vs_bench::chaos::{ChaosEvent, ChaosMode, ChaosPlan};
use vs_bench::dse::{run_dse, DseOptions};
use vs_bench::journal::{load_resume, JOURNAL_FILE};
use vs_bench::shard::{Preload, MAX_ATTEMPTS};
use vs_bench::sweep::{run_sweep, SweepOptions, SweepResult};
use vs_bench::{Executor, ExperimentId, RunSettings};
use vs_core::{CosimReport, PdsKind, PowerManagement, ScenarioId};
use vs_telemetry::{json, read_journal, DegradedEntry, JournalRecord, RunArtifact};

/// Small enough for debug-mode CI: fig14 runs 2 suites x 12 scenarios.
fn micro() -> RunSettings {
    RunSettings {
        workload_scale: 0.02,
        max_cycles: 30_000,
        seed: 42,
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
    let exec = Executor::default();
    let fresh = run_sweep(
        &exec,
        &SweepOptions {
            jobs: 1,
            only: Some(vec![ExperimentId::Fig14]),
            settings: micro(),
        },
    );
    assert!(!fresh.is_degraded());
    fresh.write_deterministic_to(&exec, &fresh_dir).unwrap();
    let fresh_artifact = std::fs::read(fresh_dir.join("fig14.jsonl")).unwrap();

    // Phase 2 — the same sweep under chaos, two workers, journaled:
    //  * bfs panics once, then succeeds on retry;
    //  * hotspot stalls once (its cycle budget trips), then succeeds;
    //  * heartwall stalls, then panics through every remaining attempt —
    //    retry exhaustion, quarantined in both suites;
    //  * the bfs scenario-cache write tears mid-byte (simulated SIGKILL
    //    between cache write and journal append).
    let plan = ChaosPlan {
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
            ChaosEvent {
                scenario: ScenarioId::Heartwall,
                mode: ChaosMode::Panic,
                attempts: MAX_ATTEMPTS,
            },
        ],
        torn_writes: vec!["bfs.json".to_string()],
        trunk_panics: vec![],
    };
    let exec = Executor::new(Some(chaos_dir.clone()), HashMap::new()).with_chaos(plan);
    let chaotic = run_sweep(
        &exec,
        &SweepOptions {
            jobs: 2,
            only: Some(vec![ExperimentId::Fig14]),
            settings: micro(),
        },
    );

    // The sweep completed degraded instead of dying: heartwall exhausted
    // its MAX_ATTEMPTS (3) attempts in both fig14 suites (baseline +
    // cross-layer).
    assert!(chaotic.is_degraded());
    assert_eq!(chaotic.quarantined.len(), 2, "{:?}", chaotic.quarantined);
    for q in &chaotic.quarantined {
        assert_eq!(q.scenario, ScenarioId::Heartwall);
        assert_eq!(q.attempts, MAX_ATTEMPTS);
        assert_eq!(q.errors.len(), MAX_ATTEMPTS as usize, "{:?}", q.errors);
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
    chaotic.write_deterministic_to(&exec, &chaos_dir).unwrap();
    let degraded = degraded_lines(&chaos_dir);
    assert_eq!(degraded.len(), 2);
    let quarantined_suites: Vec<String> =
        chaotic.quarantined.iter().map(|q| q.suite.to_hex()).collect();
    for (entry, q) in degraded.iter().zip(&chaotic.quarantined) {
        assert_eq!(entry.scenario, "heartwall");
        assert_eq!(entry.attempts, u64::from(MAX_ATTEMPTS));
        assert!(quarantined_suites.contains(&entry.suite));
        assert_eq!(entry.errors, q.errors);
    }
    // The degraded artifact is whole: it parses, and it differs from the
    // undisturbed one, since heartwall is missing from both suites.
    let degraded_artifact = std::fs::read_to_string(chaos_dir.join("fig14.jsonl")).unwrap();
    assert!(
        RunArtifact::parse_jsonl(&degraded_artifact).is_ok(),
        "degraded fig14.jsonl parses"
    );
    assert_ne!(
        degraded_artifact.as_bytes(),
        fresh_artifact,
        "degraded fig14.jsonl differs"
    );

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
    let exec = Executor::new(Some(chaos_dir.clone()), state.preloaded);
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
    resumed.write_deterministic_to(&exec, &chaos_dir).unwrap();
    let healed_artifact = std::fs::read(chaos_dir.join("fig14.jsonl")).unwrap();
    assert_eq!(
        healed_artifact, fresh_artifact,
        "resumed fig14.jsonl must match the undisturbed run bit-for-bit"
    );
    assert!(degraded_lines(&chaos_dir).is_empty(), "healed manifest carries no degraded lines");

    let _ = std::fs::remove_dir_all(&fresh_dir);
    let _ = std::fs::remove_dir_all(&chaos_dir);
}

/// fig12 runs the conventional baseline and five threshold suites in one
/// batch, so each scenario is one six-member group on one GPU trunk. When
/// bfs's group attempt panics and hotspot's trips every member's budget,
/// each member counts that as its attempt 0 and retries alone; the sweep
/// completes undegraded with artifacts byte-identical to an undisturbed
/// run.
#[test]
fn a_failed_group_attempt_retries_each_member_alone() {
    const SUITES: u64 = 6;
    const GROUPS: u64 = 12;

    let exec = Executor::default();
    let fresh = fig12(&exec);
    assert!(!fresh.is_degraded());
    let stats = exec.stats();
    assert_eq!(stats.groups, GROUPS, "one group per scenario: {stats:?}");
    assert_eq!(stats.scenario_tasks, SUITES * GROUPS, "{stats:?}");
    assert_eq!(stats.retries, 0, "{stats:?}");
    let fresh_artifact = fig12_artifact(&exec, &fresh, "fresh");

    let exec = Executor::default().with_chaos(ChaosPlan {
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
        trunk_panics: vec![],
    });
    let chaotic = fig12(&exec);

    assert!(!chaotic.is_degraded(), "{:?}", chaotic.quarantined);
    assert!(chaotic.quarantined.is_empty());
    let stats = exec.stats();
    // bfs's panic and hotspot's stall each fail the shared attempt of
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
        fig12_artifact(&exec, &chaotic, "chaotic"),
        fresh_artifact,
        "the retried fig12.jsonl must match the undisturbed run bit-for-bit"
    );
}

/// A fig12 sweep on `exec`, one worker: 6 suites x 12 scenarios.
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

/// `result`'s deterministic fig12.jsonl bytes, written through `exec`.
fn fig12_artifact(exec: &Executor, result: &SweepResult, tag: &str) -> Vec<u8> {
    let dir = tmp(&format!("groups-{tag}"));
    result.write_deterministic_to(exec, &dir).unwrap();
    let bytes = std::fs::read(dir.join("fig12.jsonl")).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    bytes
}

/// One dse trunk task panics on its first attempt and another on its
/// first two; the executor's attempt loop retries both with seeded
/// backoff, every point is journaled exactly once, and the frontier comes
/// out byte-identical to an undisturbed run's. A trunk that panics on
/// every attempt panics `run_dse`, which the `dse` binary's panic hook
/// turns into exit 3.
#[test]
fn panicking_trunks_retry_and_the_frontier_holds() {
    // 4 areas x 2 latencies x 2 families = 16 points on 4 trunks, one per
    // area, at settings small enough for debug-mode CI.
    let opts = DseOptions {
        jobs: 2,
        settings: RunSettings {
            workload_scale: 0.02,
            max_cycles: 20_000,
            seed: 42,
        },
        space: "area=0.1|0.2|0.4|1.72,latency=30|120,pds=cross|circuit"
            .parse()
            .expect("grid spec"),
        ..DseOptions::default()
    };
    let reference = run_dse(&Executor::default(), &opts);
    assert_eq!((reference.evaluated, reference.trunks), (16, 4));

    let dir = tmp("dse");
    let trunk_panics = |panics: &[(&str, u32)]| ChaosPlan {
        trunk_panics: panics
            .iter()
            .map(|&(trunk, n)| (trunk.to_string(), n))
            .collect(),
        ..ChaosPlan::default()
    };
    let exec = Executor::new(Some(dir.clone()), Preload::new())
        .with_chaos(trunk_panics(&[
            ("stack=4x4,area=0.1,workload=1", 1),
            ("stack=4x4,area=0.4,workload=1", 2),
        ]));
    let run = run_dse(&exec, &opts);
    assert_eq!(exec.stats().retries, 1 + 2, "each panicked attempt retried");
    assert_eq!(
        run.artifact(true).to_jsonl(),
        reference.artifact(true).to_jsonl()
    );

    let text = std::fs::read_to_string(dir.join(JOURNAL_FILE)).expect("journal written");
    let (records, skipped) = read_journal(&text);
    assert_eq!(skipped, 0);
    let mut journaled: HashMap<String, usize> = HashMap::new();
    for record in records {
        if let JournalRecord::PointDone { key, .. } = record {
            *journaled.entry(key).or_default() += 1;
        }
    }
    assert_eq!(journaled.len(), 16, "every point journaled");
    assert!(journaled.values().all(|&n| n == 1), "{journaled:?}");
    let _ = std::fs::remove_dir_all(&dir);

    // A trunk that panics on every attempt takes the run down.
    let exec = Executor::default()
        .with_chaos(trunk_panics(&[("stack=4x4,area=0.2,workload=1", MAX_ATTEMPTS)]));
    let exhausted = catch_unwind(AssertUnwindSafe(|| run_dse(&exec, &opts)));
    assert!(exhausted.is_err(), "exhausted retries panic run_dse");
}

/// Two executors run the same suite at the same time in one process: one
/// traced, with a plan that panics bfs once; the other untraced, with no
/// plan. Only the first one's trace holds the retry, the second one
/// records nothing and retries nothing, and both suites' reports are
/// bit-identical.
#[test]
fn two_executors_keep_their_own_plan_and_trace() {
    let settings = RunSettings {
        workload_scale: 0.02,
        max_cycles: 8_000,
        seed: 42,
    };
    let cfg = settings.config(PdsKind::VsCrossLayer { area_mult: 0.2 });
    let pm = PowerManagement::default();
    let traced = Executor::default().with_chaos(ChaosPlan {
        tasks: vec![ChaosEvent {
            scenario: ScenarioId::Bfs,
            mode: ChaosMode::Panic,
            attempts: 1,
        }],
        ..ChaosPlan::default()
    });
    traced.tracer().set_enabled(true);
    let plain = Executor::default();
    let (a, b) = std::thread::scope(|s| {
        let a = s.spawn(|| traced.run_suite(&cfg, &pm));
        let b = s.spawn(|| plain.run_suite(&cfg, &pm));
        (
            a.join().expect("traced suite"),
            b.join().expect("plain suite"),
        )
    });

    let events = traced.tracer().drain();
    let count = |name: &str| events.iter().filter(|e| e.name == name).count();
    assert!(
        count("attempt") > 0,
        "the traced executor records its attempts"
    );
    assert!(
        count("backoff") > 0,
        "the traced executor records bfs's retry"
    );
    assert!(
        plain.tracer().drain().is_empty(),
        "the untraced executor records nothing"
    );
    assert_eq!(
        plain.stats().retries,
        0,
        "the other executor's plan stays its own"
    );
    let bits = |reports: &[CosimReport]| -> Vec<String> {
        reports
            .iter()
            .map(|r| r.to_persist_json().to_string_compact())
            .collect()
    };
    assert_eq!(bits(&a), bits(&b), "both suites bit-identical");
}
